"""Bit-sliced simulation, behavioral oracles and the verification harness.

Simulation is restricted to classical basis states: every supported gate
permutes them, so bit-level execution is exact. It is also bit-sliced (Biham,
FSE 1997): each line holds one int whose bit k is that line's value in lane
k, so a Toffoli is `t ^= c1 & c2` on whole ints and one pass over the gates
simulates every lane at once. `run` is the only gate kernel, and both
verifiers share one sweep, `_sweep`, which packs up to LANES cases into each
`run` call; each verifier adds only its size limit, its cases, and each
case's entry state, wanted exit state and counterexample.
"""

import itertools
import random
from dataclasses import dataclass, field

from .circuit import Circuit, RegisterLayout
from .gates import FREDKIN, SWAP, TOFFOLI
from .synth import build_controlled_ror, build_multiplier, build_ror, multiplier_layout

MAX_COUNTEREXAMPLES = 16
LANES = 4096  # cases per `run` call in a verification sweep
EXHAUSTIVE_ROTATE_LIMIT = 20  # 2^20 states; beyond that use randomized mode


def run(circuit: Circuit, state: list[int], trace: bool = False):
    """Apply the circuit's gates in order to a lane-packed state.

    state[line] is an int whose bit k is that line's value in lane k, so one
    call carries as many independent basis states as the ints have bits. A
    list of 0/1 values is the one-lane case: one basis state in, one out.
    Returns the final state, or (final state, snapshots) with one snapshot of
    the state at each stage boundary when trace is set.
    """
    if len(state) != circuit.width:
        raise ValueError(f"state has {len(state)} bits, circuit width is {circuit.width}")
    v = list(state)
    snapshots = []
    for stage in circuit.stages() if trace else (circuit.gates,):
        for gate in stage:
            kind = gate.kind
            ln = gate.lines
            if kind == TOFFOLI:
                v[ln[2]] ^= v[ln[0]] & v[ln[1]]
            elif kind == FREDKIN:
                c, a, b = ln
                d = (v[a] ^ v[b]) & v[c]
                v[a] ^= d
                v[b] ^= d
            elif kind == SWAP:
                a, b = ln
                v[a], v[b] = v[b], v[a]
            else:  # CNOT
                v[ln[1]] ^= v[ln[0]]
        if trace:
            snapshots.append(list(v))
    return (v, snapshots) if trace else v


def pack_state(layout: RegisterLayout, values: dict[str, int]) -> list[int]:
    """Entry state from per-register integers.

    Every data register must be assigned. Ancilla registers default to their
    declared constant but may be overridden, e.g. to drive a block in
    isolation with a non-trivial window.
    """
    unknown = set(values) - {r.name for r in layout.registers}
    if unknown:
        raise ValueError(f"no register named {sorted(unknown)[0]!r}")
    bits = [0] * layout.width
    for reg in layout.registers:
        if reg.name in values:
            value = values[reg.name]
            if not 0 <= value < (1 << reg.size):
                raise ValueError(
                    f"value {value} does not fit register {reg.name} ({reg.size} bits)"
                )
        elif reg.is_ancilla:
            value = -reg.const & ((1 << reg.size) - 1)  # constant replicated per line
        else:
            raise ValueError(f"missing value for data register {reg.name}")
        for bit in range(reg.size):
            bits[reg.start + bit] = (value >> bit) & 1
    return bits


def register_value(layout: RegisterLayout, state: list[int], name: str) -> int:
    """Integer held by a named register in a basis state (bit 0 = LSB)."""
    reg = layout[name]
    return sum(state[reg.start + bit] << bit for bit in range(reg.size))


def oracle_rotate_right(bits: list[int]) -> list[int]:
    """Rotate a bit list right by one place: entry p moves to p-1, entry 0
    wraps to the top."""
    return list(bits[1:]) + list(bits[:1])


def _window_add(p: int, b: int, n: int) -> int:
    # Add b into the (n+1)-bit slice of p starting at bit n-1. The schedule
    # keeps the slice's top bit 0 on entry, so the sum cannot overflow it.
    low = p & ((1 << (n - 1)) - 1)
    window = (p >> (n - 1)) + b
    assert window < (1 << (n + 1)), "window overflow: carry slot was not clear"
    return (window << (n - 1)) | low


def oracle_multiply(n: int, a: int, b: int) -> int:
    """Register-level add-and-rotate product of two n-bit integers.

    This is the behavioral model the gate-level multiplier is checked
    against; it must agree with native integer multiplication everywhere.
    """
    if n < 1:
        raise ValueError(f"operand width must be >= 1, got {n}")
    if not 0 <= a < (1 << n):
        raise ValueError(f"operand a={a} out of range for {n} bits")
    if not 0 <= b < (1 << n):
        raise ValueError(f"operand b={b} out of range for {n} bits")
    p = 0
    for i in range(n - 1):
        if (a >> i) & 1:
            p = _window_add(p, b, n)
        p = (p >> 1) | ((p & 1) << (2 * n - 1))
    if (a >> (n - 1)) & 1:
        p = _window_add(p, b, n)
    return p


@dataclass
class VerifyReport:
    """Outcome of a verification sweep.

    garbage_outputs is 0 once the sweep passes: every non-result line came
    back holding its entry value on every tested input, so no output had to be
    discarded. It stays None on failure.
    """

    ok: bool
    checked: int
    mode: str  # "exhaustive" or "random"
    seed: int | None = None
    counterexamples: list = field(default_factory=list)
    garbage_outputs: int | None = None


def _transpose(rows: list[int], bits: int) -> list[int]:
    """Transpose a bit matrix: `bits` ints out, bit k of out[j] = bit j of rows[k].

    Turns whole-state ints (one per lane) into a lane-packed state (one int per
    line) and back. The bits move through strings at C speed: one binary row
    per input int, one stride slice per output int.
    """
    spec = f"0{bits}b"
    text = "".join([format(row, spec) for row in reversed(rows)])
    return [int(text[bits - 1 - j :: bits], 2) for j in range(bits)]


def _sweep(mode, count, seed, too_big, build, every, draw, entry, want, explain) -> VerifyReport:
    """Check the arguments, `build()` the circuit, then sweep the cases of
    `every()`, or of `draw(rng)` for `count` seeded draws.

    Cases run LANES at a time through one `run` call: `entry(case)` is the
    whole entry state as an int (bit i = line i), `want(case)` the exit state
    it must reach. A case that ends anywhere else fails, and
    `explain(case, out_bits)` turns it into a counterexample; the first 16 in
    sweep order are kept.
    """
    if mode == "exhaustive":
        if too_big:
            raise ValueError(too_big)
        report = VerifyReport(ok=False, checked=0, mode=mode)
    elif mode == "random":
        if count < 1:
            raise ValueError(f"random mode needs a positive count, got {count}")
        report = VerifyReport(ok=False, checked=0, mode=mode, seed=seed)
    else:
        raise ValueError(f"unknown verification mode {mode!r}")
    circuit = build()
    if mode == "exhaustive":
        cases = iter(every())
    else:
        rng = random.Random(seed)
        cases = (case for _ in range(count) for case in draw(rng))
    width = circuit.width
    counterexamples = report.counterexamples
    while batch := list(itertools.islice(cases, LANES)):
        out = run(circuit, _transpose([entry(case) for case in batch], width))
        for case, got in zip(batch, _transpose(out, len(batch))):
            if got != want(case) and len(counterexamples) < MAX_COUNTEREXAMPLES:
                counterexamples.append(explain(case, [(got >> i) & 1 for i in range(width)]))
        report.checked += len(batch)
    report.ok = not counterexamples
    report.garbage_outputs = 0 if report.ok else None
    return report


def verify_multiplier(
    n: int,
    mode: str = "exhaustive",
    count: int = 1000,
    seed: int = 0,
    circuit: Circuit | None = None,
) -> VerifyReport:
    """Check the gate-level multiplier against products and restoration.

    For each operand pair: load A, B with the operands and P, Zcin with 0,
    run the circuit and require P = A*B with A, B and Zcin unchanged. The
    behavioral oracle is cross-checked on the same pairs. Exhaustive mode
    sweeps all 2^(2n) pairs and is limited to n <= 6; random mode draws
    `count` seeded pairs. Pass `circuit` to point the harness at a
    replacement netlist (for example a deliberately damaged one) over the
    n-bit multiplier's layout.
    """
    if circuit is not None and circuit.layout != multiplier_layout(n):
        raise ValueError(f"circuit layout {circuit.layout!r} is not the n={n} multiplier's")

    def want(pair):
        a, b = pair
        if oracle_multiply(n, a, b) != a * b:
            return None  # matches no exit state, so the pair fails
        return a | b << n | a * b << 2 * n  # lines A, B, P, then Zcin = 0

    def explain(pair, out):
        a, b = pair
        layout = multiplier_layout(n)
        got = {name: register_value(layout, out, name) for name in ("P", "A", "B", "Zcin")}
        expected = {"P": a * b, "A": a, "B": b, "Zcin": 0}
        return {"a": a, "b": b, "expected": expected, "got": got}

    return _sweep(
        mode,
        count,
        seed,
        "exhaustive verification is limited to n <= 6" if n > 6 else None,
        lambda: build_multiplier(n) if circuit is None else circuit,
        lambda: itertools.product(range(1 << n), repeat=2),
        lambda rng: [(rng.randrange(1 << n), rng.randrange(1 << n))],
        lambda pair: pair[0] | pair[1] << n,
        want,
        explain,
    )


def verify_rotate(
    width: int,
    mode: str = "exhaustive",
    count: int = 1000,
    seed: int = 0,
    controlled: bool = False,
) -> VerifyReport:
    """Check a rotate circuit against the rotate-right-by-one oracle.

    The plain network must equal the oracle on every tested state; the
    controlled variant must equal it when the control is 1 and the identity
    when it is 0, with the control line itself preserved.
    """
    controls = (0, 1) if controlled else (None,)

    def entry(case):
        value, control = case
        return value if control is None else value | control << width

    def want(case):
        value, control = case
        if control != 0:
            value = value >> 1 | (value & 1) << (width - 1)
        return entry((value, control))

    def explain(case, out):
        value, control = case
        window = [(value >> i) & 1 for i in range(width)]
        tail = [] if control is None else [control]
        expected = (window if control == 0 else oracle_rotate_right(window)) + tail
        return {"input": value, "control": control, "expected": expected, "got": out}

    def draw(rng):
        value = rng.getrandbits(width)
        return [(value, control) for control in controls]

    limit = EXHAUSTIVE_ROTATE_LIMIT
    return _sweep(
        mode,
        count,
        seed,
        f"exhaustive rotate verification is limited to width <= {limit}" if width > limit else None,
        lambda: build_controlled_ror(width) if controlled else build_ror(width),
        lambda: itertools.product(range(1 << width), controls),
        draw,
        entry,
        want,
        explain,
    )
