"""Bit-sliced simulation, behavioral oracles and the verification harness.

Simulation is restricted to classical basis states: every supported gate
permutes them, so bit-level execution is exact. It is also bit-sliced (Biham,
FSE 1997): each line holds one int whose bit k is that line's value in lane
k, so a Toffoli is `t ^= c1 & c2` on whole ints and one pass over the gates
simulates every lane at once. `run` is the only gate kernel. Given a
`trace` callable, it hands that callable the live state at each stage
boundary without copying it, so a traced run's memory is O(width) however
many stages it has; a caller that keeps a stage's state must copy it.
One codec converts register values, in one pass per register: `pack_state`
encodes with `_value_bits` and `register_value` decodes with `_bits_value`.

Both verifiers share one sweep, `_sweep`, which packs each batch of cases
into one `run` call: a batch gets the largest power of two of lanes whose
lane ints, one per line, fit in BATCH_BITS bits; the registers of each
verifier's `drive`, read off the circuit's layout, alone say which bit of a
case's index each line carries. The references are bit-sliced too: each
verifier computes the wanted exit state of a whole batch on the same lane
ints (for the multiplier, a schoolbook product, which reads no schedule,
cross-checked against `_lane_add_and_rotate`, which runs the
`synth._schedule` the builder stamps, reading every line from the steps,
and whose one-lane case is `oracle_multiply`), so a sweep does no Python
work per case, and an exhaustive sweep does not even build its cases one by
one. Nor does a seeded multiplier sweep at n <= 31 on CPython:
`_word_pair_batches` reads its pairs from the generator's 32-bit words in
bulk, the pairs `randrange` would draw. `_lane_add_and_rotate` is exact: from
any entry with Zcin 0 (any A, B and P) it gives the circuit's exit state.
`verify_multiplier` builds through `synth._shared_multiplier`, equal to
`build_multiplier(n)`, whose stamped blocks construct only the gates that
hold their multiplier qubit and reuse the template's Gates for the rest.
"""

import itertools
import operator
import random
import sys
from array import array
from dataclasses import dataclass, field
from functools import reduce

from .circuit import _MAX_SHOWN_CHARS, Circuit, RegisterLayout, _shown
from .gates import FREDKIN, SWAP, TOFFOLI
from .synth import (ADDNOP, _schedule, _shared_multiplier, build_controlled_ror, build_ror,
                    multiplier_layout)

MAX_COUNTEREXAMPLES = 16
# Most lanes x lines in one sweep batch: a wider circuit gets fewer lanes per
# batch, so a batch's strings and ints stay near 10 MiB at any width.
BATCH_BITS = 1 << 22
# 2^26 pairs: one-shot `revmul verify mul --n 13 --exhaustive` takes 1.7-2.3 s with
# Python 3.11 on a shared 2-vCPU x86-64 Xeon host; beyond that use randomized mode
EXHAUSTIVE_MULTIPLIER_LIMIT = 13
EXHAUSTIVE_ROTATE_LIMIT = 26  # 2^27 states for cror, about 0.5 s; beyond that use randomized mode
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # bit values -> binary digits
_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits -> bit values
# The widest operands whose seeded pairs `_word_pair_batches` draws: on CPython,
# randrange(2^n) for n <= 31 takes one 32-bit Mersenne Twister word per try,
# and an array("I") item holds one word; elsewhere every width draws per pair.
_WORD_DRAW_LIMIT = 31 if sys.implementation.name == "cpython" and array("I").itemsize == 4 else 0
_KEEP = b"\1" * 128 + bytes(128)  # a word's top byte -> 1 where its bit 31 is clear


def run(circuit: Circuit, state: list[int], trace=None) -> list[int]:
    """Apply the circuit's gates in order to a lane-packed state and return
    the final state.

    state[line] is an int whose bit k is that line's value in lane k, so one
    call carries as many independent basis states as the ints have bits. A
    list of 0/1 values is the one-lane case: one basis state in, one out.
    If trace is given, trace(state) is called once per item of
    `circuit.stages()`, in order, after that stage's gates, in the same gate
    loop, with the live state: `run` keeps no copy, so a caller that wants
    to keep a stage's state must copy it.
    """
    if len(state) != circuit.width:
        raise ValueError(f"state has {len(state)} bits, circuit width is {circuit.width}")
    v = list(state)
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
            trace(v)
    return v


def pack_state(layout: RegisterLayout, values: dict[str, int]) -> list[int]:
    """Entry state from per-register integers.

    Every data register must be assigned. Ancilla registers default to their
    declared constant but may be overridden, e.g. to drive a block in
    isolation with a non-trivial window. Each register is encoded in one
    pass, by `_value_bits`, the inverse of `register_value`'s `_bits_value`.
    """
    unknown = set(values) - {r.name for r in layout.registers}
    if unknown:
        raise ValueError(f"no register named {_shown(sorted(unknown)[0])}")
    bits = [0] * layout.width
    for reg in layout.registers:
        if reg.name in values:
            value = values[reg.name]
            if not 0 <= value < (1 << reg.size):
                # a value of more than _MAX_SHOWN_CHARS digits is shown by its bit length
                if abs(value) >= 10**_MAX_SHOWN_CHARS:
                    value = f"of {value.bit_length()} bits"
                raise ValueError(
                    f"value {value} does not fit register {_shown(reg.name, str)} ({reg.size} bits)"
                )
        elif reg.is_ancilla:
            value = -reg.const & ((1 << reg.size) - 1)  # constant replicated per line
        else:
            raise ValueError(f"missing value for data register {_shown(reg.name, str)}")
        bits[reg.start : reg.end] = _value_bits(value, reg.size)
    return bits


def _bits_value(bits) -> int:
    """The integer whose binary digits, least significant first, are `bits`."""
    return int(bytearray(bits)[::-1].translate(_DIGITS), 2)


def _value_bits(value: int, size: int) -> bytes:
    """The `size` bits of `value`, least significant first, as 0/1 bytes."""
    return format(value, f"0{size}b")[::-1].encode().translate(_BITS)


def register_value(layout: RegisterLayout, state: list[int], name: str) -> int:
    """Integer held by a named register in a basis state (bit 0 = LSB)."""
    reg = layout[name]
    return _bits_value(state[reg.start : reg.end])


def oracle_rotate_right(bits: list[int]) -> list[int]:
    """Rotate a bit list right by one place: entry p moves to p-1, entry 0
    wraps to the top."""
    return list(bits[1:]) + list(bits[:1])


def oracle_multiply(n: int, a: int, b: int) -> int:
    """Register-level add-and-rotate product of two n-bit integers: the
    one-lane case of `_lane_add_and_rotate`, the model the verifier runs
    bit-sliced against the gate-level multiplier. It must agree with native
    integer multiplication everywhere.
    """
    layout = multiplier_layout(n)
    if not 0 <= a < (1 << n):
        raise ValueError(f"operand a={a} out of range for {n} bits")
    if not 0 <= b < (1 << n):
        raise ValueError(f"operand b={b} out of range for {n} bits")
    exit_state = _lane_add_and_rotate(layout, pack_state(layout, {"A": a, "B": b}))
    return register_value(layout, exit_state, "P")


def _ripple_add(p: list[int], start: int, a_bit: int, b: list[int]) -> None:
    # Bit-sliced: add a_bit & b into the lane ints p[start : start+len(b)+1]
    # in place, one full adder per bit of b; a carry out of the top is lost.
    carry = 0
    for k, b_bit in enumerate(b, start):
        x, y = p[k], a_bit & b_bit
        t = x ^ y
        p[k] = t ^ carry
        carry = x & y | t & carry
    p[start + len(b)] ^= carry


def _lane_product(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product of lane-packed operands: a and b hold one lane int
    per bit (LSB first); the len(a)+len(b) lane ints returned hold a*b in
    every lane, P's lines read from A and B."""
    p = [0] * (len(a) + len(b))
    for i, a_bit in enumerate(a):
        _ripple_add(p, i, a_bit, b)
    return p


def _lane_add_and_rotate(layout: RegisterLayout, state: list[int]) -> list[int]:
    """The add-and-rotate recurrence of the product over `layout`: its
    `_schedule`, run on one lane int per line. From any lane-packed entry state
    with Zcin 0, whatever A, B and P hold, it returns the built product's exit
    state: each add XORs its carry out into its window's top line, as the
    ADD/NOP's last Toffoli does."""
    v = list(state)
    for kind, _, control, lines in _schedule(layout):
        if kind == ADDNOP:
            b, window, _ = lines
            _ripple_add(v, window.start, v[control], v[b.start : b.stop])
        else:  # a rotate right of its one range
            v.insert(lines[0].stop - 1, v.pop(lines[0].start))
    return v


@dataclass
class VerifyReport:
    """Outcome of a verification sweep.

    garbage_outputs is 0 once the sweep passes: every non-result line came
    back holding its entry value on every tested input, so no output had to be
    discarded. It stays None on failure. The field order is the key order of
    the JSON report (`io.metrics_json`).
    """

    ok: bool
    checked: int
    mode: str  # "exhaustive" or "random"
    seed: int | None = None
    garbage_outputs: int | None = None
    counterexamples: list = field(default_factory=list)


def _transpose(rows: list[int], bits: int) -> list[int]:
    """Transpose a bit matrix: `bits` ints out, bit k of out[j] = bit j of rows[k].

    Turns case indices (one per lane) into index-bit lanes (one int per index
    bit). The bits move through strings at C speed: one binary row per input
    int, one stride slice per output int.
    """
    spec = f"0{bits}b"
    text = "".join([format(row, spec) for row in reversed(rows)])
    return [int(text[bits - 1 - j :: bits], 2) for j in range(bits)]


def _exhaustive_batches(bits: int, lanes: int):
    """Index-bit lanes of every case index below 2^bits in order, with the
    number of cases in each batch, a power of two no larger than `lanes`.

    Within a batch of 2^s consecutive cases that starts at a multiple of
    2^s, index bit i < s follows the same pattern in every batch, 2^i zeros
    then 2^i ones across the lanes, repeated; every higher bit is all zeros
    or all ones.
    """
    s = min(lanes.bit_length() - 1, bits)
    full = (1 << (1 << s)) - 1
    patterns = []
    for i in range(s):
        x = ((1 << (1 << i)) - 1) << (1 << i)  # one period: 2^i zeros, then 2^i ones
        for j in range(i + 1, s):  # doubled up to 2^s lanes, in time linear in them
            x |= x << (1 << j)
        patterns.append(x)
    for start in range(0, 1 << bits, 1 << s):
        yield patterns + [full * (start >> i & 1) for i in range(s, bits)], 1 << s


def _random_batches(indices, bits: int, lanes: int):
    """Index-bit lanes of the case indices `indices`, `lanes` cases at a
    time, with the number of cases in each."""
    while batch := list(itertools.islice(indices, lanes)):
        yield _transpose(batch, bits), len(batch)


def _word_pair_batches(rng: random.Random, count: int, n: int, lanes: int):
    """Index-bit lanes of `count` pairs (a, b), case a * 2^n + b, whose
    operands are drawn as `rng.randrange(2^n)` draws them, a first, for
    n <= _WORD_DRAW_LIMIT; `lanes` pairs at a time, with the number of pairs
    in each. No int is made per pair.

    randrange(2^n) is getrandbits(n+1), drawn again while its top bit is set,
    and getrandbits(n+1) is one Mersenne Twister word shifted right by 31-n.
    So its values are the words whose bit 31 is clear, shifted right by 31-n,
    and getrandbits(32m) holds the next m words, the first lowest. Pair p
    takes kept words 2p (a) and 2p+1 (b); kept words a batch leaves carry
    into the next. In the binary text of a batch's kept words, most
    significant first, each pair is 64 characters, b's word then a's, the
    last pair first; bit i of an operand is character n - i of its word's
    32. So each index bit is one stride slice of the text.
    """
    kept = array("I")
    offsets = [*range(n, 0, -1), *range(32 + n, 32, -1)]  # index bits 0..n-1 (b), then a's
    for done in range(0, count, lanes):
        size = min(lanes, count - done)
        while len(kept) < 2 * size:
            need = 2 * size - len(kept)  # about half the words are kept
            raw = rng.getrandbits(64 * need).to_bytes(8 * need, "little")
            kept.extend(itertools.compress(array("I", raw), raw[3::4].translate(_KEEP)))
        text = format(int.from_bytes(kept[: 2 * size], "little"), f"0{64 * size}b")
        del kept[: 2 * size]
        yield [int(text[offset::64], 2) for offset in offsets], size


def _check_sweep(mode: str, count: int, too_big: bool, limit_message: str) -> None:
    """Refuse an unknown mode, a random count below 1, or an exhaustive
    sweep that is `too_big`, with `limit_message`."""
    if mode == "exhaustive":
        if too_big:
            raise ValueError(limit_message)
    elif mode == "random":
        if count < 1:
            raise ValueError(f"random mode needs a positive count, got {count}")
    else:
        raise ValueError(f"unknown verification mode {mode!r}")


def _sweep(circuit, mode, seed, drive, draw, want, explain) -> VerifyReport:
    """Sweep `circuit` over every case index the registers of `drive` span,
    or the seeded batches that `draw(rng, bits, lanes)` yields: the `bits`
    index-bit lanes of at most `lanes` cases and their count, as
    `_random_batches` yields them. The lines of `drive`'s registers, in
    order, carry bits 0, 1, ... of a case's index, and every other line
    enters 0: the index-bit lanes of a batch map to its lane-packed entry
    state once.

    Each batch runs through one `run` call. `lanes` is the largest power of
    two that is at most BATCH_BITS // width, and at least 1.
    `want(state)` takes a batch's lane-packed entry state and returns the
    lane-packed exit state it must reach, plus an int whose set bits are
    lanes the references disagree on; those lanes and every lane that ends
    anywhere else fail. The lowest failing lanes are the first in sweep
    order: `explain(entry, out, expected)` turns the bits of the first 16,
    one per line, into counterexamples.
    """
    lanes = 1 << max(1, BATCH_BITS // circuit.width).bit_length() - 1
    driven = [line for reg in drive for line in reg.lines]
    if mode == "exhaustive":
        batches = _exhaustive_batches(len(driven), lanes)
    else:
        batches = draw(random.Random(seed), len(driven), lanes)
    counterexamples = []
    checked = 0
    for index, size in batches:
        state = [0] * circuit.width
        for line, lane in zip(driven, index):
            state[line] = lane
        del index  # a width-long list fewer alive beside `run`'s copy of the state
        out = run(circuit, state)
        expected, disagree = want(state)
        failed = reduce(operator.or_, map(operator.xor, out, expected), disagree)
        while failed and len(counterexamples) < MAX_COUNTEREXAMPLES:
            lane = (failed & -failed).bit_length() - 1
            failed &= failed - 1
            lane_bits = ([line >> lane & 1 for line in lines] for lines in (state, out, expected))
            counterexamples.append(explain(*lane_bits))
        checked += size
        del state, out, expected  # free this batch's lists before the next is built
    ok = not counterexamples
    return VerifyReport(
        ok, checked, mode, seed if mode == "random" else None, 0 if ok else None, counterexamples
    )


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
    wanted product is a bit-sliced schoolbook product, cross-checked on the
    same pairs against the bit-sliced add-and-rotate recurrence of
    `oracle_multiply`; a pair the two disagree on fails. Exhaustive mode
    sweeps all 2^(2n) pairs and is limited to n <= EXHAUSTIVE_MULTIPLIER_LIMIT
    (13); random mode checks the `count` pairs that two `randrange(2^n)` calls
    per pair draw from `random.Random(seed)`, taken from its words in bulk for
    n <= _WORD_DRAW_LIMIT (31 on CPython). Without `circuit` it checks
    `synth._shared_multiplier(n)`, equal to `build_multiplier(n)`. Pass
    `circuit` to point the harness at a replacement netlist (for example a
    deliberately damaged one) over the n-bit multiplier's layout.
    """
    if circuit is not None and circuit.layout != multiplier_layout(n):
        raise ValueError(f"circuit layout {circuit.layout!r} is not the n={n} multiplier's")
    limit = EXHAUSTIVE_MULTIPLIER_LIMIT
    _check_sweep(mode, count, n > limit, f"exhaustive verification is limited to n <= {limit}")
    if circuit is None:
        circuit = _shared_multiplier(n)
    layout = circuit.layout
    a_reg, b_reg, p_reg = (layout[name] for name in ("A", "B", "P"))

    def want(state):
        expected = list(state)  # A, B and Zcin exit as they entered
        a, b = (state[reg.start : reg.end] for reg in (a_reg, b_reg))
        expected[p_reg.start : p_reg.end] = _lane_product(a, b)
        model = _lane_add_and_rotate(layout, state)
        return expected, reduce(operator.or_, map(operator.xor, expected, model), 0)

    def explain(entry, out, expected):
        a, b = (register_value(layout, entry, name) for name in ("A", "B"))
        expected, got = (
            {name: register_value(layout, lane, name) for name in ("P", "A", "B", "Zcin")}
            for lane in (expected, out)
        )
        return {"a": a, "b": b, "expected": expected, "got": got}

    def draw(rng, bits, lanes):
        if n <= _WORD_DRAW_LIMIT:
            # 64 characters of word text per pair: 16,384 pairs (1 MiB of text)
            # at the default budget keep a batch within the per-pair path's peak
            return _word_pair_batches(rng, count, n, max(1, BATCH_BITS // 256))
        pairs = (rng.randrange(1 << n) << n | rng.randrange(1 << n) for _ in range(count))
        return _random_batches(pairs, bits, lanes)

    # pair (a, b) is case a * 2^n + b: B takes the low index bits
    return _sweep(circuit, mode, seed, (b_reg, a_reg), draw, want, explain)


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
    limit = EXHAUSTIVE_ROTATE_LIMIT
    message = f"exhaustive rotate verification is limited to width <= {limit}"
    _check_sweep(mode, count, width > limit, message)
    circuit = build_controlled_ror(width) if controlled else build_ror(width)
    layout = circuit.layout
    p_reg = layout["P"]

    def want(state):
        entry = state[p_reg.start : p_reg.end]
        rotated = oracle_rotate_right(entry)
        if controlled:
            control = state[layout["C"].start]
            rotated = [x ^ (x ^ r) & control for x, r in zip(entry, rotated)]
        # C, if any, exits as it entered; one new list (a slice write would hold a second)
        return [*state[: p_reg.start], *rotated, *state[p_reg.end :]], 0

    def explain(entry, out, expected):
        value = register_value(layout, entry, "P")
        control = register_value(layout, entry, "C") if controlled else None
        return {"input": value, "control": control, "expected": expected, "got": out}

    def draw(rng, bits, lanes):
        values = (rng.getrandbits(width) for _ in range(count))
        cases = (value << 1 | c for value in values for c in (0, 1)) if controlled else values
        return _random_batches(cases, bits, lanes)

    # case (value, control) is value * 2 + control: the control takes bit 0
    drive = (layout["C"], p_reg) if controlled else (p_reg,)
    return _sweep(circuit, mode, seed, drive, draw, want, explain)
