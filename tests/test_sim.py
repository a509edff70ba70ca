import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revmul import (
    Register,
    RegisterLayout,
    VerifyReport,
    build_addnop,
    build_controlled_ror,
    build_multiplier,
    build_ror,
    multiplier_layout,
    oracle_multiply,
    oracle_rotate_right,
    pack_state,
    parse_netlist,
    register_value,
    run,
    verify_multiplier,
    verify_rotate,
    write_netlist,
)
from revmul import sim, synth
from revmul.circuit import Circuit
from revmul.gates import ARITY, CNOT, FREDKIN, KIND_ORDER, SWAP, TOFFOLI, Gate
from strategies import valid_circuits


# ---------------------------------------------------------------- gate semantics

def apply_gate(state, gate):
    """One gate on a basis state, as a one-gate circuit."""
    circ = Circuit(RegisterLayout([Register("R", 0, len(state))]))
    circ.append(gate)
    return run(circ, state)


def test_toffoli_semantics():
    assert apply_gate([1, 1, 0], Gate(TOFFOLI, (0, 1, 2))) == [1, 1, 1]
    assert apply_gate([1, 0, 0], Gate(TOFFOLI, (0, 1, 2))) == [1, 0, 0]


def test_fredkin_semantics():
    assert apply_gate([0, 1, 0], Gate(FREDKIN, (0, 1, 2))) == [0, 1, 0]  # clear control: no move
    assert apply_gate([1, 1, 0], Gate(FREDKIN, (0, 1, 2))) == [1, 0, 1]


def test_swap_and_cnot_semantics():
    assert apply_gate([0, 1], Gate(SWAP, (0, 1))) == [1, 0]
    assert apply_gate([1, 0], Gate(CNOT, (0, 1))) == [1, 1]
    assert apply_gate([0, 1], Gate(CNOT, (0, 1))) == [0, 1]


def test_run_does_not_mutate_input():
    state = [1, 1, 0]
    apply_gate(state, Gate(TOFFOLI, (0, 1, 2)))
    assert state == [1, 1, 0]


@pytest.mark.parametrize(
    "gate",
    [Gate(CNOT, (0, 1)), Gate(TOFFOLI, (0, 1, 2)), Gate(FREDKIN, (2, 0, 1)), Gate(SWAP, (1, 2))],
)
def test_every_gate_is_an_involution(gate):
    for value in range(8):
        state = [(value >> i) & 1 for i in range(3)]
        assert apply_gate(apply_gate(state, gate), gate) == state


# ---------------------------------------------------------------- run

def test_run_empty_circuit():
    circ = build_ror(4)
    empty = Circuit(circ.layout)
    assert run(empty, [1, 0, 1, 0]) == [1, 0, 1, 0]


def test_run_length_mismatch():
    with pytest.raises(ValueError, match="width"):
        run(build_ror(4), [0, 0, 0])


def test_run_then_reversed_restores():
    circ = build_multiplier(3)
    rng = random.Random(11)
    reverse = Circuit(circ.layout)
    for gate in reversed(circ.gates):
        reverse.append(gate)
    for _ in range(25):
        state = [rng.getrandbits(1) for _ in range(circ.width)]
        assert run(reverse, run(circ, state)) == state


def test_run_trace_snapshots():
    circ = build_addnop(2)
    state = pack_state(circ.layout, {"A": 1, "B": 2})
    snapshots = []
    final = run(circ, state, trace=lambda v: snapshots.append(list(v)))
    assert len(snapshots) == circ.stage_count == 8
    assert snapshots[-1] == final
    assert run(circ, state) == final


def _trailing_gates():
    # one marked stage, then three gates that carry no stage mark
    circ = Circuit(RegisterLayout([Register("R", 0, 3)]))
    circ.append(Gate(CNOT, (0, 1)))
    circ.mark_stage()
    for gate in [Gate(CNOT, (1, 2)), Gate(TOFFOLI, (0, 1, 2)), Gate(SWAP, (0, 2))]:
        circ.append(gate)
    return circ


@pytest.mark.parametrize(
    "circ",
    [
        build_multiplier(3),
        build_addnop(2),
        build_ror(5),
        build_controlled_ror(4),
        _trailing_gates(),
        Circuit(RegisterLayout([Register("R", 0, 2)])),
    ],
    ids=["mul3", "addnop2", "ror5", "cror4", "trailing", "empty"],
)
def test_run_trace_gets_the_live_state_once_per_stage(circ):
    rng = random.Random(5)
    state = [rng.getrandbits(1) for _ in range(circ.width)]
    calls, copies = [], []
    final = run(circ, state, trace=lambda v: (calls.append(v), copies.append(list(v))))
    assert len(calls) == circ.stage_count
    assert all(seen is final for seen in calls)  # one list, never copied
    assert final == run(circ, state)
    # call k comes after the gates of the first k items of `circ.stages()`
    # and before any later gate: `sim --trace` walks the stages in step
    expected = state
    for copy, stage in itertools.zip_longest(copies, circ.stages()):
        part = Circuit(circ.layout)
        part.gates.extend(stage)
        expected = run(part, expected)
        assert copy == expected


def test_run_is_a_permutation_at_small_width():
    for circ in (build_multiplier(2), build_ror(8), build_addnop(3)):
        seen = set()
        for value in range(1 << circ.width):
            state = [(value >> i) & 1 for i in range(circ.width)]
            seen.add(tuple(run(circ, state)))
        assert len(seen) == 1 << circ.width


def test_restoration_of_operands_on_arbitrary_states():
    # operand and carry lines return to their entry values whatever P held
    circ = build_multiplier(3)
    layout = circ.layout
    rng = random.Random(5)
    for _ in range(200):
        state = [rng.getrandbits(1) for _ in range(circ.width)]
        state[layout["Zcin"].start] = 0
        out = run(circ, state)
        for name in ("A", "B"):
            assert register_value(layout, out, name) == register_value(layout, state, name)
        assert out[layout["Zcin"].start] == 0


# ---------------------------------------------------------------- oracles

def test_rotate_oracle_frozen_example():
    # 0110 read MSB-first is [0,1,1,0] LSB-first; rotating gives 0011
    assert oracle_rotate_right([0, 1, 1, 0]) == [1, 1, 0, 0]


def test_rotate_oracle_zero_fixed_point():
    assert oracle_rotate_right([0] * 6) == [0] * 6


def test_rotate_oracle_full_cycle():
    bits = [1, 0, 1, 1, 0]
    out = list(bits)
    for _ in range(len(bits)):
        out = oracle_rotate_right(out)
    assert out == bits


def test_rotate_oracle_index_map():
    bits = [0, 1, 2, 3, 4, 5]  # positions as payloads
    rotated = oracle_rotate_right(bits)
    for p in range(1, 6):
        assert rotated[p - 1] == p
    assert rotated[5] == 0


@pytest.mark.parametrize("n", range(1, 5))
def test_multiply_oracle_matches_native_product(n):
    for a, b in itertools.product(range(1 << n), repeat=2):
        assert oracle_multiply(n, a, b) == a * b


def test_multiply_oracle_annihilator_and_range():
    assert oracle_multiply(4, 0, 13) == 0
    assert oracle_multiply(2, 3, 3) == 9
    with pytest.raises(ValueError, match="out of range"):
        oracle_multiply(2, 4, 1)
    with pytest.raises(ValueError, match="out of range"):
        oracle_multiply(2, 1, -1)
    with pytest.raises(ValueError, match=r"^operand width must be >= 1, got 0$"):
        oracle_multiply(0, 0, 0)


def test_gate_level_equals_oracle():
    for n in (1, 2, 3):
        circ = build_multiplier(n)
        for a, b in itertools.product(range(1 << n), repeat=2):
            out = run(circ, pack_state(circ.layout, {"A": a, "B": b}))
            assert register_value(circ.layout, out, "P") == oracle_multiply(n, a, b)


# ---------------------------------------------------------------- verification harness

def test_verify_multiplier_exhaustive():
    report = verify_multiplier(4)
    assert report.ok
    assert report.checked == 256
    assert report.mode == "exhaustive"
    assert report.garbage_outputs == 0
    assert report.counterexamples == []


def test_verify_multiplier_randomized():
    report = verify_multiplier(8, mode="random", count=1000, seed=42)
    assert report.ok
    assert report.checked == 1000
    assert report.seed == 42


def test_verify_multiplier_seed_reproducible():
    a = verify_multiplier(6, mode="random", count=64, seed=9)
    b = verify_multiplier(6, mode="random", count=64, seed=9)
    assert a == b


def test_verify_multiplier_exhaustive_cap():
    with pytest.raises(ValueError, match="n <= 13"):
        verify_multiplier(14, mode="exhaustive")


def test_verify_multiplier_bad_mode():
    with pytest.raises(ValueError, match="mode"):
        verify_multiplier(2, mode="stochastic")


def test_verify_catches_a_damaged_circuit():
    # drop one gate: the harness must produce a concrete counterexample
    good = build_multiplier(3)
    damaged = Circuit(good.layout)
    for gate in good.gates[:-1]:
        damaged.append(gate)
    report = verify_multiplier(3, circuit=damaged)
    assert not report.ok
    assert report.counterexamples
    assert report.garbage_outputs is None
    first = report.counterexamples[0]
    assert first["got"] != first["expected"]


def test_verify_checks_arguments_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("a circuit was built before the arguments were checked")

    for name in ("_shared_multiplier", "build_ror", "build_controlled_ror"):
        monkeypatch.setattr(sim, name, refuse)
    verifiers = (
        (verify_multiplier, 14),
        (verify_rotate, 300000),
        (functools.partial(verify_rotate, controlled=True), 300000),
    )
    for verify, size in verifiers:
        with pytest.raises(ValueError, match="limited to"):
            verify(size, mode="exhaustive")
        with pytest.raises(ValueError, match="unknown verification mode"):
            verify(size, mode="bogus")
        with pytest.raises(ValueError, match="positive count"):
            verify(size, mode="random", count=0)


@pytest.mark.parametrize("n", [0, -1, -3])
@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_verify_multiplier_rejects_a_width_below_one(n, mode):
    with pytest.raises(ValueError, match=rf"^operand width must be >= 1, got {n}$"):
        verify_multiplier(n, mode=mode)


def test_verify_multiplier_reports_a_bad_mode_before_a_bad_width():
    with pytest.raises(ValueError, match="unknown verification mode"):
        verify_multiplier(-1, mode="bogus")


def test_verify_multiplier_rejects_a_foreign_layout():
    with pytest.raises(ValueError, match="not the n=2 multiplier"):
        verify_multiplier(2, circuit=build_multiplier(3))
    no_carry = Circuit(
        RegisterLayout([Register("A", 0, 2), Register("B", 2, 2), Register("P", 4, 4)])
    )
    with pytest.raises(ValueError, match="not the n=2 multiplier"):
        verify_multiplier(2, circuit=no_carry)
    # a netlist read back from its .rev text has the same layout
    assert verify_multiplier(2, circuit=parse_netlist(write_netlist(build_multiplier(2)))).ok


def test_verify_counterexamples_capped():
    layout = build_multiplier(3).layout
    report = verify_multiplier(3, circuit=Circuit(layout))  # empty circuit: 49 wrong pairs
    assert not report.ok
    assert len(report.counterexamples) == 16


@pytest.mark.parametrize("given", [False, True])
def test_verify_builds_the_multiplier_layout_once_per_call(monkeypatch, given):
    # the counterexamples read their registers off one layout, not one each
    circuit = Circuit(multiplier_layout(3)) if given else None
    if not given:
        monkeypatch.setattr(sim, "_shared_multiplier", lambda n: Circuit(multiplier_layout(n)))
    want = verify_multiplier(3, circuit=circuit)
    calls = []
    monkeypatch.setattr(sim, "multiplier_layout", lambda n: calls.append(n) or multiplier_layout(n))
    assert verify_multiplier(3, circuit=circuit) == want
    assert len(want.counterexamples) == 16 and calls == [3] * given


def _drop_last_gate(circuit):
    damaged = Circuit(circuit.layout)
    for gate in circuit.gates[:-1]:
        damaged.append(gate)
    return damaged


# (a, b, P read back) for every pair the damaged 3-bit multiplier gets wrong,
# in sweep order; A, B and Zcin still come back intact.
DAMAGED_MUL3 = [
    (4, 1, 0), (4, 3, 8), (4, 5, 16), (4, 7, 24),
    (5, 1, 1), (5, 3, 11), (5, 5, 29), (5, 7, 39),
    (6, 1, 2), (6, 3, 22), (6, 5, 26), (6, 7, 46),
    (7, 1, 3), (7, 3, 17), (7, 5, 39), (7, 7, 53),
]


def test_verify_multiplier_pins_counterexamples():
    report = verify_multiplier(3, circuit=_drop_last_gate(build_multiplier(3)))
    expected = [
        {
            "a": a,
            "b": b,
            "expected": {"P": a * b, "A": a, "B": b, "Zcin": 0},
            "got": {"P": p, "A": a, "B": b, "Zcin": 0},
        }
        for a, b, p in DAMAGED_MUL3
    ]
    assert report == VerifyReport(ok=False, checked=64, mode="exhaustive", counterexamples=expected)
    for example in report.counterexamples:
        assert list(example) == ["a", "b", "expected", "got"]
        assert list(example["expected"]) == list(example["got"]) == ["P", "A", "B", "Zcin"]


@pytest.mark.parametrize(
    "controlled, checked, examples",
    [
        (False, 8, [(2, None, [1, 0, 0], [0, 1, 0]), (3, None, [1, 0, 1], [0, 1, 1]),
                    (4, None, [0, 1, 0], [1, 0, 0]), (5, None, [0, 1, 1], [1, 0, 1])]),
        (True, 16, [(1, 1, [0, 0, 1, 1], [0, 1, 0, 1]), (3, 1, [1, 0, 1, 1], [1, 1, 0, 1]),
                    (4, 1, [0, 1, 0, 1], [0, 0, 1, 1]), (6, 1, [1, 1, 0, 1], [1, 0, 1, 1])]),
    ],
)
def test_verify_rotate_pins_counterexamples(monkeypatch, controlled, checked, examples):
    # the width-3 rotate loses its last swap (last Fredkin when controlled)
    monkeypatch.setattr(sim, "build_ror", lambda width: _drop_last_gate(build_ror(width)))
    monkeypatch.setattr(
        sim, "build_controlled_ror", lambda width: _drop_last_gate(build_controlled_ror(width))
    )
    report = verify_rotate(3, controlled=controlled)
    expected = [
        {"input": value, "control": control, "expected": want, "got": got}
        for value, control, want, got in examples
    ]
    assert report == VerifyReport(
        ok=False, checked=checked, mode="exhaustive", counterexamples=expected
    )
    for example in report.counterexamples:
        assert list(example) == ["input", "control", "expected", "got"]


@pytest.mark.parametrize("width", [2, 7, 8])
def test_verify_rotate_exhaustive(width):
    report = verify_rotate(width)
    assert report.ok
    assert report.checked == 1 << width


def test_verify_rotate_randomized():
    report = verify_rotate(16, mode="random", count=500, seed=3)
    assert report.ok
    assert report.checked == 500


def test_verify_controlled_rotate():
    report = verify_rotate(7, controlled=True)
    assert report.ok
    assert report.checked == 2 << 7  # both control values per window state


# ---------------------------------------------------------------- state packing

def test_pack_state_requires_data_registers():
    layout = build_multiplier(2).layout
    with pytest.raises(ValueError, match="register B"):
        pack_state(layout, {"A": 3})


def test_pack_state_rejects_unknown_register():
    layout = build_multiplier(2).layout
    with pytest.raises(ValueError, match="no register"):
        pack_state(layout, {"A": 1, "B": 1, "Q": 0})


def test_pack_state_range_check():
    layout = build_multiplier(2).layout
    with pytest.raises(ValueError, match="does not fit"):
        pack_state(layout, {"A": 4, "B": 0})


def test_pack_state_echoes_a_long_register_name_by_length():
    long = "N" * 400_000
    layout = RegisterLayout([Register(long, 0, 2)])
    for values, message in [
        ({}, "missing value for data register of 400000 characters"),
        ({long: 4}, "value 4 does not fit register of 400000 characters (2 bits)"),
        ({long: 0, "Q" + long: 0}, "no register named of 400001 characters"),
    ]:
        with pytest.raises(ValueError) as info:
            pack_state(layout, values)
        assert str(info.value) == message


def test_pack_state_echoes_a_value_of_more_than_32_digits_by_bit_length():
    layout = RegisterLayout([Register("R", 0, 2)])
    big = 10**32
    for value, message in [
        (big - 1, f"value {big - 1} does not fit register R (2 bits)"),
        (1 - big, f"value {1 - big} does not fit register R (2 bits)"),
        (big, "value of 107 bits does not fit register R (2 bits)"),
        (-big, "value of 107 bits does not fit register R (2 bits)"),
        (7**200_000, f"value of {(7**200_000).bit_length()} bits does not fit register R (2 bits)"),
    ]:
        with pytest.raises(ValueError) as info:
            pack_state(layout, {"R": value})
        assert str(info.value) == message


def test_pack_state_ancilla_default_and_override():
    layout = build_addnop(2).layout
    state = pack_state(layout, {"A": 1, "B": 2})
    assert register_value(layout, state, "P") == 0
    state = pack_state(layout, {"A": 1, "B": 2, "P": 5})
    assert register_value(layout, state, "P") == 5


def per_bit_pack_state(layout, values):
    """`pack_state` as it was before its one-pass encoder, without its checks:
    each register filled by shifting its value once per bit."""
    bits = [0] * layout.width
    for reg in layout.registers:
        if reg.name in values:
            value = values[reg.name]
        else:
            value = -reg.const & ((1 << reg.size) - 1)
        for bit in range(reg.size):
            bits[reg.start + bit] = (value >> bit) & 1
    return bits


def data_and_ancilla(width, const):
    """A data register and an ancilla of `width` lines each."""
    return RegisterLayout([Register("D", 0, width), Register("Z", width, width, const)])


# one 30-bit int digit, two, their edges, and a register as wide as MAX_QUBITS
CODEC_WIDTHS = (1, 30, 31, 60, 61, 65_536)


@settings(max_examples=120, deadline=None)
@given(
    layout=st.one_of(
        valid_circuits().map(lambda circuit: circuit.layout),
        st.builds(data_and_ancilla, st.sampled_from(CODEC_WIDTHS), st.integers(0, 1)),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(layout=data_and_ancilla(65_536, 1), seed=4)  # Z left at its constant
@example(layout=data_and_ancilla(65_536, 0), seed=0)  # Z overridden
def test_pack_state_and_register_value_are_one_codec(layout, seed):
    rng = random.Random(seed)
    values = {r.name: rng.getrandbits(r.size) for r in layout.registers
              if not r.is_ancilla or rng.getrandbits(1)}
    state = pack_state(layout, values)
    assert type(state) is list and state == per_bit_pack_state(layout, values)
    for reg in layout.registers:
        if reg.name in values:
            assert register_value(layout, state, reg.name) == values[reg.name]
        else:  # an ancilla left at its default holds its constant on every line
            assert state[reg.start : reg.end] == [reg.const] * reg.size
            assert register_value(layout, state, reg.name) == -reg.const & ((1 << reg.size) - 1)


# ---------------------------------------------------------------- lane packing against a reference

def reference_run(circuit, state, trace=False):
    """Per-bit, branching kernel: one basis state per call, as `run` was
    before it became lane-packed."""
    bits = list(state)
    snapshots = []
    for stage in circuit.stages() if trace else (circuit.gates,):
        for gate in stage:
            kind = gate.kind
            ln = gate.lines
            if kind == TOFFOLI:
                bits[ln[2]] ^= bits[ln[0]] & bits[ln[1]]
            elif kind == FREDKIN:
                if bits[ln[0]]:
                    bits[ln[1]], bits[ln[2]] = bits[ln[2]], bits[ln[1]]
            elif kind == SWAP:
                bits[ln[0]], bits[ln[1]] = bits[ln[1]], bits[ln[0]]
            else:  # CNOT
                bits[ln[1]] ^= bits[ln[0]]
        if trace:
            snapshots.append(list(bits))
    return (bits, snapshots) if trace else bits


@st.composite
def circuits(draw):
    """Gates of every kind the width allows, cut into stages at random and
    wherever the next gate would overlap the open stage; trailing gates may
    stay unmarked."""
    width = draw(st.integers(1, 12))
    circ = Circuit(RegisterLayout([Register("R", 0, width)]))
    kinds = [kind for kind in KIND_ORDER if ARITY[kind] <= width]
    used = set()
    for _ in range(draw(st.integers(0, 24)) if kinds else 0):
        kind = draw(st.sampled_from(kinds))
        lines = draw(st.permutations(range(width)))[: ARITY[kind]]
        if used.intersection(lines):
            circ.mark_stage()
            used = set()
        circ.append(Gate(kind, tuple(lines)))
        used.update(lines)
        if draw(st.booleans()):
            circ.mark_stage()
            used = set()
    return circ


@settings(deadline=None)
@given(circuits(), st.data())
def test_lane_packed_run_equals_per_state_reference(circ, data):
    width = circ.width
    lanes = data.draw(st.integers(1, 70), label="lanes")  # 65+ crosses a 64-bit word
    values = data.draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=lanes, max_size=lanes),
        label="states",
    )
    states = [[(value >> line) & 1 for line in range(width)] for value in values]
    packed = [sum(state[line] << k for k, state in enumerate(states)) for line in range(width)]
    snapshots = []
    final = run(circ, packed, trace=lambda v: snapshots.append(list(v)))
    assert run(circ, packed) == final

    def lane(packed_state, k):
        return [(value >> k) & 1 for value in packed_state]

    for k, state in enumerate(states):
        want_final, want_snapshots = reference_run(circ, state, trace=True)
        assert lane(final, k) == want_final
        assert [lane(snapshot, k) for snapshot in snapshots] == want_snapshots


@settings(deadline=None)
@given(circuits(), st.data())
def test_gates_are_involutions_on_lane_packed_states(circ, data):
    lanes = data.draw(st.integers(1, 70), label="lanes")
    state = data.draw(
        st.lists(st.integers(0, (1 << lanes) - 1), min_size=circ.width, max_size=circ.width),
        label="state",
    )
    reverse = Circuit(circ.layout)
    for gate in reversed(circ.gates):
        reverse.append(gate)
    assert run(reverse, run(circ, state)) == state
    for gate in circ.gates:
        twice = Circuit(circ.layout)
        twice.append(gate)
        twice.append(gate)
        assert run(twice, state) == state


def reference_report(mode, seed, examples):
    """A VerifyReport from one check result per case in sweep order (None
    for a pass), as the per-case sweep built it."""
    failures = [example for example in examples if example is not None]
    ok = not failures
    return VerifyReport(
        ok=ok,
        checked=len(examples),
        mode=mode,
        seed=seed if mode == "random" else None,
        counterexamples=failures[: sim.MAX_COUNTEREXAMPLES],
        garbage_outputs=0 if ok else None,
    )


def reference_multiplier_explain(n):
    """The multiplier's counterexample as the sweep built it from a whole
    entry-state int (bit i = line i), with the product recomputed per case."""

    def explain(entry, out):
        mask = (1 << n) - 1
        a, b = entry & mask, entry >> n & mask
        layout = multiplier_layout(n)
        got = {name: register_value(layout, out, name) for name in ("P", "A", "B", "Zcin")}
        expected = {"P": a * b, "A": a, "B": b, "Zcin": 0}
        return {"a": a, "b": b, "expected": expected, "got": got}

    return explain


def reference_rotate_explain(width, controlled):
    """The rotate's counterexample as the sweep built it from a whole
    entry-state int, with the rotated window decoded and recomputed per case."""

    def explain(entry, out):
        value = entry & ((1 << width) - 1)
        control = entry >> width if controlled else None
        window = [int(digit) for digit in reversed(format(value, f"0{width}b"))]
        tail = [] if control is None else [control]
        expected = (window if control == 0 else oracle_rotate_right(window)) + tail
        return {"input": value, "control": control, "expected": expected, "got": out}

    return explain


def reference_multiplier_examples(n, circuit, mode, count=0, seed=0):
    if mode == "exhaustive":
        pairs = list(itertools.product(range(1 << n), repeat=2))
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(count)]
    explain = reference_multiplier_explain(n)
    examples = []
    for a, b in pairs:
        out = reference_run(circuit, pack_state(circuit.layout, {"A": a, "B": b}))
        example = explain(a | b << n, out)
        wrong = example["got"] != example["expected"] or oracle_multiply(n, a, b) != a * b
        examples.append(example if wrong else None)
    return examples


def reference_rotate_examples(width, circuit, controlled, mode, count=0, seed=0):
    controls = (0, 1) if controlled else (None,)
    if mode == "exhaustive":
        cases = list(itertools.product(range(1 << width), controls))
    else:
        rng = random.Random(seed)
        cases = [(value, c) for value in (rng.getrandbits(width) for _ in range(count)) for c in controls]
    explain = reference_rotate_explain(width, controlled)
    examples = []
    for value, control in cases:
        tail = [] if control is None else [control]
        out = reference_run(circuit, [(value >> i) & 1 for i in range(width)] + tail)
        example = explain(value | (control or 0) << width, out)
        examples.append(example if example["got"] != example["expected"] else None)
    return examples


def flagged_multiplier(n):
    """The n-bit multiplier followed by gates that flip Zcin when the top four
    product bits are all 1, a rare failure (about 1 pair in 500 at n=6).

    Lines A0 and B0 serve as borrowed helpers and come back unchanged:
    the four gates `c3` compute A0 ^= p0 & p1 & p2, and the pair of
    Toffolis around the first copy leaves Zcin ^= p3 & (p0 & p1 & p2).
    """
    circ = build_multiplier(n)
    top = circ.layout["P"].end - 1
    p0, p1, p2, p3 = top, top - 1, top - 2, top - 3
    a0, b0, zcin = circ.layout["A"].start, circ.layout["B"].start, circ.layout["Zcin"].start
    c3 = [(p2, b0, a0), (p0, p1, b0), (p2, b0, a0), (p0, p1, b0)]
    for lines in [(p3, a0, zcin), *c3, (p3, a0, zcin), *c3]:
        circ.append(Gate(TOFFOLI, lines))
    return circ


def _drop_last_gate_of(builder):
    return lambda width: _drop_last_gate(builder(width))


def _pin_lanes(monkeypatch, lanes, width):
    """Size the sweep's batches of a `width`-line circuit to `lanes` cases
    (rounded down to a power of two) through the bit budget; return lanes."""
    monkeypatch.setattr(sim, "BATCH_BITS", lanes * width)
    return lanes


@pytest.mark.parametrize("controlled, width", [(False, 14), (True, 13)])
def test_exhaustive_rotate_sweep_over_several_batches_matches_reference(
    monkeypatch, controlled, width
):
    # 2^14 cases, four batches
    monkeypatch.setattr(sim, "build_ror", _drop_last_gate_of(build_ror))
    monkeypatch.setattr(sim, "build_controlled_ror", _drop_last_gate_of(build_controlled_ror))
    damaged = (sim.build_controlled_ror if controlled else sim.build_ror)(width)
    lanes = _pin_lanes(monkeypatch, 4096, damaged.width)
    examples = reference_rotate_examples(width, damaged, controlled, "exhaustive")
    assert len(examples) > lanes
    report = verify_rotate(width, controlled=controlled)
    assert report == reference_report("exhaustive", None, examples)
    assert not report.ok and len(report.counterexamples) == 16


def test_random_sweep_one_past_a_batch_matches_reference(monkeypatch):
    damaged = _drop_last_gate(build_multiplier(4))
    count = _pin_lanes(monkeypatch, 4096, damaged.width) + 1
    examples = reference_multiplier_examples(4, damaged, "random", count, seed=5)
    report = verify_multiplier(4, mode="random", count=count, seed=5, circuit=damaged)
    assert report == reference_report("random", 5, examples)
    assert not report.ok


def test_first_counterexamples_spanning_two_batches_match_reference(monkeypatch):
    circuit = flagged_multiplier(6)
    lanes = _pin_lanes(monkeypatch, 4096, circuit.width)
    count = 3 * lanes
    examples = reference_multiplier_examples(6, circuit, "random", count, seed=3)
    failing = [i for i, example in enumerate(examples) if example is not None]
    in_first = sum(i < lanes for i in failing)
    assert 0 < in_first < 16 <= sum(i < 2 * lanes for i in failing) < len(failing)
    report = verify_multiplier(6, mode="random", count=count, seed=3, circuit=circuit)
    assert report == reference_report("random", 3, examples)


@pytest.mark.parametrize("lanes", [1, 3, 64])
def test_reports_do_not_depend_on_the_batch_size(monkeypatch, lanes):
    damaged = _drop_last_gate(build_multiplier(3))
    want_mul = verify_multiplier(3, circuit=damaged)
    want_rand = verify_multiplier(3, mode="random", count=200, seed=8, circuit=damaged)
    monkeypatch.setattr(sim, "build_controlled_ror", _drop_last_gate_of(build_controlled_ror))
    want_rot = verify_rotate(5, mode="random", count=101, seed=2, controlled=True)
    _pin_lanes(monkeypatch, lanes, damaged.width)
    assert verify_multiplier(3, circuit=damaged) == want_mul
    assert verify_multiplier(3, mode="random", count=200, seed=8, circuit=damaged) == want_rand
    _pin_lanes(monkeypatch, lanes, build_controlled_ror(5).width)
    assert verify_rotate(5, mode="random", count=101, seed=2, controlled=True) == want_rot
    assert want_mul == reference_report(
        "exhaustive", None, reference_multiplier_examples(3, damaged, "exhaustive")
    )


@pytest.mark.parametrize(
    "n, mode, seed",
    [(n, "exhaustive", 0) for n in range(1, 7)]
    + [(n, "random", seed) for n in (8, 16) for seed in (0, 1, 2)],
)
def test_damaged_multiplier_reports_match_the_per_case_reference(n, mode, seed):
    damaged = _drop_last_gate(build_multiplier(n))
    examples = reference_multiplier_examples(n, damaged, mode, 200, seed)
    report = verify_multiplier(n, mode=mode, count=200, seed=seed, circuit=damaged)
    assert report == reference_report(mode, seed, examples)
    assert report.ok == (n == 1)  # at n = 1 the last gate is a Toffoli controlled by Zcin = 0


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("controlled", [False, True])
@pytest.mark.parametrize("width", range(2, 14))
def test_damaged_rotate_reports_match_the_per_case_reference(monkeypatch, width, controlled, mode):
    monkeypatch.setattr(sim, "build_ror", _drop_last_gate_of(build_ror))
    monkeypatch.setattr(sim, "build_controlled_ror", _drop_last_gate_of(build_controlled_ror))
    damaged = (sim.build_controlled_ror if controlled else sim.build_ror)(width)
    examples = reference_rotate_examples(width, damaged, controlled, mode, 100, width)
    report = verify_rotate(width, mode=mode, count=100, seed=width, controlled=controlled)
    assert report == reference_report(mode, width, examples)
    assert not report.ok


def recording_batches(real, sizes):
    """`real`, a batch generator, noting the case count of each batch in `sizes`."""

    def batches(*args):
        for lanes, size in real(*args):
            sizes.append(size)
            yield lanes, size

    return batches


def test_sweep_batches_stay_within_the_bit_budget(monkeypatch):
    width = 40_000
    sizes = []

    def transpose(rows, bits):
        sizes.append(len(rows) * bits)
        assert len(rows) * bits <= max(sim.BATCH_BITS, bits)  # at least one case per batch
        return real(rows, bits)

    real = sim._transpose
    monkeypatch.setattr(sim, "_transpose", transpose)
    report = verify_rotate(width, mode="random", count=250, seed=4)
    assert report.ok and report.checked == 250
    lanes = 64  # the largest power of two within 2^22 // 40,000 = 104
    assert lanes <= sim.BATCH_BITS // width < 2 * lanes
    # entry transpositions of three full batches and one partial batch
    assert sizes == [lanes * width] * 3 + [(250 - 3 * lanes) * width]

    # a 12-line rotate, exhaustive (4,096 cases) and random (300 cases)
    batch_sizes = []
    monkeypatch.setattr(sim, "_exhaustive_batches", recording_batches(sim._exhaustive_batches, batch_sizes))
    monkeypatch.setattr(sim, "_random_batches", recording_batches(sim._random_batches, batch_sizes))
    # the default budget (262,144 lanes, more than there are cases), 64 lanes,
    # one bit short of 64 lanes, and budgets of the width and below it
    for budget, lanes in [(1 << 22, 1 << 18), (12 * 64, 64), (12 * 64 - 1, 32), (12, 1), (11, 1), (1, 1)]:
        monkeypatch.setattr(sim, "BATCH_BITS", budget)
        batch_sizes.clear()
        assert verify_rotate(12).ok
        assert batch_sizes == [min(lanes, 4096)] * (4096 // min(lanes, 4096))
        batch_sizes.clear()
        assert verify_rotate(12, mode="random", count=300, seed=1).ok
        assert batch_sizes == [lanes] * (300 // lanes) + [300 % lanes] * (300 % lanes > 0)


# ---------------------------------------------------------------- seeded pair draws

def randrange_pairs(n, seed, count):
    """Case indices a * 2^n + b of `count` pairs, each operand one
    `randrange(2^n)` call on `random.Random(seed)`, a first."""
    rng = random.Random(seed)
    return [rng.randrange(1 << n) << n | rng.randrange(1 << n) for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, -5, 1 << 40])
@pytest.mark.parametrize("n", range(1, 32))
def test_word_pair_lanes_equal_transposed_randrange_pairs(n, seed):
    # CPython's randrange and getrandbits word order: the word path rests on them
    lanes = 64
    for count in (1, 100, lanes + 1):
        pairs = randrange_pairs(n, seed, count)
        want = [(sim._transpose(pairs[i : i + lanes], 2 * n), len(pairs[i : i + lanes]))
                for i in range(0, count, lanes)]
        assert list(sim._word_pair_batches(random.Random(seed), count, n, lanes)) == want


@pytest.mark.parametrize("n, pinned", [(1, False), (5, True), (12, True), (31, True)])
def test_word_path_sweeps_the_randrange_pairs_over_several_batches(monkeypatch, n, pinned):
    if pinned:
        _pin_lanes(monkeypatch, 4096, 4 * n + 1)
    batch = sim.BATCH_BITS // 256  # 16,384 pairs at the default budget
    count = 2 * batch + 5
    sizes, entries = [], []
    monkeypatch.setattr(sim, "_word_pair_batches", recording_batches(sim._word_pair_batches, sizes))

    def recording_run(circuit, state, trace=None):
        entries.append(state[: 2 * n])  # lines A, then B
        return real_run(circuit, state, trace)

    real_run = sim.run
    monkeypatch.setattr(sim, "run", recording_run)
    report = verify_multiplier(n, mode="random", count=count, seed=7)
    assert report.ok and report.checked == count
    assert sizes == [batch, batch, 5]
    got = [pair for state, size in zip(entries, sizes) for pair in unpack_lanes(state, size)]
    low = (1 << n) - 1
    assert got == [case >> n | (case & low) << n for case in randrange_pairs(n, 7, count)]


def test_pairs_past_the_word_limit_or_off_cpython_are_drawn_per_pair(monkeypatch):
    damaged = {n: _drop_last_gate(build_multiplier(n)) for n in (5, 32)}
    word_path = verify_multiplier(5, mode="random", count=300, seed=9, circuit=damaged[5])
    assert not word_path.ok
    monkeypatch.setattr(sim, "_word_pair_batches", None)  # any use fails
    monkeypatch.setattr(sim, "_WORD_DRAW_LIMIT", 0)  # as on an interpreter other than CPython
    assert verify_multiplier(5, mode="random", count=300, seed=9, circuit=damaged[5]) == word_path
    monkeypatch.setattr(sim, "_WORD_DRAW_LIMIT", 31)
    examples = reference_multiplier_examples(32, damaged[32], "random", 20, seed=9)
    report = verify_multiplier(32, mode="random", count=20, seed=9, circuit=damaged[32])
    assert report == reference_report("random", 9, examples)


# ---------------------------------------------------------------- register readout

def reference_register_value(layout, state, name):
    """The per-bit sum `register_value` computed before it read through bytes."""
    reg = layout[name]
    return sum(state[reg.start + bit] << bit for bit in range(reg.size))


@pytest.mark.parametrize(
    "layout",
    [
        multiplier_layout(5),
        build_addnop(4).layout,
        build_ror(9).layout,
        build_controlled_ror(6).layout,
        multiplier_layout(64),
    ],
    ids=["mul5", "addnop4", "ror9", "cror6", "mul64"],
)
def test_register_value_matches_per_bit_sum(layout):
    rng = random.Random(layout.width)
    for _ in range(50):
        state = [rng.getrandbits(1) for _ in range(layout.width)]
        for reg in layout.registers:
            got = register_value(layout, state, reg.name)
            assert got == reference_register_value(layout, state, reg.name)
    ones = [1] * layout.width
    for reg in layout.registers:
        assert register_value(layout, ones, reg.name) == (1 << reg.size) - 1


# ---------------------------------------------------------------- bit-sliced references

def test_exhaustive_n7_counterexamples_match_a_per_case_reference(monkeypatch):
    # the damaged multiplier first fails at a = 64, after two passing batches
    n = 7
    damaged = _drop_last_gate(build_multiplier(n))
    lanes = _pin_lanes(monkeypatch, 4096, damaged.width)
    failures = []
    names = ("P", "A", "B", "Zcin")
    for a, b in itertools.product(range(1 << n), repeat=2):
        out = reference_run(damaged, pack_state(damaged.layout, {"A": a, "B": b}))
        got = {name: register_value(damaged.layout, out, name) for name in names}
        expected = {"P": a * b, "A": a, "B": b, "Zcin": 0}
        if got != expected or oracle_multiply(n, a, b) != a * b:
            failures.append({"a": a, "b": b, "expected": expected, "got": got})
            if len(failures) == sim.MAX_COUNTEREXAMPLES:
                break
    assert (failures[0]["a"] << n) + failures[0]["b"] >= 2 * lanes
    report = verify_multiplier(n, circuit=damaged)
    assert report == VerifyReport(
        ok=False, checked=1 << 2 * n, mode="exhaustive", counterexamples=failures
    )


def pack_lanes(values, bits):
    """Lane-pack integers: bit k of line i is bit i of values[k]."""
    return [sum((value >> i & 1) << k for k, value in enumerate(values)) for i in range(bits)]


def unpack_lanes(state, lanes):
    """Whole-state int of each lane of a lane-packed state (bit i = line i)."""
    return [sum((line >> k & 1) << i for i, line in enumerate(state)) for k in range(lanes)]


@settings(deadline=None)
@given(st.data())
def test_bit_sliced_references_equal_per_pair_products(data):
    n = data.draw(st.integers(1, 16), label="n")
    operand = st.integers(0, (1 << n) - 1)
    pairs = data.draw(st.lists(st.tuples(operand, operand), min_size=1, max_size=70), label="pairs")
    a = pack_lanes([a for a, _ in pairs], n)
    b = pack_lanes([b for _, b in pairs], n)
    # against native products: `oracle_multiply` is `_lane_add_and_rotate` on one lane
    products = [a * b for a, b in pairs]
    layout = multiplier_layout(n)
    model = sim._lane_add_and_rotate(layout, a + b + [0] * (layout.width - 2 * n))
    assert unpack_lanes(sim._lane_product(a, b), len(pairs)) == products
    assert unpack_lanes(model[layout["P"].start : layout["P"].end], len(pairs)) == products


@pytest.mark.parametrize("n", range(1, 9))
def test_lane_models_run_the_one_row_product(n):
    # The ADD/NOP is the 1 x n product: both register-level models, which
    # size P from A and B, give the gate-level block's P on every (a, b),
    # with P entering 0, all pairs in one bit-sliced batch.
    circuit = build_addnop(n)
    pairs = list(itertools.product(range(2), range(1 << n)))
    a = pack_lanes([a for a, _ in pairs], 1)
    b = pack_lanes([b for _, b in pairs], n)
    state = pack_lanes([x + (y << 1) for x, y in pairs], circuit.width)  # A on line 0, then B
    p_lines = circuit.layout["P"].lines
    gate_level = run(circuit, state)[p_lines.start : p_lines.stop]
    assert unpack_lanes(gate_level, len(pairs)) == [x * y for x, y in pairs]
    assert sim._lane_product(a, b) == gate_level
    assert sim._lane_add_and_rotate(circuit.layout, state)[p_lines.start : p_lines.stop] == gate_level


@pytest.mark.parametrize("n", range(1, 5))
def test_model_runs_from_any_entry_state(n):
    # P entering c * 2^(n-1) exits holding a * b + c for every c <= 2^n (the
    # multiply-accumulate), with A and B unchanged and Zcin 0, all (a, b, c)
    # in one bit-sliced batch. The model runs from the same entry state and
    # gives the same exit state on every lane, c = 2^n included, where the
    # top line of block 0's window enters 1.
    circuit = build_multiplier(n)
    triples = [(a, b, c) for c in range((1 << n) + 1) for a in range(1 << n) for b in range(1 << n)]
    assert len(triples) == {1: 12, 2: 80, 3: 576, 4: 4352}[n]
    entry = pack_lanes([a | b << n | c << 3 * n - 1 for a, b, c in triples], circuit.width)
    out = run(circuit, entry)
    assert unpack_lanes(out, len(triples)) == [a | b << n | (a * b + c) << 2 * n for a, b, c in triples]
    assert sim._lane_add_and_rotate(circuit.layout, entry) == out


@pytest.mark.parametrize("n", range(1, 6))
def test_model_equals_the_circuit_from_every_entry_with_zcin_clear(n):
    # All 2^(4n) entry states with Zcin 0, any A, B and P, in one batch:
    # lane k holds the entry whose lines 0..4n-1 are the bits of k.
    circuit = build_multiplier(n)
    bits = 4 * n
    entry = [int(("1" * (1 << i) + "0" * (1 << i)) * (1 << (bits - i - 1)), 2) for i in range(bits)]
    assert unpack_lanes(entry, 16) == list(range(16))
    entry.append(0)  # Zcin
    assert sim._lane_add_and_rotate(circuit.layout, entry) == run(circuit, entry)


@pytest.mark.parametrize("n", [8, 16, 33, 64])
def test_model_equals_the_circuit_from_random_entries_with_zcin_clear(n):
    # 4,096 seeded random entry states with Zcin 0: every A, B and P line
    # holds 4,096 random lane bits.
    circuit = build_multiplier(n)
    rng = random.Random(n)
    entry = [rng.getrandbits(4096) for _ in range(4 * n)] + [0]
    assert sim._lane_add_and_rotate(circuit.layout, entry) == run(circuit, entry)


@pytest.mark.parametrize(
    "block, size, lanes",
    [
        ("mul", 3, 3), ("mul", 7, 4096), ("mul", 7, None),
        ("ror", 6, 3), ("ror", 13, 4096), ("ror", 13, None),
        ("cror", 5, 3), ("cror", 12, 4096), ("cror", 12, None),
    ],
)
def test_exhaustive_lane_patterns_follow_product_order(monkeypatch, block, size, lanes):
    states = []

    def recording_run(circuit, state, trace=False):
        states.append(list(state))
        return real_run(circuit, state, trace)

    real_run = sim.run
    monkeypatch.setattr(sim, "run", recording_run)
    width = {"mul": 4 * size + 1, "ror": size, "cror": size + 1}[block]
    if lanes is not None:  # None keeps the default bit budget
        _pin_lanes(monkeypatch, lanes, width)
    if block == "mul":
        report = verify_multiplier(size)
        want = [a | b << size for a, b in itertools.product(range(1 << size), repeat=2)]
    else:
        controls = (0, 1) if block == "cror" else (0,)
        report = verify_rotate(size, controlled=block == "cror")
        want = [value | c << size for value, c in itertools.product(range(1 << size), controls)]
    assert report.ok and report.checked == len(want)
    # the largest power of two within the budget's lanes, capped by the case count
    batch = min(1 << (sim.BATCH_BITS // width).bit_length() - 1, len(want))
    assert len(states) == len(want) // batch
    assert [entry for state in states for entry in unpack_lanes(state, batch)] == want


def test_exhaustive_lane_patterns_up_to_2_20_lanes():
    # read from the top lane down, index bit i is 2^i ones then 2^i zeros, repeated
    for s in range(21):
        lanes = 1 << s
        patterns = [int(("1" * (1 << i) + "0" * (1 << i)) * (lanes >> i + 1), 2) for i in range(s)]
        # index bit s: all zeros in the first batch, all ones in the second
        batches = list(sim._exhaustive_batches(s + 1, lanes))
        assert batches == [(patterns + [0], lanes), (patterns + [(1 << lanes) - 1], lanes)]


def test_a_broken_recurrence_fails_exactly_the_pairs_it_breaks(monkeypatch):
    # flip product bit 0 of the recurrence in the lanes where a and b are odd
    def broken(layout, state):
        out = real(layout, state)
        out[layout["P"].start] ^= state[layout["A"].start] & state[layout["B"].start]
        return out

    real = sim._lane_add_and_rotate
    monkeypatch.setattr(sim, "_lane_add_and_rotate", broken)

    def examples(n, pairs):
        circuit, explain = build_multiplier(n), reference_multiplier_explain(n)
        found = [
            explain(a | b << n, reference_run(circuit, pack_state(circuit.layout, {"A": a, "B": b})))
            for a, b in pairs
            if a & b & 1
        ]
        assert all(example["got"] == example["expected"] for example in found)  # the circuit is right
        return found

    # n = 3 has exactly 16 pairs of odd operands
    report = verify_multiplier(3)
    expected = examples(3, itertools.product(range(8), repeat=2))
    assert len(expected) == sim.MAX_COUNTEREXAMPLES
    assert report == VerifyReport(ok=False, checked=64, mode="exhaustive", counterexamples=expected)
    rng = random.Random(12)
    pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(40)]
    report = verify_multiplier(8, mode="random", count=40, seed=12)
    assert 0 < len(examples(8, pairs)) < sim.MAX_COUNTEREXAMPLES
    assert report == VerifyReport(
        ok=False, checked=40, mode="random", seed=12, counterexamples=examples(8, pairs)
    )


def test_a_schedule_the_builder_and_model_share_cannot_certify_itself(monkeypatch):
    # ADD/NOP 0 and ADD/NOP 1 swap their controls: builder and recurrence
    # then agree on a' * b, a with bits 0 and 1 swapped, but the schoolbook
    # product reads no schedule
    def swapped(layout):
        steps = real(layout)
        (add0, m0, c0, w0), ror, (add1, m1, c1, w1), *rest = steps
        return [(add0, m0, c1, w0), ror, (add1, m1, c0, w1), *rest]

    real = synth._schedule
    monkeypatch.setattr(synth, "_schedule", swapped)
    monkeypatch.setattr(sim, "_schedule", swapped)
    twisted = {a: a & ~3 | (a & 1) << 1 | a >> 1 & 1 for a in range(8)}
    assert oracle_multiply(3, 1, 1) == 2 and oracle_multiply(3, 5, 3) == 18
    # pairs run a-major: a = 1 and 2 fail for every b > 0, a = 3 and 4 never
    # do, and a = 5 fills the last two of the 16 slots
    wrong = [(a, b) for a in range(8) for b in range(8) if twisted[a] * b != a * b]
    expected = [
        {"a": a, "b": b, "expected": {"P": a * b, "A": a, "B": b, "Zcin": 0},
         "got": {"P": twisted[a] * b, "A": a, "B": b, "Zcin": 0}}
        for a, b in wrong[: sim.MAX_COUNTEREXAMPLES]
    ]
    assert [(e["a"], e["b"]) for e in expected] == [
        *((1, b) for b in range(1, 8)), *((2, b) for b in range(1, 8)), (5, 1), (5, 2)
    ]
    assert verify_multiplier(3) == VerifyReport(
        ok=False, checked=64, mode="exhaustive", counterexamples=expected
    )
