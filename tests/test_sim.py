import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revmul import (
    Register,
    RegisterLayout,
    VerifyReport,
    build_addnop,
    build_controlled_ror,
    build_multiplier,
    build_ror,
    cnot,
    fredkin,
    oracle_multiply,
    oracle_rotate_right,
    pack_state,
    parse_netlist,
    register_value,
    run,
    swap,
    toffoli,
    verify_multiplier,
    verify_rotate,
    write_netlist,
)
from revmul import sim
from revmul.circuit import Circuit
from revmul.gates import ARITY, FREDKIN, KIND_ORDER, SWAP, TOFFOLI, Gate


# ---------------------------------------------------------------- gate semantics

def apply_gate(state, gate):
    """One gate on a basis state, as a one-gate circuit."""
    circ = Circuit(RegisterLayout([Register("R", 0, len(state))]))
    circ.append(gate)
    return run(circ, state)


def test_toffoli_semantics():
    assert apply_gate([1, 1, 0], toffoli(0, 1, 2)) == [1, 1, 1]
    assert apply_gate([1, 0, 0], toffoli(0, 1, 2)) == [1, 0, 0]


def test_fredkin_semantics():
    assert apply_gate([0, 1, 0], fredkin(0, 1, 2)) == [0, 1, 0]  # clear control: no move
    assert apply_gate([1, 1, 0], fredkin(0, 1, 2)) == [1, 0, 1]


def test_swap_and_cnot_semantics():
    assert apply_gate([0, 1], swap(0, 1)) == [1, 0]
    assert apply_gate([1, 0], cnot(0, 1)) == [1, 1]
    assert apply_gate([0, 1], cnot(0, 1)) == [0, 1]


def test_run_does_not_mutate_input():
    state = [1, 1, 0]
    apply_gate(state, toffoli(0, 1, 2))
    assert state == [1, 1, 0]


@pytest.mark.parametrize("gate", [cnot(0, 1), toffoli(0, 1, 2), fredkin(2, 0, 1), swap(1, 2)])
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
    final, snapshots = run(circ, state, trace=True)
    assert len(snapshots) == circ.stage_count == 8
    assert snapshots[-1] == final
    assert run(circ, state) == final


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
    with pytest.raises(ValueError, match="n <= 6"):
        verify_multiplier(7, mode="exhaustive")


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

    for name in ("build_multiplier", "build_ror", "build_controlled_ror"):
        monkeypatch.setattr(sim, name, refuse)
    verifiers = (
        (verify_multiplier, 7),
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


def _drop_last_gate(circuit):
    damaged = Circuit(circuit.layout)
    damaged.extend(circuit.gates[:-1])
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


def test_pack_state_ancilla_default_and_override():
    layout = build_addnop(2).layout
    state = pack_state(layout, {"A": 1, "B": 2})
    assert register_value(layout, state, "P") == 0
    state = pack_state(layout, {"A": 1, "B": 2, "P": 5})
    assert register_value(layout, state, "P") == 5


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
    final, snapshots = run(circ, packed, trace=True)
    assert run(circ, packed) == final

    def lane(packed_state, k):
        return [(value >> k) & 1 for value in packed_state]

    for k, state in enumerate(states):
        want_final, want_snapshots = reference_run(circ, state, trace=True)
        assert lane(final, k) == want_final
        assert [lane(snapshot, k) for snapshot in snapshots] == want_snapshots


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


def reference_multiplier_examples(n, circuit, mode, count=0, seed=0):
    if mode == "exhaustive":
        pairs = list(itertools.product(range(1 << n), repeat=2))
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(count)]
    examples = []
    for a, b in pairs:
        out = reference_run(circuit, pack_state(circuit.layout, {"A": a, "B": b}))
        got = {name: register_value(circuit.layout, out, name) for name in ("P", "A", "B", "Zcin")}
        expected = {"P": a * b, "A": a, "B": b, "Zcin": 0}
        wrong = got != expected or oracle_multiply(n, a, b) != a * b
        examples.append({"a": a, "b": b, "expected": expected, "got": got} if wrong else None)
    return examples


def reference_rotate_examples(width, circuit, controlled, mode, count=0, seed=0):
    controls = (0, 1) if controlled else (None,)
    if mode == "exhaustive":
        cases = list(itertools.product(range(1 << width), controls))
    else:
        rng = random.Random(seed)
        cases = [(value, c) for value in (rng.getrandbits(width) for _ in range(count)) for c in controls]
    examples = []
    for value, control in cases:
        window = [(value >> i) & 1 for i in range(width)]
        tail = [] if control is None else [control]
        want = (window if control == 0 else oracle_rotate_right(window)) + tail
        out = reference_run(circuit, window + tail)
        wrong = out != want
        examples.append(
            {"input": value, "control": control, "expected": want, "got": out} if wrong else None
        )
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
    c3 = [toffoli(p2, b0, a0), toffoli(p0, p1, b0), toffoli(p2, b0, a0), toffoli(p0, p1, b0)]
    circ.extend([toffoli(p3, a0, zcin), *c3, toffoli(p3, a0, zcin), *c3])
    return circ


def _drop_last_gate_of(builder):
    return lambda width: _drop_last_gate(builder(width))


@pytest.mark.parametrize("controlled, width", [(False, 14), (True, 13)])
def test_exhaustive_rotate_sweep_over_several_batches_matches_reference(
    monkeypatch, controlled, width
):
    # 2^14 cases, four batches
    monkeypatch.setattr(sim, "build_ror", _drop_last_gate_of(build_ror))
    monkeypatch.setattr(sim, "build_controlled_ror", _drop_last_gate_of(build_controlled_ror))
    damaged = (sim.build_controlled_ror if controlled else sim.build_ror)(width)
    examples = reference_rotate_examples(width, damaged, controlled, "exhaustive")
    assert len(examples) > sim.LANES
    report = verify_rotate(width, controlled=controlled)
    assert report == reference_report("exhaustive", None, examples)
    assert not report.ok and len(report.counterexamples) == 16


def test_random_sweep_one_past_a_batch_matches_reference():
    damaged = _drop_last_gate(build_multiplier(4))
    count = sim.LANES + 1
    examples = reference_multiplier_examples(4, damaged, "random", count, seed=5)
    report = verify_multiplier(4, mode="random", count=count, seed=5, circuit=damaged)
    assert report == reference_report("random", 5, examples)
    assert not report.ok


def test_first_counterexamples_spanning_two_batches_match_reference():
    circuit = flagged_multiplier(6)
    count = 3 * sim.LANES
    examples = reference_multiplier_examples(6, circuit, "random", count, seed=3)
    failing = [i for i, example in enumerate(examples) if example is not None]
    in_first = sum(i < sim.LANES for i in failing)
    assert 0 < in_first < 16 <= sum(i < 2 * sim.LANES for i in failing) < len(failing)
    report = verify_multiplier(6, mode="random", count=count, seed=3, circuit=circuit)
    assert report == reference_report("random", 3, examples)


@pytest.mark.parametrize("lanes", [1, 3, 64])
def test_reports_do_not_depend_on_the_batch_size(monkeypatch, lanes):
    damaged = _drop_last_gate(build_multiplier(3))
    want_mul = verify_multiplier(3, circuit=damaged)
    want_rand = verify_multiplier(3, mode="random", count=200, seed=8, circuit=damaged)
    monkeypatch.setattr(sim, "build_controlled_ror", _drop_last_gate_of(build_controlled_ror))
    want_rot = verify_rotate(5, mode="random", count=101, seed=2, controlled=True)
    monkeypatch.setattr(sim, "LANES", lanes)
    assert verify_multiplier(3, circuit=damaged) == want_mul
    assert verify_multiplier(3, mode="random", count=200, seed=8, circuit=damaged) == want_rand
    assert verify_rotate(5, mode="random", count=101, seed=2, controlled=True) == want_rot
    assert want_mul == reference_report(
        "exhaustive", None, reference_multiplier_examples(3, damaged, "exhaustive")
    )
