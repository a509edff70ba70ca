import hashlib
import itertools

import pytest

from revmul import (
    VerifyReport,
    build_addnop,
    build_controlled_ror,
    build_multiplier,
    build_ror,
    pack_state,
    register_value,
    run,
    structural_metrics,
    verify_multiplier,
)
from revmul import synth
from revmul.circuit import Circuit
from revmul.gates import CNOT, FREDKIN, SWAP, TOFFOLI, Gate
from revmul.io import write_netlist
from revmul.analysis import formula_metrics
from revmul.synth import (ADDNOP, ROR, _addnop_stages, _product_layout, _ror_stages, _schedule,
                          _shared_multiplier, multiplier_layout)


# ---------------------------------------------------------------- ADD/NOP

@pytest.mark.parametrize("n", range(1, 7))
def test_addnop_gate_budget(n):
    m = structural_metrics(build_addnop(n))
    assert m.gate_counts[TOFFOLI] == 2 * n + 1
    assert m.gate_counts[FREDKIN] == 2 * n
    assert m.quantum_cost == 20 * n + 5
    assert m.ancilla_inputs == n + 2


@pytest.mark.parametrize("n", range(1, 9))
def test_addnop_stage_structure(n):
    circ = build_addnop(n)
    assert circ.stage_count == 3 * n + 2
    m = structural_metrics(circ)
    assert m.staged_delay == 15 * n + 10
    assert m.asap_depth <= m.staged_delay


def test_addnop_n4_examples():
    m = structural_metrics(build_addnop(4))
    assert m.gate_counts == {TOFFOLI: 9, FREDKIN: 8}
    assert m.quantum_cost == 85
    assert build_addnop(4).stage_count == 14


@pytest.mark.parametrize("n", range(1, 4))
def test_addnop_adds_exhaustively(n):
    circ = build_addnop(n)
    layout = circ.layout
    for p, b in itertools.product(range(1 << n), range(1 << n)):
        state = pack_state(layout, {"A": 1, "B": b, "P": p})
        out = run(circ, state)
        assert register_value(layout, out, "P") == p + b
        assert register_value(layout, out, "B") == b
        assert register_value(layout, out, "A") == 1
        assert register_value(layout, out, "Zcin") == 0


def test_addnop_worked_example_n2():
    # A=1 control with window holding 1 and operand 3: window becomes 4
    circ = build_addnop(2)
    out = run(circ, pack_state(circ.layout, {"A": 1, "B": 3, "P": 1}))
    assert register_value(circ.layout, out, "P") == 4
    assert register_value(circ.layout, out, "B") == 3
    assert register_value(circ.layout, out, "Zcin") == 0


@pytest.mark.parametrize("n", range(1, 5))
def test_addnop_nop_is_identity(n):
    # control low: every line must come back unchanged, any window contents
    circ = build_addnop(n)
    layout = circ.layout
    for p in range(1 << (n + 1)):
        for b in range(1 << n):
            state = pack_state(layout, {"A": 0, "B": b, "P": p})
            assert run(circ, state) == state


def test_addnop_rejects_bad_sizes():
    for n in (0, -3):
        with pytest.raises(ValueError, match="operand width must be >= 1"):
            build_addnop(n)


# ---------------------------------------------------------------- rotate right

def ror_swap_pairs(circ):
    return [[tuple(g.lines) for g in stage] for stage in circ.stages()]


def test_ror8_exact_transpositions():
    stages = ror_swap_pairs(build_ror(8))
    assert stages == [
        [(0, 7), (1, 6), (2, 5), (3, 4)],
        [(0, 6), (1, 5), (2, 4)],
    ]


def test_ror4_exact_transpositions():
    assert ror_swap_pairs(build_ror(4)) == [[(0, 3), (1, 2)], [(0, 2)]]


def test_ror5_odd_width():
    assert ror_swap_pairs(build_ror(5)) == [[(0, 4), (1, 3)], [(0, 3), (1, 2)]]


@pytest.mark.parametrize("width", range(2, 18))
def test_ror_swap_count(width):
    m = structural_metrics(build_ror(width))
    assert m.gate_counts == {SWAP: width - 1}
    assert m.quantum_cost == 3 * (width - 1)


def test_ror8_quantum_cost():
    assert structural_metrics(build_ror(8)).quantum_cost == 21


@pytest.mark.parametrize("width", range(2, 33))
def test_ror_constant_depth(width):
    m = structural_metrics(build_ror(width))
    expected = 3 if width == 2 else 6
    assert m.asap_depth == expected
    assert m.staged_delay == expected


def test_ror_moves_bit_zero_to_top():
    circ = build_ror(5)
    out = run(circ, [1, 0, 0, 0, 0])
    assert out == [0, 0, 0, 0, 1]


@pytest.mark.parametrize("width", range(2, 18))
def test_ror_on_every_single_one_state(width):
    circ = build_ror(width)
    for hot in range(width):
        state = [1 if i == hot else 0 for i in range(width)]
        expected = [1 if i == (hot - 1) % width else 0 for i in range(width)]
        assert run(circ, state) == expected


@pytest.mark.parametrize("build", [build_ror, build_controlled_ror])
def test_ror_rejects_tiny_width(build):
    with pytest.raises(ValueError, match=r"^rotate width must be >= 2, got 1$"):
        build(1)


# ---------------------------------------------------------------- controlled rotate

def test_controlled_ror_cost_tradeoff():
    m = structural_metrics(build_controlled_ror(8))
    assert m.quantum_cost == 35  # vs 21 for the uncontrolled network
    assert m.gate_counts == {FREDKIN: 7}
    assert m.asap_depth == 35  # shared control serializes every gate


def test_controlled_ror_rotates_when_set():
    circ = build_controlled_ror(8)
    out = run(circ, [1, 0, 0, 0, 0, 0, 0, 0, 1])
    assert out == [0, 0, 0, 0, 0, 0, 0, 1, 1]


def test_controlled_ror_identity_when_clear():
    circ = build_controlled_ror(6)
    for value in range(1 << 6):
        state = [(value >> i) & 1 for i in range(6)] + [0]
        assert run(circ, state) == state


# ---------------------------------------------------------------- multiplier

def test_multiplier_n2_totals():
    m = structural_metrics(build_multiplier(2))
    assert m.gate_count == 21  # two 9-gate adders plus one 3-swap rotate
    assert m.quantum_cost == 99


@pytest.mark.parametrize("n", range(1, 7))
def test_multiplier_composition_budget(n):
    m = structural_metrics(build_multiplier(n))
    assert m.gate_counts.get(TOFFOLI, 0) == n * (2 * n + 1)
    assert m.gate_counts.get(FREDKIN, 0) == 2 * n * n
    assert m.gate_counts.get(SWAP, 0) == (n - 1) * (2 * n - 1)
    assert m.ancilla_inputs == 2 * n + 1


def test_multiplier_n4_ancilla():
    assert structural_metrics(build_multiplier(4)).ancilla_inputs == 9


def test_multiplier_width():
    for n in (1, 2, 3, 8):
        assert build_multiplier(n).width == 4 * n + 1


def test_multiplier_three_times_three():
    circ = build_multiplier(2)
    out = run(circ, pack_state(circ.layout, {"A": 3, "B": 3}))
    values = {name: register_value(circ.layout, out, name) for name in ("P", "A", "B", "Zcin")}
    assert values == {"P": 9, "A": 3, "B": 3, "Zcin": 0}


def test_multiplier_n1_degenerate():
    circ = build_multiplier(1)
    m = structural_metrics(circ)
    assert m.quantum_cost == 25
    assert SWAP not in m.gate_counts
    for a, b in itertools.product(range(2), repeat=2):
        out = run(circ, pack_state(circ.layout, {"A": a, "B": b}))
        assert register_value(circ.layout, out, "P") == a * b


def test_multiplier_rejects_bad_n():
    with pytest.raises(ValueError):
        build_multiplier(0)


def schedule_spans(n):
    """The built n x n multiplier, and each step of its schedule with the
    step's gate and stage indices, counted from the step kinds: an ADD/NOP of
    k-1 lines of B into a k-line window is 4(k-1)+1 gates in 3(k-1)+2
    stages, a rotate of k lines k-1 swaps in 2 stages (1 at k = 2)."""
    circ = build_multiplier(n)
    spans, gate, stage = [], 0, 0
    for step in _schedule(circ.layout):
        kind, _, _, lines = step
        k = len(lines[1] if kind == ADDNOP else lines[0])  # the window, or the rotated lines
        gates, stages = (4 * k - 3, 3 * k - 1) if kind == ADDNOP else (k - 1, 2 if k > 2 else 1)
        spans.append((step, range(gate, gate + gates), range(stage, stage + stages)))
        gate, stage = gate + gates, stage + stages
    return circ, spans


@pytest.mark.parametrize("n", range(2, 6))
def test_carry_slot_clear_at_every_adder_entry(n):
    # the rotate schedule must hand every embedded adder a clear top window
    # line, the precondition under which its carry-out store is exact
    circ, spans = schedule_spans(n)
    layout = circ.layout
    entries = []  # each adder's top window line and the gates before its entry
    for (kind, *_, lines), gates, _ in spans:
        if kind == ADDNOP:
            prefix = Circuit(layout)
            for gate in circ.gates[: gates.start]:
                prefix.append(gate)
            entries.append((lines[1][-1], prefix))  # the window's top line
    assert len(entries) == n

    for a, b in itertools.product(range(1 << n), repeat=2):
        state = pack_state(layout, {"A": a, "B": b})
        for top, prefix in entries:
            assert run(prefix, state)[top] == 0
        assert register_value(layout, run(circ, state), "P") == a * b


@pytest.mark.parametrize("n", [*range(1, 41), 64, 128])
def test_schedule_tiles_the_built_multiplier(n):
    circ, spans = schedule_spans(n)
    a, b, p, z = (circ.layout[name] for name in ("A", "B", "P", "Zcin"))
    assert [(kind, m) for (kind, m, *_), _, _ in spans] == [
        (kind, m) for m in range(n) for kind in (ADDNOP, ROR) if kind == ADDNOP or m < n - 1
    ]
    assert [i for _, gates, _ in spans for i in gates] == list(range(len(circ.gates)))
    assert [i for _, _, stages in spans for i in stages] == list(range(len(circ.stage_marks)))
    assert spans[-1][1].stop == formula_metrics("mul", n).gate_count
    for (kind, m, control, lines), gates, stages in spans:
        assert circ.stage_marks[stages[-1]] == gates.stop, (kind, m)  # the step ends on a mark
        block = circ.gates[gates.start:gates.stop]
        touched = {line for g in block for line in g.lines}
        if kind == ADDNOP:
            assert len(block) == 4 * n + 1 and len(stages) == 3 * n + 2, (kind, m)
            toffolis = [g for g in block if g.kind == TOFFOLI]
            fredkins = [g for g in block if g.kind == FREDKIN]
            assert len(toffolis) == 2 * n + 1 and len(fredkins) == 2 * n, (kind, m)
            assert all(g.lines[0] == a.line(m) for g in toffolis), (kind, m)
            assert not any(line in a.lines for g in fredkins for line in g.lines), (kind, m)
            operand, window, carry = lines
            assert operand == b.lines and carry == z.start, (kind, m)
            assert touched == {control, *b.lines, *window, z.start}, (kind, m)
        else:
            assert len(block) == 2 * n - 1 and len(stages) == 2, (kind, m)
            assert all(g.kind == SWAP and all(line in p.lines for line in g.lines) for g in block), (kind, m)
            assert control is None and touched == set(*lines), (kind, m)


def test_multiplier_stage_count():
    for n in (1, 2, 3, 4):
        expected = n * (3 * n + 2) + (n - 1) * 2
        assert build_multiplier(n).stage_count == expected


def checked(layout, stages):
    """A circuit holding `stages`, built through Circuit's checked path:
    `append` range-checks every gate and `mark_stage` checks that each
    stage's gates act on disjoint lines."""
    circ = Circuit(layout)
    for stage in stages:
        for gate in stage:
            circ.append(gate)
        circ.mark_stage()
    return circ


def reference_multiplier(layout):
    """The product over `layout` emitted step by step from its schedule
    through the checked path, each ADD/NOP by the `synth._addnop_stages` in
    place at the call."""
    stages = []
    for kind, _, control, lines in _schedule(layout):
        stages += synth._addnop_stages(control, *lines) if kind == ADDNOP else _ror_stages(*lines)
    return checked(layout, stages)


PRODUCTS = {
    "mul": (build_multiplier, multiplier_layout),
    "addnop": (build_addnop, lambda n: _product_layout(n, 1)),  # the one-row product
}


@pytest.mark.parametrize(
    "block, n", [*(("mul", n) for n in range(1, 33)), *(("addnop", n) for n in range(1, 41))]
)
def test_multiplier_equals_checked_block_by_block_build(block, n):
    # layout, every gate and every stage mark
    build, layout = PRODUCTS[block]
    assert build(n) == reference_multiplier(layout(n))


def toffoli_controls_swapped(a, b, w, z):
    """The paper's ADD/NOP with the two controls of every Toffoli swapped:
    the block's control is the second line of each gate that reads it."""
    return [
        [Gate(TOFFOLI, (g.lines[1], g.lines[0], g.lines[2])) if g.kind == TOFFOLI else g for g in stage]
        for stage in _addnop_stages(a, b, w, z)
    ]


def controlled_cdkm(x, b, w, z):
    """The ripple-carry adder of Cuccaro, Draper, Kutin and Petrie Moulton
    (quant-ph/0410184) made controlled by x, one gate per stage: MAJ up the
    chain with the carries on b (its Toffolis do not read x), the carry out
    onto w[n] under x, then a controlled UMA down. Adds x * b into w."""
    n = len(b)
    carry_in = [z, *b[:-1]]  # after position i-1's MAJ, b[i-1] holds its carry out
    gates = []
    for i in range(n):
        c = carry_in[i]
        gates += [Gate(CNOT, (b[i], w[i])), Gate(CNOT, (b[i], c)), Gate(TOFFOLI, (c, w[i], b[i]))]
    gates.append(Gate(TOFFOLI, (x, b[n - 1], w[n])))
    for i in reversed(range(n)):
        c = carry_in[i]
        gates += [Gate(TOFFOLI, (c, w[i], b[i])), Gate(CNOT, (b[i], w[i])),
                  Gate(TOFFOLI, (x, c, w[i])), Gate(CNOT, (b[i], c))]
    return [[g] for g in gates]


@pytest.mark.parametrize("adder", [toffoli_controls_swapped, controlled_cdkm], ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", range(1, 6))
def test_product_stamps_any_adder_by_its_control_slots(adder, n, monkeypatch):
    # a reused template is stamped wherever its gates hold its control, in
    # any slot, and only there, whatever the gate kinds
    monkeypatch.setattr(synth, "_addnop_stages", adder)
    circuit = build_multiplier(n)
    assert circuit == reference_multiplier(circuit.layout)
    assert _shared_multiplier(n) == circuit
    assert verify_multiplier(n, circuit=circuit) == VerifyReport(
        ok=True, checked=4**n, mode="exhaustive", garbage_outputs=0
    )


def test_multiplier_gates_are_distinct_objects():
    gates = build_multiplier(4).gates
    assert len({id(g) for g in gates}) == len(gates)


def counted_build(build, size, monkeypatch):
    """`build(size)` and the number of Gate constructions it made."""
    calls = 0
    checked_init = Gate.__init__

    def counting_init(self, kind, lines):
        nonlocal calls
        calls += 1
        checked_init(self, kind, lines)

    monkeypatch.setattr(Gate, "__init__", counting_init)
    circuit = build(size)
    return circuit, calls


def assert_constructs_each_gate_once(build, size, monkeypatch):
    circuit, calls = counted_build(build, size, monkeypatch)
    assert calls == len(circuit.gates), (
        f"{build.__name__}({size}): {calls} Gate constructions for {len(circuit.gates)} gates; "
        "every emitted gate must be constructed, and so checked, exactly once"
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_multiplier_constructs_each_gate_once(n, monkeypatch):
    assert_constructs_each_gate_once(build_multiplier, n, monkeypatch)


@pytest.mark.parametrize("n", [*range(1, 41), 64])
def test_shared_multiplier_equals_the_built_one(n):
    # layout, kinds, lines and stage marks
    assert _shared_multiplier(n) == build_multiplier(n)


@pytest.mark.parametrize("n", [*range(1, 9), 32])
def test_shared_multiplier_constructs_each_distinct_gate_once(n, monkeypatch):
    # every gate is a checked Gate, made once and reused by each block that
    # does not put its multiplier qubit in it: the first ADD/NOP's 4n+1 and
    # the first rotate's 2n-1, then 2n+1 Toffolis per later ADD/NOP
    circuit, calls = counted_build(_shared_multiplier, n, monkeypatch)
    assert calls == len({id(gate) for gate in circuit.gates})
    assert calls == (5 if n == 1 else 2 * n * n + 5 * n - 1)
    assert all(type(gate) is Gate for gate in circuit.gates)


@pytest.mark.parametrize(
    "build, size",
    [(build_addnop, 1), (build_addnop, 6), (build_ror, 2), (build_ror, 9),
     (build_controlled_ror, 2), (build_controlled_ror, 9)],
)
def test_block_builders_construct_each_gate_once(build, size, monkeypatch):
    assert_constructs_each_gate_once(build, size, monkeypatch)


# The builders assemble their stages without Circuit's run-time checks; each
# one's output must come back unchanged through them.
@pytest.mark.parametrize(
    "build, sizes",
    [
        (build_addnop, range(1, 41)),
        (build_ror, range(2, 81)),
        (build_controlled_ror, range(2, 81)),
        (build_multiplier, range(1, 33)),
    ],
)
def test_builders_pass_the_checked_path(build, sizes):
    for size in sizes:
        circ = build(size)
        assert checked(circ.layout, circ.stages()) == circ, f"{build.__name__}({size})"


def test_builders_never_call_the_checked_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("a builder went through Circuit's run-time checks")

    for name in ("append", "mark_stage"):
        monkeypatch.setattr(Circuit, name, refuse)
    build_addnop(5)
    build_ror(8)
    build_controlled_ror(8)
    for n in (1, 2, 5):
        build_multiplier(n)


# sha256 of the .rev netlist: n = 1, then the digests the benchmark pins
MULTIPLIER_NETLIST_SHA256 = {
    1: "87322c8892d12610ce342b33090a110521e72a0457a0898570f05a06072ed1cc",
    2: "8a0a8995aa31facd2677379a6cf01c53fb449c7758432e4c1a33a4ea7a8bed7c",
    3: "1e90fa1d20df9712cada5476c50e8c2ea87ddb908bbba86c89b41654f1d313b1",
    4: "71fa9c5de262134a102597ccc4ea9cf64e8719cae1d9682173b0e21bd73885a8",
    6: "91ac1437a8fb9298503a5336b79ff37dfea4127b63e9b1a7c14a4c2fe800469b",
    16: "d78c82d0cf698da717a9235d8c5201d24a4a5a6016d0a632e9e35e66df8b2987",
}


@pytest.mark.parametrize("n", sorted(MULTIPLIER_NETLIST_SHA256))
def test_multiplier_netlist_bytes_pinned(n):
    text = write_netlist(build_multiplier(n))
    assert hashlib.sha256(text.encode()).hexdigest() == MULTIPLIER_NETLIST_SHA256[n]


# sha256 of the .rev netlist of each block at the edges of its rule: the
# one-bit ADD/NOP (no upward layer, nothing to unwind; it is the n = 1
# multiplier), the two-bit ADD/NOP, and the one- and two-stage rotates
BLOCK_NETLIST_SHA256 = {
    (build_addnop, 1): MULTIPLIER_NETLIST_SHA256[1],
    (build_addnop, 2): "d8c72c3d722969263e80572e066801cb63d452b59974656c9bf57b7025596da5",
    (build_ror, 2): "5ad81cd47e9f704292244080b9ac46ea93d81328b58acb89c5e5f011d4bd5d1b",
    (build_ror, 3): "8cfd99e82172c722bf232417072a37694507ce2d91d8a74d936e173b698a3dc8",
    (build_controlled_ror, 2): "ffcb243e83315a0c65a3553493504851d9a4aa40a998fcfddfba138bdc1cc5b2",
    (build_controlled_ror, 3): "c57275f82daef81fd1b32bd7f5d75af3d271dfda2400435e3c4a205cb4f86f75",
}


@pytest.mark.parametrize(
    "build, size", list(BLOCK_NETLIST_SHA256), ids=lambda arg: getattr(arg, "__name__", arg)
)
def test_block_netlist_bytes_pinned(build, size):
    text = write_netlist(build(size))
    assert hashlib.sha256(text.encode()).hexdigest() == BLOCK_NETLIST_SHA256[build, size]
