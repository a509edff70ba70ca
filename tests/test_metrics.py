import random

import pytest

from revmul import (
    Circuit,
    Metrics,
    Register,
    RegisterLayout,
    build_addnop,
    build_controlled_ror,
    build_multiplier,
    build_ror,
    structural_metrics,
)
from revmul.gates import CNOT, FREDKIN, KIND_ORDER, QUANTUM_COST, SWAP, TOFFOLI, Gate


def scratch(width):
    return Circuit(RegisterLayout([Register("R", 0, width)]))


def test_empty_circuit_all_zero():
    m = structural_metrics(scratch(3))
    assert m.gate_count == 0
    assert m.quantum_cost == 0
    assert m.asap_depth == 0
    assert m.staged_delay == 0
    assert m.gate_counts == {}
    assert m.garbage_outputs is None


def test_quantum_cost_is_weighted_count():
    circ = scratch(6)
    circ.append(Gate(CNOT, (0, 1)))
    circ.append(Gate(TOFFOLI, (0, 1, 2)))
    circ.append(Gate(TOFFOLI, (3, 4, 5)))
    circ.append(Gate(SWAP, (2, 3)))
    m = structural_metrics(circ)
    assert m.quantum_cost == 1 + 5 + 5 + 3
    assert m.gate_counts == {"cx": 1, "ccx": 2, "swap": 1}


def test_asap_single_swap():
    circ = scratch(2)
    circ.append(Gate(SWAP, (0, 1)))
    assert structural_metrics(circ).asap_depth == 3


def test_asap_disjoint_toffolis_share_a_layer():
    circ = scratch(6)
    circ.append(Gate(TOFFOLI, (0, 1, 2)))
    circ.append(Gate(TOFFOLI, (3, 4, 5)))
    assert structural_metrics(circ).asap_depth == 5


def test_asap_shared_line_serializes():
    circ = scratch(3)
    circ.append(Gate(TOFFOLI, (0, 1, 2)))
    circ.append(Gate(TOFFOLI, (0, 1, 2)))
    assert structural_metrics(circ).asap_depth == 10


def test_asap_invariant_under_reorder_within_stage():
    from revmul import Circuit

    rng = random.Random(7)
    circ = build_addnop(4)
    reordered = Circuit(circ.layout)
    start = 0
    for mark in circ.stage_marks:
        stage = circ.gates[start:mark]
        rng.shuffle(stage)
        for gate in stage:
            reordered.append(gate)
        reordered.mark_stage()
        start = mark
    assert structural_metrics(reordered).asap_depth == structural_metrics(circ).asap_depth


def test_staged_delay_uses_stage_maximum():
    circ = scratch(5)
    circ.append(Gate(SWAP, (0, 1)))
    circ.append(Gate(TOFFOLI, (2, 3, 4)))
    circ.mark_stage()
    assert structural_metrics(circ).staged_delay == 5


def test_unstaged_circuit_priced_sequentially():
    circ = scratch(4)
    circ.append(Gate(SWAP, (0, 1)))
    circ.append(Gate(SWAP, (2, 3)))
    m = structural_metrics(circ)
    assert m.staged_delay == m.quantum_cost == 6
    assert m.asap_depth == 3  # the greedy schedule still parallelizes


def test_depth_ordering_on_built_blocks():
    for circ in (build_addnop(3), build_ror(8), build_ror(7)):
        m = structural_metrics(circ)
        assert m.asap_depth <= m.staged_delay <= m.quantum_cost


def stages_delay(circ):
    """Staged delay summed over Circuit.stages(), the reference."""
    return sum(max(QUANTUM_COST[g.kind] for g in stage) for stage in circ.stages())


def mixed_circuit(marked):
    # 7 gates of costs 1, 5, 3, 5, 3, 1, 5; `marked` closes a stage after
    # each listed gate count
    circ = scratch(6)
    gates = [(CNOT, (0, 1)), (TOFFOLI, (2, 3, 4)), (SWAP, (0, 5)), (FREDKIN, (1, 2, 3)),
             (SWAP, (4, 5)), (CNOT, (0, 1)), (TOFFOLI, (3, 4, 5))]
    for count, (kind, lines) in enumerate(gates, 1):
        circ.append(Gate(kind, lines))
        if count in marked:
            circ.mark_stage()
    return circ


@pytest.mark.parametrize(
    "circ",
    [
        scratch(3),
        mixed_circuit(()),  # no marks: priced gate by gate
        mixed_circuit(range(1, 8)),  # every gate its own marked stage
        mixed_circuit((2, 3)),  # trailing unmarked gates
        mixed_circuit((1,)),
        build_ror(7),
        build_multiplier(3),
    ],
)
def test_staged_delay_matches_stage_list_sum(circ):
    assert structural_metrics(circ).staged_delay == stages_delay(circ)


def test_staged_delay_trailing_gates_each_a_stage():
    # stages [cx, ccx] and [swap], then four unmarked gates of their own
    assert structural_metrics(mixed_circuit((2, 3))).staged_delay == 5 + 3 + 5 + 3 + 1 + 5


def reference_asap_depth(circuit):
    """ASAP depth as it was computed with a dict of next free layers."""
    next_free = {}
    layer_costs = []
    for gate in circuit.gates:
        layer = max((next_free.get(line, 0) for line in gate.lines), default=0)
        if layer == len(layer_costs):
            layer_costs.append(0)
        if QUANTUM_COST[gate.kind] > layer_costs[layer]:
            layer_costs[layer] = QUANTUM_COST[gate.kind]
        for line in gate.lines:
            next_free[line] = layer + 1
    return sum(layer_costs)


@pytest.mark.parametrize(
    "circ",
    [
        scratch(3),
        mixed_circuit(()),
        build_addnop(5),
        build_ror(9),
        build_controlled_ror(8),
        build_multiplier(4),
    ],
)
def test_asap_depth_matches_reference(circ):
    assert structural_metrics(circ).asap_depth == reference_asap_depth(circ)


def test_asap_depth_matches_reference_on_multipliers():
    for n in range(1, 41):
        circ = build_multiplier(n)
        assert structural_metrics(circ).asap_depth == reference_asap_depth(circ), n


# ---------------------------------------------------------------- metrics against per-gate loops

def random_circuit(seed, width=7, gates=60):
    """Gates of all four kinds on random lines; each stage gathers gates on
    disjoint lines and is marked or, now and then, left unmarked at the end."""
    rng = random.Random(seed)
    makers = [(2, CNOT), (3, TOFFOLI), (3, FREDKIN), (2, SWAP)]
    circ = scratch(width)
    used = set()
    for count in range(1, gates + 1):
        arity, kind = rng.choice(makers)
        lines = rng.sample(range(width), arity)
        if used & set(lines):
            circ.mark_stage()
            used.clear()
        circ.append(Gate(kind, lines))
        used.update(lines)
    if rng.random() < 0.5:
        circ.mark_stage()
    return circ


def reference_staged_delay(circuit):
    """Per-gate loop: the running maximum of the open stage, added at each mark."""
    marks = set(circuit.stage_marks)
    last = circuit.stage_marks[-1] if circuit.stage_marks else 0
    total = stage_max = 0
    for pos, gate in enumerate(circuit.gates, 1):
        if pos > last:  # after the last mark each gate is a stage of its own
            total += QUANTUM_COST[gate.kind]
            continue
        stage_max = max(stage_max, QUANTUM_COST[gate.kind])
        if pos in marks:
            total += stage_max
            stage_max = 0
    return total


def reference_metrics(circuit):
    counts, cost = {}, 0
    for gate in circuit.gates:
        counts[gate.kind] = counts.get(gate.kind, 0) + 1
        cost += QUANTUM_COST[gate.kind]
    return Metrics(
        gate_counts={kind: counts[kind] for kind in KIND_ORDER if kind in counts},
        gate_count=len(circuit.gates),
        quantum_cost=cost,
        ancilla_inputs=circuit.layout.ancilla_inputs,
        asap_depth=reference_asap_depth(circuit),
        staged_delay=reference_staged_delay(circuit),
        garbage_outputs=None,
    )


def unmarked(circuit):
    copy = Circuit(circuit.layout)
    copy.gates.extend(circuit.gates)
    return copy


METRIC_CASES = [random_circuit(seed) for seed in range(40)] + [
    scratch(4),  # no gates
    unmarked(random_circuit(40)),  # no marks
    unmarked(build_multiplier(3)),
    build_multiplier(5),
]


@pytest.mark.parametrize("circ", METRIC_CASES)
def test_metrics_match_per_gate_loops(circ):
    want = reference_metrics(circ)
    got = structural_metrics(circ)
    assert got.asap_depth == want.asap_depth
    assert got.staged_delay == want.staged_delay == stages_delay(circ)
    assert got == want
    assert list(got.gate_counts) == list(want.gate_counts)


def test_random_circuits_mix_every_kind_and_stage_shape():
    kinds = {gate.kind for circ in METRIC_CASES[:40] for gate in circ.gates}
    assert kinds == set(KIND_ORDER)
    assert any(len(c.gates) > c.stage_marks[-1] for c in METRIC_CASES[:40] if c.stage_marks)
    assert any(len(c.gates) == c.stage_marks[-1] for c in METRIC_CASES[:40] if c.stage_marks)
