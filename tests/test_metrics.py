import random

import pytest

from revmul import (
    Circuit,
    Register,
    RegisterLayout,
    asap_depth,
    build_addnop,
    build_controlled_ror,
    build_multiplier,
    build_ror,
    cnot,
    fredkin,
    staged_delay,
    structural_metrics,
    swap,
    toffoli,
)


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
    circ.append(cnot(0, 1))
    circ.append(toffoli(0, 1, 2))
    circ.append(toffoli(3, 4, 5))
    circ.append(swap(2, 3))
    m = structural_metrics(circ)
    assert m.quantum_cost == 1 + 5 + 5 + 3
    assert m.gate_counts == {"cx": 1, "ccx": 2, "swap": 1}


def test_asap_single_swap():
    circ = scratch(2)
    circ.append(swap(0, 1))
    assert asap_depth(circ) == 3


def test_asap_disjoint_toffolis_share_a_layer():
    circ = scratch(6)
    circ.append(toffoli(0, 1, 2))
    circ.append(toffoli(3, 4, 5))
    assert asap_depth(circ) == 5


def test_asap_shared_line_serializes():
    circ = scratch(3)
    circ.append(toffoli(0, 1, 2))
    circ.append(toffoli(0, 1, 2))
    assert asap_depth(circ) == 10


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
    assert asap_depth(reordered) == asap_depth(circ)


def test_staged_delay_uses_stage_maximum():
    circ = scratch(5)
    circ.append(swap(0, 1))
    circ.append(toffoli(2, 3, 4))
    circ.mark_stage()
    assert staged_delay(circ) == 5


def test_unstaged_circuit_priced_sequentially():
    circ = scratch(4)
    circ.append(swap(0, 1))
    circ.append(swap(2, 3))
    m = structural_metrics(circ)
    assert m.staged_delay == m.quantum_cost == 6
    assert m.asap_depth == 3  # the greedy schedule still parallelizes


def test_depth_ordering_on_built_blocks():
    for circ in (build_addnop(3), build_ror(8), build_ror(7)):
        m = structural_metrics(circ)
        assert m.asap_depth <= m.staged_delay <= m.quantum_cost


def stages_delay(circ):
    """Staged delay summed over Circuit.stages(), the reference."""
    return sum(max(g.cost for g in stage) for stage in circ.stages())


def mixed_circuit(marked):
    # 7 gates of costs 1, 5, 3, 5, 3, 1, 5; `marked` closes a stage after
    # each listed gate count
    circ = scratch(6)
    gates = [cnot(0, 1), toffoli(2, 3, 4), swap(0, 5), fredkin(1, 2, 3),
             swap(4, 5), cnot(0, 1), toffoli(3, 4, 5)]
    for count, gate in enumerate(gates, 1):
        circ.append(gate)
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
    assert staged_delay(circ) == stages_delay(circ)


def test_staged_delay_trailing_gates_each_a_stage():
    # stages [cx, ccx] and [swap], then four unmarked gates of their own
    assert staged_delay(mixed_circuit((2, 3))) == 5 + 3 + 5 + 3 + 1 + 5


def reference_asap_depth(circuit):
    """`asap_depth` as it was with a dict of next free layers."""
    next_free = {}
    layer_costs = []
    for gate in circuit.gates:
        layer = max((next_free.get(line, 0) for line in gate.lines), default=0)
        if layer == len(layer_costs):
            layer_costs.append(0)
        if gate.cost > layer_costs[layer]:
            layer_costs[layer] = gate.cost
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
    assert asap_depth(circ) == reference_asap_depth(circ)


def test_asap_depth_matches_reference_on_multipliers():
    for n in range(1, 41):
        circ = build_multiplier(n)
        assert asap_depth(circ) == reference_asap_depth(circ), n
