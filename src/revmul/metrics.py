"""Structural resource metrics: gate counts, quantum cost and depth measures."""

from dataclasses import dataclass, field

from .circuit import Circuit
from .gates import KIND_ORDER


@dataclass
class Metrics:
    """Resource counts for one circuit.

    garbage_outputs is a semantic property: structural analysis cannot prove a
    line is not garbage, so it stays None until the verification harness
    certifies it. For circuits whose stage marks are honest parallel layers,
    asap_depth <= staged_delay <= quantum_cost.
    """

    gate_counts: dict[str, int] = field(default_factory=dict)
    gate_count: int = 0
    quantum_cost: int = 0
    ancilla_inputs: int = 0
    asap_depth: int | None = None
    staged_delay: int | None = None
    garbage_outputs: int | None = None


def asap_depth(circuit: Circuit) -> int:
    """Greedy earliest-layer depth, in primitive-gate units.

    Each gate lands in the earliest layer after every earlier gate sharing a
    line with it; gates on disjoint lines share a layer. A layer costs as much
    as its most expensive gate, and the depth is the sum of layer costs.
    """
    next_free = [0] * circuit.width  # first layer each line is free in
    free_at = next_free.__getitem__
    layer_costs: list[int] = []
    for gate in circuit.gates:
        lines = gate.lines
        layer = max(map(free_at, lines))
        if layer == len(layer_costs):
            layer_costs.append(0)
        cost = gate.cost
        if cost > layer_costs[layer]:
            layer_costs[layer] = cost
        layer += 1
        for line in lines:
            next_free[line] = layer
    return sum(layer_costs)


def staged_delay(circuit: Circuit) -> int:
    """Sum over stages of the most expensive gate in each stage.

    Unmarked trailing gates count as one sequential stage apiece, so a circuit
    with no marks at all is priced fully sequentially (= its quantum cost).
    """
    costs = [g.cost for g in circuit.gates]
    total = start = 0
    for mark in circuit.stage_marks:
        total += max(costs[start:mark])
        start = mark
    return total + sum(costs[start:])


def structural_metrics(circuit: Circuit) -> Metrics:
    counts: dict[str, int] = {}
    for gate in circuit.gates:
        counts[gate.kind] = counts.get(gate.kind, 0) + 1
    ordered = {kind: counts[kind] for kind in KIND_ORDER if kind in counts}
    return Metrics(
        gate_counts=ordered,
        gate_count=len(circuit.gates),
        quantum_cost=sum(g.cost for g in circuit.gates),
        ancilla_inputs=circuit.layout.ancilla_inputs,
        asap_depth=asap_depth(circuit),
        staged_delay=staged_delay(circuit),
        garbage_outputs=None,
    )
