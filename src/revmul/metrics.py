"""Structural resource metrics: gate counts, quantum cost and depth measures."""

from collections import Counter
from dataclasses import dataclass, field

from .circuit import Circuit
from .gates import KIND_ORDER, QUANTUM_COST


@dataclass
class Metrics:
    """Resource counts for one circuit.

    garbage_outputs is a semantic property: structural analysis cannot prove a
    line is not garbage, so it stays None until the verification harness
    certifies it. For circuits whose stage marks are honest parallel layers,
    asap_depth <= staged_delay <= quantum_cost. The field order is the key
    order of the JSON report (`io.metrics_json`).
    """

    gate_counts: dict[str, int] = field(default_factory=dict)
    gate_count: int = 0
    quantum_cost: int = 0
    ancilla_inputs: int = 0
    garbage_outputs: int | None = None
    asap_depth: int | None = None
    staged_delay: int | None = None


def _costs(circuit: Circuit) -> list[int]:
    """Quantum cost of each gate, in gate order."""
    return [QUANTUM_COST[gate.kind] for gate in circuit.gates]


def _asap_depth(circuit: Circuit, costs: list[int]) -> int:
    next_free = [0] * circuit.width  # first layer each line is free in
    layer_costs: list[int] = []
    for gate, cost in zip(circuit.gates, costs):
        lines = gate.lines
        # unrolled by arity: a max() call and a loop over the lines would cost
        # more than the rest of the gate's update
        if len(lines) == 3:
            x, y, z = lines
            layer = next_free[x]
            other = next_free[y]
            if other > layer:
                layer = other
            other = next_free[z]
            if other > layer:
                layer = other
            next_free[x] = next_free[y] = next_free[z] = layer + 1
        else:
            x, y = lines
            layer = next_free[x]
            other = next_free[y]
            if other > layer:
                layer = other
            next_free[x] = next_free[y] = layer + 1
        if layer == len(layer_costs):
            layer_costs.append(cost)
        elif cost > layer_costs[layer]:
            layer_costs[layer] = cost
    return sum(layer_costs)


def _staged_delay(circuit: Circuit, costs: list[int]) -> int:
    total = start = 0
    for mark in circuit.stage_marks:
        total += max(costs[start:mark])
        start = mark
    return total + sum(costs[start:])


def asap_depth(circuit: Circuit) -> int:
    """Greedy earliest-layer depth, in primitive-gate units.

    Each gate lands in the earliest layer after every earlier gate sharing a
    line with it; gates on disjoint lines share a layer. A layer costs as much
    as its most expensive gate, and the depth is the sum of layer costs.
    """
    return _asap_depth(circuit, _costs(circuit))


def staged_delay(circuit: Circuit) -> int:
    """Sum over stages of the most expensive gate in each stage.

    Unmarked trailing gates count as one sequential stage apiece, so a circuit
    with no marks at all is priced fully sequentially (= its quantum cost).
    """
    return _staged_delay(circuit, _costs(circuit))


def structural_metrics(circuit: Circuit) -> Metrics:
    """Every structural measure of the circuit, from one cost list."""
    costs = _costs(circuit)
    counts = Counter([gate.kind for gate in circuit.gates])
    return Metrics(
        gate_counts={kind: counts[kind] for kind in KIND_ORDER if kind in counts},
        gate_count=len(costs),
        quantum_cost=sum(costs),
        ancilla_inputs=circuit.layout.ancilla_inputs,
        asap_depth=_asap_depth(circuit, costs),
        staged_delay=_staged_delay(circuit, costs),
        garbage_outputs=None,
    )
