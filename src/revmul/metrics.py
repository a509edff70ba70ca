"""Structural resource metrics: gate counts, quantum cost and depth measures."""

from collections import Counter
from dataclasses import dataclass, field

from .circuit import Circuit
from .gates import KIND_ORDER, QUANTUM_COST


@dataclass
class Metrics:
    """Resource counts for one circuit; cost and depths count primitive gates.

    asap_depth puts each gate in the earliest layer after every earlier gate
    that shares a line with it, and each layer costs its most expensive gate.
    staged_delay sums each marked stage's most expensive gate, with each gate
    after the last mark a stage of its own. For circuits whose stage marks are
    honest parallel layers, asap_depth <= staged_delay <= quantum_cost.
    garbage_outputs stays None until the verification harness certifies it:
    structural analysis cannot prove a line is not garbage. The field order
    is the key order of the JSON report (`io.metrics_json`).
    """

    gate_counts: dict[str, int] = field(default_factory=dict)
    gate_count: int = 0
    quantum_cost: int = 0
    ancilla_inputs: int = 0
    garbage_outputs: int | None = None
    asap_depth: int | None = None
    staged_delay: int | None = None


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
        # most stages hold one gate, whose cost needs no slice
        total += costs[start] if mark - start == 1 else max(costs[start:mark])
        start = mark
    return total + sum(costs[start:])


def structural_metrics(circuit: Circuit) -> Metrics:
    """Every structural measure of the circuit, from one cost list."""
    costs = [QUANTUM_COST[gate.kind] for gate in circuit.gates]
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
