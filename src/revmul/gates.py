"""Reversible gate primitives: CNOT, Toffoli, Fredkin and Swap.

Every gate here is a classical involutive permutation of basis states, so the
whole gate set can be simulated exactly with bitwise operations on one int
per line, one bit per independent input (see `sim.run`). Kinds are named by
their assembly mnemonics (cx, ccx, cswap, swap).
"""

from dataclasses import dataclass

CNOT = "cx"
TOFFOLI = "ccx"
FREDKIN = "cswap"
SWAP = "swap"

ARITY = {CNOT: 2, TOFFOLI: 3, FREDKIN: 3, SWAP: 2}

# Number of primitive 1x1/2x2 quantum gates per instance; one primitive gate
# is one delay unit, so a gate's delay equals its cost.
QUANTUM_COST = {CNOT: 1, TOFFOLI: 5, FREDKIN: 5, SWAP: 3}

KIND_ORDER = (CNOT, TOFFOLI, FREDKIN, SWAP)


@dataclass(frozen=True)
class Gate:
    """One gate instance: a kind plus the ordered 0-based lines it acts on.

    Line order is significant: controls come first, so ``Gate("ccx", (c1, c2, t))``
    targets t and ``Gate("cswap", (c, a, b))`` exchanges a and b when c is set.
    """

    kind: str
    lines: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))
        if self.kind not in ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.lines) != ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {ARITY[self.kind]} lines, got {len(self.lines)}"
            )
        if any(line < 0 for line in self.lines):
            raise ValueError(f"negative line index in {self.kind} gate: {self.lines}")
        if len(set(self.lines)) != len(self.lines):
            raise ValueError(f"duplicate line index in {self.kind} gate: {self.lines}")

    @property
    def cost(self) -> int:
        return QUANTUM_COST[self.kind]


def cnot(control: int, target: int) -> Gate:
    """target ^= control."""
    return Gate(CNOT, (control, target))


def toffoli(control1: int, control2: int, target: int) -> Gate:
    """target ^= control1 AND control2."""
    return Gate(TOFFOLI, (control1, control2, target))


def fredkin(control: int, a: int, b: int) -> Gate:
    """Exchange a and b when control is 1."""
    return Gate(FREDKIN, (control, a, b))


def swap(a: int, b: int) -> Gate:
    """Exchange a and b unconditionally."""
    return Gate(SWAP, (a, b))
