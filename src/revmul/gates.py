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


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """One gate instance: a kind plus the ordered 0-based lines it acts on.

    Line order is significant: controls come first, so ``Gate("ccx", (c1, c2, t))``
    targets t and ``Gate("cswap", (c, a, b))`` exchanges a and b when c is set.
    """

    kind: str
    lines: tuple[int, ...]

    def __init__(self, kind: str, lines: tuple[int, ...]):
        # Checked in one frame, then stored through the slots' own setters,
        # which a frozen dataclass's __setattr__ does not intercept.
        if type(lines) is not tuple:
            lines = tuple(lines)
        try:
            arity = ARITY[kind]
        except KeyError:
            raise ValueError(f"unknown gate kind {kind!r}") from None
        # Unrolled by arity: the unpacking is the arity check, and plain
        # comparisons cost less than a min() and a set() per gate.
        if arity == 3:
            try:
                x, y, z = lines
            except ValueError:
                raise ValueError(f"{kind} takes 3 lines, got {len(lines)}") from None
            if x < 0 or y < 0 or z < 0:
                raise ValueError(f"negative line index in {kind} gate: {lines}")
            if x == y or x == z or y == z:
                raise ValueError(f"duplicate line index in {kind} gate: {lines}")
        else:
            try:
                x, y = lines
            except ValueError:
                raise ValueError(f"{kind} takes 2 lines, got {len(lines)}") from None
            if x < 0 or y < 0:
                raise ValueError(f"negative line index in {kind} gate: {lines}")
            if x == y:
                raise ValueError(f"duplicate line index in {kind} gate: {lines}")
        _set_kind(self, kind)
        _set_lines(self, lines)


_set_kind = Gate.kind.__set__
_set_lines = Gate.lines.__set__
