import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revmul import CNOT, FREDKIN, SWAP, TOFFOLI, Gate, cnot, fredkin, swap, toffoli
from revmul.gates import ARITY


def test_primitive_costs():
    assert cnot(0, 1).cost == 1
    assert toffoli(0, 1, 2).cost == 5
    assert fredkin(0, 1, 2).cost == 5
    assert swap(0, 1).cost == 3


def test_kind_mnemonics():
    assert (CNOT, TOFFOLI, FREDKIN, SWAP) == ("cx", "ccx", "cswap", "swap")
    assert toffoli(0, 4, 11).lines == (0, 4, 11)


@pytest.mark.parametrize(
    "kind,lines",
    [
        (SWAP, (3, 3)),
        (CNOT, (1, 1)),
        (TOFFOLI, (0, 0, 1)),
        (TOFFOLI, (0, 2, 2)),
        (FREDKIN, (5, 1, 5)),
    ],
)
def test_duplicate_lines_rejected(kind, lines):
    with pytest.raises(ValueError, match="duplicate line"):
        Gate(kind, lines)


def test_arity_enforced():
    with pytest.raises(ValueError, match="takes 3 lines"):
        Gate(TOFFOLI, (0, 1))
    with pytest.raises(ValueError, match="takes 2 lines"):
        Gate(SWAP, (0, 1, 2))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate("x", (0,))


def test_negative_line_rejected():
    with pytest.raises(ValueError, match="negative"):
        Gate(SWAP, (-1, 0))


@pytest.mark.parametrize(
    "kind,lines,message",
    [
        ("x", (0,), "unknown gate kind 'x'"),
        (TOFFOLI, (0, 1), "ccx takes 3 lines, got 2"),
        (SWAP, [0, 1, 2], "swap takes 2 lines, got 3"),
        (FREDKIN, (0, -2, 1), "negative line index in cswap gate: (0, -2, 1)"),
        (CNOT, [4, 4], "duplicate line index in cx gate: (4, 4)"),
        # the negative check runs before the duplicate check
        (SWAP, (-1, -1), "negative line index in swap gate: (-1, -1)"),
        # and the arity check before both
        ("cx", (-1, -1, -1), "cx takes 2 lines, got 3"),
    ],
)
def test_gate_fault_messages(kind, lines, message):
    with pytest.raises(ValueError) as info:
        Gate(kind, lines)
    assert str(info.value) == message


def _reference_check(kind, lines):
    """The gate check as first written, with min() and set(): the error
    message for (kind, lines), or None when the gate is valid."""
    lines = tuple(lines)
    arity = ARITY.get(kind)
    if arity is None:
        return f"unknown gate kind {kind!r}"
    if len(lines) != arity:
        return f"{kind} takes {arity} lines, got {len(lines)}"
    if min(lines) < 0:
        return f"negative line index in {kind} gate: {lines}"
    if len(set(lines)) != arity:
        return f"duplicate line index in {kind} gate: {lines}"
    return None


@settings(max_examples=500)
@given(st.sampled_from(sorted(ARITY) + ["x", "cnot", ""]), st.booleans(), st.data())
def test_gate_check_matches_reference(kind, as_tuple, data):
    # half the draws have the kind's own arity, so the sign and duplicate
    # checks are reached as often as the arity check
    size = data.draw(st.one_of(st.just(ARITY.get(kind, 2)), st.integers(0, 4)), label="size")
    lines = data.draw(st.lists(st.integers(-3, 6), min_size=size, max_size=size), label="lines")
    lines = tuple(lines) if as_tuple else lines
    expected = _reference_check(kind, lines)
    if expected is None:
        gate = Gate(kind, lines)
        assert gate.kind == kind and gate.lines == tuple(lines)
    else:
        with pytest.raises(ValueError) as info:
            Gate(kind, lines)
        assert str(info.value) == expected


def test_lines_stored_as_tuple():
    gate = Gate(TOFFOLI, [0, 1, 2])
    assert gate.lines == (0, 1, 2) and type(gate.lines) is tuple
    assert gate == toffoli(0, 1, 2) and hash(gate) == hash(toffoli(0, 1, 2))


def test_gate_is_frozen():
    with pytest.raises(AttributeError):
        swap(0, 1).kind = CNOT
