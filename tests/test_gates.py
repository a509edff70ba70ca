from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revmul import CNOT, FREDKIN, SWAP, TOFFOLI, Gate
from revmul.gates import ARITY, QUANTUM_COST


def test_primitive_costs():
    assert QUANTUM_COST == {CNOT: 1, TOFFOLI: 5, FREDKIN: 5, SWAP: 3}


def test_kind_mnemonics():
    assert (CNOT, TOFFOLI, FREDKIN, SWAP) == ("cx", "ccx", "cswap", "swap")
    assert Gate(TOFFOLI, (0, 4, 11)).lines == (0, 4, 11)


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
        (SWAP, (0, 1, 2), "swap takes 2 lines, got 3"),
        (SWAP, (-1, 0), "negative line index in swap gate: (-1, 0)"),
        (SWAP, (3, 3), "duplicate line index in swap gate: (3, 3)"),
        (CNOT, (1, 1), "duplicate line index in cx gate: (1, 1)"),
        (TOFFOLI, (0, 0, 1), "duplicate line index in ccx gate: (0, 0, 1)"),
        (TOFFOLI, (0, 2, 2), "duplicate line index in ccx gate: (0, 2, 2)"),
        (FREDKIN, (5, 1, 5), "duplicate line index in cswap gate: (5, 1, 5)"),
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
    assert gate == Gate(TOFFOLI, (0, 1, 2)) and hash(gate) == hash(Gate(TOFFOLI, (0, 1, 2)))


_Triple = namedtuple("_Triple", "a b c")


@pytest.mark.parametrize(
    "make",
    [lambda: [2, 3, 4], lambda: range(2, 5), lambda: (i for i in (2, 3, 4)), lambda: _Triple(2, 3, 4)],
    ids=["list", "range", "generator", "namedtuple"],
)
def test_lines_of_any_iterable_stored_as_plain_tuple(make):
    gate = Gate(FREDKIN, make())
    assert type(gate.lines) is tuple and gate.lines == tuple(make()) == (2, 3, 4)


def test_unhashable_kind_raises_type_error():
    with pytest.raises(TypeError):
        Gate([], (0, 1))


def test_too_many_lines_from_a_list():
    with pytest.raises(ValueError, match=r"^swap takes 2 lines, got 4$"):
        Gate(SWAP, [0, 1, 2, 3])


def test_gate_is_frozen():
    with pytest.raises(AttributeError):
        Gate(SWAP, (0, 1)).kind = CNOT
