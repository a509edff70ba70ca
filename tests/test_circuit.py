import pytest

from revmul import CNOT, SWAP, TOFFOLI, Circuit, Register, RegisterLayout
from revmul.gates import Gate
from revmul.synth import multiplier_layout


def n2_layout():
    # 2x2 multiplier plan: A on 0-1, B on 2-3, P on 4-7, carry on 8
    return RegisterLayout(
        [
            Register("A", 0, 2),
            Register("B", 2, 2),
            Register("P", 4, 4, const=0),
            Register("Zcin", 8, 1, const=0),
        ]
    )


def test_circuit_starts_empty():
    circ = Circuit(n2_layout())
    assert circ.width == 9
    assert len(circ) == 0
    assert circ.stage_marks == []


def test_multiplier_layout_line_budget():
    assert multiplier_layout(4).width == 17
    assert multiplier_layout(4).ancilla_inputs == 9


def test_overlapping_registers_rejected():
    with pytest.raises(ValueError, match="overlap"):
        RegisterLayout([Register("A", 0, 2), Register("B", 1, 2)])


def test_gap_rejected():
    with pytest.raises(ValueError, match="gap"):
        RegisterLayout([Register("A", 0, 2), Register("B", 3, 2)])


def test_duplicate_name_rejected():
    with pytest.raises(ValueError, match="duplicate register name"):
        RegisterLayout([Register("A", 0, 2), Register("A", 2, 2)])


def test_register_bit_lookup():
    layout = n2_layout()
    assert layout["P"].line(0) == 4  # bit 0 of a range is its LSB
    assert layout["P"].line(3) == 7
    with pytest.raises(ValueError, match="no bit"):
        layout["P"].line(4)
    with pytest.raises(KeyError):
        layout["Q"]


def test_append_counts_gates():
    circ = Circuit(RegisterLayout([Register("R", 0, 17)]))
    circ.append(Gate(TOFFOLI, (0, 4, 11)))
    assert len(circ) == 1


def test_append_out_of_range():
    circ = Circuit(RegisterLayout([Register("R", 0, 17)]))
    with pytest.raises(ValueError, match="out of range"):
        circ.append(Gate(CNOT, (0, 17)))


@pytest.mark.parametrize("lines", [(0.0, 1.5), (True, 2)], ids=["float", "bool"])
def test_append_refuses_a_line_that_is_not_a_plain_int(lines):
    # Gate accepts these, but the writer would print a line the parser rejects
    circ = Circuit(RegisterLayout([Register("R", 0, 4)]))
    with pytest.raises(ValueError, match="not a plain int"):
        circ.append(Gate("cx", lines))
    with pytest.raises(ValueError, match="not a plain int"):
        for gate in [Gate(CNOT, (0, 1)), Gate("cx", lines)]:
            circ.append(gate)
    assert circ.gates == [Gate(CNOT, (0, 1))]


def test_marked_stages():
    circ = Circuit(RegisterLayout([Register("R", 0, 6)]))
    circ.append(Gate(SWAP, (0, 1)))
    circ.mark_stage()
    circ.append(Gate(SWAP, (2, 3)))
    circ.append(Gate(SWAP, (4, 5)))
    circ.mark_stage()
    assert circ.stage_count == 2
    assert [len(s) for s in circ.stages()] == [1, 2]
    # gates after the last mark count one stage each
    circ.append(Gate(SWAP, (0, 5)))
    circ.append(Gate(SWAP, (1, 2)))
    assert circ.stage_count == 4
    assert [len(s) for s in circ.stages()] == [1, 2, 1, 1]
    assert repr(circ) == "Circuit(width=6, gates=5, stages=4)"


def test_empty_stage_rejected():
    circ = Circuit(RegisterLayout([Register("R", 0, 2)]))
    with pytest.raises(ValueError, match="empty stage"):
        circ.mark_stage()
    circ.append(Gate(SWAP, (0, 1)))
    circ.mark_stage()
    with pytest.raises(ValueError, match="empty stage"):
        circ.mark_stage()


def test_overlapping_stage_gates_rejected():
    circ = Circuit(RegisterLayout([Register("R", 0, 4)]))
    circ.append(Gate(SWAP, (0, 1)))
    circ.append(Gate(SWAP, (1, 2)))
    with pytest.raises(ValueError, match="disjoint"):
        circ.mark_stage()


def test_unmarked_tail_is_sequential():
    circ = Circuit(RegisterLayout([Register("R", 0, 6)]))
    circ.append(Gate(SWAP, (0, 1)))
    circ.mark_stage()
    circ.append(Gate(SWAP, (2, 3)))
    circ.append(Gate(SWAP, (4, 5)))
    # the two trailing gates carry no parallelism declaration
    assert [len(s) for s in circ.stages()] == [1, 1, 1]


@pytest.mark.parametrize(
    "args,message",
    [
        (("Z", 0, 2, True), "ancilla constant must be 0 or 1, got True"),
        (("Z", 0, 2, False), "ancilla constant must be 0 or 1, got False"),
        (("Z", 0, 2, 1.0), "ancilla constant must be 0 or 1, got 1.0"),
        (("Z", 0, 2, 2), "ancilla constant must be 0 or 1, got 2"),
        (("A", 0, 2.0), "bad register span A: start=0 size=2.0"),
        (("A", 1.0, 2), "bad register span A: start=1.0 size=2"),
        (("A", True, 2), "bad register span A: start=True size=2"),
        (("A", 0, True), "bad register span A: start=0 size=True"),
        (("A", -1, 2), "bad register span A: start=-1 size=2"),
        (("A", 0, 0), "bad register span A: start=0 size=0"),
    ],
)
def test_register_fields_must_be_plain_ints(args, message):
    with pytest.raises(ValueError) as info:
        Register(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["", "A B", "A\tB", "A#B", "#", "P#"])
def test_register_names_must_read_back(name):
    # the parser splits a declaration on whitespace, and "#" opens a comment
    with pytest.raises(ValueError) as info:
        Register(name, 0, 2)
    assert str(info.value) == f"bad register name {name!r}"


LONG = "N" * 400_000  # a register name longer than any message echoes whole


def test_long_register_names_are_echoed_by_length():
    with pytest.raises(ValueError) as info:
        Register(LONG + " ", 0, 1)
    assert str(info.value) == "bad register name of 400001 characters"
    with pytest.raises(ValueError) as info:
        Register(LONG, 0, 1).line(1)
    assert str(info.value) == "register of 400000 characters has no bit 1"
    with pytest.raises(KeyError) as info:
        multiplier_layout(2)[LONG]
    assert info.value.args[0] == "no register named of 400000 characters"
    with pytest.raises(KeyError) as info:
        multiplier_layout(2)["Q" * 32]
    assert info.value.args[0] == f"no register named {'Q' * 32!r}"
