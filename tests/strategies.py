"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from revmul import Circuit, Register, RegisterLayout
from revmul.gates import ARITY, Gate

# printable non-space characters but "#", which opens a .rev comment
NAME_CHARS = st.characters(
    max_codepoint=0x3000, exclude_categories=("C", "Z"), exclude_characters="#"
)


@st.composite
def valid_circuits(draw):
    """Circuits of every gate kind at widths 2-70 over two registers with
    drawn names: marked stages of gates on disjoint lines, then unmarked
    gates on any lines."""
    width = draw(st.integers(2, 70))
    ancillas = draw(st.integers(0, width - 1))
    data, ancilla = draw(st.lists(st.text(NAME_CHARS, min_size=1, max_size=8),
                                  min_size=2, max_size=2, unique=True))
    registers = [Register(data, 0, width - ancillas)]
    if ancillas:
        registers.append(Register(ancilla, width - ancillas, ancillas, draw(st.integers(0, 1))))
    circ = Circuit(RegisterLayout(registers))

    def gate(free):  # a gate on the first lines of `free`
        kind = draw(st.sampled_from([kind for kind in ARITY if ARITY[kind] <= len(free)]))
        return Gate(kind, tuple(free[:ARITY[kind]]))

    for _ in range(draw(st.integers(0, 6))):
        free = draw(st.permutations(range(width)))
        for _ in range(draw(st.integers(1, 4))):
            if len(free) < 2:
                break
            circ.append(gate(free))
            free = free[len(circ.gates[-1].lines):]
        circ.mark_stage()
    for _ in range(draw(st.integers(0, 6))):
        circ.append(gate(draw(st.permutations(range(width)))))
    return circ
