"""Circuit generators: controlled adder, rotate-right networks, full multiplier.

The multiplier follows the add-and-rotate scheme: the product register rotates
right instead of the multiplicand shifting left, so the multiplicand survives
intact and nothing is thrown away. Its two building blocks are the ADD/NOP
block (add B into a window of P when one multiplier qubit is set, do nothing
otherwise) and a constant-depth rotate-right-by-one network.
"""

from .circuit import Circuit, Register, RegisterLayout
from .gates import FREDKIN, SWAP, TOFFOLI, Gate

ADDNOP = "addnop"
ROR = "ror"


def multiplier_layout(n: int) -> RegisterLayout:
    """Line plan for the n x n multiplier: 4n+1 lines.

    A and B are data inputs; the 2n product lines P and the carry line Zcin
    enter as ancilla 0, so ancilla_inputs = 2n+1.
    """
    if n < 1:
        raise ValueError(f"operand width must be >= 1, got {n}")
    return RegisterLayout(
        [
            Register("A", 0, n),
            Register("B", n, n),
            Register("P", 2 * n, 2 * n, const=0),
            Register("Zcin", 4 * n, 1, const=0),
        ]
    )


def addnop_layout(n: int) -> RegisterLayout:
    """Standalone ADD/NOP layout: control line A, operand B, an (n+1)-line
    product window P entering as 0, and the carry line Zcin. 2n+3 lines,
    ancilla_inputs = n+2."""
    if n < 1:
        raise ValueError(f"operand width must be >= 1, got {n}")
    return RegisterLayout(
        [
            Register("A", 0, 1),
            Register("B", 1, n),
            Register("P", n + 1, n + 1, const=0),
            Register("Zcin", 2 * n + 2, 1, const=0),
        ]
    )


def ror_layout(width: int) -> RegisterLayout:
    if width < 2:
        raise ValueError(f"rotate width must be >= 2, got {width}")
    return RegisterLayout([Register("P", 0, width)])


def controlled_ror_layout(width: int) -> RegisterLayout:
    return RegisterLayout([*ror_layout(width).registers, Register("C", width, 1)])


def _addnop_stages(a: int, b: list[int], w: list[int], z: int) -> list[list[Gate]]:
    """Stages of the controlled add of the n-line register b into the
    (n+1)-line window w.

    When line a is 1 the window gains the value of b; the top window line must
    enter as 0 and receives the final carry, so the sum never overflows. When
    a is 0 every line is left untouched. b and z exit with their entry values;
    z must enter as 0.

    The carry travels on z. Going up, the Toffoli at position i first mixes
    the incoming carry into w[i]; w[i] then reads (p XOR carry), which is 1
    exactly when b[i] is the majority of (p, b[i], carry), i.e. when b[i] is
    the carry out. The Fredkin it controls therefore moves the correct carry
    out onto z (swapping b[i] and z, parking the old carry in b[i]) precisely
    when needed. The top position computes its carry into b[n-1] between a
    Fredkin pair and stores it on w[n]. Going back down, the same Fredkins
    undo the swaps in reverse order, restoring b and handing each position its
    carry-in back on z just in time for the closing half-add Toffoli. The
    one-bit block is the top position alone, under the same rule: with no
    upward layer to join, its opening half add is a stage of its own.

    Budget: 2n+1 Toffoli + 2n Fredkin in 3n+2 stages, each stage a layer of
    line-disjoint gates.
    """
    n = len(b)
    stages = []
    for i in range(n - 1):  # upward carry sweep
        stages += [[Gate(TOFFOLI, (a, z, w[i]))], [Gate(FREDKIN, (w[i], b[i], z))]]
    # the top position's opening half add joins the last upward layer, if any
    stages.append((stages.pop() if n > 1 else []) + [Gate(TOFFOLI, (a, b[n - 1], w[n - 1]))])
    stages += [
        [Gate(FREDKIN, (w[n - 1], b[n - 1], z))],
        [Gate(TOFFOLI, (a, b[n - 1], w[n]))],  # final carry lands on the top window line
        [Gate(FREDKIN, (w[n - 1], b[n - 1], z))],
        [Gate(TOFFOLI, (a, z, w[n - 1]))],
    ]
    if n > 1:  # downward unwind
        stages.append([Gate(FREDKIN, (w[n - 2], b[n - 2], z))])
        for i in range(n - 2, 0, -1):
            stages.append([Gate(TOFFOLI, (a, b[i], w[i])), Gate(FREDKIN, (w[i - 1], b[i - 1], z))])
        stages.append([Gate(TOFFOLI, (a, b[0], w[0]))])
    return stages


def _ror_stages(lines: list[int]) -> list[list[Gate]]:
    """Two layers of disjoint swaps realizing rotate-right-by-one over k
    lines: k // 2 swaps, then (k - 1) // 2, so a span of 2 is one swap."""
    k = len(lines)
    first = [Gate(SWAP, (lines[i], lines[k - 1 - i])) for i in range(k // 2)]
    second = [Gate(SWAP, (lines[i], lines[k - 2 - i])) for i in range((k - 1) // 2)]
    return [first, second] if second else [first]


def _circuit(layout: RegisterLayout, stages) -> Circuit:
    """A circuit over `layout` holding `stages` in order, one mark per stage.

    The builders draw every line from their layout, whose size is checked,
    and their stage patterns are fixed, so each gate is in range and each
    stage line-disjoint by construction: the stages go in without
    Circuit.append's range check or mark_stage's disjointness scan. The
    tests replay every builder's output through both.
    """
    circ = Circuit(layout)
    gates, marks = circ.gates, circ.stage_marks
    for stage in stages:
        gates += stage
        marks.append(len(gates))
    return circ


def build_addnop(n: int) -> Circuit:
    """Standalone ADD/NOP block: add B into the (n+1)-line window P when the
    control line A is 1."""
    layout = addnop_layout(n)
    b, window = list(layout["B"].lines), list(layout["P"].lines)
    return _circuit(layout, _addnop_stages(layout["A"].start, b, window, layout["Zcin"].start))


def build_ror(width: int) -> Circuit:
    """Rotate-right-by-one over `width` lines: the bit on line p moves to line
    p-1 and line 0 wraps to the top. width-1 Swap gates in at most two
    parallel stages, so the depth stays 6 (3 at width 2) at any size."""
    return _circuit(ror_layout(width), _ror_stages(list(range(width))))


def build_controlled_ror(width: int) -> Circuit:
    """Rotate-right gated on a control line: the rejected design alternative.

    width-1 Fredkin gates share the control, so they serialize and cost 5
    units each; kept for the cost/delay trade-off numbers, never used by the
    multiplier. The control is line `width`, just above the window.
    """
    layout = controlled_ror_layout(width)
    return _circuit(layout, ([Gate(FREDKIN, (width, i, i + 1))] for i in range(width - 1)))


def _multiplier_blocks(n: int) -> list[tuple[str, int, range, range]]:
    """The n x n multiplier's blocks in circuit order, as (kind, m, gate
    indices, stage indices): ADD/NOP m, 4n+1 gates in 3n+2 stages, and after
    every ADD/NOP but the last, rotate m, 2n-1 swaps in 2 stages."""
    blocks = []
    for m in range(n):
        g, s = 6 * n * m, (3 * n + 4) * m  # where pair m starts
        blocks += [(ADDNOP, m, range(g, g + 4 * n + 1), range(s, s + 3 * n + 2)),
                   (ROR, m, range(g + 4 * n + 1, g + 6 * n), range(s + 3 * n + 2, s + 3 * n + 4))]
    return blocks[:-1]  # no rotate after the last ADD/NOP


def build_multiplier(n: int) -> Circuit:
    """Gate-level n x n multiplier over 4n+1 lines.

    One ADD/NOP per multiplier qubit, with a rotate of the full product
    register between consecutive blocks; the window alignment makes the final
    rotate unnecessary. P exits holding A*B, A and B exit unchanged and Zcin
    exits 0, so no output is garbage.

    The blocks go where `_multiplier_blocks` puts them, each stamped from the
    first of its kind. ADD/NOP m differs from ADD/NOP 0 only in the first
    line of each Toffoli, its control A[m], and no other gate touches an A
    line, so each copy keeps the template's range and stage disjointness.
    """
    layout = multiplier_layout(n)
    a, p = layout["A"], list(layout["P"].lines)
    b, window, z = list(layout["B"].lines), p[-(n + 1):], layout["Zcin"].start
    circ, templates = Circuit(layout), {}
    gates, marks = circ.gates, circ.stage_marks
    for kind, m, span, _ in _multiplier_blocks(n):
        if m == 0:  # the first of its kind keeps its own gates and is the template of the rest
            stages = _addnop_stages(a.start, b, window, z) if kind == ADDNOP else _ror_stages(p)
            block = _circuit(layout, stages)
            lines = [g.lines for g in block.gates]
            toffolis = [(i, g.lines[1:]) for i, g in enumerate(block.gates) if g.kind == TOFFOLI]
            templates[kind] = block, [g.kind for g in block.gates], lines, toffolis
        block, kinds, lines, toffolis = templates[kind]
        control = (a.line(m),)
        for i, tail in toffolis:
            lines[i] = control + tail
        gates.extend(block.gates if m == 0 else map(Gate, kinds, lines))
        marks.extend([span.start + mark for mark in block.stage_marks])
    return circ
