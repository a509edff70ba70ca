"""Circuit generators: controlled adder, rotate-right networks, full multiplier.

The multiplier follows the add-and-rotate scheme: the product register rotates
right instead of the multiplicand shifting left, so the multiplicand survives
intact and nothing is thrown away. Its two building blocks are the ADD/NOP
block (add B into a window of P when one multiplier qubit is set, do nothing
otherwise) and a constant-depth rotate-right-by-one network. One builder makes
the m x n product: P's n+m lines are read from A and B, each window's n+1 from
B. The standalone ADD/NOP is its m = 1 case, the multiplier its m = n case.
"""

from collections.abc import Sequence

from .circuit import Circuit, Register, RegisterLayout
from .gates import FREDKIN, SWAP, TOFFOLI, Gate

ADDNOP = "addnop"
ROR = "ror"


def _product_layout(n: int, m: int) -> RegisterLayout:
    """The plan of the m x n product: m multiplier lines A, n lines B, the
    (n+m)-line product register P and the carry Zcin, P and Zcin as ancilla 0."""
    if n < 1:
        raise ValueError(f"operand width must be >= 1, got {n}")
    return RegisterLayout(
        [
            Register("A", 0, m),
            Register("B", m, n),
            Register("P", m + n, n + m, const=0),
            Register("Zcin", 2 * (m + n), 1, const=0),
        ]
    )


def multiplier_layout(n: int) -> RegisterLayout:
    """Line plan for the n x n multiplier (the n x n product), 4n+1 lines: P's
    2n lines and Zcin enter as ancilla 0, so ancilla_inputs = 2n+1."""
    return _product_layout(n, n)


def _ror_layout(width: int, controlled: bool) -> RegisterLayout:
    """P on lines 0..width-1 and, if `controlled`, the control C on line `width`."""
    if width < 2:
        raise ValueError(f"rotate width must be >= 2, got {width}")
    control = [Register("C", width, 1)] if controlled else []
    return RegisterLayout([Register("P", 0, width), *control])


def _addnop_stages(a: int, b: Sequence[int], w: Sequence[int], z: int) -> list[list[Gate]]:
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


def _ror_stages(lines: Sequence[int]) -> list[list[Gate]]:
    """Two layers of disjoint swaps realizing rotate-right-by-one over k
    lines: k // 2 swaps, then (k - 1) // 2, so a span of 2 is one swap."""
    k = len(lines)
    first = [Gate(SWAP, (lines[i], lines[k - 1 - i])) for i in range(k // 2)]
    second = [Gate(SWAP, (lines[i], lines[k - 2 - i])) for i in range((k - 1) // 2)]
    return [first, second] if second else [first]


def _add_stages(circ: Circuit, stages) -> Circuit:
    """`circ` with `stages` appended in order, one mark per stage.

    The builders draw every line from their layout, whose size is checked,
    and their stage patterns are fixed, so each gate is in range and each
    stage line-disjoint by construction: the stages go in without
    Circuit.append's range check or mark_stage's disjointness scan. The
    tests replay every builder's output through both.
    """
    gates, marks = circ.gates, circ.stage_marks
    for stage in stages:
        gates += stage
        marks.append(len(gates))
    return circ


def build_addnop(n: int) -> Circuit:
    """Standalone ADD/NOP block, the 1 x n product: add B into the (n+1)-line
    window P when the control line A is 1. 2n+3 lines, ancilla_inputs = n+2."""
    return _product(_product_layout(n, 1))


def build_ror(width: int) -> Circuit:
    """Rotate-right-by-one over `width` lines: the bit on line p moves to line
    p-1 and line 0 wraps to the top. width-1 Swap gates in at most two
    parallel stages, so the depth stays 6 (3 at width 2) at any size."""
    return _add_stages(Circuit(_ror_layout(width, controlled=False)), _ror_stages(list(range(width))))


def build_controlled_ror(width: int) -> Circuit:
    """Rotate-right gated on a control line: the rejected design alternative.

    width-1 Fredkin gates share the control, so they serialize and cost 5
    units each; kept for the cost/delay trade-off numbers, never used by the
    multiplier. The control is line `width`, just above the window.
    """
    circ = Circuit(_ror_layout(width, controlled=True))
    return _add_stages(circ, ([Gate(FREDKIN, (width, i, i + 1))] for i in range(width - 1)))


def _schedule(layout: RegisterLayout) -> list[tuple]:
    """The product's steps over `layout` in circuit order, each (kind, m,
    control, lines), `lines` the stage generator's other arguments: for each
    m, (ADDNOP, m, A[m]'s line, (B's lines, P's top B.size+1 lines, Zcin's
    line)), then, but after the last, (ROR, m, None, (P's lines,)). A
    register's lines are a range, so a step hashes in O(1)."""
    a, b, p, z = (layout[name] for name in ("A", "B", "P", "Zcin"))
    adder, rotate = (b.lines, p.lines[-(b.size + 1):], z.start), (p.lines,)
    steps = []
    for m in range(a.size):
        steps += [(ADDNOP, m, a.line(m), adder), (ROR, m, None, rotate)]
    return steps[:-1]  # no rotate after the last ADD/NOP


def _product(layout: RegisterLayout, shared: bool = False) -> Circuit:
    """The product over `layout`: each step of `_schedule` is generated if
    it is the first of its kind and lines, else stamped from that first one
    by its control slots: each gate that holds the template's control holds
    the step's control there instead. A control is a line that no gate of
    its step touches but in those slots, so each copy keeps the template's
    range and stage disjointness. A template's columns are made when a step
    first reuses it, so the ADD/NOP makes none.

    Each emitted gate is constructed, and so checked, once. With `shared`, a
    copy constructs only the gates that hold its control and reuses the
    template's own frozen Gate for every other, as `io.parse_netlist` shares
    one Gate per distinct line: the n x n product then makes 2n^2+5n-1 Gates
    (5 at n = 1) for its 6n^2-2n+1 gates, and is equal to the unshared one."""
    circ, spans, columns = Circuit(layout), {}, {}
    gates, marks = circ.gates, circ.stage_marks
    for kind, _, control, lines in _schedule(layout):
        key, start, first = (kind, lines), len(gates), len(marks)
        if key not in spans:  # the first of its kind and lines
            args = [[*arg] if isinstance(arg, range) else arg for arg in lines]
            stages = _addnop_stages(control, *args) if kind == ADDNOP else _ror_stages(*args)
            spans[key] = control, start, first, len(_add_stages(circ, stages).stage_marks)
            continue
        if key not in columns:  # made when a step first reuses the template
            held, origin, first, last = spans[key]  # the template's control
            block = gates[origin : marks[last - 1]]
            slots = [(i, g.lines[:j], g.lines[j + 1 :]) for i, g in enumerate(block)
                     for j, line in enumerate(g.lines) if line == held]
            block_marks = [mark - origin for mark in marks[first:last]]
            columns[key] = block, [g.kind for g in block], [g.lines for g in block], slots, block_marks
        block, kinds, gate_lines, slots, block_marks = columns[key]
        control = (control,)
        if shared:  # the template's gates, then new ones where the control is
            gates += block
            for i, head, tail in slots:
                gates[start + i] = Gate(kinds[i], head + control + tail)
        else:
            for i, head, tail in slots:
                gate_lines[i] = head + control + tail
            gates.extend(map(Gate, kinds, gate_lines))
        marks.extend([start + mark for mark in block_marks])
    return circ


def build_multiplier(n: int) -> Circuit:
    """Gate-level n x n multiplier over 4n+1 lines: the n x n product.

    One ADD/NOP per multiplier qubit, with a rotate of the full product
    register between consecutive blocks; the window alignment makes the final
    rotate unnecessary. P exits holding A*B, A and B exit unchanged and Zcin
    exits 0, so no output is garbage.
    """
    return _product(multiplier_layout(n))


def _shared_multiplier(n: int) -> Circuit:
    """`build_multiplier(n)`, equal to it, built from shared gates: a stamped
    block constructs only the gates that hold its multiplier qubit (see
    `_product`). `sim.verify_multiplier` builds through this name.
    `build_multiplier` keeps one construction per emitted gate, which the
    benchmark's synth smoke check counts."""
    return _product(multiplier_layout(n), shared=True)
