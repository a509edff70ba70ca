"""Netlist serialization: the .rev text format, assembly export, JSON reports.

The .rev format is UTF-8 text, line oriented with `#` comments:

    rev 1                       version header (required first)
    qubits <width>              total line count (required, 1..MAX_QUBITS)
    reg <NAME> <lo> <hi>        data register over lines lo..hi inclusive
    anc <NAME> <lo> <hi> <bit>  ancilla register entering as the constant bit
    cx c t                      gates, 0-based line indices, controls first
    ccx c1 c2 t
    cswap c a b
    swap a b
    ---                         stage boundary after the preceding gate

Registers must cover every line exactly once (bit 0 of a register is its LSB).
A width above MAX_QUBITS (65,536) is refused, so no netlist can make the
simulator allocate a state of absurd size; the largest multiplier the
comparison tables describe (n=1024) has 4,097 lines. Register MAX_QUBITS + 1
is refused at its own line, so the register table is bounded too. Every gate
line is range-checked against that width, and gate line MAX_GATES + 1
(2^20 + 1) is refused, so no netlist can make the parser hold an unbounded
gate list; the largest multiplier that fits is n = 418. An integer token
longer than _MAX_INT_CHARS (32) characters is refused before it is
converted, so no token can make int() run for minutes once Python's digit
limit is lifted, and an error message names a longer token or register name
by its length alone (`circuit._shown`).
The writer emits a canonical form: writing, parsing and writing again is byte
identical up to MAX_QUBITS lines. The writer itself has no width limit, and
`cli build` makes blocks of up to MAX_GATES gates: a rotate from width 65,537
(65,536 controlled) or an ADD/NOP from n = 32,767 is written but not read back.
"""

import dataclasses
import json
from itertools import chain, count, islice, repeat

from .circuit import _MAX_SHOWN_CHARS, Circuit, Register, RegisterLayout, _shown
from .gates import ARITY, KIND_ORDER, Gate
from .metrics import Metrics

FORMAT_VERSION = 1
MAX_QUBITS = 1 << 16
MAX_GATES = 1 << 20  # also the largest circuit `cli` builds
_SLICE_CHARS = 1 << 16  # the parser splits the text into lines this much at a time
# The writers join their lines this many gates at a time: the smallest
# build-mix peak RSS of the sizes measured (BENCH_chunks.json)
_CHUNK_GATES = 1 << 14
_MAX_INT_CHARS = _MAX_SHOWN_CHARS  # the longest integer token the parser converts


class NetlistError(ValueError):
    """Malformed netlist text, pointing at the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# One `%` template per gate kind, filled with a gate's line tuple.
_REV = {kind: kind + " %s" * arity for kind, arity in ARITY.items()}
_QASM = {kind: f"{kind} {','.join(['q[%s]'] * arity)};" for kind, arity in ARITY.items()}


def _write(out: list[str], circuit: Circuit, templates: dict[str, str], separators) -> str:
    """The lines in `out`, then one line per gate and the next of `separators`
    after each marked stage, as one newline-terminated text. The gates are
    written _CHUNK_GATES at a time: a gate distinct within its chunk is
    rendered once, as `templates[kind] % lines`, and a repeated one reuses its
    text. Each chunk's lines are joined and dropped before the next chunk, so
    the writer holds one chunk's lines beside the joined chunks, and the
    returned text beside the chunks."""
    gates = iter(circuit.gates)
    marks = iter(circuit.stage_marks)
    mark = next(marks, None)  # the next stage mark; None past the last
    chunks = []
    append = out.append
    for start in range(0, len(circuit.gates), _CHUNK_GATES):
        texts = {kind: {} for kind in ARITY}  # kind -> lines -> text, in this chunk
        if start:
            append("")  # the previous chunk's final newline
            chunks.append("\n".join(out))
            out.clear()
        for index, gate in enumerate(islice(gates, _CHUNK_GATES), start):
            while index == mark:
                append(next(separators))
                mark = next(marks, None)
            lines = gate.lines
            known = texts[gate.kind]
            text = known.get(lines)
            if text is None:
                text = known[lines] = templates[gate.kind] % lines
            append(text)
    while mark is not None:  # marks at or past the last gate
        append(next(separators))
        mark = next(marks, None)
    append("")
    chunks.append("\n".join(out))
    out.clear()
    texts = None  # the last chunk's lines go before the chunks are joined
    return "".join(chunks)


def write_netlist(circuit: Circuit) -> str:
    out = [f"rev {FORMAT_VERSION}", f"qubits {circuit.width}"]
    for reg in circuit.layout.registers:
        hi = reg.end - 1
        if reg.is_ancilla:
            out.append(f"anc {reg.name} {reg.start} {hi} {reg.const}")
        else:
            out.append(f"reg {reg.name} {reg.start} {hi}")
    return _write(out, circuit, _REV, repeat("---"))


def _parse_int(token: str, what: str, lineno: int) -> int:
    """`token` as an int. One longer than _MAX_INT_CHARS is refused by its
    length before int() reads it, since `cli.main` lifts the digit limit."""
    if len(token) > _MAX_INT_CHARS:
        raise NetlistError(
            f"{what} has {len(token)} characters, above the limit of {_MAX_INT_CHARS}", lineno
        )
    try:
        return int(token)
    except ValueError:
        raise NetlistError(f"{what} must be an integer, got {token!r}", lineno) from None


_SEPARATOR = object()  # what a `---` line parses to
_KINDS = {kind: kind for kind in ARITY}  # a gate mnemonic -> the `gates` module's string for it


def _slices(text: str):
    r"""`text` cut just after a "\n" once a slice holds _SLICE_CHARS characters.
    A "\n" ends a line for `str.splitlines` and is never the first half of a
    "\r\n", so the lines of the slices, in order, are `text.splitlines()`."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + _SLICE_CHARS - 1) + 1 or end
        yield text[start:stop]
        start = stop


def _declared(width, registers: dict[str, Register], lineno: int) -> Circuit:
    """The gateless circuit declared, its width and layout checked at line `lineno`."""
    if width is None:
        raise NetlistError("missing qubits declaration", lineno)
    try:
        layout = RegisterLayout(registers.values())
    except ValueError as exc:
        raise NetlistError(str(exc), lineno) from None
    if layout.width != width:
        raise NetlistError(f"registers cover {layout.width} lines, qubits declares {width}", lineno)
    return Circuit(layout)


def _declarations(pieces) -> tuple[Circuit, int, list[str]]:
    """Read the version header and the `qubits`, `reg` and `anc` lines off
    `pieces`, an iterator of lists of lines. Return the gateless circuit they
    declare, the count of lines before the first line after them, and that
    line with the rest of its list ([] at the end of the text). The layout is
    checked at that line, or at the last declaration if the text ends first.
    Register MAX_QUBITS + 1 is refused at its own line: no layout of at most
    MAX_QUBITS lines holds more registers."""
    lineno = 0
    last = None  # the last line with fields; None until the version header
    width = None
    registers: dict[str, Register] = {}  # by name, in file order
    for piece in pieces:
        for at, raw in enumerate(piece):
            lineno += 1
            fields = raw.partition("#")[0].split()
            if not fields:
                continue
            head = fields[0]
            if last is None:
                if head != "rev" or len(fields) != 2:
                    raise NetlistError("expected version header 'rev 1'", lineno)
                if fields[1] != str(FORMAT_VERSION):
                    raise NetlistError(f"unsupported format version {_shown(fields[1])}", lineno)
            elif head == "qubits":
                if width is not None:
                    raise NetlistError("duplicate qubits declaration", lineno)
                if len(fields) != 2:
                    raise NetlistError("qubits takes exactly one argument", lineno)
                width = _parse_int(fields[1], "width", lineno)
                if width < 1:
                    raise NetlistError(f"width must be positive, got {width}", lineno)
                if width > MAX_QUBITS:
                    raise NetlistError(f"width {width} exceeds the limit of {MAX_QUBITS} lines", lineno)
            elif head == "reg" or head == "anc":
                if len(registers) == MAX_QUBITS:
                    raise NetlistError(
                        f"register {MAX_QUBITS + 1} exceeds the limit of {MAX_QUBITS} registers",
                        lineno,
                    )
                if len(fields) != (4 if head == "reg" else 5):
                    raise NetlistError(f"malformed {head} declaration", lineno)
                name = fields[1]
                if name in registers:
                    raise NetlistError(f"duplicate register name {_shown(name)}", lineno)
                lo = _parse_int(fields[2], "register lo", lineno)
                hi = _parse_int(fields[3], "register hi", lineno)
                if hi < lo:
                    raise NetlistError(f"register {_shown(name, str)} has hi {hi} < lo {lo}", lineno)
                const = _parse_int(fields[4], "ancilla constant", lineno) if head == "anc" else None
                try:
                    registers[name] = Register(name, lo, hi - lo + 1, const)
                except ValueError as exc:
                    raise NetlistError(str(exc), lineno) from None
            else:
                return _declared(width, registers, lineno), lineno - 1, piece[at:]
            last = lineno
    if last is None:
        raise NetlistError("expected version header 'rev 1'")
    return _declared(width, registers, last), last, []


def parse_netlist(text: str) -> Circuit:
    """Exact inverse of write_netlist; raises NetlistError with line numbers.

    `_declarations` reads the lines up to the first gate, and the loop below
    the rest, one slice of the text (`_slices`) at a time. A line whose exact
    text was already read as a gate or a `---` reuses that result (a `Gate`
    is frozen and does not depend on its position): it skips tokenizing, the
    `Gate` checks and the range check, which it passed against the same
    width. Every gate line still counts toward MAX_GATES. A new gate line
    looks its tokens up in a memo that holds only line indices in [0, width),
    so a line of known tokens needs no range check. The memo starts with the
    canonical spelling `str(i)` of every i below the width, or below half the
    text's length if that is less (a text names fewer distinct indices than
    that), so a line index's first appearance needs no `_parse_int`. On a
    token not in the memo, each new token is converted by `_parse_int`, the
    first bad one first, then come the `Gate` checks, then the range check,
    which yields to the MAX_GATES check; the in-range tokens join the memo,
    and the gates share their ints. A gate's kind is the `gates` module's own string
    for its mnemonic, so all gates of a kind share one. Each gate adds its
    lines to one list, which a `---` checks as `Circuit.mark_stage` does: not
    empty, no line twice. A list of at most 3 lines is one gate, whose lines
    `Gate` already found distinct, so only a longer list is checked for a
    repeat. A list longer than the width must repeat a line, so at the end of
    a slice such a list is dropped and the clash kept for the next `---`. So
    the parser holds one slice as lines, the stage list, and one memo entry
    per distinct line and per distinct token, never a list of every line.
    """
    pieces = map(str.splitlines, _slices(text))
    circuit, lineno, rest = _declarations(pieces)
    width, gates, marks = circuit.width, circuit.gates, circuit.stage_marks
    cap = MAX_GATES
    seen: dict[str, object] = {}  # line text -> its Gate, or _SEPARATOR
    known = seen.get
    # token -> its line index, for indices in [0, width)
    ints = {str(i): i for i in range(min(width, len(text) // 2))}
    separator = _SEPARATOR
    stage: list[int] = []  # lines the open stage's gates act on
    add, collect = gates.append, stage.extend
    clash = False  # the open stage's gates share a line, which its `---` reports
    for piece in chain((rest,), pieces):
        for raw in piece:
            lineno += 1
            entry = known(raw)
            if entry is None:
                fields = (raw.partition("#")[0] if "#" in raw else raw).split()
                if not fields:
                    continue
                head = fields[0]
                kind = _KINDS.get(head)
                if kind is None:
                    if head in ("qubits", "reg", "anc"):
                        raise NetlistError(f"{head} declaration after the first gate", lineno)
                    if head != "---":
                        raise NetlistError(f"unknown gate mnemonic or directive {_shown(head)}", lineno)
                    if len(fields) != 1:
                        raise NetlistError("stage separator takes no arguments", lineno)
                    entry = separator
                else:  # a gate line not read before
                    try:
                        if len(fields) == 4:
                            lines = ints[fields[1]], ints[fields[2]], ints[fields[3]]
                        elif len(fields) == 3:
                            lines = ints[fields[1]], ints[fields[2]]
                        else:
                            lines = tuple([ints[token] for token in fields[1:]])
                        fresh = False
                    except KeyError:  # a token not read before; the first bad one raises first
                        lines = tuple([
                            ints[token] if token in ints else _parse_int(token, "line index", lineno)
                            for token in fields[1:]
                        ])
                        fresh = True
                    try:
                        entry = Gate(kind, lines)
                    except ValueError as exc:
                        raise NetlistError(str(exc), lineno) from None
                    if fresh:
                        # Circuit.append's range check, which yields to the cap check
                        # below; lines read by int() need no type check
                        if max(lines) >= width:
                            if len(gates) < cap:
                                raise NetlistError(
                                    f"gate {head} {lines} out of range for width {width}", lineno
                                )
                        else:
                            ints.update(zip(fields[1:], lines))
                seen[raw] = entry
            if entry is separator:
                if clash or len(stage) > 3 and len(set(stage)) != len(stage):
                    raise NetlistError("stage gates must act on pairwise disjoint lines", lineno)
                if not stage:
                    raise NetlistError("empty stage", lineno)
                marks.append(len(gates))
                stage.clear()
                continue
            if len(gates) == cap:
                raise NetlistError(f"gate {cap + 1} exceeds the limit of {cap} gates", lineno)
            add(entry)
            collect(entry.lines)
        piece.clear()  # frees its lines now; `rest` would hold the first slice's to the end
        if len(stage) > width:  # two of its lines are equal
            clash = True
            stage.clear()
    return circuit


def export_qasm(circuit: Circuit) -> str:
    """Quantum-assembly view of the circuit: cx/ccx/cswap/swap over one
    register. The dialect cannot initialize classical constants, so ancilla
    constants and stage boundaries are carried as comments."""
    out = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.width}];",
    ]
    for reg in circuit.layout.registers:
        span = f"q[{reg.start}]" if reg.size == 1 else f"q[{reg.start}..{reg.end - 1}]"
        role = f"ancilla, enters as {reg.const}" if reg.is_ancilla else "data input"
        out.append(f"// {reg.name}: {span} ({role})")
    return _write(
        out, circuit, _QASM, (f"// --- end of stage {stage} ---" for stage in count(1))
    )


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        out = {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, Metrics):
            out["gate_counts"] = {kind: obj.gate_counts.get(kind, 0) for kind in KIND_ORDER}
        return out
    if isinstance(obj, float):
        return f"{obj:.2f}"
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    return obj


def metrics_json(obj) -> str:
    """Stable-key JSON for metrics, verification reports and table rows.

    A report's keys follow its dataclass's field order, and `gate_counts`
    lists every kind in KIND_ORDER, zero-filled. Integers stay exact; floats
    (the table percentages) are rendered as 2-decimal strings.
    """
    return json.dumps(_jsonable(obj), indent=2) + "\n"
