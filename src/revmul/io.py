"""Netlist serialization: the .rev text format, assembly export, JSON reports.

The .rev format is line oriented with `#` comments:

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
comparison tables describe (n=1024) has 4,097 lines.
The writer emits a canonical form: writing, parsing and writing again is byte
identical.
"""

import json

from .analysis import AncillaRow, FormulaCheck, GarbageRow
from .circuit import Circuit, Register, RegisterLayout
from .gates import ARITY, KIND_ORDER, Gate
from .metrics import Metrics
from .sim import VerifyReport

FORMAT_VERSION = 1
MAX_QUBITS = 1 << 16


class NetlistError(ValueError):
    """Malformed netlist text, pointing at the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def write_netlist(circuit: Circuit) -> str:
    out = [f"rev {FORMAT_VERSION}", f"qubits {circuit.width}"]
    for reg in circuit.layout.registers:
        hi = reg.end - 1
        if reg.is_ancilla:
            out.append(f"anc {reg.name} {reg.start} {hi} {reg.const}")
        else:
            out.append(f"reg {reg.name} {reg.start} {hi}")
    marks = set(circuit.stage_marks)
    for pos, gate in enumerate(circuit.gates, 1):
        out.append(f"{gate.kind} {' '.join(str(line) for line in gate.lines)}")
        if pos in marks:
            out.append("---")
    return "\n".join(out) + "\n"


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise NetlistError(f"{what} must be an integer, got {token!r}", lineno) from None


class _Parser:
    def __init__(self):
        self.width = None
        self.registers: list[Register] = []
        self.circuit: Circuit | None = None

    def _finalize(self, lineno: int | None) -> Circuit:
        if self.width is None:
            raise NetlistError("missing qubits declaration", lineno)
        try:
            layout = RegisterLayout(self.registers)
        except ValueError as exc:
            raise NetlistError(str(exc), lineno) from None
        if layout.width != self.width:
            raise NetlistError(
                f"registers cover {layout.width} lines, qubits declares {self.width}", lineno
            )
        self.circuit = Circuit(layout)
        return self.circuit

    def header(self, head, fields, lineno):
        if head == "qubits":
            if self.width is not None:
                raise NetlistError("duplicate qubits declaration", lineno)
            if len(fields) != 2:
                raise NetlistError("qubits takes exactly one argument", lineno)
            self.width = _parse_int(fields[1], "width", lineno)
            if self.width < 1:
                raise NetlistError(f"width must be positive, got {self.width}", lineno)
            if self.width > MAX_QUBITS:
                raise NetlistError(
                    f"width {self.width} exceeds the limit of {MAX_QUBITS} lines", lineno
                )
            return
        if head in ("reg", "anc"):
            want = 4 if head == "reg" else 5
            if len(fields) != want:
                raise NetlistError(f"malformed {head} declaration", lineno)
            name = fields[1]
            if any(r.name == name for r in self.registers):
                raise NetlistError(f"duplicate register name {name!r}", lineno)
            lo = _parse_int(fields[2], "register lo", lineno)
            hi = _parse_int(fields[3], "register hi", lineno)
            if hi < lo:
                raise NetlistError(f"register {name} has hi {hi} < lo {lo}", lineno)
            const = None
            if head == "anc":
                const = _parse_int(fields[4], "ancilla constant", lineno)
                if const not in (0, 1):
                    raise NetlistError(f"ancilla constant must be 0 or 1, got {const}", lineno)
            try:
                self.registers.append(Register(name, lo, hi - lo + 1, const))
            except ValueError as exc:
                raise NetlistError(str(exc), lineno) from None
            return
        raise NetlistError(f"unknown gate mnemonic or directive {head!r}", lineno)

    def body(self, head, fields, lineno):
        if self.circuit is None:
            self._finalize(lineno)
        if head == "---":
            if len(fields) != 1:
                raise NetlistError("stage separator takes no arguments", lineno)
            try:
                self.circuit.mark_stage()
            except ValueError as exc:
                raise NetlistError(str(exc), lineno) from None
            return
        if head not in ARITY:
            raise NetlistError(f"unknown gate mnemonic or directive {head!r}", lineno)
        lines = [_parse_int(tok, "line index", lineno) for tok in fields[1:]]
        try:
            self.circuit.append(Gate(head, tuple(lines)))
        except ValueError as exc:
            raise NetlistError(str(exc), lineno) from None


def parse_netlist(text: str) -> Circuit:
    """Exact inverse of write_netlist; raises NetlistError with line numbers."""
    parser = _Parser()
    saw_version = False
    last_line = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        last_line = lineno
        fields = line.split()
        head = fields[0]
        if not saw_version:
            if head != "rev" or len(fields) != 2:
                raise NetlistError("expected version header 'rev 1'", lineno)
            if fields[1] != str(FORMAT_VERSION):
                raise NetlistError(f"unsupported format version {fields[1]!r}", lineno)
            saw_version = True
        elif parser.circuit is None and head in ("qubits", "reg", "anc"):
            parser.header(head, fields, lineno)
        elif head in ("qubits", "reg", "anc"):
            raise NetlistError(f"{head} declaration after the first gate", lineno)
        else:
            parser.body(head, fields, lineno)
    if not saw_version:
        raise NetlistError("expected version header 'rev 1'", last_line)
    if parser.circuit is None:
        parser._finalize(last_line)
    return parser.circuit


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
    marks = set(circuit.stage_marks)
    stage = 1
    for pos, gate in enumerate(circuit.gates, 1):
        args = ",".join(f"q[{line}]" for line in gate.lines)
        out.append(f"{gate.kind} {args};")
        if pos in marks:
            out.append(f"// --- end of stage {stage} ---")
            stage += 1
    return "\n".join(out) + "\n"


def _percent(value: float) -> str:
    return f"{value:.2f}"


def _jsonable(obj):
    if isinstance(obj, Metrics):
        return {
            "gate_counts": {kind: obj.gate_counts.get(kind, 0) for kind in KIND_ORDER},
            "gate_count": obj.gate_count,
            "quantum_cost": obj.quantum_cost,
            "ancilla_inputs": obj.ancilla_inputs,
            "garbage_outputs": obj.garbage_outputs,
            "asap_depth": obj.asap_depth,
            "staged_delay": obj.staged_delay,
        }
    if isinstance(obj, VerifyReport):
        return {
            "ok": obj.ok,
            "checked": obj.checked,
            "mode": obj.mode,
            "seed": obj.seed,
            "garbage_outputs": obj.garbage_outputs,
            "counterexamples": obj.counterexamples,
        }
    if isinstance(obj, AncillaRow):
        return {
            "n": obj.n,
            "ours": obj.ours,
            "kotiyal": obj.kotiyal,
            "zhou": obj.zhou,
            "imp_kotiyal": _percent(obj.imp_kotiyal),
            "imp_zhou": _percent(obj.imp_zhou),
        }
    if isinstance(obj, GarbageRow):
        return {"n": obj.n, "kotiyal": obj.kotiyal, "zhou": obj.zhou, "imp": obj.imp}
    if isinstance(obj, FormulaCheck):
        return {
            "ok": obj.ok,
            "max_n": obj.max_n,
            "checked": obj.checked,
            "mismatches": obj.mismatches,
        }
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    return obj


def metrics_json(obj) -> str:
    """Stable-key JSON for metrics, verification reports and table rows.

    Integers stay exact; percentages are rendered as 2-decimal strings.
    """
    return json.dumps(_jsonable(obj), indent=2) + "\n"
