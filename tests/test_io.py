import ast
import hashlib
import random
import re
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revmul.analysis
import revmul.cli
import revmul.io
import revmul.sim
from revmul import (
    Circuit,
    NetlistError,
    Register,
    RegisterLayout,
    build_addnop,
    build_controlled_ror,
    build_multiplier,
    build_ror,
    check_formulas,
    export_qasm,
    garbage_rows,
    metrics_json,
    parse_netlist,
    run,
    structural_metrics,
    verify_multiplier,
    verify_rotate,
    write_netlist,
)
from revmul.analysis import ancilla_rows, formula_metrics
from revmul.gates import ARITY, FREDKIN, SWAP, Gate


# ---------------------------------------------------------------- round trips

@pytest.mark.parametrize(
    "circuit",
    [
        build_multiplier(2),
        build_multiplier(3),
        build_addnop(2),
        build_ror(4),
        build_ror(5),
        build_controlled_ror(5),
    ],
    ids=["mul2", "mul3", "addnop2", "ror4", "ror5", "cror5"],
)
def test_write_parse_reproduces_exactly(circuit):
    text = write_netlist(circuit)
    again = parse_netlist(text)
    assert again == circuit
    assert write_netlist(again) == text  # canonical second pass


@st.composite
def valid_circuits(draw):
    """Circuits of every gate kind at widths 2-70: marked stages of gates on
    disjoint lines, then unmarked gates on any lines."""
    width = draw(st.integers(2, 70))
    ancillas = draw(st.integers(0, width - 1))
    registers = [Register("R", 0, width - ancillas)]
    if ancillas:
        registers.append(Register("Z", width - ancillas, ancillas, draw(st.integers(0, 1))))
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


@settings(max_examples=200, deadline=None)
@given(valid_circuits())
def test_random_circuits_round_trip(circuit):
    text = write_netlist(circuit)
    again = parse_netlist(text)
    assert again == circuit
    assert write_netlist(again) == text


def test_roundtrip_simulates_identically():
    rng = random.Random(23)
    for circuit in (build_multiplier(2), build_ror(7)):
        again = parse_netlist(write_netlist(circuit))
        for _ in range(100):
            state = [rng.getrandbits(1) for _ in range(circuit.width)]
            assert run(again, state) == run(circuit, state)


def test_roundtrip_at_width_65():
    circuit = build_multiplier(16)
    text = write_netlist(circuit)
    assert parse_netlist(text) == circuit


def test_ror4_file_shape():
    lines = write_netlist(build_ror(4)).splitlines()
    gate_lines = [l for l in lines if l.startswith("swap")]
    assert gate_lines == ["swap 0 3", "swap 1 2", "swap 0 2"]
    # one separator between the two stages (plus the closing one at the end)
    body = lines[lines.index("swap 0 3"):]
    assert body == ["swap 0 3", "swap 1 2", "---", "swap 0 2", "---"]


def test_empty_circuit_file():
    layout = RegisterLayout([Register("R", 0, 3)])
    text = write_netlist(Circuit(layout))
    assert text == "rev 1\nqubits 3\nreg R 0 2\n"
    assert parse_netlist(text) == Circuit(layout)


def test_comments_and_blank_lines_ignored():
    text = "# banner\nrev 1\n\nqubits 2  # two lines\nreg R 0 1\nswap 0 1 # flip\n"
    circ = parse_netlist(text)
    assert len(circ) == 1


# ---------------------------------------------------------------- parse errors

def err(text):
    with pytest.raises(NetlistError) as info:
        parse_netlist(text)
    return str(info.value)


def test_qubits_limit():
    # parse only: a file this wide must never reach the simulator
    limit = revmul.io.MAX_QUBITS
    message = err(f"rev 1\nqubits {limit + 1}\nreg A 0 {limit}\n")
    assert "line 2" in message and "exceeds the limit" in message
    assert "line 2" in err("rev 1\nqubits 4000000000\nreg A 0 3999999999\n")
    assert parse_netlist(f"rev 1\nqubits {limit}\nreg A 0 {limit - 1}\n").width == limit


# ---------------------------------------------------------------- qasm export

def test_qasm_gate_statements():
    text = export_qasm(build_multiplier(2))
    statements = [l for l in text.splitlines() if re.match(r"(cx|ccx|cswap|swap) ", l)]
    assert len(statements) == 21


def test_qasm_formatting():
    layout = RegisterLayout([Register("R", 0, 3)])
    circ = Circuit(layout)
    circ.append(Gate(SWAP, (0, 1)))
    circ.append(Gate(FREDKIN, (2, 0, 1)))
    text = export_qasm(circ)
    assert "swap q[0],q[1];" in text
    assert "cswap q[2],q[0],q[1];" in text
    assert "qreg q[3];" in text


def test_qasm_carries_ancilla_and_stage_comments():
    text = export_qasm(build_addnop(1))
    assert "// P: q[2..3] (ancilla, enters as 0)" in text
    assert "// --- end of stage 1 ---" in text


# ---------------------------------------------------------------- writers against a reference

def reference_write_netlist(circuit):
    """`write_netlist` as it was before it rendered each distinct gate once:
    one text per gate, and a set of the stage marks tested after each gate."""
    out = [f"rev {revmul.io.FORMAT_VERSION}", f"qubits {circuit.width}"]
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


def reference_export_qasm(circuit):
    """`export_qasm` as it was before it rendered each distinct gate once."""
    out = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.width}];"]
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


def hand_circuit(gates, marks=()):
    """Gates over a data register and a one-line ancilla, with a stage
    closed after each gate count in `marks`."""
    circ = Circuit(RegisterLayout([Register("R", 0, 4), Register("Z", 4, 1, 1)]))
    for count, gate in enumerate(gates, 1):
        circ.append(gate)
        if count in marks:
            circ.mark_stage()
    return circ


SAME_LINES = [Gate("cx", (0, 1)), Gate("swap", (0, 1)), Gate("ccx", (0, 1, 2)),
              Gate("cswap", (0, 1, 2)), Gate("swap", (0, 1)), Gate("cx", (0, 1))]

WRITER_CASES = {
    **{f"mul{n}": (lambda n=n: build_multiplier(n)) for n in range(1, 25)},
    "addnop1": lambda: build_addnop(1),
    "addnop5": lambda: build_addnop(5),
    "ror2": lambda: build_ror(2),
    "ror9": lambda: build_ror(9),
    "cror6": lambda: build_controlled_ror(6),
    "empty": lambda: hand_circuit([]),
    "no_marks": lambda: hand_circuit(SAME_LINES),
    # two marked stages, then four gates after the last mark
    "trailing": lambda: hand_circuit(SAME_LINES, marks=(1, 2)),
    # the kind is part of a gate's text: two kinds on each of two line sets
    "same_lines": lambda: hand_circuit(SAME_LINES, marks=range(1, 7)),
    "same_lines_reversed": lambda: hand_circuit(SAME_LINES[::-1], marks=range(1, 7)),
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_writers_match_reference(name):
    circuit = WRITER_CASES[name]()
    assert write_netlist(circuit) == reference_write_netlist(circuit)
    assert export_qasm(circuit) == reference_export_qasm(circuit)


# sha256 of `revmul build mul --n N --format F`, as the benchmark pins them
WRITER_SHA256 = {
    (3, "qasm"): "703499a90ae94a2a1bacdafdfd4fb88c5e64e60282fbc06b9fbeb781c7ae092d",
    (16, "qasm"): "ad03941257ea298dcc4c33c5470f66a4c191ab6cec52045e1c17e5df5fb44518",
    (32, "rev"): "f843c77f2b3ebb043ec7ab0ef0717bfbc08658f1ffed05d0b1dd3bd6d60f8fc8",
}


@pytest.mark.parametrize("n,fmt", sorted(WRITER_SHA256))
def test_writer_bytes_pinned(n, fmt):
    write = export_qasm if fmt == "qasm" else write_netlist
    text = write(build_multiplier(n))
    assert hashlib.sha256(text.encode()).hexdigest() == WRITER_SHA256[n, fmt]


# ---------------------------------------------------------------- json reports

def test_metrics_json_quantum_cost():
    text = metrics_json(formula_metrics("mul", 4))
    assert '"quantum_cost": 403' in text
    assert '"ancilla_inputs": 9' in text


def test_verify_report_json():
    text = metrics_json(verify_multiplier(2))
    assert '"ok": true' in text
    assert '"garbage_outputs": 0' in text
    assert '"mode": "exhaustive"' in text


def test_comparison_row_json_percent_strings():
    row = next(r for r in ancilla_rows(8) if r.n == 8)
    text = metrics_json(row)
    assert '"imp_kotiyal": "79.52"' in text  # printed source rounds this to 79.51
    assert '"ours": 17' in text


def test_json_stable_key_order():
    a = metrics_json(formula_metrics("ror", 4))
    b = metrics_json(formula_metrics("ror", 4))
    assert a == b
    assert a.index('"gate_counts"') < a.index('"quantum_cost"') < a.index('"staged_delay"')


def test_metrics_json_text_pinned():
    assert metrics_json(formula_metrics("ror", 4)) == (
        '{\n  "gate_counts": {\n    "cx": 0,\n    "ccx": 0,\n    "cswap": 0,\n    "swap": 7\n  },\n'
        '  "gate_count": 7,\n  "quantum_cost": 21,\n  "ancilla_inputs": 0,\n'
        '  "garbage_outputs": null,\n  "asap_depth": null,\n  "staged_delay": 6\n}\n'
    )
    assert metrics_json(verify_multiplier(3, mode="random", count=5, seed=9)) == (
        '{\n  "ok": true,\n  "checked": 5,\n  "mode": "random",\n  "seed": 9,\n'
        '  "garbage_outputs": 0,\n  "counterexamples": []\n}\n'
    )


def _damaged(circuit):
    """The circuit without its last gate, which every sweep below rejects."""
    damaged = Circuit(circuit.layout)
    for gate in circuit.gates[:-1]:
        damaged.append(gate)
    return damaged


def _damage_rotates(monkeypatch):
    monkeypatch.setattr(revmul.sim, "build_ror", lambda width: _damaged(build_ror(width)))
    monkeypatch.setattr(
        revmul.sim, "build_controlled_ror", lambda width: _damaged(build_controlled_ror(width))
    )


def _failing_formula_check(monkeypatch):
    monkeypatch.setattr(revmul.analysis, "build_ror", lambda width: _damaged(build_ror(width)))
    return check_formulas(3)


# Every report kind `metrics_json` encodes, with zero-filled gate counts, null
# fields, echoed seeds and counterexamples; each takes pytest's monkeypatch.
JSON_REPORTS = {
    "formula mul n=4": lambda mp: formula_metrics("mul", 4),
    "formula addnop n=3": lambda mp: formula_metrics("addnop", 3),
    "formula ror n=4": lambda mp: formula_metrics("ror", 4),
    "structural mul n=3": lambda mp: structural_metrics(build_multiplier(3)),
    "structural cror width 6": lambda mp: structural_metrics(build_controlled_ror(6)),
    "verify mul exhaustive": lambda mp: verify_multiplier(3),
    "verify mul random": lambda mp: verify_multiplier(8, mode="random", count=50, seed=5),
    "verify mul exhaustive failing": lambda mp: verify_multiplier(
        3, circuit=_damaged(build_multiplier(3))
    ),
    "verify mul random failing": lambda mp: verify_multiplier(
        4, mode="random", count=40, seed=7, circuit=_damaged(build_multiplier(4))
    ),
    "verify ror exhaustive": lambda mp: verify_rotate(7),
    "verify ror random": lambda mp: verify_rotate(16, mode="random", count=30, seed=11),
    "verify ror failing": lambda mp: (_damage_rotates(mp), verify_rotate(6))[1],
    "verify cror exhaustive": lambda mp: verify_rotate(4, controlled=True),
    "verify cror random": lambda mp: verify_rotate(
        12, mode="random", count=30, seed=2, controlled=True
    ),
    "verify cror random failing": lambda mp: (_damage_rotates(mp), verify_rotate(
        12, mode="random", count=30, seed=2, controlled=True
    ))[1],
    "ancilla rows": lambda mp: ancilla_rows(),
    "garbage rows": lambda mp: garbage_rows(),
    "formula check": lambda mp: check_formulas(4),
    "formula check failing": _failing_formula_check,
}

JSON_SHA256 = {
    "ancilla rows": "1a7dd81818c3e387a776d3b3e5f8344a881c2056477cbe6316f5d00b77d4a71b",
    "formula addnop n=3": "d001f69861f56a327622ea133e4102e4717b88e76a98a6bbb81b8be73765014f",
    "formula check": "e30716e587dcd17c8806b29d38bac0d5d48fd412bd9ff849c50cbc8ac1f86e5b",
    "formula check failing": "ca28dac58460e49e1188eaf1ead26058870b5447f193661b35a6ac7bde7d00e1",
    "formula mul n=4": "b0cd35646c9c5c6aa0a5e67658ff5762c2bad5dd8dabdc2e9963fd7097348777",
    "formula ror n=4": "17fdc6fa75fca9d8097a475b422fa824a90e5422eea170e88588736c35a50363",
    "garbage rows": "2b58a25524db9948f510162e1a38d2992b07f31adac6716fefaec53ad36d9281",
    "structural cror width 6": "3aaaf887996fcf1cf7763cdfb6ad733816d9c81464e42853f59a6af951614aa3",
    "structural mul n=3": "dc3590c411cd666131352f44eb00b256b6b197ac33936f24de6be489cefdafe1",
    "verify cror exhaustive": "ace4e98e35c5ffb893bcd8cb843646be042c3f7ebff958245c3ccbfcaf6e9d77",
    "verify cror random": "8892d044ec042c77d59cbdd8487e7f29c55b85d0ababfef85c4fdef0a9107387",
    "verify cror random failing": "298132569ded35dc2c104e353a3c7e4807563f5b9e409d44c90fb0130da41faa",
    "verify mul exhaustive": "4f14f72f4770e8a0ef1d93660b3dd60e81b280cafb05a284287157b91bfedb11",
    "verify mul exhaustive failing": "931578de1b086f33fefd1ce9b25b5f5233d6410192de62c03436cd3f70205858",
    "verify mul random": "ac95a28fc0236dc0258bce2cb5e275c541b0eb6152ff657b7b9cfb04ea7c24b4",
    "verify mul random failing": "399dd223a35495182acff72fba853a9625bb7312872306f3246047bdc1a4f53f",
    "verify ror exhaustive": "ed734e31937dca01f9d05c2fb7871e3ab2cd1fbe89694b918fb63f836fb45617",
    "verify ror failing": "fa136c6816fea0622c11e5d4693ca8a62ed654f0f9bb5106dc60dda0a2c25088",
    "verify ror random": "6e2dd6328dd43173c2ca45d26a07b2577ea4d378c42d826f370769f631670744",
}


@pytest.mark.parametrize("name", sorted(JSON_REPORTS))
def test_metrics_json_bytes_pinned(name, monkeypatch):
    text = metrics_json(JSON_REPORTS[name](monkeypatch))
    assert hashlib.sha256(text.encode()).hexdigest() == JSON_SHA256[name]


# argv -> (exit code, sha256 of stdout); `damaged` runs with the rotates damaged
CLI_JSON_SHA256 = {
    "verify mul --n 3 --json": (
        0, "4f14f72f4770e8a0ef1d93660b3dd60e81b280cafb05a284287157b91bfedb11"
    ),
    "damaged verify ror --width 6 --random 5 --seed 3 --json": (
        1, "16141833e930df29477d0054c5442b48eba924567acd098ea8bdf39f52cfef0a"
    ),
    "compare --which ancilla --format json": (
        0, "1a7dd81818c3e387a776d3b3e5f8344a881c2056477cbe6316f5d00b77d4a71b"
    ),
    "compare --which garbage --format json": (
        0, "2b58a25524db9948f510162e1a38d2992b07f31adac6716fefaec53ad36d9281"
    ),
    "compare --which ancilla --format json --max-n 8": (
        0, "539bcfd94383f8ce1e25b04ccf0b3f7d38ce5a07a5abd79790b7238119029582"
    ),
}


@pytest.mark.parametrize("argv", sorted(CLI_JSON_SHA256))
def test_cli_json_bytes_pinned(argv, monkeypatch, capsys):
    words = argv.split()
    if words[0] == "damaged":
        _damage_rotates(monkeypatch)
        words = words[1:]
    code = revmul.cli.main(words)
    text = capsys.readouterr().out
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == CLI_JSON_SHA256[argv]


def test_io_imports_only_circuit_gates_and_metrics():
    # read the source: importing revmul.io runs revmul/__init__, which imports
    # every module, so sys.modules cannot show what io itself needs
    tree = ast.parse(Path(revmul.io.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else [a.name for a in node.names])
    assert imported <= {"circuit", "gates", "metrics"}


# ---------------------------------------------------------------- parser against a reference

def shown(token, spell=repr):
    """A file token as an error message echoes it: whole up to 32 characters,
    by its length above that."""
    return spell(token) if len(token) <= 32 else f"of {len(token)} characters"


def reference_parse(text):
    """The parser as it was before it remembered repeated lines: every line
    tokenized, every token through `_parse_int`, a fresh `Gate` per line.
    Like the parser, it leaves the ancilla constant's range to `Register`."""
    parser = _ReferenceParser()
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
            if fields[1] != str(revmul.io.FORMAT_VERSION):
                raise NetlistError(f"unsupported format version {shown(fields[1])}", lineno)
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


class _ReferenceParser:
    def __init__(self):
        self.width = None
        self.registers = []
        self.circuit = None

    def _finalize(self, lineno):
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
        _parse_int = revmul.io._parse_int
        if head == "qubits":
            if self.width is not None:
                raise NetlistError("duplicate qubits declaration", lineno)
            if len(fields) != 2:
                raise NetlistError("qubits takes exactly one argument", lineno)
            self.width = _parse_int(fields[1], "width", lineno)
            if self.width < 1:
                raise NetlistError(f"width must be positive, got {self.width}", lineno)
            if self.width > revmul.io.MAX_QUBITS:
                raise NetlistError(
                    f"width {self.width} exceeds the limit of {revmul.io.MAX_QUBITS} lines",
                    lineno,
                )
            return
        if len(self.registers) == revmul.io.MAX_QUBITS:
            raise NetlistError(
                f"register {revmul.io.MAX_QUBITS + 1} exceeds the limit of "
                f"{revmul.io.MAX_QUBITS} registers",
                lineno,
            )
        want = 4 if head == "reg" else 5
        if len(fields) != want:
            raise NetlistError(f"malformed {head} declaration", lineno)
        name = fields[1]
        if any(r.name == name for r in self.registers):
            raise NetlistError(f"duplicate register name {shown(name)}", lineno)
        lo = _parse_int(fields[2], "register lo", lineno)
        hi = _parse_int(fields[3], "register hi", lineno)
        if hi < lo:
            raise NetlistError(f"register {shown(name, str)} has hi {hi} < lo {lo}", lineno)
        const = _parse_int(fields[4], "ancilla constant", lineno) if head == "anc" else None
        try:
            self.registers.append(Register(name, lo, hi - lo + 1, const))
        except ValueError as exc:
            raise NetlistError(str(exc), lineno) from None

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
            raise NetlistError(f"unknown gate mnemonic or directive {shown(head)}", lineno)
        lines = [revmul.io._parse_int(tok, "line index", lineno) for tok in fields[1:]]
        try:
            self.circuit.append(Gate(head, tuple(lines)))
        except ValueError as exc:
            raise NetlistError(str(exc), lineno) from None


def outcome(parse, text):
    """What a parser makes of the text: the circuit's parts, or its error."""
    try:
        circ = parse(text)
    except NetlistError as exc:
        return ("error", str(exc), exc.line)
    gates = [(gate.kind, gate.lines) for gate in circ.gates]
    return ("ok", circ.layout.registers, gates, circ.stage_marks)


BASES = {
    f"{name}{size}": write_netlist(builder(size))
    for name, builder, sizes in (
        ("mul", build_multiplier, (1, 2, 3)),
        ("ror", build_ror, (2, 5)),
        ("cror", build_controlled_ror, (4,)),
    )
    for size in sizes
}
# every gate kind, two stages of more than one gate, and unmarked trailing gates
BASES["hand"] = write_netlist(hand_circuit(
    [Gate("cx", (0, 1)), Gate("ccx", (2, 3, 4)), Gate("cswap", (4, 0, 1)), Gate("swap", (2, 3)),
     Gate("cx", (0, 1)), Gate("swap", (3, 4)), Gate("ccx", (0, 1, 2)), Gate("cx", (0, 1))],
    marks=(2, 4, 5),
))

JUNK = ["x", "-1", "1.5", "+2", "0x1", "99", "4096", "1_0", "٣", "---", "#", "rev", "ccx",
        "007", "0" * 33]


@st.composite
def mutated_netlists(draw):
    lines = BASES[draw(st.sampled_from(sorted(BASES)))].splitlines()
    first_gate = next(i for i, line in enumerate(lines) if line.split()[0] in ARITY)
    width = next(int(line.split()[1]) for line in lines if line.startswith("qubits"))
    edges = [str(width - 1), str(width)]  # the last line index and the first past it
    for _ in range(draw(st.integers(0, 5))):
        # most mutations hit the gates, one in ten may hit the declarations
        lo = 0 if draw(st.integers(0, 9)) == 0 else min(first_gate, len(lines) - 1)
        at = draw(st.integers(lo, len(lines)))
        pick = draw(st.integers(max(lo, 0), len(lines) - 1)) if lines else None
        kind = draw(
            st.sampled_from(
                ["drop", "duplicate", "swap", "token", "separator", "comment", "blank", "repeat",
                 "bad_repeat"]
            )
        )
        if kind == "drop" and pick is not None:
            del lines[pick]
        elif kind == "duplicate" and pick is not None:
            lines.insert(at, lines[pick])
        elif kind == "swap" and pick is not None and at < len(lines):
            lines[pick], lines[at] = lines[at], lines[pick]
        elif kind == "token" and pick is not None:
            fields = lines[pick].split() or [""]
            index = draw(st.integers(0, len(fields)))
            token = draw(st.sampled_from(JUNK + edges) | st.integers(-3, 300).map(str))
            fields[index:index + draw(st.integers(0, 1))] = [token]
            lines[pick] = " ".join(fields)
        elif kind == "separator":
            lines.insert(at, draw(st.sampled_from(["--- 1", "--- x", "---", " ---  "])))
        elif kind == "comment":
            lines.insert(at, draw(st.sampled_from(["# note", "   # indented", "#"])))
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "repeat" and pick is not None:
            note = draw(st.sampled_from(["", " ", " # again", "# tight", "  #  other"]))
            lines.insert(at, lines[pick] + note)
        elif kind == "bad_repeat" and pick is not None:
            # a gate line with an index out of range or negative, read twice
            fields = lines[pick].split() or ["cx"]
            index = draw(st.integers(1, max(len(fields) - 1, 1)))
            fields[index:index + 1] = [draw(st.sampled_from([str(width), str(width + 7), "-1", "-0"]))]
            bad = " ".join(fields)
            lines.insert(at, bad)
            lines.insert(draw(st.integers(at, len(lines))), bad)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@settings(max_examples=400, deadline=None)
@given(mutated_netlists())
def test_parser_matches_reference_on_mutated_netlists(text):
    assert outcome(parse_netlist, text) == outcome(reference_parse, text)


HEAD = "rev 1\nqubits 3\nreg R 0 2\n"


@st.composite
def netlist_texts(draw):
    """Lines of a netlist word and its arguments, mostly small line numbers,
    most of them after a valid header. In half the texts any word, argument
    or line may also be another number or arbitrary characters; the other
    half keep to netlist words, so that they reach the gate and stage
    checks."""
    words = st.sampled_from(["qubits", "reg", "anc", "#", *ARITY, *ARITY, "---", "---"])
    args = st.sampled_from(["0", "1", "2", "3", "R", "Z"])
    if draw(st.booleans()):
        junk = st.integers(-3, 70000).map(str) | st.text(max_size=3)
        words, args = words | junk, args | junk
    space = st.sampled_from([" ", "  ", "\t", ""])
    line = st.tuples(words, st.lists(st.tuples(space, args), max_size=4)).map(
        lambda parts: parts[0] + "".join(map("".join, parts[1]))
    )
    if draw(st.booleans()):
        line = line | st.text(max_size=20)
    head = HEAD.splitlines() if draw(st.integers(0, 3)) else draw(st.sampled_from([["rev 1"], []]))
    lines = head + draw(st.lists(line, max_size=10))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=250, deadline=None)
@given(netlist_texts())
def test_any_text_parses_or_raises_netlist_error(text):
    try:
        parse_netlist(text)
    except NetlistError:
        pass


# ---------------------------------------------------------------- the parser's text slices

# "\r\n" and every line boundary str.splitlines knows, between short words
SPLIT_ALPHABET = [
    "a", "b c", "#", "---", "\n", "\r", "\r\n", "\v", "\f",
    "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]
SMALL_SLICES = st.integers(1, 48)  # boundaries inside headers, gates, comments and `---`


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(SPLIT_ALPHABET), max_size=60).map("".join),
    st.sampled_from([1, 2, 3, 7, revmul.io._SLICE_CHARS]),
)
def test_slices_split_into_the_lines_of_splitlines(text, size):
    with mock.patch.object(revmul.io, "_SLICE_CHARS", size):
        slices = list(revmul.io._slices(text))
    assert "".join(slices) == text
    assert all(piece.endswith("\n") for piece in slices[:-1])
    assert [line for piece in slices for line in piece.splitlines()] == text.splitlines()


@settings(max_examples=400, deadline=None)
@given(mutated_netlists(), SMALL_SLICES)
def test_parser_matches_reference_on_mutated_netlists_in_small_slices(text, size):
    with mock.patch.object(revmul.io, "_SLICE_CHARS", size):
        assert outcome(parse_netlist, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("size", [1, 9, 20, revmul.io._SLICE_CHARS])
@pytest.mark.parametrize(
    "gates, tail",
    [
        ("swap 0 1\n" * 5, "---\n"),  # the same gate again and again
        ("swap 0 1\n" * 5, ""),  # unmarked gates need no disjoint lines
        ("swap 0 1\n" * 5, "---\n---\n"),
        ("cx 0 1\nswap 1 2\nccx 0 1 2\n", "---\nswap 0 1\n---\n"),
        ("cx 0 1\n", "---\n" + "swap 1 2\n---\n" * 5),  # every stage within the width
        ("swap 0 1\n---\n" + "cx 2 0\n" * 3, "---\n"),
    ],
)
def test_a_stage_longer_than_the_width_clashes_across_slices(gates, tail, size):
    # HEAD declares 3 lines: past 3 entries, the stage's list must repeat a line,
    # and a slice that ends there drops the list and keeps the clash for `---`
    text = HEAD + gates + tail
    with mock.patch.object(revmul.io, "_SLICE_CHARS", size):
        assert outcome(parse_netlist, text) == outcome(reference_parse, text)


def test_a_separator_free_netlist_parses_in_bounded_memory():
    # the gate list belongs to the circuit; the stage's list of lines must
    # not grow with it (16 B per two-line gate if it were never dropped)
    gates = 100_000
    growth = (_parse_transient_bytes(HEAD + "swap 0 1\n" * 2 * gates)
              - _parse_transient_bytes(HEAD + "swap 0 1\n" * gates))
    assert growth < 2 * gates


@settings(max_examples=250, deadline=None)
@given(netlist_texts(), SMALL_SLICES)
def test_any_text_in_small_slices_parses_or_raises_netlist_error(text, size):
    with mock.patch.object(revmul.io, "_SLICE_CHARS", size):
        try:
            parse_netlist(text)
        except NetlistError:
            pass


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "expected version header 'rev 1'"),
        ("qubits 2\n", "line 1: expected version header 'rev 1'"),
        ("rev 1 2\n", "line 1: expected version header 'rev 1'"),
        ("# c\nrev 2\n", "line 2: unsupported format version '2'"),
        ("rev 1\nqubits 2\nqubits 2\n", "line 3: duplicate qubits declaration"),
        ("rev 1\nqubits 2 3\n", "line 2: qubits takes exactly one argument"),
        ("rev 1\nqubits two\n", "line 2: width must be an integer, got 'two'"),
        ("rev 1\nqubits 0\n", "line 2: width must be positive, got 0"),
        ("rev 1\nqubits 65537\n", "line 2: width 65537 exceeds the limit of 65536 lines"),
        ("rev 1\nqubits 2\nreg R 0\n", "line 3: malformed reg declaration"),
        ("rev 1\nqubits 2\nanc Z 0 1\n", "line 3: malformed anc declaration"),
        ("rev 1\nqubits 2\nreg R 0 0\nreg R 1 1\n", "line 4: duplicate register name 'R'"),
        ("rev 1\nqubits 2\nreg R a 1\n", "line 3: register lo must be an integer, got 'a'"),
        ("rev 1\nqubits 2\nreg R 0 b\n", "line 3: register hi must be an integer, got 'b'"),
        ("rev 1\nqubits 2\nreg R 1 0\n", "line 3: register R has hi 0 < lo 1"),
        ("rev 1\nqubits 2\nanc Z 0 1 c\n", "line 3: ancilla constant must be an integer, got 'c'"),
        ("rev 1\nqubits 2\nanc Z 0 1 2\n", "line 3: ancilla constant must be 0 or 1, got 2"),
        ("rev 1\nqubits 2\nreg R -1 0\n", "line 3: bad register span R: start=-1 size=2"),
        ("rev 1\nqubits 2\nanc Z -1 0 2\n", "line 3: bad register span Z: start=-1 size=2"),
        ("rev 1\nreg R 0 1\nswap 0 1\n", "line 3: missing qubits declaration"),
        ("rev 1\nreg R 0 1\n", "line 2: missing qubits declaration"),
        ("rev 1\nqubits 3\nreg A 0 0\nreg B 2 2\n---\n", "line 5: layout gap before register B at line 1"),
        ("rev 1\nqubits 3\nreg A 0 1\nreg B 1 2\n", "line 4: register B overlaps a previous register"),
        ("rev 1\nqubits 3\nreg A 0 1\n", "line 3: registers cover 2 lines, qubits declares 3"),
        (HEAD + "swap 0 1\nreg S 3 3\n", "line 5: reg declaration after the first gate"),
        (HEAD + "swap 0 1\nqubits 4\n", "line 5: qubits declaration after the first gate"),
        (HEAD + "swap 0 1\n--- 1\n", "line 5: stage separator takes no arguments"),
        (HEAD + "---\n", "line 4: empty stage"),
        (HEAD + "swap 0 1\n---\n---\n", "line 6: empty stage"),
        (HEAD + "swap 0 1\ncx 1 2\n---\n", "line 6: stage gates must act on pairwise disjoint lines"),
        (HEAD + "swap 0 1\n---\nswap 0 1\nswap 0 1\n---\n",
         "line 8: stage gates must act on pairwise disjoint lines"),
        (HEAD + "cnot 0 1\n", "line 4: unknown gate mnemonic or directive 'cnot'"),
        (HEAD + "ccx 0 x y\n", "line 4: line index must be an integer, got 'x'"),
        (HEAD + "cx 0 1 2\n", "line 4: cx takes 2 lines, got 3"),
        (HEAD + "cx\n", "line 4: cx takes 2 lines, got 0"),
        (HEAD + "cx -1 0\n", "line 4: negative line index in cx gate: (-1, 0)"),
        (HEAD + "ccx 0 0 1\n", "line 4: duplicate line index in ccx gate: (0, 0, 1)"),
        (HEAD + "swap -1 -1\n", "line 4: negative line index in swap gate: (-1, -1)"),
        (HEAD + "cx 0 3\n", "line 4: gate cx (0, 3) out of range for width 3"),
        (HEAD + "cx 0 1\ncx 0 1 # same gate\ncx 2 3\n",
         "line 6: gate cx (2, 3) out of range for width 3"),
        (HEAD + "cx 0 " + "1" * 33 + "\n", "line 4: line index has 33 characters, above the limit of 32"),
        ("rev 1\nqubits " + "0" * 40 + "3\n", "line 2: width has 41 characters, above the limit of 32"),
        # where the declarations end and the gates begin
        (HEAD + "swap 0 1\nrev 1\n", "line 5: unknown gate mnemonic or directive 'rev'"),
        ("rev 1\nrev 1\n", "line 2: missing qubits declaration"),
        (HEAD + "swap 0 1\n---\nanc Z 3 3 0\n", "line 6: anc declaration after the first gate"),
        ("rev 1\nqubits 3\nfoo\n", "line 3: registers cover 0 lines, qubits declares 3"),
        ("rev 1\n", "line 1: missing qubits declaration"),
        # an echoed token of up to 32 characters is shown whole, a longer one by its length
        ("rev " + "v" * 32 + "\n", f"line 1: unsupported format version '{'v' * 32}'"),
        pytest.param("rev " + "v" * 400_000 + "\n",
                     "line 1: unsupported format version of 400000 characters", id="long_version"),
        pytest.param(HEAD + "q" * 400_000 + " 0 1\n",
                     "line 4: unknown gate mnemonic or directive of 400000 characters",
                     id="long_mnemonic"),
        pytest.param("rev 1\nqubits 2\nreg {0} 0 0\nreg {0} 1 1\n".format("N" * 400_000),
                     "line 4: duplicate register name of 400000 characters",
                     id="long_duplicate_register"),
        pytest.param("rev 1\nqubits 2\nreg " + "N" * 400_000 + " 1 0\n",
                     "line 3: register of 400000 characters has hi 0 < lo 1", id="long_register"),
        # the layout's messages echo a register name the same way
        ("rev 1\nqubits 3\nreg A 0 0\nreg " + "N" * 32 + " 2 2\n",
         f"line 4: layout gap before register {'N' * 32} at line 1"),
        pytest.param("rev 1\nqubits 2\nreg " + "N" * 400_000 + " -1 0\n",
                     "line 3: bad register span of 400000 characters: start=-1 size=2",
                     id="long_register_span"),
        pytest.param("rev 1\nqubits 3\nreg A 0 1\nreg " + "N" * 400_000 + " 1 2\n",
                     "line 4: register of 400000 characters overlaps a previous register",
                     id="long_overlapping_register"),
        pytest.param("rev 1\nqubits 3\nreg A 0 0\nreg " + "N" * 400_000 + " 2 2\n",
                     "line 4: layout gap before register of 400000 characters at line 1",
                     id="long_register_after_gap"),
        # small files with one fault each
        ("rev 1\nqubits 2\nreg R 0 1\nccx 0 0 1\n", "line 4: duplicate line index in ccx gate: (0, 0, 1)"),
        ("rev 1\nreg R 0 1\nswap 0 1\n", "line 3: missing qubits declaration"),
        ("qubits 2\nreg R 0 1\n", "line 1: expected version header 'rev 1'"),
        ("rev 2\nqubits 1\nreg R 0 0\n", "line 1: unsupported format version '2'"),
        ("rev 1\nqubits 2\nreg R 0 1\ncnot 0 1\n", "line 4: unknown gate mnemonic or directive 'cnot'"),
        ("rev 1\nqubits 2\nreg R 0 1\ncx 0 2\n", "line 4: gate cx (0, 2) out of range for width 2"),
        ("rev 1\nqubits 4\nreg R 0 1\nreg R 2 3\n", "line 4: duplicate register name 'R'"),
        ("rev 1\nqubits 4\nreg A 0 0\nreg B 2 3\nswap 0 1\n",
         "line 5: layout gap before register B at line 1"),
        ("rev 1\nqubits 5\nreg A 0 3\nswap 0 1\n", "line 4: registers cover 4 lines, qubits declares 5"),
        ("rev 1\nqubits 2\nreg R 0 1\nswap 0 1\n---\n---\n", "line 6: empty stage"),
        ("rev 1\nqubits 2\nreg R 0 1\nswap 0 1\nreg S 2 2\n",
         "line 5: reg declaration after the first gate"),
    ],
)
def test_error_messages_are_pinned(text, message):
    assert err(text) == message
    with pytest.raises(NetlistError) as info:
        reference_parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "lineno, line, message",
    [
        (5916, "--- 1", "line 5916: stage separator takes no arguments"),
        (5917, "cswap 218 91 999", "line 5917: gate cswap (218, 91, 999) out of range for width 257"),
        (36997, "cx 3 3", "line 36997: duplicate line index in cx gate: (3, 3)"),
    ],
)
def test_errors_after_the_first_slice_are_pinned(lineno, line, message):
    text = write_netlist(build_multiplier(64))
    lines = text.splitlines(keepends=True)
    second = text.index("\n", revmul.io._SLICE_CHARS - 1) + 1  # where the second slice opens
    assert sum(map(len, lines[:lineno - 1])) >= second == sum(map(len, lines[:5915]))
    lines[lineno - 1] = line + "\n"
    text = "".join(lines)
    assert err(text) == message
    with pytest.raises(NetlistError) as info:
        reference_parse(text)
    assert str(info.value) == message


def test_many_one_line_registers_parse_in_linear_time():
    # the duplicate-name check once scanned every earlier register, so these
    # 65,535 registers took about 2 minutes; a name lookup takes under 1 s
    limit = revmul.io.MAX_QUBITS
    regs = "".join(f"reg R{i} {i} {i}\n" for i in range(limit - 1))
    started = time.perf_counter()
    message = err(f"rev 1\nqubits {limit}\n{regs}reg R5 0 0\n")
    assert time.perf_counter() - started < 10
    assert message == "line 65538: duplicate register name 'R5'"


def test_register_cap(monkeypatch):
    # no layout of at most MAX_QUBITS lines holds more registers, so the next
    # one is refused at its own line, before its fields are read
    limit = revmul.io.MAX_QUBITS
    regs = "".join(f"anc Z{i} 0 0 0\n" for i in range(limit))
    for extra in ("anc Z 0 0 0", "reg Z0", "anc " + "N" * 100 + " x y z"):
        assert err(f"rev 1\nqubits {limit}\n{regs}{extra}\n") == (
            "line 65539: register 65537 exceeds the limit of 65536 registers"
        )
    regs = "".join(f"reg R{i} {i} {i}\n" for i in range(limit))
    assert len(parse_netlist(f"rev 1\nqubits {limit}\n{regs}").layout.registers) == limit
    # the reference parser scans every register for a duplicate name, so it
    # is compared at a smaller limit
    monkeypatch.setattr(revmul.io, "MAX_QUBITS", 3)
    text = "rev 1\nqubits 3\nreg A 0 0\nreg B 1 1\nreg C 2 2\nreg A 0 0\n"
    message = "line 6: register 4 exceeds the limit of 3 registers"
    assert outcome(parse_netlist, text) == outcome(reference_parse, text) == ("error", message, 6)


def test_gate_line_cap(monkeypatch):
    assert revmul.cli.MAX_GATES is revmul.io.MAX_GATES == 1 << 20
    monkeypatch.setattr(revmul.io, "MAX_GATES", 3)
    gates = "swap 0 1\n---\nswap 0 1\n---\ncx 1 2\n"
    assert len(parse_netlist(HEAD + gates)) == 3  # separators do not count
    # the fourth gate line is refused whether it repeats an earlier line or not
    for extra in ("swap 0 1", "ccx 0 1 2", "cx 1 2 # again"):
        assert err(HEAD + gates + extra + "\n") == "line 9: gate 4 exceeds the limit of 3 gates"
    assert len(parse_netlist(HEAD + gates + "---\n# done\n\n")) == 3


def test_gate_cap_is_checked_before_the_range_of_a_new_gate(monkeypatch):
    monkeypatch.setattr(revmul.io, "MAX_GATES", 1)
    assert err(HEAD + "swap 0 1\ncx 1 7\n") == "line 5: gate 2 exceeds the limit of 1 gates"
    assert err(HEAD + "cx 1 7\n") == "line 4: gate cx (1, 7) out of range for width 3"


def test_sim_refuses_a_netlist_above_the_gate_cap(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(revmul.io, "MAX_GATES", 2)
    path = tmp_path / "long.rev"
    path.write_text(HEAD + "swap 0 1\nswap 0 1\nswap 0 1\n")
    assert revmul.cli.main(["sim", str(path), "--set", "R=1"]) == 2
    assert "line 6: gate 3 exceeds the limit of 2 gates" in capsys.readouterr().err


def test_sim_refuses_a_huge_line_index_with_a_short_message(tmp_path, capsys):
    # `main` lifts Python's digit limit, under which int() would convert the
    # token in quadratic time and the range error would echo all of it
    path = tmp_path / "huge.rev"
    path.write_text(HEAD + "cx 0 " + "7" * 200_000 + "\n")
    assert revmul.cli.main(["sim", str(path), "--set", "R=1"]) == 2
    assert capsys.readouterr().err == (
        "error: line 4: line index has 200000 characters, above the limit of 32\n"
    )


def test_integer_tokens_of_the_longest_length_are_read():
    longest = "0" * (revmul.io._MAX_INT_CHARS - 1)
    circ = parse_netlist(f"rev 1\nqubits {longest}3\nreg R 0 {longest}2\ncx {longest}1 2\n")
    assert circ.width == 3 and circ.gates == [Gate("cx", (1, 2))]


def test_repeated_lines_share_one_gate():
    circ = parse_netlist(BASES["mul3"])
    assert circ == build_multiplier(3)
    assert len({id(gate) for gate in circ.gates}) < len(circ.gates)


def _distinct_gate_lines(text):
    """The distinct texts of the gate lines, comments and spacing included."""
    texts = set()
    for raw in text.splitlines():
        fields = raw.partition("#")[0].split()
        if fields and fields[0] in ARITY:
            texts.add(raw)
    return texts


@pytest.mark.parametrize(
    "text",
    [write_netlist(build_multiplier(16)),
     HEAD + "cx 0 1\n---\ncx  0 1 # spaced\n---\n\tcx 0 1\nswap 1 2#\nswap 1 2\ncx 0 1\n"],
    ids=["mul16", "comments_and_spacing"],
)
def test_parser_constructs_one_gate_per_distinct_gate_line(text, monkeypatch):
    calls = 0
    checked_init = Gate.__init__

    def counting_init(self, kind, lines):
        nonlocal calls
        calls += 1
        checked_init(self, kind, lines)

    monkeypatch.setattr(Gate, "__init__", counting_init)
    circ = parse_netlist(text)
    assert calls == len(_distinct_gate_lines(text)) < len(circ.gates)


def _parse_transient_bytes(text):
    """Peak traced allocation of parsing the text, beyond the circuit it returns."""
    tracemalloc.start()
    try:
        circuit = parse_netlist(text)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert circuit.gates
    return peak - current


def test_parse_memory_does_not_grow_with_the_line_count():
    text = write_netlist(build_multiplier(32))  # more than one slice
    head, first, rest = text.partition("---\n")
    stage, separator, tail = rest.partition("---\n")
    copies = 25_000
    grown = head + first + (stage + separator) * (copies + 1) + tail
    added = copies * (stage.count("\n") + 1)
    growth = _parse_transient_bytes(grown) - _parse_transient_bytes(text)
    # the gate and mark lists belong to the circuit; a str per line is about 66 B
    assert growth < 16 * added
