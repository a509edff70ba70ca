import random
import re

import pytest

import revmul.io
from revmul import (
    Circuit,
    NetlistError,
    Register,
    RegisterLayout,
    build_addnop,
    build_controlled_ror,
    build_multiplier,
    build_ror,
    export_qasm,
    fredkin,
    metrics_json,
    parse_netlist,
    run,
    swap,
    verify_multiplier,
    write_netlist,
)
from revmul.analysis import ancilla_rows, formula_metrics


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


def test_duplicate_gate_line_reports_lineno():
    message = err("rev 1\nqubits 2\nreg R 0 1\nccx 0 0 1\n")
    assert "line 4" in message and "duplicate line" in message


def test_missing_qubits_header():
    assert "missing qubits" in err("rev 1\nreg R 0 1\nswap 0 1\n")


def test_qubits_limit():
    # parse only: a file this wide must never reach the simulator
    limit = revmul.io.MAX_QUBITS
    message = err(f"rev 1\nqubits {limit + 1}\nreg A 0 {limit}\n")
    assert "line 2" in message and "exceeds the limit" in message
    assert "line 2" in err("rev 1\nqubits 4000000000\nreg A 0 3999999999\n")
    assert parse_netlist(f"rev 1\nqubits {limit}\nreg A 0 {limit - 1}\n").width == limit


def test_missing_version_header():
    assert "version header" in err("qubits 2\nreg R 0 1\n")


def test_unsupported_version():
    assert "unsupported format version" in err("rev 2\nqubits 1\nreg R 0 0\n")


def test_unknown_mnemonic():
    message = err("rev 1\nqubits 2\nreg R 0 1\ncnot 0 1\n")
    assert "unknown gate mnemonic" in message and "line 4" in message


def test_gate_index_out_of_range():
    assert "out of range" in err("rev 1\nqubits 2\nreg R 0 1\ncx 0 2\n")


def test_duplicate_register_name():
    message = err("rev 1\nqubits 4\nreg R 0 1\nreg R 2 3\n")
    assert "duplicate register name" in message and "line 4" in message


def test_register_coverage_enforced():
    assert "gap" in err("rev 1\nqubits 4\nreg A 0 0\nreg B 2 3\nswap 0 1\n")
    assert "cover" in err("rev 1\nqubits 5\nreg A 0 3\nswap 0 1\n")


def test_empty_stage_rejected_with_lineno():
    message = err("rev 1\nqubits 2\nreg R 0 1\nswap 0 1\n---\n---\n")
    assert "empty stage" in message and "line 6" in message


def test_declaration_after_gate_rejected():
    assert "after the first gate" in err("rev 1\nqubits 2\nreg R 0 1\nswap 0 1\nreg S 2 2\n")


# ---------------------------------------------------------------- qasm export

def test_qasm_gate_statements():
    text = export_qasm(build_multiplier(2))
    statements = [l for l in text.splitlines() if re.match(r"(cx|ccx|cswap|swap) ", l)]
    assert len(statements) == 21


def test_qasm_formatting():
    layout = RegisterLayout([Register("R", 0, 3)])
    circ = Circuit(layout)
    circ.append(swap(0, 1))
    circ.append(fredkin(2, 0, 1))
    text = export_qasm(circ)
    assert "swap q[0],q[1];" in text
    assert "cswap q[2],q[0],q[1];" in text
    assert "qreg q[3];" in text


def test_qasm_carries_ancilla_and_stage_comments():
    text = export_qasm(build_addnop(1))
    assert "// P: q[2..3] (ancilla, enters as 0)" in text
    assert "// --- end of stage 1 ---" in text


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
