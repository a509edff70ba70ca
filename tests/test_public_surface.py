"""The public surface: the names `revmul` exports, and one way to make a gate."""

import inspect

import revmul
from revmul import gates

PUBLIC_NAMES = [
    "CNOT", "Circuit", "FREDKIN", "FormulaCheck", "Gate", "Metrics", "NetlistError",
    "Register", "RegisterLayout", "SWAP", "TOFFOLI", "VerifyReport",
    "addnop_layout", "ancilla_rows", "build_addnop", "build_controlled_ror",
    "build_multiplier", "build_ror", "check_formulas", "controlled_ror_layout",
    "export_qasm", "formula_metrics", "garbage_rows", "improvement_percent",
    "metrics_json", "multiplier_layout", "oracle_multiply", "oracle_rotate_right",
    "pack_state", "parse_netlist", "register_value", "render_csv", "render_markdown",
    "ror_layout", "run", "structural_metrics", "verify_multiplier", "verify_rotate",
    "write_netlist",
]


def test_public_names_are_pinned():
    # a name added to or removed from revmul.__all__ is an edit to this list
    assert sorted(revmul.__all__) == PUBLIC_NAMES
    assert all(hasattr(revmul, name) for name in PUBLIC_NAMES)


def test_gates_defines_no_module_level_function():
    # a gate is made by Gate(kind, lines) and priced by QUANTUM_COST[kind]
    functions = [
        name for name, value in vars(gates).items()
        if inspect.isfunction(value) and value.__module__ == gates.__name__
    ]
    assert functions == []
