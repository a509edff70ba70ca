"""revmul: garbage-free reversible add-and-rotate integer multipliers.

Builds the N x N multiplier (and its ADD/NOP and rotate-right blocks) at any
width, simulates them bit-exactly on basis states, certifies products and
zero-garbage behavior against independent oracles, and reproduces the
closed-form resource accounting and comparison tables.
"""

from .analysis import (
    FormulaCheck,
    ancilla_rows,
    check_formulas,
    formula_metrics,
    garbage_rows,
    improvement_percent,
    render_csv,
    render_markdown,
)
from .circuit import Circuit, Register, RegisterLayout
from .gates import CNOT, FREDKIN, SWAP, TOFFOLI, Gate
from .io import NetlistError, export_qasm, metrics_json, parse_netlist, write_netlist
from .metrics import Metrics, structural_metrics
from .sim import (
    VerifyReport,
    oracle_multiply,
    oracle_rotate_right,
    pack_state,
    register_value,
    run,
    verify_multiplier,
    verify_rotate,
)
from .synth import (
    addnop_layout,
    build_addnop,
    build_controlled_ror,
    build_multiplier,
    build_ror,
    controlled_ror_layout,
    multiplier_layout,
    ror_layout,
)

__version__ = "0.1.0"

__all__ = [
    "CNOT",
    "FREDKIN",
    "SWAP",
    "TOFFOLI",
    "Circuit",
    "FormulaCheck",
    "Gate",
    "Metrics",
    "NetlistError",
    "Register",
    "RegisterLayout",
    "VerifyReport",
    "ancilla_rows",
    "addnop_layout",
    "build_addnop",
    "build_controlled_ror",
    "build_multiplier",
    "build_ror",
    "check_formulas",
    "controlled_ror_layout",
    "export_qasm",
    "formula_metrics",
    "garbage_rows",
    "improvement_percent",
    "metrics_json",
    "multiplier_layout",
    "oracle_multiply",
    "oracle_rotate_right",
    "pack_state",
    "parse_netlist",
    "register_value",
    "render_csv",
    "render_markdown",
    "ror_layout",
    "run",
    "structural_metrics",
    "verify_multiplier",
    "verify_rotate",
    "write_netlist",
]
