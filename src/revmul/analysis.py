"""Closed-form resource accounting and regeneration of the comparison tables.

The closed forms per block, with n the operand width. The ADD/NOP and the
multiplier are the m x n product (m ADD/NOPs, and s = (m-1)(n+m-1) swaps in
the rotates of its n+m product lines) at m = 1 and at m = n:

    m x n               QC = m(20n+5)+3s  AI = n+m+1  delay = m(15n+10)+6(m-1)  gates = m(4n+1)+s
    ADD/NOP (m = 1)     QC = 20n+5        AI = n+2    delay = 15n+10        gates = 4n+1
    multiplier (m = n)  QC = 26n^2-4n+3   AI = 2n+1   delay = 15n^2+16n-6   gates = 6n^2-2n+1
    ROR (2n lines)      QC = 6n-3         AI = 0      delay = 6 (n = 1: 3)  gates = 2n-1

check_formulas() proves the generators reproduce these exactly. The ancilla
and garbage tables compare our counts against two published N x N reversible
multiplier designs (Kotiyal et al. and Zhou et al.); their counts are embedded
verbatim as cited constants, never re-derived.
"""

import io as _io
import csv
from dataclasses import astuple, dataclass, field, fields
from decimal import ROUND_HALF_UP, Decimal

from .gates import FREDKIN, SWAP, TOFFOLI
from .metrics import Metrics, structural_metrics
from .synth import ADDNOP, ROR, build_addnop, build_multiplier, build_ror

MULTIPLIER = "mul"

TABLE_SIZES = (4, 8, 16, 32, 64, 128, 256, 512, 1024)

# Ancilla input counts of the reference designs, one value per table size.
KOTIYAL_ANCILLA = {
    4: 23, 8: 83, 16: 303, 32: 1135, 64: 4351,
    128: 16959, 256: 66815, 512: 264959, 1024: 1054719,
}
ZHOU_ANCILLA = {
    4: 28, 8: 120, 16: 496, 32: 2016, 64: 8128,
    128: 32640, 256: 130816, 512: 523776, 1024: 2096128,
}

# Garbage output counts of the reference designs. The 1024 value published
# for the first design repeats its ancilla count instead of continuing the
# pattern of the earlier rows; it is carried verbatim, with a footnote.
KOTIYAL_GARBAGE = {
    4: 22, 8: 81, 16: 300, 32: 1131, 64: 4346,
    128: 16953, 256: 66808, 512: 264951, 1024: 1054719,
}
ZHOU_GARBAGE = {
    4: 36, 8: 168, 16: 720, 32: 2976, 64: 12096,
    128: 48768, 256: 195840, 512: 784896, 1024: 3142656,
}

# Improvement percentages as printed alongside the source counts. Their
# rounding is inconsistent by up to 0.02 against exact half-up arithmetic;
# regenerated columns are recomputed and flagged if they drift further.
REPORTED_IMP_KOTIYAL = {
    4: 60.86, 8: 79.51, 16: 89.10, 32: 94.27, 64: 97.03,
    128: 98.48, 256: 99.23, 512: 99.61, 1024: 99.80,
}
REPORTED_IMP_ZHOU = {
    4: 67.85, 8: 85.83, 16: 93.34, 32: 96.77, 64: 98.41,
    128: 99.21, 256: 99.60, 512: 99.80, 1024: 99.90,
}

REPORTED_TOLERANCE = 0.02


def formula_metrics(block: str, n: int) -> Metrics:
    """Closed-form Metrics for a block at operand width n.

    The ROR forms are for a rotate over 2n lines, as used by the multiplier.
    asap_depth is a measured quantity and stays None here.
    """
    if n < 1:
        raise ValueError(f"operand width must be >= 1, got {n}")
    if block in (ADDNOP, MULTIPLIER):
        m = 1 if block == ADDNOP else n  # the m x n product
        swaps = (m - 1) * (n + m - 1)  # m-1 rotates of the n+m product lines
        counts = {TOFFOLI: m * (2 * n + 1), FREDKIN: 2 * m * n, SWAP: swaps}
        return Metrics(
            gate_counts={kind: count for kind, count in counts.items() if count},  # kinds present
            gate_count=m * (4 * n + 1) + swaps,
            quantum_cost=m * (20 * n + 5) + 3 * swaps,
            # all n+m product lines plus the carry line; block-level ancilla
            # tallies do not simply add, the blocks share the same window
            ancilla_inputs=n + m + 1,
            staged_delay=m * (15 * n + 10) + 6 * (m - 1),
        )
    if block == ROR:
        return Metrics(
            gate_counts={SWAP: 2 * n - 1},
            gate_count=2 * n - 1,
            quantum_cost=6 * n - 3,
            ancilla_inputs=0,
            staged_delay=6 if n > 1 else 3,
        )
    raise ValueError(f"unknown block kind {block!r}")


@dataclass
class FormulaCheck:
    ok: bool
    max_n: int
    checked: int
    mismatches: list[str] = field(default_factory=list)


def check_formulas(max_n: int) -> FormulaCheck:
    """Compare built circuits against the closed forms for n = 2..max_n.

    Quantum cost, per-kind gate counts, ancilla inputs and staged delay must
    agree exactly; any difference is reported, never tolerated.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    report = FormulaCheck(ok=True, max_n=max_n, checked=0)
    builders = {
        ADDNOP: build_addnop,
        ROR: lambda n: build_ror(2 * n),
        MULTIPLIER: build_multiplier,
    }
    for n in range(2, max_n + 1):
        for block, builder in builders.items():
            want = formula_metrics(block, n)
            got = structural_metrics(builder(n))
            for attr in ("quantum_cost", "gate_count", "gate_counts", "ancilla_inputs", "staged_delay"):
                w, g = getattr(want, attr), getattr(got, attr)
                if w != g:
                    report.mismatches.append(f"{block} n={n} {attr}: formula {w} != structural {g}")
            report.checked += 1
    report.ok = not report.mismatches
    return report


def improvement_percent(ours: int, theirs: int) -> float:
    """(theirs - ours) / theirs * 100, rounded half-up to 2 decimals."""
    if theirs <= 0:
        raise ValueError(f"reference count must be positive, got {theirs}")
    exact = (Decimal(theirs) - Decimal(ours)) / Decimal(theirs) * 100
    return float(exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass
class AncillaRow:
    n: int
    ours: int
    kotiyal: int
    zhou: int
    imp_kotiyal: float
    imp_zhou: float


@dataclass
class GarbageRow:
    n: int
    kotiyal: int
    zhou: int
    imp: str = "100%"


def _check_ladder(max_n: int) -> list[int]:
    if max_n not in TABLE_SIZES:
        raise ValueError(f"max_n must be one of {TABLE_SIZES}, got {max_n}")
    return [n for n in TABLE_SIZES if n <= max_n]


def ancilla_rows(max_n: int = 1024) -> list[AncillaRow]:
    """Ancilla comparison rows: our count is 2n+1, improvements recomputed."""
    rows = []
    for n in _check_ladder(max_n):
        ours = formula_metrics(MULTIPLIER, n).ancilla_inputs
        rows.append(
            AncillaRow(
                n=n,
                ours=ours,
                kotiyal=KOTIYAL_ANCILLA[n],
                zhou=ZHOU_ANCILLA[n],
                imp_kotiyal=improvement_percent(ours, KOTIYAL_ANCILLA[n]),
                imp_zhou=improvement_percent(ours, ZHOU_ANCILLA[n]),
            )
        )
    return rows


def garbage_rows(max_n: int = 1024) -> list[GarbageRow]:
    """Garbage comparison rows. Our design emits no garbage (certified by the
    verification harness), so the improvement column is a flat 100%."""
    return [
        GarbageRow(n=n, kotiyal=KOTIYAL_GARBAGE[n], zhou=ZHOU_GARBAGE[n])
        for n in _check_ladder(max_n)
    ]


def flag_deviations(rows: list[AncillaRow]) -> list[str]:
    """Cells whose recomputed improvement drifts beyond the rounding tolerance
    of the reported figures. Expected to be empty."""
    flags = []
    for row in rows:
        for name, got, reported in (
            ("kotiyal", row.imp_kotiyal, REPORTED_IMP_KOTIYAL[row.n]),
            ("zhou", row.imp_zhou, REPORTED_IMP_ZHOU[row.n]),
        ):
            if abs(got - reported) > REPORTED_TOLERANCE + 1e-9:
                flags.append(
                    f"n={row.n} imp_{name}: recomputed {got:.2f} vs reported {reported:.2f}"
                )
    return flags


GARBAGE_FOOTNOTE = (
    "the n=1024 count for Kotiyal et al. is carried verbatim from the source, "
    "which prints its ancilla figure in this cell"
)


# Each table's row type and its markdown headings, one per field.
_TABLES = {
    "ancilla": (
        AncillaRow,
        ("N", "ours", "Kotiyal et al.", "Zhou et al.", "%imp vs Kotiyal", "%imp vs Zhou"),
    ),
    "garbage": (GarbageRow, ("N", "Kotiyal et al.", "Zhou et al.", "%imp (ours: 0 garbage)")),
}


def _table(which: str, rows) -> tuple:
    """(row type, headings, cells of each row), a float cell with 2 decimals."""
    if which not in _TABLES:
        raise ValueError(f"unknown table kind {which!r}")
    cells = [[f"{x:.2f}" if isinstance(x, float) else str(x) for x in astuple(r)] for r in rows]
    return *_TABLES[which], cells


def render_markdown(rows, which: str) -> str:
    _, headings, cells = _table(which, rows)
    lines = ["| " + " | ".join(row) + " |" for row in [headings, *cells]]
    lines.insert(1, "|" + "---:|" * len(headings))
    if which == "garbage" and any(r.n == 1024 for r in rows):
        lines += ["", f"Note: {GARBAGE_FOOTNOTE}."]
    return "\n".join(lines) + "\n"


def render_csv(rows, which: str) -> str:
    row_type, _, cells = _table(which, rows)
    out = _io.StringIO()
    csv.writer(out).writerows([[f.name for f in fields(row_type)], *cells])
    return out.getvalue()
