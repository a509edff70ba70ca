import csv
import dataclasses
import io

import pytest

from revmul import (
    ancilla_rows,
    check_formulas,
    formula_metrics,
    garbage_rows,
    improvement_percent,
    render_csv,
    render_markdown,
    structural_metrics,
)
from revmul.analysis import (
    GARBAGE_FOOTNOTE,
    KOTIYAL_ANCILLA,
    KOTIYAL_GARBAGE,
    REPORTED_IMP_KOTIYAL,
    REPORTED_IMP_ZHOU,
    TABLE_SIZES,
    ZHOU_ANCILLA,
    ZHOU_GARBAGE,
    flag_deviations,
)
from revmul.gates import FREDKIN, SWAP, TOFFOLI
from revmul.synth import build_addnop, build_multiplier, build_ror


# ---------------------------------------------------------------- closed forms

def test_multiplier_formulas_at_n4():
    m = formula_metrics("mul", 4)
    assert m.quantum_cost == 403
    assert m.ancilla_inputs == 9
    assert m.staged_delay == 298  # 15*16 + 16*4 - 6
    assert m.gate_count == 89  # 6*16 - 8 + 1


def test_addnop_formula_smallest():
    m = formula_metrics("addnop", 1)
    assert m.quantum_cost == 25
    assert m.gate_counts == {TOFFOLI: 3, FREDKIN: 2}


def test_ror_formula_constant_delay():
    for n in (2, 5, 100):
        m = formula_metrics("ror", n)
        assert m.staged_delay == 6
        assert m.quantum_cost == 6 * n - 3
        assert m.gate_counts == {SWAP: 2 * n - 1}


def test_multiplier_formula_n8():
    assert formula_metrics("mul", 8).quantum_cost == 1635


def test_formula_unknown_block():
    with pytest.raises(ValueError, match="unknown block"):
        formula_metrics("adder", 4)


def test_check_formulas_small_range():
    report = check_formulas(16)
    assert report.ok
    assert report.mismatches == []
    assert report.checked == 15 * 3


@pytest.mark.parametrize(
    "block, build",
    [
        ("addnop", build_addnop),
        ("mul", build_multiplier),
        pytest.param("ror", lambda n: build_ror(2 * n), id="ror-build_ror"),
    ],
)
def test_product_forms_equal_the_built_blocks_at_n1(block, build):
    # check_formulas starts at n = 2. At n = 1 neither product block has a
    # rotate, so its form lists no swap count, as the built block's metrics
    # list only the kinds it holds. The rotate over 2n = 2 lines is its one
    # swap, a staged delay of 3 where every wider rotate has 6.
    built = dataclasses.replace(structural_metrics(build(1)), asap_depth=None)
    assert formula_metrics(block, 1) == built


def test_check_formulas_rejects_tiny_range():
    with pytest.raises(ValueError):
        check_formulas(1)


# ---------------------------------------------------------------- improvements

def test_improvement_examples():
    assert improvement_percent(9, 23) == 60.87
    assert improvement_percent(17, 83) == 79.52
    assert improvement_percent(5, 5) == 0.0


def test_improvement_half_up_rounding():
    assert improvement_percent(1, 8) == 87.5  # exact 87.50
    assert improvement_percent(1, 3) == 66.67
    assert improvement_percent(1, 16) == 93.75  # exactly representable boundary


def test_improvement_requires_positive_reference():
    with pytest.raises(ValueError):
        improvement_percent(1, 0)


# ---------------------------------------------------------------- tables

def test_ancilla_table_full_ladder():
    rows = ancilla_rows(1024)
    assert [r.n for r in rows] == list(TABLE_SIZES)
    assert [r.ours for r in rows] == [9, 17, 33, 65, 129, 257, 513, 1025, 2049]
    sixteen = rows[2]
    assert (sixteen.ours, sixteen.kotiyal, sixteen.zhou) == (33, 303, 496)
    assert rows[-1].ours == 2049


def test_ancilla_improvements_track_reported_values():
    for row in ancilla_rows(1024):
        assert abs(row.imp_kotiyal - REPORTED_IMP_KOTIYAL[row.n]) <= 0.02
        assert abs(row.imp_zhou - REPORTED_IMP_ZHOU[row.n]) <= 0.02
    assert flag_deviations(ancilla_rows(1024)) == []


def test_garbage_table_rows():
    rows = garbage_rows(1024)
    assert (rows[0].kotiyal, rows[0].zhou, rows[0].imp) == (22, 36, "100%")
    assert all(r.imp == "100%" for r in rows)
    # the published 1024 figure repeats the ancilla count; carried verbatim
    assert rows[-1].kotiyal == KOTIYAL_ANCILLA[1024] == 1054719


def test_ladder_validation():
    with pytest.raises(ValueError, match="must be one of"):
        ancilla_rows(48)
    with pytest.raises(ValueError, match="must be one of"):
        garbage_rows(3)


def test_reference_constants_verbatim():
    assert KOTIYAL_ANCILLA[8] == 83 and ZHOU_ANCILLA[8] == 120
    assert KOTIYAL_GARBAGE[64] == 4346 and ZHOU_GARBAGE[64] == 12096
    assert len(KOTIYAL_ANCILLA) == len(ZHOU_GARBAGE) == 9


def test_our_column_matches_built_circuits():
    for n in (2, 4, 8):
        built = structural_metrics(build_multiplier(n)).ancilla_inputs
        assert built == formula_metrics("mul", n).ancilla_inputs == 2 * n + 1


def test_markdown_render():
    text = render_markdown(ancilla_rows(8), "ancilla")
    assert "| 4 | 9 | 23 | 28 | 60.87 | 67.86 |" in text
    garbage = render_markdown(garbage_rows(1024), "garbage")
    assert "100%" in garbage
    assert "carried verbatim" in garbage  # footnote on the odd published cell


def test_csv_render():
    text = render_csv(ancilla_rows(8), "ancilla")
    lines = text.strip().splitlines()
    assert lines[0] == "n,ours,kotiyal,zhou,imp_kotiyal,imp_zhou"
    assert lines[1] == "4,9,23,28,60.87,67.86"
    garbage = render_csv(garbage_rows(4), "garbage")
    assert garbage.strip().splitlines() == ["n,kotiyal,zhou,imp", "4,22,36,100%"]


def reference_markdown(rows, which):
    """The markdown tables as written column by column, before they were
    rendered from the rows' fields."""
    lines = []
    if which == "ancilla":
        lines.append("| N | ours | Kotiyal et al. | Zhou et al. | %imp vs Kotiyal | %imp vs Zhou |")
        lines.append("|---:|---:|---:|---:|---:|---:|")
        for r in rows:
            lines.append(
                f"| {r.n} | {r.ours} | {r.kotiyal} | {r.zhou} "
                f"| {r.imp_kotiyal:.2f} | {r.imp_zhou:.2f} |"
            )
    else:
        lines.append("| N | Kotiyal et al. | Zhou et al. | %imp (ours: 0 garbage) |")
        lines.append("|---:|---:|---:|---:|")
        for r in rows:
            lines.append(f"| {r.n} | {r.kotiyal} | {r.zhou} | {r.imp} |")
        if any(r.n == 1024 for r in rows):
            lines.append("")
            lines.append(f"Note: {GARBAGE_FOOTNOTE}.")
    return "\n".join(lines) + "\n"


def reference_csv(rows, which):
    """The CSV tables as written column by column."""
    out = io.StringIO()
    writer = csv.writer(out)
    if which == "ancilla":
        writer.writerow(["n", "ours", "kotiyal", "zhou", "imp_kotiyal", "imp_zhou"])
        for r in rows:
            writer.writerow([r.n, r.ours, r.kotiyal, r.zhou, f"{r.imp_kotiyal:.2f}", f"{r.imp_zhou:.2f}"])
    else:
        writer.writerow(["n", "kotiyal", "zhou", "imp"])
        for r in rows:
            writer.writerow([r.n, r.kotiyal, r.zhou, r.imp])
    return out.getvalue()


@pytest.mark.parametrize("which, make_rows", [("ancilla", ancilla_rows), ("garbage", garbage_rows)])
@pytest.mark.parametrize("max_n", TABLE_SIZES)
def test_tables_match_the_column_by_column_renderers(max_n, which, make_rows):
    rows = make_rows(max_n)
    assert render_markdown(rows, which) == reference_markdown(rows, which)
    assert render_csv(rows, which) == reference_csv(rows, which)


@pytest.mark.parametrize("render", [render_markdown, render_csv])
def test_unknown_table_kind_is_refused(render):
    with pytest.raises(ValueError, match="unknown table kind 'delay'"):
        render(ancilla_rows(4), "delay")
