from pathlib import Path

import pytest

from inkfatigue.errors import RangeError
from inkfatigue.model import Category, SetId, validate_task_id
from inkfatigue.protocol import (
    canonical_set_pairs,
    jump_height,
    pair_label,
    parse_pair_label,
    power_output,
    summarize_recovery,
)
from inkfatigue.reporting import load_matrix_tsv
from inkfatigue.stats import Cell, ComparisonMatrix, MatrixRow

DATA = Path(__file__).parent / "data"


# --- set pairs ---------------------------------------------------------------


def test_canonical_pairs_exact_order():
    pairs = canonical_set_pairs()
    assert len(pairs) == 10
    assert pairs[0] == (SetId.S1, SetId.S2)
    assert pairs[-1] == (SetId.S4, SetId.S5)
    labels = [pair_label(p) for p in pairs]
    assert labels == [
        "S1-S2", "S1-S3", "S1-S4", "S1-S5",
        "S2-S3", "S2-S4", "S2-S5",
        "S3-S4", "S3-S5", "S4-S5",
    ]


def test_canonical_pairs_ascending_and_constant():
    pairs = canonical_set_pairs()
    assert all(a < b for a, b in pairs)
    assert pairs == canonical_set_pairs()


def test_parse_pair_label_round_trip():
    for pair in canonical_set_pairs():
        assert parse_pair_label(pair_label(pair)) == pair


@pytest.mark.parametrize("label", ["S2-S1", "S1S2", "S1-S6", "S1-S1", "x"])
def test_parse_pair_label_rejects_bad_labels(label):
    with pytest.raises(RangeError):
        parse_pair_label(label)


@pytest.mark.parametrize("label", [5, None, ["S1", "S2"], ("S1", "S2"), b"S1-S2"])
def test_parse_pair_label_refuses_a_label_that_is_not_a_string(label):
    with pytest.raises(RangeError) as info:
        parse_pair_label(label)
    assert str(info.value) == f"set pair must look like S1-S2, got {label!r}"


# --- task taxonomy -----------------------------------------------------------


def _category(task):
    return MatrixRow(task, "mean_speed").category


def test_task_category_named_examples():
    assert _category(1) is Category.COGNITIVE
    assert _category(7) is Category.MECHANICAL
    assert _category(9) is Category.FINE_MOTOR


def test_task_category_full_mapping():
    mapping = {t: _category(t) for t in range(1, 10)}
    assert [t for t, c in mapping.items() if c is Category.COGNITIVE] == [1, 2]
    assert [t for t, c in mapping.items() if c is Category.MECHANICAL] == [4, 6, 7, 8]
    assert [t for t, c in mapping.items() if c is Category.FINE_MOTOR] == [3, 5, 9]


@pytest.mark.parametrize("task", [0, 10, -1])
def test_task_category_rejects_out_of_range(task):
    with pytest.raises(RangeError):
        validate_task_id(task)


# --- physiology helpers -------------------------------------------------------


def test_jump_height_zero_time():
    assert jump_height(0.0) == 0.0


def test_jump_height_half_second():
    # 9.81 * 0.5^2 / 8, evaluated by hand
    assert jump_height(0.5) == pytest.approx(0.3065625, abs=1e-12)


def test_jump_height_quadratic_law():
    assert jump_height(1.0) == pytest.approx(4 * jump_height(0.5), rel=1e-12)


def test_jump_height_custom_gravity():
    assert jump_height(2.0, g=10.0) == pytest.approx(5.0, abs=1e-12)


def test_jump_height_rejects_negative_time():
    with pytest.raises(RangeError):
        jump_height(-0.1)


def test_power_output_examples():
    assert power_output(0.0, 3.0) == 0.0
    assert power_output(700.0, 1.5) == pytest.approx(1050.0, abs=1e-12)


def test_power_output_scaling_symmetry():
    assert power_output(2 * 350.0, 1.5) == power_output(350.0, 2 * 1.5)


def test_power_output_rejects_nonfinite():
    with pytest.raises(ValueError):
        power_output(float("nan"), 1.0)


# --- recovery summary ---------------------------------------------------------


def uniform_matrix(p: float) -> ComparisonMatrix:
    rows = (MatrixRow(1, "mean_speed"), MatrixRow(6, "time_in_air"), MatrixRow(9, "entropy_x"))
    pairs = tuple(canonical_set_pairs())
    cells = tuple(tuple(Cell(p=p) for _ in pairs) for _ in rows)
    return ComparisonMatrix(rows=rows, pairs=pairs, cells=cells)


def test_summary_of_all_ones_is_empty():
    summary = summarize_recovery(uniform_matrix(1.0))
    for by_category in summary.columns.values():
        assert all(cc.count == 0 for cc in by_category.values())
    assert summary.no_recovery.count == 0


def test_summary_alpha_zero_is_empty():
    summary = summarize_recovery(uniform_matrix(0.01), alpha=0.0)
    for by_category in summary.columns.values():
        assert all(cc.count == 0 for cc in by_category.values())


def test_summary_counts_are_monotone_in_alpha():
    matrix = load_matrix_tsv((DATA / "reference_matrix.tsv").read_text())
    totals = []
    for alpha in (0.001, 0.01, 0.05, 0.2, 1.0):
        summary = summarize_recovery(matrix, alpha)
        totals.append(
            sum(cc.count for by_cat in summary.columns.values() for cc in by_cat.values())
        )
    assert totals == sorted(totals)


def test_summary_scope_label():
    assert summarize_recovery(uniform_matrix(1.0)).scope == "catalog-subset"


def test_reference_matrix_cognitive_recovery_is_slow():
    # Against baseline, cognitive tasks show far more differences at the end
    # of the protocol than right after the first (mild) exercise bout.
    matrix = load_matrix_tsv((DATA / "reference_matrix.tsv").read_text())
    summary = summarize_recovery(matrix, alpha=0.05)
    s1s2 = summary.columns["S1-S2"][Category.COGNITIVE].count
    s1s5 = summary.columns["S1-S5"][Category.COGNITIVE].count
    assert s1s5 > s1s2
    assert s1s5 == 8
    assert s1s2 == 0


def test_reference_matrix_no_recovery_column_is_quiet():
    matrix = load_matrix_tsv((DATA / "reference_matrix.tsv").read_text())
    summary = summarize_recovery(matrix, alpha=0.05)
    assert summary.no_recovery.count == 0


def test_summary_skips_missing_columns():
    rows = (MatrixRow(1, "mean_speed"),)
    pairs = ((SetId.S1, SetId.S2),)
    matrix = ComparisonMatrix(rows=rows, pairs=pairs, cells=((Cell(p=0.01),),))
    summary = summarize_recovery(matrix)
    assert list(summary.columns) == ["S1-S2"]
    assert summary.no_recovery is None
    assert summary.columns["S1-S2"][Category.COGNITIVE].cells == ((1, "mean_speed"),)
