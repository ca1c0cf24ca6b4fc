import itertools
import math
import struct
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inkfatigue import features, stats
from inkfatigue.errors import EmptyInputError, InsufficientDataError, RangeError
from inkfatigue.features import DEFAULT_CATALOG, feature_table, full_catalog
from inkfatigue.model import ALL_SETS, TASK_IDS, SetId, StudyCorpus
from inkfatigue.protocol import canonical_set_pairs
from inkfatigue.reporting import load_matrix_tsv
from inkfatigue.stats import (
    Cell,
    ComparisonMatrix,
    MatrixRow,
    TESTS,
    build_matrix,
    compare_sets,
    default_rows,
    rank_sum_test,
    wilcoxon_signed_rank,
)
from inkfatigue.synth import Perturbation, SynthProfile, generate_corpus, generate_task

from conftest import make_record, sets_corpus, unread_records
from oracles import (
    enumerate_signed_rank_p,
    naive_ranks,
    reference_build_matrix,
    reference_rank_sum_test,
    reference_wilcoxon_signed_rank,
)

DATA = Path(__file__).parent / "data"


def pairs_from_diffs(diffs):
    return [(float(d), 0.0) for d in diffs]


# --- signed-rank test -------------------------------------------------------


def test_five_positive_distinct_differences():
    result = wilcoxon_signed_rank(pairs_from_diffs([1, 2, 3, 4, 5]))
    assert result.statistic == 15.0
    assert result.p == 0.0625  # 2 / 32, exactly
    assert result.method == "exact"
    assert result.n_effective == 5
    assert not result.ties_present


@pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
@pytest.mark.parametrize("zeros", [1, 6, 25, 26, 40])
def test_all_zero_differences(zeros, alternative):
    # 26 and 40 zeros lie past EXACT_MAX_N; with nothing left to rank the
    # result is still the exact p of 1.0.
    result = wilcoxon_signed_rank([(2.0, 2.0)] * zeros, alternative=alternative)
    assert astuple(result) == (0.0, 0, 1.0, "exact", False, zeros, alternative)
    assert (type(result.statistic), type(result.p)) == (float, float)
    cell = _one_cell(
        constant_corpus(zeros), 1, "max_speed", (SetId.S1, SetId.S2), alternative=alternative
    )
    assert cell == Cell(p=1.0, n_effective=0, method="exact", ties_present=False, low_n=True)


def test_zero_differences_are_dropped():
    result = wilcoxon_signed_rank(pairs_from_diffs([0, 0, 1.5, -2.5, 3.5]))
    assert result.n_effective == 3
    assert result.zeros_dropped == 2


def test_antisymmetry_of_two_sided_p(rng):
    for _ in range(30):
        n = int(rng.integers(1, 15))
        pairs = [(float(a), float(b)) for a, b in rng.normal(size=(n, 2))]
        swapped = [(b, a) for a, b in pairs]
        assert wilcoxon_signed_rank(pairs).p == wilcoxon_signed_rank(swapped).p


def test_empty_and_nonfinite_inputs():
    with pytest.raises(EmptyInputError):
        wilcoxon_signed_rank([])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([(float("nan"), 0.0)])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([(float("inf"), 0.0)])
    with pytest.raises(ValueError, match="^paired input must be a sequence of"):
        wilcoxon_signed_rank(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="^sample values must be finite$"):
        rank_sum_test([1.0, float("nan")], [2.0])


def test_exact_method_used_without_ties_up_to_25():
    d = np.linspace(1, 3, 25) * np.resize([1, -1], 25)
    result = wilcoxon_signed_rank(pairs_from_diffs(d))
    assert result.method == "exact"
    d26 = np.linspace(1, 3, 26)
    assert wilcoxon_signed_rank(pairs_from_diffs(d26)).method == "normal-approx"


def test_ties_force_normal_approximation():
    result = wilcoxon_signed_rank(pairs_from_diffs([1, 1, -2, 3, 4]))
    assert result.ties_present
    assert result.method == "normal-approx"


def test_exhaustive_small_n_matches_enumeration_oracle():
    # Distinct, irregular magnitudes; every sign pattern for n <= 6.
    for n in range(1, 7):
        magnitudes = [1.0 + 0.37 * k + 0.011 * k * k for k in range(n)]
        for signs in itertools.product((1, -1), repeat=n):
            d = [s * m for s, m in zip(signs, magnitudes)]
            got = wilcoxon_signed_rank(pairs_from_diffs(d)).p
            want = enumerate_signed_rank_p(d)
            assert got == pytest.approx(want, abs=1e-12)


def test_one_sided_alternatives_match_enumeration(rng):
    for _ in range(40):
        n = int(rng.integers(1, 9))
        d = rng.normal(size=n)
        for alternative in ("greater", "less"):
            got = wilcoxon_signed_rank(pairs_from_diffs(d), alternative).p
            want = enumerate_signed_rank_p(list(d), alternative)
            assert got == pytest.approx(want, abs=1e-12)


# (a, b): a is both the signed-rank differences and the first rank-sum
# sample. The cases reach the exact path, the normal approximation with and
# without ties, and far tails (n = 60).
_MIRROR_CASES = [
    (-np.arange(1.0, 61.0), np.arange(60.0)),
    (np.arange(60.0), np.arange(60.0) + 55),
    (np.array([3.0, -1.0, 2.0, -5.0, 4.0]), np.array([5.0, -4.0, 3.0, 0.0])),
    (np.array([2.0, 2.0, -1.0, 3.0, -3.0, 4.0, 4.0, 4.0, -2.0]), np.array([1.0, 2.0, 2.0, 3.0])),
]


@pytest.mark.parametrize("a,b", _MIRROR_CASES)
def test_less_equals_greater_on_negated_data_bit_for_bit(a, b):
    less = wilcoxon_signed_rank(pairs_from_diffs(a), "less").p
    assert less == wilcoxon_signed_rank(pairs_from_diffs(-a), "greater").p
    assert rank_sum_test(a, b, "less").p == rank_sum_test(-a, -b, "greater").p


@pytest.mark.parametrize("a,b", _MIRROR_CASES)
def test_one_sided_p_matches_scipy(a, b):
    scipy_stats = pytest.importorskip("scipy.stats")
    normal_approx = len(a) > 25 or len(np.unique(np.abs(a))) < len(a)
    for alternative in ("less", "greater"):
        if normal_approx:
            want = scipy_stats.wilcoxon(
                a, alternative=alternative, correction=True, method="asymptotic"
            ).pvalue
            got = wilcoxon_signed_rank(pairs_from_diffs(a), alternative).p
            assert got == pytest.approx(want, rel=1e-9, abs=0)
        want = scipy_stats.mannwhitneyu(a, b, alternative=alternative, method="asymptotic").pvalue
        assert rank_sum_test(a, b, alternative).p == pytest.approx(want, rel=1e-9, abs=0)


def test_tie_path_matches_hand_formula():
    # Independent recomputation: naive midranks, tie-corrected variance,
    # 0.5 continuity correction, two-sided normal tail.
    d = [3.0, -3.0, 5.0, 5.0, -1.0, 8.0, 2.0, 2.0, -4.0, 6.0, 7.0, -7.0, 9.0, 1.0, 5.0]
    ranks = naive_ranks([abs(x) for x in d])
    w = sum(r for r, x in zip(ranks, d) if x > 0)
    n = len(d)
    mu = n * (n + 1) / 4
    var = n * (n + 1) * (2 * n + 1) / 24
    tie_groups = {}
    for x in d:
        tie_groups[abs(x)] = tie_groups.get(abs(x), 0) + 1
    var -= sum(t**3 - t for t in tie_groups.values()) / 48
    z = (abs(w - mu) - 0.5) / math.sqrt(var)
    want = min(1.0, 2 * 0.5 * math.erfc(z / math.sqrt(2)))
    got = wilcoxon_signed_rank(pairs_from_diffs(d))
    assert got.p == pytest.approx(want, abs=1e-14)
    # Regression anchor for the same case.
    assert got.p == pytest.approx(0.06047638426858646, abs=1e-12)


def test_statistic_is_positive_rank_sum():
    d = [2.0, -1.0, 3.0]  # ranks of |d|: 2, 1, 3; positives hold ranks 2 and 3
    assert wilcoxon_signed_rank(pairs_from_diffs(d)).statistic == 5.0


def test_uniform_scaling_leaves_p_bitwise_identical(rng):
    pairs = [(float(a), float(b)) for a, b in rng.normal(size=(12, 2))]
    scaled = [(2.0 * a, 2.0 * b) for a, b in pairs]
    assert wilcoxon_signed_rank(pairs).p == wilcoxon_signed_rank(scaled).p


# Heavily tied integer-valued samples and tied or distinct floats.
_rank_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([-2.5, -0.25, 0.0, 0.1, 0.25, 1.0, 7.75]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_rank_samples = st.lists(_rank_values, min_size=1, max_size=60)


def _same_result(got, want):
    assert struct.pack("<dd", got.p, got.statistic) == struct.pack("<dd", want.p, want.statistic)
    assert (got.n_effective, got.method, got.ties_present, got.zeros_dropped) == (
        want.n_effective,
        want.method,
        want.ties_present,
        want.zeros_dropped,
    )
    assert got.alternative == want.alternative


@given(
    st.lists(st.tuples(_rank_values, _rank_values), min_size=1, max_size=60),
    st.sampled_from(["two-sided", "greater", "less"]),
)
@settings(max_examples=300, deadline=None)
def test_signed_rank_matches_reference_bit_for_bit(pairs, alternative):
    _same_result(
        wilcoxon_signed_rank(pairs, alternative),
        reference_wilcoxon_signed_rank(pairs, alternative),
    )


@given(_rank_samples, _rank_samples, st.sampled_from(["two-sided", "greater", "less"]))
@settings(max_examples=300, deadline=None)
def test_rank_sum_matches_reference_bit_for_bit(a, b, alternative):
    _same_result(rank_sum_test(a, b, alternative), reference_rank_sum_test(a, b, alternative))


# --- rank-sum variant -------------------------------------------------------


def test_rank_sum_detects_separated_samples():
    a = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
    b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    result = rank_sum_test(a, b)
    assert result.p < 0.01
    assert rank_sum_test(a, a).p > 0.5


def test_rank_sum_rejects_empty():
    with pytest.raises(EmptyInputError):
        rank_sum_test([], [1.0])


# --- corpus comparisons -----------------------------------------------------


def constant_corpus(n_subjects=4):
    """Subjects whose records are identical across S1 and S2."""
    corpus = StudyCorpus()
    profile = SynthProfile(seed=77, n_subjects=n_subjects)
    for subject in profile.subject_ids():
        base = generate_task(profile, subject, SetId.S1, 1)
        corpus.add(base)
        twin = generate_task(profile, subject, SetId.S1, 1)
        corpus.add(
            type(base)(
                subject_id=subject,
                set_id=SetId.S2,
                task=1,
                signal=twin.signal,
                metadata=dict(twin.metadata),
            )
        )
    return corpus


def _one_cell(corpus, task, feature, pair, **kwargs):
    return build_matrix(corpus, [(task, feature)], [pair], **kwargs).cells[0][0]


def test_compare_sets_identical_feature_values_give_p_one():
    corpus = constant_corpus()
    cell = _one_cell(corpus, 1, "max_speed", (SetId.S1, SetId.S2))
    assert cell.p == 1.0
    assert cell.n_effective == 0
    column = np.array([3.0, 1.5, 2.0])
    result = compare_sets(column, column.copy())
    assert (result.p, result.n_effective, result.zeros_dropped) == (1.0, 0, 3)


def test_compare_sets_excludes_subjects_missing_a_set():
    corpus = generate_corpus(SynthProfile(seed=20, n_subjects=4))
    # U04 never recorded S5
    trimmed = StudyCorpus()
    for record in corpus:
        if record.subject_id == "U04" and record.set_id is SetId.S5:
            continue
        trimmed.add(record)
    cell = _one_cell(trimmed, 3, "mean_speed", (SetId.S1, SetId.S5))
    assert cell.n_effective <= 3
    # A NaN on either side drops that subject's pair, and only that pair.
    a = np.array([1.0, np.nan, 4.0, 2.5, 7.0])
    b = np.array([2.0, 3.0, np.nan, 0.5, 1.0])
    for test in ("signed-rank", "rank-sum"):
        assert compare_sets(a, b, test=test) == compare_sets(
            a[[0, 3, 4]], b[[0, 3, 4]], test=test
        )
    assert compare_sets(a, b) == wilcoxon_signed_rank([(1.0, 2.0), (2.5, 0.5), (7.0, 1.0)])


def test_compare_sets_insufficient_data():
    corpus = sets_corpus(SynthProfile(seed=21, n_subjects=2), (SetId.S1,))
    assert _one_cell(corpus, 1, "mean_speed", (SetId.S1, SetId.S2)) is None
    for a, b in [([np.nan, 1.0], [2.0, np.nan]), ([], [])]:
        for test in ("signed-rank", "rank-sum"):
            with pytest.raises(InsufficientDataError):
                compare_sets(np.array(a), np.array(b), test=test)


def test_compare_sets_detects_injected_shift():
    profile = SynthProfile(
        seed=22,
        perturbations={SetId.S4: Perturbation(speed_scale=0.6)},
    )
    corpus = sets_corpus(profile, (SetId.S1, SetId.S4))
    assert _one_cell(corpus, 5, "mean_speed", (SetId.S1, SetId.S4)).p < 0.001


def test_compare_sets_rank_sum_variant():
    corpus = sets_corpus(SynthProfile(seed=23, n_subjects=6), (SetId.S1, SetId.S2))
    cell = _one_cell(corpus, 1, "mean_speed", (SetId.S1, SetId.S2), test="rank-sum")
    assert 0.0 <= cell.p <= 1.0
    assert cell.method == "normal-approx" and cell.n_effective == 12
    a, b = np.array([3.0, 1.0, 4.0, 1.5]), np.array([9.0, 2.0, 6.0, 5.0])
    for alternative in ("two-sided", "greater", "less"):
        assert compare_sets(a, b, test="rank-sum", alternative=alternative) == rank_sum_test(
            a, b, alternative
        )


_BAD_TEST_OR_ALTERNATIVE = [
    ("bogus", "two-sided", "test must be 'signed-rank' or 'rank-sum', got 'bogus'"),
    ("signed-rank", "sideways", "alternative must be one of"),
    ("rank-sum", "sideways", "alternative must be one of"),
]


@pytest.mark.parametrize("test,alternative,message", _BAD_TEST_OR_ALTERNATIVE)
def test_unknown_test_or_alternative_is_rejected_before_pairing(test, alternative, message):
    # Only S1 exists, so no cell has a subject pair to test.
    corpus = sets_corpus(SynthProfile(seed=21, n_subjects=2), (SetId.S1,))
    pair = (SetId.S1, SetId.S2)
    missing = np.full(2, np.nan)
    with pytest.raises(ValueError, match=message):
        compare_sets(missing, missing, test=test, alternative=alternative)
    with pytest.raises(ValueError, match=message):
        build_matrix(corpus, [(1, "mean_speed")], [pair], test=test, alternative=alternative)


@pytest.mark.parametrize("test,alternative,message", _BAD_TEST_OR_ALTERNATIVE)
def test_build_matrix_refuses_a_bad_test_or_alternative_before_reading_a_record(
    test, alternative, message
):
    with pytest.raises(ValueError, match=message):
        build_matrix(
            unread_records(), [(1, "mean_speed")], [(SetId.S1, SetId.S2)],
            test=test, alternative=alternative,
        )


def test_build_matrix_refuses_an_unknown_feature_before_reading_a_record():
    for records in ([], unread_records()):
        with pytest.raises(RangeError, match=r"^unknown feature name\(s\): bogus$"):
            build_matrix(records, [(1, "bogus")], [(SetId.S1, SetId.S2)])


def test_build_matrix_without_table_extracts_the_named_feature():
    corpus = sets_corpus(SynthProfile(seed=23, n_subjects=6), (SetId.S1, SetId.S2))
    pair = (SetId.S1, SetId.S2)
    table = feature_table(corpus, ["pendown_mean_speed"])
    rows = [(1, "pendown_mean_speed")]
    assert build_matrix(corpus, rows, [pair]) == build_matrix(corpus, rows, [pair], table=table)


@pytest.mark.parametrize("feature", ["entropy_x", "nonsense"])
def test_build_matrix_names_a_row_feature_its_table_lacks(feature):
    corpus = sets_corpus(SynthProfile(seed=23, n_subjects=2), (SetId.S1, SetId.S2))
    table = feature_table(corpus, ["mean_speed"])
    with pytest.raises(RangeError, match=f"^feature table has no values for {feature}$"):
        build_matrix(corpus, [(1, feature)], [(SetId.S1, SetId.S2)], table=table)


# --- matrix -----------------------------------------------------------------


def test_build_matrix_shape_29_rows_10_pairs():
    reference = load_matrix_tsv((DATA / "reference_matrix.tsv").read_text())
    rows = [(row.task, row.feature) for row in reference.rows]
    corpus = generate_corpus(SynthProfile(seed=24, n_subjects=3))
    matrix = build_matrix(corpus, rows, canonical_set_pairs())
    assert len(matrix.rows) == 29
    assert len(matrix.pairs) == 10
    assert sum(len(r) for r in matrix.cells) == 290
    assert all(cell is not None for row in matrix.cells for cell in row)


def test_build_matrix_single_subject_low_n():
    corpus = generate_corpus(SynthProfile(seed=25, n_subjects=1))
    matrix = build_matrix(corpus, [(1, "mean_speed")], canonical_set_pairs())
    for cell in matrix.cells[0]:
        assert cell.n_effective == 1
        assert cell.p == 1.0
        assert cell.low_n


def test_build_matrix_deterministic_under_insertion_order():
    records = list(generate_corpus(SynthProfile(seed=26, n_subjects=3)))
    forward = StudyCorpus()
    for record in records:
        forward.add(record)
    backward = StudyCorpus()
    for record in reversed(records):
        backward.add(record)
    rows = [(1, "mean_speed"), (2, "time_in_air")]
    a = build_matrix(forward, rows, canonical_set_pairs())
    b = build_matrix(backward, rows, canonical_set_pairs())
    assert a == b


def test_build_matrix_marks_insufficient_cells_na():
    corpus = sets_corpus(SynthProfile(seed=27, n_subjects=2), (SetId.S1, SetId.S2))
    matrix = build_matrix(
        corpus, [(1, "mean_speed")], [(SetId.S1, SetId.S2), (SetId.S1, SetId.S5)]
    )
    assert matrix.cells[0][0] is not None
    assert matrix.cells[0][1] is None
    assert matrix.mask() == [[matrix.cells[0][0].p < 0.05, False]]


def test_build_matrix_failed_record_counts_as_missing():
    corpus = sets_corpus(SynthProfile(seed=30, n_subjects=4), (SetId.S1, SetId.S2))
    removed = StudyCorpus()
    for record in corpus:
        if record.key != ("U02", SetId.S1, 1):
            removed.add(record)
    failed = StudyCorpus()
    for record in removed:
        failed.add(record)
    failed.add(make_record([0, 5], subject="U02", set_id=SetId.S1, task=1))
    rows, pairs = [(1, "mean_speed"), (1, "time_in_air")], [(SetId.S1, SetId.S2)]
    matrix = build_matrix(failed, rows, pairs)
    assert matrix == build_matrix(removed, rows, pairs)
    full = build_matrix(corpus, rows, pairs)
    assert matrix.cells[0][0].n_effective == full.cells[0][0].n_effective - 1 == 3


def test_build_matrix_normalizes_row_order():
    corpus = sets_corpus(SynthProfile(seed=28, n_subjects=2), (SetId.S1, SetId.S2))
    matrix = build_matrix(
        corpus,
        [(2, "time_in_air"), (1, "std_speed"), (1, "mean_speed")],
        [(SetId.S1, SetId.S2)],
    )
    assert [(r.task, r.feature) for r in matrix.rows] == [
        (1, "mean_speed"),
        (1, "std_speed"),
        (2, "time_in_air"),
    ]


def test_build_matrix_rows_follow_the_full_catalog():
    corpus = sets_corpus(SynthProfile(seed=28, n_subjects=2), (SetId.S1, SetId.S2))
    catalog = full_catalog()
    matrix = build_matrix(corpus, [(1, f) for f in sorted(catalog)], [(SetId.S1, SetId.S2)])
    assert [r.feature for r in matrix.rows] == list(catalog)


def test_build_matrix_rejects_empty_rows_and_bad_alpha():
    corpus = sets_corpus(SynthProfile(seed=29, n_subjects=2), (SetId.S1, SetId.S2))
    with pytest.raises(EmptyInputError):
        build_matrix(corpus, [], canonical_set_pairs())
    with pytest.raises(RangeError):
        build_matrix(corpus, [(1, "mean_speed")], canonical_set_pairs(), alpha=1.0)


@pytest.mark.parametrize(
    "alpha, pairs",
    [
        (1.0, [(SetId.S1, SetId.S2)]),
        (0.05, [(SetId.S1, SetId.S2), (SetId.S1, SetId.S2)]),
        (0.05, [(SetId.S2, SetId.S1)]),
    ],
    ids=["alpha-1", "duplicate-pairs", "descending-pair"],
)
def test_build_matrix_rejects_alpha_and_pairs_before_extraction(monkeypatch, alpha, pairs):
    def refuse(*args, **kwargs):
        raise AssertionError("features extracted before alpha and pairs were checked")

    monkeypatch.setattr(stats, "feature_table", refuse)
    corpus = sets_corpus(SynthProfile(seed=29, n_subjects=2), (SetId.S1, SetId.S2))
    with pytest.raises(RangeError):
        build_matrix(corpus, [(1, "mean_speed")], pairs, alpha=alpha)


_ROW = (MatrixRow(1, "mean_speed"),)
_PAIR = ((SetId.S1, SetId.S2),)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"cells": ((0.3,),)}, "row 1: cell must be a Cell or None, got 0.3"),
        (
            {"pairs": ((SetId.S2, SetId.S1),)},
            "set pair must be a tuple of two ascending SetIds, got "
            "(<SetId.S2: 'S2'>, <SetId.S1: 'S1'>)",
        ),
        (
            {"pairs": (("S1", "S2"),)},
            "set pair must be a tuple of two ascending SetIds, got ('S1', 'S2')",
        ),
        ({"alpha": True}, "alpha must lie strictly between 0 and 1, got True"),
        ({"alpha": "0.05"}, "alpha must lie strictly between 0 and 1, got '0.05'"),
        ({"alpha": 7.0}, "alpha must lie strictly between 0 and 1, got 7.0"),
        ({"alpha": 0}, "alpha must lie strictly between 0 and 1, got 0"),
        ({"cells": ((),)}, "row 1 has 0 cells, expected 1"),
        ({"cells": ([None],)}, "row 1 cells must be a tuple, got [None]"),
        ({"cells": ()}, "cells must hold one tuple per row, got 0 for 1"),
        ({"rows": ((1, "mean_speed"),)}, "row must be a MatrixRow, got (1, 'mean_speed')"),
        (
            {"rows": _ROW * 2, "cells": ((None,), (None,))},
            "duplicate row for task 1 and feature 'mean_speed'",
        ),
        ({"pairs": _PAIR * 2, "cells": ((None, None),)}, "duplicate set pair S1-S2"),
    ],
    ids=[
        "non-cell", "descending-pair", "string-pair", "bool-alpha", "string-alpha",
        "alpha-7", "alpha-0",
        "short-cell-row", "list-cell-row", "missing-cell-row", "tuple-row",
        "duplicate-rows", "duplicate-pairs",
    ],
)
def test_comparison_matrix_checks_its_own_shape(fields, message):
    given = {"rows": _ROW, "pairs": _PAIR, "cells": ((Cell(p=0.5),),), **fields}
    with pytest.raises(RangeError) as info:
        ComparisonMatrix(**given)
    assert str(info.value) == message


def test_matrix_p_values_invariant_to_uniform_spatial_scaling():
    profile = SynthProfile(seed=30, n_subjects=4)
    corpus = sets_corpus(profile, (SetId.S1, SetId.S2))
    scaled = StudyCorpus()
    for record in corpus:
        sig = record.signal
        scaled.add(
            type(record)(
                subject_id=record.subject_id,
                set_id=record.set_id,
                task=record.task,
                signal=type(sig)(
                    x=sig.x * 2, y=sig.y * 2, pressure=sig.pressure,
                    azimuth=sig.azimuth, altitude=sig.altitude,
                ),
                metadata=dict(record.metadata),
            )
        )
    rows = [(task, feature) for task in (1, 2) for feature in DEFAULT_CATALOG]
    pairs = [(SetId.S1, SetId.S2)]
    assert build_matrix(corpus, rows, pairs) == build_matrix(scaled, rows, pairs)


# Short records on a coarse grid, so feature values tie within and across
# sets; a record may be missing or too short to extract (2 samples). The
# records come from a generator on a drawn seed: one draw per case, not one
# per sample.
_PRESSURES = (0, 0, 50, 150, 500, 700)
_KINDS = ("record",) * 6 + ("dropped", "failed")


@st.composite
def matrix_cases(draw):
    n_subjects = draw(st.integers(1, 12))
    tasks = draw(st.lists(st.sampled_from(TASK_IDS), min_size=1, max_size=3, unique=True))
    sets = draw(st.lists(st.sampled_from(ALL_SETS), min_size=1, max_size=5, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corpus = StudyCorpus()
    # Subjects are added in a shuffled order; the matrix pairs them sorted.
    for i in rng.permutation(n_subjects):
        for set_id in sets:
            for task in tasks:
                kind = _KINDS[rng.integers(len(_KINDS))]
                if kind == "dropped":
                    continue
                n = 2 if kind == "failed" else int(rng.integers(3, 8))
                corpus.add(
                    make_record(
                        rng.choice(_PRESSURES, n), x=rng.integers(-2, 3, n), y=rng.integers(-2, 3, n),
                        subject=f"S{i:02d}", set_id=set_id, task=task,
                    )
                )
    row = st.tuples(st.sampled_from(tasks + [draw(st.sampled_from(TASK_IDS))]),
                    st.sampled_from(full_catalog()))
    rows = draw(st.lists(row, min_size=1, max_size=6))
    pairs = draw(st.lists(st.sampled_from(canonical_set_pairs()), min_size=1, max_size=4))
    return corpus, rows, pairs


def _cell_bits(cell):
    if cell is None:
        return None
    return (
        struct.pack("<d", cell.p), cell.n_effective, cell.method, cell.ties_present, cell.low_n
    )


@given(
    matrix_cases(),
    st.sampled_from(TESTS),
    st.sampled_from(["two-sided", "greater", "less"]),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_build_matrix_matches_reference_bit_for_bit(case, test, alternative, with_table):
    corpus, rows, pairs = case
    kwargs = {"test": test, "alternative": alternative}
    table = {"table": feature_table(corpus, sorted({f for _, f in rows}))} if with_table else {}
    if len(set(pairs)) < len(pairs):
        with pytest.raises(RangeError, match="duplicate set pair"):
            build_matrix(corpus, rows, pairs, **kwargs, **table)
        return
    got = build_matrix(corpus, rows, pairs, **kwargs, **table)
    want = reference_build_matrix(corpus, rows, pairs, **kwargs)
    assert (got.rows, got.pairs, got.alpha) == (want.rows, want.pairs, want.alpha)
    assert [[_cell_bits(c) for c in row] for row in got.cells] == [
        [_cell_bits(c) for c in row] for row in want.cells
    ]
    assert got == want


def test_build_matrix_extracts_only_the_records_its_cells_read(monkeypatch):
    corpus = generate_corpus(SynthProfile(seed=12, n_subjects=3))
    extracted = []
    extract = features.extract_features

    def counting_extract(record, catalog):
        extracted.append(record.key)
        return extract(record, catalog)

    monkeypatch.setattr(features, "extract_features", counting_extract)
    build_matrix(corpus, [(2, "mean_speed"), (7, "time_in_air")], [(SetId.S1, SetId.S4)])
    assert sorted(extracted, key=lambda k: (k[0], int(k[1].value[1]), k[2])) == [
        (subject, set_id, task)
        for subject in corpus.subjects
        for set_id in (SetId.S1, SetId.S4)
        for task in (2, 7)
    ]


def test_default_rows_cover_tasks_and_catalog():
    rows = default_rows()
    assert len(rows) == 9 * len(DEFAULT_CATALOG)
    assert rows[0] == (1, DEFAULT_CATALOG[0])


def test_cell_rejects_bad_p():
    with pytest.raises(RangeError):
        Cell(p=1.5)


@pytest.mark.parametrize(
    "field, value, rule",
    [
        ("p", 1.5, "p must be a number in [0, 1]"),
        ("p", math.nan, "p must be a number in [0, 1]"),
        ("p", True, "p must be a number in [0, 1]"),
        ("p", "0.5", "p must be a number in [0, 1]"),
        ("n_effective", -1, "n_effective must be a non-negative integer or null"),
        ("n_effective", np.int64(3), "n_effective must be a non-negative integer or null"),
        ("method", "bogus", "method must be 'exact', 'normal-approx' or null"),
        ("ties_present", 1, "ties_present must be a boolean or null"),
        ("low_n", None, "low_n must be a boolean"),
    ],
)
def test_cell_checks_its_own_fields(field, value, rule):
    fields = {"p": 0.5, field: value}
    with pytest.raises(RangeError) as info:
        Cell(**fields)
    assert str(info.value) == f"{rule}, got {value!r}"


@pytest.mark.parametrize("p", [0, 1, np.float64(0.25)])
def test_cell_stores_p_as_a_float(p):
    cell = Cell(p=p)
    assert type(cell.p) is float and cell.p == p


@pytest.mark.parametrize(
    "task, feature, message",
    [
        (0, "mean_speed", "task id must be in 1..9, got 0"),
        (True, "mean_speed", "task id must be an integer, got True"),
        (3, 5, "feature must be a string, got 5"),
        (3, None, "feature must be a string, got None"),
    ],
)
def test_matrix_row_checks_its_own_fields(task, feature, message):
    with pytest.raises(RangeError) as info:
        MatrixRow(task, feature)
    assert str(info.value) == message


def test_matrix_row_stores_a_numpy_task_as_an_int():
    row = MatrixRow(np.int64(3), "mean_speed")
    assert type(row.task) is int and row == MatrixRow(3, "mean_speed")


# --- published-matrix significance pattern ----------------------------------


def test_reference_matrix_counts_increase_with_exercise_load():
    matrix = load_matrix_tsv((DATA / "reference_matrix.tsv").read_text())
    counts = []
    for pair in canonical_set_pairs()[:4]:  # S1-S2 ... S1-S5
        j = matrix.pairs.index(pair)
        counts.append(sum(cells[j].p < 0.05 for cells in matrix.cells))
    assert counts == [2, 6, 11, 16]
    assert counts == sorted(counts)  # monotone growth against baseline
    s4s5 = matrix.pairs.index((SetId.S4, SetId.S5))
    assert sum(cells[s4s5].p < 0.05 for cells in matrix.cells) == 0
