import functools
import itertools
import math
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import inkfatigue.features as features_mod
from inkfatigue.errors import EmptyInputError, RangeError, ShapeError, TooShortError
from inkfatigue.features import (
    COUNT_FEATURES,
    DEFAULT_CATALOG,
    FeatureTable,
    PENDOWN_CATALOG,
    entropy,
    extract_features,
    feature_table,
    full_catalog,
    normalized_time_up,
    stroke_counts,
    time_down,
    time_in_air,
)
from inkfatigue.model import PRESSURE_MAX, InkSignal, SetId, StudyCorpus, TaskRecord
from inkfatigue.synth import SynthProfile, generate_corpus, generate_task

from conftest import make_record
from oracles import histogram_entropy, reference_extract_features, scan_segments

pressure_series = st.lists(st.integers(0, 2047), min_size=1, max_size=60)


# --- entropy ----------------------------------------------------------------


def test_entropy_constant_series_is_zero():
    assert entropy([7, 7, 7, 7], 8) == 0.0


def test_entropy_two_equiprobable_symbols_is_one_bit():
    assert entropy([0, 1, 0, 1], 2) == 1.0


def test_entropy_matches_histogram_oracle(rng):
    series = rng.integers(0, 2048, size=1000)
    got = entropy(series, 2048)
    assert got == pytest.approx(histogram_entropy(series.tolist()), abs=1e-12)


def test_entropy_rejects_bad_inputs():
    with pytest.raises(EmptyInputError):
        entropy([], 4)
    with pytest.raises(RangeError):
        entropy([0, 4], 4)
    with pytest.raises(RangeError):
        entropy([-1, 0], 4)
    with pytest.raises(ShapeError, match="^series must be one-dimensional$"):
        entropy(np.zeros((2, 2), dtype=int), 4)
    with pytest.raises(RangeError, match="^alphabet_size must be >= 1, got 0$"):
        entropy([0, 0], 0)
    with pytest.raises(RangeError, match="^entropy expects an integer series$"):
        entropy([0.5, 1.0], 4)


@given(st.lists(st.integers(0, 31), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_entropy_bounds(series):
    h = entropy(series, 32)
    assert 0.0 <= h <= math.log2(32) + 1e-12
    assert (h == 0.0) == (len(set(series)) == 1)


# --- differences and kinematics ----------------------------------------------
#
# Speed is the magnitude of first differences of (x, y), acceleration that of
# second differences; mean_abs_dp and mean_abs_ddp are mean absolute first and
# second differences of pressure.

KINEMATICS = ("mean_speed", "std_speed", "max_speed",
              "mean_acceleration", "std_acceleration", "max_acceleration")


def test_first_derivative_by_definition():
    vector = extract_features(make_record([0, 3, 3]), ("mean_abs_dp",))
    assert vector["mean_abs_dp"] == 1.5  # |3 - 0| and |3 - 3|


def test_first_derivative_of_constant_is_zero():
    record = make_record([5] * 10, x=[4] * 10, y=[9] * 10)
    vector = extract_features(record, ("mean_abs_dp", "mean_speed", "max_speed"))
    assert vector.values == {"mean_abs_dp": 0.0, "mean_speed": 0.0, "max_speed": 0.0}


def test_first_derivative_too_short():
    # A first difference needs two samples; InkSignal, which the kernels
    # rely on, refuses a shorter signal.
    with pytest.raises(TooShortError):
        extract_features(make_record([1]), ("mean_abs_dp",))


def test_second_derivative_of_linear_ramp_is_zero():
    vector = extract_features(make_record([0, 2, 4, 6]), ("mean_abs_ddp",))
    assert vector["mean_abs_ddp"] == 0.0


def test_second_derivative_small_case():
    vector = extract_features(make_record([0, 0, 1]), ("mean_abs_ddp", "mean_abs_dp"))
    assert vector.values == {"mean_abs_ddp": 1.0, "mean_abs_dp": 0.5}


def test_second_derivative_too_short():
    with pytest.raises(TooShortError):
        extract_features(make_record([1, 2]), ("mean_abs_ddp",))


@given(st.lists(st.integers(0, 2047), min_size=3, max_size=100))
@settings(max_examples=100, deadline=None)
def test_second_derivative_equals_twice_first(pressure):
    dp = [b - a for a, b in zip(pressure, pressure[1:])]
    ddp = [b - a for a, b in zip(dp, dp[1:])]
    vector = extract_features(make_record(pressure), ("mean_abs_dp", "mean_abs_ddp"))
    assert vector["mean_abs_dp"] == sum(map(abs, dp)) / len(dp)
    assert vector["mean_abs_ddp"] == sum(map(abs, ddp)) / len(ddp)


def test_speed_series_hand_example():
    # One 3-4-5 step, then a stop.
    vector = extract_features(make_record([1, 1, 1], x=[0, 3, 3], y=[0, 4, 4]), KINEMATICS)
    assert vector["mean_speed"] == 2.5
    assert vector["std_speed"] == 2.5
    assert vector["max_speed"] == 5.0
    assert vector["max_acceleration"] == 5.0


def test_speed_of_stationary_pen_is_zero():
    vector = extract_features(make_record([1] * 6, x=[4] * 6, y=[9] * 6), KINEMATICS)
    assert set(vector.values.values()) == {0.0}


def test_speed_equals_abs_dx_for_pure_x_motion(rng):
    x = rng.integers(-100, 100, size=30)
    vector = extract_features(make_record([1] * 30, x=x, y=[0] * 30), KINEMATICS)
    abs_dx = np.abs(np.diff(x)).astype(float)
    assert vector["mean_speed"] == abs_dx.mean()
    assert vector["std_speed"] == abs_dx.std()
    assert vector["max_speed"] == abs_dx.max()


def test_speed_shape_mismatch():
    # Speed pairs dx with dy, so x and y must have the same length.
    with pytest.raises(ShapeError):
        extract_features(make_record([1, 1, 1], x=[1, 2, 3], y=[1, 2]), KINEMATICS)


def test_acceleration_of_uniform_motion_is_zero():
    vector = extract_features(make_record([1] * 10, x=np.arange(10) * 7, y=np.arange(10) * 2))
    assert vector["mean_acceleration"] == vector["max_acceleration"] == 0.0
    assert vector["std_acceleration"] == vector["std_speed"] == 0.0


def test_acceleration_small_case():
    vector = extract_features(make_record([1, 1, 1], x=[0, 1, 3], y=[0, 0, 0]), KINEMATICS)
    assert vector["mean_acceleration"] == vector["max_acceleration"] == 1.0
    assert vector["std_acceleration"] == 0.0


def test_acceleration_matches_naive_recomputation(rng):
    x = rng.integers(-500, 500, size=80)
    y = rng.integers(-500, 500, size=80)
    vector = extract_features(make_record([1] * 80, x=x, y=y), KINEMATICS)
    accel = []
    for i in range(len(x) - 2):
        ddx = x[i + 2] - 2 * x[i + 1] + x[i]
        ddy = y[i + 2] - 2 * y[i + 1] + y[i]
        accel.append(math.sqrt(ddx * ddx + ddy * ddy))
    mean = sum(accel) / len(accel)
    assert vector["mean_acceleration"] == pytest.approx(mean, rel=1e-12)
    assert vector["max_acceleration"] == max(accel)
    sd = math.sqrt(sum((a - mean) ** 2 for a in accel) / len(accel))
    assert vector["std_acceleration"] == pytest.approx(sd, rel=1e-12)


def test_acceleration_too_short():
    with pytest.raises(TooShortError):
        extract_features(make_record([1, 1], x=[1, 2], y=[1, 2]), KINEMATICS)


# --- stroke and timing ------------------------------------------------------


def test_stroke_counts_hand_example():
    assert stroke_counts([0, 5, 5, 0, 3, 0]) == (2, 3)


def test_stroke_counts_all_down():
    assert stroke_counts([4, 4, 4]) == (1, 0)


def test_stroke_counts_all_air():
    assert stroke_counts([0, 0, 0]) == (0, 1)


def test_stroke_counts_empty():
    with pytest.raises(EmptyInputError):
        stroke_counts([])


def test_timing_hand_example():
    p = [0, 5, 5, 0, 3, 0]
    assert time_in_air(p) == 3
    assert time_down(p) == 3


def test_timing_all_air():
    assert time_in_air([0] * 7) == 7
    assert time_down([0] * 7) == 0


@given(pressure_series)
@settings(max_examples=150, deadline=None)
def test_air_down_partition(p):
    assert time_in_air(p) + time_down(p) == len(p)


@given(pressure_series)
@settings(max_examples=150, deadline=None)
def test_stroke_counts_alternate(p):
    down, up = stroke_counts(p)
    assert abs(down - up) <= 1


def test_normalized_time_up_hand_examples():
    assert normalized_time_up([0, 5, 5, 0, 3, 0]) == 1.0
    assert normalized_time_up([5, 5, 5]) == 0.0
    assert normalized_time_up([0, 0, 5]) == 2.0


def test_exhaustive_binary_patterns_match_segment_oracle():
    # Every binary pressure pattern of length 1..10, scaled to {0, 500}.
    for n in range(1, 11):
        for bits in itertools.product((0, 500), repeat=n):
            want = scan_segments(bits)
            down, up = stroke_counts(bits)
            assert (down, up) == (want["strokes_down"], want["strokes_up"])
            assert time_in_air(bits) == want["time_in_air"]
            assert time_down(bits) == want["time_down"]
            assert normalized_time_up(bits) == want["normalized_time_up"]


# --- pressure thresholds ----------------------------------------------------

THRESHOLDS = ("p_gt_100", "p_gt_600", "p_band_100_400", "p_band_100_600")


def _thresholds(pressure):
    return extract_features(make_record(pressure), THRESHOLDS).values


def test_pressure_above_hand_example():
    assert _thresholds([50, 150, 700])["p_gt_100"] == 2


def test_pressure_band_hand_example():
    assert _thresholds([50, 150, 700])["p_band_100_600"] == 1


def test_pressure_band_is_inclusive_both_ends():
    assert _thresholds([100, 400, 600]) == {
        "p_gt_100": 2,
        "p_gt_600": 0,
        "p_band_100_400": 2,
        "p_band_100_600": 3,
    }


def test_pressure_above_zero_threshold_equals_time_down(rng):
    # time_down counts the samples with pressure above 0.
    p = rng.integers(0, 2048, size=50)
    vector = extract_features(make_record(p), ("time_down", "p_gt_100"))
    assert vector["time_down"] == int(np.count_nonzero(p > 0))
    assert vector["p_gt_100"] <= vector["time_down"]


def test_pressure_above_max_threshold_is_zero(rng):
    # 600 is the catalog's highest threshold.
    p = rng.integers(0, 601, size=50)
    assert _thresholds(p)["p_gt_600"] == 0


def test_pressure_band_full_range_equals_time_down(rng):
    # When every pen-down sample lies in [100, 600], that band is all of them.
    p = rng.choice(np.array([0, 100, 101, 350, 599, 600]), size=50)
    vector = extract_features(make_record(p), ("time_down", "p_band_100_600"))
    assert vector["p_band_100_600"] == vector["time_down"] == int(np.count_nonzero(p))


@given(st.lists(st.integers(0, 2047), min_size=3, max_size=60))
@settings(max_examples=100, deadline=None)
def test_pressure_band_subset_of_above(p):
    got = _thresholds(p)
    assert got == {
        "p_gt_100": sum(v > 100 for v in p),
        "p_gt_600": sum(v > 600 for v in p),
        "p_band_100_400": sum(100 <= v <= 400 for v in p),
        "p_band_100_600": sum(100 <= v <= 600 for v in p),
    }
    assert got["p_band_100_400"] <= got["p_band_100_600"]


# --- extraction -------------------------------------------------------------

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _counter_entropy(values) -> float:
    """Plug-in entropy from Counter counts in ascending value order, the order
    in which the extractor sums."""
    n = len(values)
    probs = np.array([c for _, c in sorted(Counter(values).items())]) / n
    return float(-np.add.reduce(probs * np.log2(probs)))


@pytest.mark.parametrize(
    "x,y",
    [
        ([0, 10**7, 0], [5, 5, 6]),
        ([0, 10**12, 5, 10**12], [-(10**12), 0, 3, 3]),
        ([_INT64_MIN, _INT64_MAX, 0, _INT64_MAX], [_INT64_MAX, _INT64_MIN, _INT64_MIN, 1]),
    ],
    ids=["span-1e7", "span-1e12", "int64-extremes"],
)
def test_entropy_of_a_wide_coordinate_span_is_cheap_and_exact(x, y):
    # The histogram must not grow with the span: 10**7 would take 80 MB.
    record = make_record([0, 9, 9, 0][: len(x)], x=x, y=y)
    tracemalloc.start()
    try:
        got = extract_features(record, ("entropy_x", "entropy_y"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert struct.pack("<2d", got["entropy_x"], got["entropy_y"]) == struct.pack(
        "<2d", _counter_entropy(x), _counter_entropy(y)
    )


def test_entropy_helper_takes_any_alphabet_size():
    series = [0, 2**40, 2**40, 3]
    assert entropy(series, 2**41) == _counter_entropy(series)


def test_extract_synthetic_record_populates_catalog():
    record = generate_task(SynthProfile(seed=12), "U01", SetId.S1, 2)
    vector = extract_features(record)
    assert tuple(vector.values) == DEFAULT_CATALOG
    assert vector.flags == frozenset()
    assert all(np.isfinite(v) for v in vector.values.values())


def test_extract_counts_are_nonnegative_integers():
    record = generate_task(SynthProfile(seed=13), "U01", SetId.S3, 7)
    vector = extract_features(record)
    for name in COUNT_FEATURES:
        value = vector[name]
        assert isinstance(value, int)
        assert value >= 0
    assert vector["entropy_x"] >= 0.0
    assert vector["entropy_p"] >= 0.0


def test_extract_partition_invariant():
    record = generate_task(SynthProfile(seed=14), "U02", SetId.S2, 5)
    vector = extract_features(record)
    assert vector["time_in_air"] + vector["time_down"] == len(record.signal)


def test_extract_all_air_record():
    record = make_record([0, 0, 0, 0])
    vector = extract_features(record)
    assert vector["time_in_air"] == 4
    assert vector["time_down"] == 0
    assert vector["normalized_time_up"] == 4.0
    assert "normalized_time_up" not in vector.flags  # one air stroke exists


def test_extract_all_down_record_flags_normalized_time_up():
    record = make_record([900, 910, 905, 890])
    vector = extract_features(record)
    assert vector["normalized_time_up"] == 0.0
    assert "normalized_time_up" in vector.flags


def test_extract_is_pure_and_order_free():
    a = generate_task(SynthProfile(seed=15), "U01", SetId.S1, 1)
    b = generate_task(SynthProfile(seed=15), "U02", SetId.S4, 8)
    first = (extract_features(a), extract_features(b))
    second = (extract_features(b), extract_features(a))
    assert first[0].values == second[1].values
    assert first[1].values == second[0].values


def test_extract_too_short_names_minimum():
    record = make_record([0, 5])
    with pytest.raises(TooShortError, match="3"):
        extract_features(record)


def test_extract_catalog_subset_and_unknown_name():
    record = generate_task(SynthProfile(seed=16), "U01", SetId.S1, 1)
    vector = extract_features(record, ("max_speed", "time_down"))
    assert tuple(vector.values) == ("max_speed", "time_down")
    with pytest.raises(RangeError, match="no_such"):
        extract_features(record, ("no_such_feature",))


def test_pendown_namespace():
    record = generate_task(SynthProfile(seed=17), "U01", SetId.S1, 1)
    vector = extract_features(record, full_catalog())
    assert set(PENDOWN_CATALOG) <= set(vector.values)
    # pen-down speeds exclude in-air travel, so they differ from full-series
    assert vector["pendown_mean_speed"] != vector["mean_speed"]


def test_pendown_flagged_when_pen_never_down():
    record = make_record([0, 0, 0, 0])
    vector = extract_features(record, PENDOWN_CATALOG)
    assert vector["pendown_mean_speed"] == 0.0
    assert set(PENDOWN_CATALOG) <= vector.flags


def test_spatial_scaling_moves_only_kinematics():
    base = generate_task(SynthProfile(seed=18), "U01", SetId.S1, 4)
    scaled = make_record(
        base.signal.pressure,
        x=base.signal.x * 2,
        y=base.signal.y * 2,
        task=4,
    )
    fb = extract_features(base)
    fs = extract_features(scaled)
    for name in ("mean_speed", "std_speed", "max_speed",
                 "mean_acceleration", "std_acceleration", "max_acceleration"):
        # doubling is exact in binary floating point
        assert fs[name] == 2.0 * fb[name]
    for name in ("entropy_p", "time_in_air", "time_down", "normalized_time_up",
                 "p_gt_100", "p_gt_600", "p_band_100_400", "p_band_100_600",
                 "mean_abs_dp", "mean_abs_ddp"):
        assert fs[name] == fb[name]


def test_feature_table_covers_corpus_and_skips_short_records():
    corpus = generate_corpus(SynthProfile(seed=19, n_subjects=2), sets=(SetId.S1,))
    corpus.add(make_record([0, 5], subject="U03"))
    corpus.add(make_record([9] * 4, subject="U04"))  # no in-air stroke: flagged
    catalog = full_catalog()
    table = feature_table(corpus, catalog)
    assert len(table) == 20
    assert table.keys == tuple(record.key for record in corpus)
    assert table.catalog == catalog
    assert table.values.shape == table.flags.shape == (20, len(catalog))
    assert (table.values.dtype, table.flags.dtype) == (np.float64, np.bool_)
    assert not (table.values.flags.writeable or table.flags.flags.writeable)
    failed = ("U03", SetId.S1, 1)
    assert table.errors == {failed: "feature extraction needs at least 3 samples, got 2"}
    for record, values, flags in zip(corpus, table.values, table.flags):
        if record.key == failed:
            assert np.isnan(values).all() and not flags.any()
            continue
        vector = extract_features(record, catalog)
        assert values.tobytes() == np.array([vector[n] for n in catalog]).tobytes()
        assert {n for n, f in zip(catalog, flags) if f} == vector.flags
    assert table.flags[table.keys.index(("U04", SetId.S1, 1))].any()


@functools.cache
def _corpus_with_failed_and_flagged_records():
    corpus = generate_corpus(SynthProfile(seed=20, n_subjects=2), sets=(SetId.S1, SetId.S3))
    corpus.add(make_record([0, 5], subject="U03"))  # 2 samples: extraction fails
    corpus.add(make_record([1, 2], subject="U00", task=2))
    corpus.add(make_record([9] * 4, subject="U00", set_id=SetId.S2))  # no in-air stroke: flagged
    return corpus


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_feature_table_of_shuffled_records_equals_the_corpus_table_bit_for_bit(data):
    # Files arrive in path order and headers decide the key, so the table
    # sorts its rows, errors included, by key whatever order records come in.
    corpus = _corpus_with_failed_and_flagged_records()
    shuffled = data.draw(st.permutations(list(corpus)))
    want = feature_table(corpus, full_catalog())
    got = feature_table(iter(shuffled), full_catalog())
    assert got.keys == want.keys == tuple(sorted(want.keys))
    assert got.values.tobytes() == want.values.tobytes()
    assert got.flags.tobytes() == want.flags.tobytes() and want.flags.any()
    assert list(got.errors.items()) == list(want.errors.items())
    assert list(want.errors) == [("U00", SetId.S1, 2), ("U03", SetId.S1, 1)]


def test_feature_table_refuses_a_repeated_feature_before_extracting(monkeypatch):
    # Matrices and views find a column by name, and the JSON view keys values
    # by name, so a catalog naming a feature twice is refused up front.
    corpus = generate_corpus(SynthProfile(seed=19, n_subjects=1), sets=(SetId.S1,))
    calls = []
    real = features_mod.extract_features
    monkeypatch.setattr(
        features_mod, "extract_features", lambda *args: calls.append(args) or real(*args)
    )
    with pytest.raises(RangeError) as info:
        feature_table(corpus, ("mean_speed", "time_in_air", "mean_speed"))
    assert str(info.value) == "duplicate feature 'mean_speed' in catalog"
    assert calls == []


_KEY = ("U01", SetId.S1, 1)


@pytest.mark.parametrize(
    "keys, catalog, values, flags, errors, message",
    [
        # Rendered as JSON, one of the two columns was dropped.
        ((_KEY,), ("mean_speed", "mean_speed"), [[1.0, 2.0]], [[False, False]], {},
         "duplicate feature 'mean_speed' in catalog"),
        # Rendered as TSV, the row had one value under two names.
        ((_KEY,), ("mean_speed", "time_down"), [[1.0]], [[False, False]], {},
         "values must have shape (1, 2), got (1, 1)"),
        ((_KEY,), ("mean_speed",), [[1.0]], [[False], [False]], {},
         "flags must have shape (1, 1), got (2, 1)"),
        ((_KEY, _KEY), ("mean_speed",), [[1.0], [2.0]], [[False], [False]], {},
         f"duplicate key {_KEY!r} in keys"),
        ((_KEY,), ("mean_speed",), [[1.0]], [[False]], {("U02", SetId.S1, 1): "too short"},
         f"error for {('U02', SetId.S1, 1)!r}, which is not in keys"),
    ],
    ids=["repeated-feature", "narrow-values", "tall-flags", "repeated-key", "stray-error"],
)
def test_feature_table_checks_its_own_fields(keys, catalog, values, flags, errors, message):
    with pytest.raises(RangeError) as info:
        FeatureTable(keys, catalog, np.array(values), np.array(flags), errors)
    assert str(info.value) == message


def test_feature_table_holds_read_only_views_of_the_arrays_given():
    values, flags = np.array([[1.0]]), np.array([[True]])
    table = FeatureTable((_KEY,), ("mean_speed",), values, flags, {})
    assert not (table.values.flags.writeable or table.flags.flags.writeable)
    assert values.flags.writeable and flags.flags.writeable
    assert table.values.tolist() == [[1.0]] and table.flags.tolist() == [[True]]


def test_feature_table_errors_are_a_read_only_view():
    # A key added to a built table's errors would never be checked against keys.
    corpus = StudyCorpus()
    corpus.add(make_record([0, 5]))
    table = feature_table(corpus, ("mean_speed",))
    assert dict(table.errors) == {_KEY: "feature extraction needs at least 3 samples, got 2"}
    with pytest.raises(TypeError):
        table.errors[("U09", SetId.S1, 1)] = "x"
    assert list(table.errors) == [_KEY]


def test_feature_table_holds_about_nine_bytes_per_value():
    # A float64 value and a bool flag per record x feature, plus the row's
    # key; a dict of per-record vectors of Python floats took about 68.
    corpus = generate_corpus(SynthProfile(seed=5, n_subjects=2))
    feature_table(corpus, full_catalog())  # first-call caches stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = feature_table(corpus, full_catalog())
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(table) == len(corpus) == 90
    assert held <= 16 * len(corpus) * len(full_catalog())


# --- coordinates anywhere in int64 ------------------------------------------


def _exact_kinematics(x, y):
    """Kinematic statistics from Python-int differences, which cannot wrap."""

    def mean_std_max(dx, dy):
        values = [math.hypot(a, b) for a, b in zip(dx, dy)]
        mean = math.fsum(values) / len(values)
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))
        return mean, sd, max(values)

    x, y = [int(v) for v in x], [int(v) for v in y]
    dx = [b - a for a, b in zip(x, x[1:])]
    dy = [b - a for a, b in zip(y, y[1:])]
    ddx = [b - a for a, b in zip(dx, dx[1:])]
    ddy = [b - a for a, b in zip(dy, dy[1:])]
    return mean_std_max(dx, dy) + mean_std_max(ddx, ddy)


def test_kinematics_of_int64_extreme_steps_do_not_wrap():
    x = [-(2**63), 2**63 - 1, 0, 2**63 - 1]
    vector = extract_features(make_record([1] * 4, x=x, y=[0] * 4), KINEMATICS)
    assert vector["max_speed"] == pytest.approx(2.0**64, rel=1e-15)
    assert vector["mean_speed"] == pytest.approx(2.0**65 / 3, rel=1e-15)
    assert vector["max_acceleration"] == pytest.approx(3 * 2.0**63, rel=1e-15)
    assert vector["mean_acceleration"] == pytest.approx((3 * 2.0**63 + 2.0**64) / 2, rel=1e-15)


_INT64 = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1, 0]))


@given(
    st.integers(3, 20).flatmap(
        lambda n: st.tuples(
            st.lists(_INT64, min_size=n, max_size=n),
            st.lists(_INT64, min_size=n, max_size=n),
            st.lists(st.sampled_from([0, 1, 700]), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_kinematics_of_any_int64_coordinates_match_exact_differences(channels):
    x, y, pressure = channels
    vector = extract_features(make_record(pressure, x=x, y=y), full_catalog())
    got = [vector[name] for name in KINEMATICS]
    want = _exact_kinematics(x, y)
    down = [i for i, p in enumerate(pressure) if p > 0]
    if len(down) >= 3:
        got += [vector[name] for name in PENDOWN_CATALOG]
        want += _exact_kinematics([x[i] for i in down], [y[i] for i in down])
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-9, abs=1e-9 * max(want))


@st.composite
def narrow_spans(draw, n):
    """n int64 coordinates whose span stays below 2^62, anywhere in int64."""
    span = draw(st.one_of(st.integers(0, 5000), st.integers(0, 2**62 - 1)))
    lo = draw(st.integers(-(2**63), 2**63 - 1 - span))
    return draw(
        st.lists(st.one_of(st.integers(lo, lo + span), st.sampled_from([lo, lo + span])),
                 min_size=n, max_size=n)
    )


@given(
    st.integers(3, 20).flatmap(
        lambda n: st.tuples(
            narrow_spans(n),
            narrow_spans(n),
            st.lists(st.sampled_from([0, 1, 700]), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_kinematics_below_the_wrap_span_match_reference_bit_for_bit(channels):
    x, y, pressure = channels
    record = make_record(pressure, x=x, y=y)
    catalog = KINEMATICS + PENDOWN_CATALOG
    got = extract_features(record, catalog)
    assert _bits(got) == _bits(reference_extract_features(record, catalog))


# --- bit-identity with the per-feature reference ----------------------------

_PRESSURE_EDGES = (1, 99, 100, 101, 399, 400, 401, 599, 600, 601, 2046, 2047)


@st.composite
def ink_records(draw, min_size=3):
    """Records whose pressure is mixed, all in air, all down, or down on at
    most two samples; coordinates are smooth, jumpy or constant."""
    n = draw(st.integers(min_size, 80))
    down = st.one_of(st.sampled_from(_PRESSURE_EDGES), st.integers(1, 2047))
    mode = draw(st.sampled_from(["mixed", "air", "down", "sparse"]))
    if mode == "air":
        pressure = [0] * n
    elif mode == "down":
        pressure = draw(st.lists(down, min_size=n, max_size=n))
    else:
        pressure = draw(st.lists(st.one_of(st.just(0), down), min_size=n, max_size=n))
        if mode == "sparse":
            keep = set(draw(st.lists(st.integers(0, n - 1), max_size=2)))
            pressure = [v if i in keep else 0 for i, v in enumerate(pressure)]
    coords = st.one_of(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(lambda d: np.cumsum(d)),
        st.lists(st.integers(-5000, 5000), min_size=n, max_size=n),
        st.integers(-5000, 5000).map(lambda c: [c] * n),
    )
    return make_record(pressure, x=draw(coords), y=draw(coords))


catalogs = st.one_of(
    st.just(DEFAULT_CATALOG),
    st.just(full_catalog()),
    st.sampled_from(full_catalog()).map(lambda name: (name,)),
    st.permutations(full_catalog()).flatmap(
        lambda names: st.integers(1, len(names)).map(lambda k: tuple(names[:k]))
    ),
)


def _bits(vector):
    return {
        name: (type(value), struct.pack("<d", value)) for name, value in vector.values.items()
    }


@given(ink_records(), catalogs)
@settings(max_examples=400, deadline=None)
def test_extract_features_matches_reference_bit_for_bit(record, catalog):
    got = extract_features(record, catalog)
    want = reference_extract_features(record, catalog)
    assert tuple(got.values) == tuple(want.values) == tuple(catalog)
    assert _bits(got) == _bits(want)
    assert got.flags == want.flags
    for name in COUNT_FEATURES & set(catalog):
        assert type(got.values[name]) is int


# --- exactness on the narrow pressure channel --------------------------------


def _wide_record(pressure, x, y):
    """A record whose channels are int64 arrays built from the given lists.
    It skips InkSignal's checks and narrowing, so nothing in it was ever
    int16."""
    signal = object.__new__(InkSignal)
    n = len(pressure)
    for name, values in zip(
        ("x", "y", "pressure", "azimuth", "altitude"), (x, y, pressure, [200] * n, [60] * n)
    ):
        object.__setattr__(signal, name, np.array(values, dtype=np.int64))
    return TaskRecord("U01", SetId.S1, 1, signal)


@st.composite
def pressure_extremes(draw):
    """(pressure, x, y) lists of 3 to 200 samples. Pressure is drawn from the
    whole range, alternates 0 and PRESSURE_MAX (|ddp| = 2 * PRESSURE_MAX), or
    is all 0 or all PRESSURE_MAX; long mixed and alternating series take the
    sum of |dp| past the int16 range."""
    n = draw(st.integers(3, 200))
    kind = draw(st.sampled_from(["mixed", "alternating", "zero", "full"]))
    if kind == "mixed":
        values = st.integers(0, PRESSURE_MAX) | st.sampled_from([0, PRESSURE_MAX])
        pressure = draw(st.lists(values, min_size=n, max_size=n))
    elif kind == "alternating":
        first = draw(st.integers(0, 1))
        pressure = [PRESSURE_MAX * ((i + first) % 2) for i in range(n)]
    else:
        pressure = [0 if kind == "zero" else PRESSURE_MAX] * n
    coords = st.lists(st.integers(-5000, 5000), min_size=n, max_size=n)
    return pressure, draw(coords), draw(coords)


_ALTERNATING = [0, PRESSURE_MAX] * 200


@given(pressure_extremes())
@example(([0, PRESSURE_MAX, 0], [0, 1, 2], [0, 5, 1]))
@example(([PRESSURE_MAX] * 3, [0, 1, 2], [0, 5, 1]))
@example(([0] * 400, list(range(400)), list(range(400))))
@example((_ALTERNATING, list(range(400)), [0] * 400))
@settings(max_examples=100, deadline=None)
def test_features_on_narrow_pressure_equal_features_on_int64_pressure(case):
    pressure, x, y = case
    catalog = full_catalog()
    got = extract_features(make_record(pressure, x=x, y=y), catalog)
    want = extract_features(_wide_record(pressure, x, y), catalog)
    assert _bits(got) == _bits(want)
    assert got.flags == want.flags


_INT32_ENDS = (-(2**31), 2**31 - 1)


@st.composite
def int32_coordinates(draw):
    """(pressure, x, y) lists of 3 to 200 samples whose x and y fit int32:
    anywhere in it, at its ends, or alternating -2**31 and 2**31 - 1, where
    int32 first and second differences would wrap. The values come from a
    drawn seed: drawing each one from hypothesis took most of the property's
    time."""
    n = draw(st.integers(3, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pressure = rng.choice([0, 1, 700, PRESSURE_MAX], n).tolist()
    channels = []
    for _ in "xy":
        kind = draw(st.sampled_from(["anywhere", "ends", "alternating"]))
        if kind == "alternating":
            first = draw(st.integers(0, 1))
            channels.append([_INT32_ENDS[(i + first) % 2] for i in range(n)])
        else:
            values = rng.integers(*_INT32_ENDS, n, endpoint=True)
            if kind == "ends":  # about half the samples at one end or the other
                values = np.where(rng.random(n) < 0.5, rng.choice(_INT32_ENDS, n), values)
            channels.append(values.tolist())
    return pressure, *channels


@given(int32_coordinates())
@example(([1] * 4, [-(2**31), 2**31 - 1] * 2, [2**31 - 1, -(2**31)] * 2))
@example(([0, 1, 1, 1, 0], [-(2**31), 2**31 - 1] * 2 + [0], [0] * 5))
@settings(max_examples=100, deadline=None)
def test_features_on_int32_coordinates_equal_features_on_int64_coordinates(case):
    pressure, x, y = case
    catalog = full_catalog()
    record = make_record(pressure, x=x, y=y)
    assert (record.signal.x.dtype, record.signal.y.dtype) == (np.int32, np.int32)
    got = extract_features(record, catalog)
    want = extract_features(_wide_record(pressure, x, y), catalog)
    assert _bits(got) == _bits(want)
    assert got.flags == want.flags
    reference = reference_extract_features(record, catalog)
    assert _bits(got) == _bits(reference)
    assert got.flags == reference.flags


def test_alternating_pressure_passes_the_int16_range_in_sums():
    # The long example above: both difference sums leave int16 and stay exact.
    vector = extract_features(make_record(_ALTERNATING), ("mean_abs_dp", "mean_abs_ddp"))
    assert vector["mean_abs_dp"] == PRESSURE_MAX and vector["mean_abs_ddp"] == 2 * PRESSURE_MAX
    assert PRESSURE_MAX * (len(_ALTERNATING) - 1) > np.iinfo(np.int16).max


@pytest.mark.parametrize(
    "catalog",
    [("no_such_feature",), ("mean_speed", "bogus", "time_down", "also_bogus")],
)
def test_unknown_feature_message_matches_reference(catalog):
    record = make_record([0, 5, 5, 0])
    with pytest.raises(RangeError) as want:
        reference_extract_features(record, catalog)
    with pytest.raises(RangeError) as got:
        extract_features(record, catalog)
    assert str(got.value) == str(want.value)


def test_too_short_message_matches_reference():
    record = make_record([0, 5])
    with pytest.raises(TooShortError) as want:
        reference_extract_features(record)
    with pytest.raises(TooShortError) as got:
        extract_features(record)
    assert str(got.value) == str(want.value)
