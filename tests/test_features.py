import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inkfatigue.errors import EmptyInputError, RangeError, ShapeError, TooShortError
from inkfatigue.features import (
    COUNT_FEATURES,
    DEFAULT_CATALOG,
    PENDOWN_CATALOG,
    acceleration_series,
    entropy,
    extract_features,
    feature_table,
    first_derivative,
    full_catalog,
    normalized_time_up,
    pressure_above,
    pressure_band,
    second_derivative,
    speed_series,
    stroke_counts,
    time_down,
    time_in_air,
)
from inkfatigue.model import SetId
from inkfatigue.synth import SynthProfile, generate_corpus, generate_task

from conftest import make_record
from oracles import histogram_entropy, scan_segments

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


@given(st.lists(st.integers(0, 31), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_entropy_bounds(series):
    h = entropy(series, 32)
    assert 0.0 <= h <= math.log2(32) + 1e-12
    assert (h == 0.0) == (len(set(series)) == 1)


# --- derivatives ------------------------------------------------------------


def test_first_derivative_by_definition():
    assert first_derivative([0, 3, 3]).tolist() == [3, 0]


def test_first_derivative_of_constant_is_zero():
    assert first_derivative([5] * 10).tolist() == [0] * 9


def test_first_derivative_too_short():
    with pytest.raises(TooShortError):
        first_derivative([1])


def test_second_derivative_of_linear_ramp_is_zero():
    assert second_derivative([0, 2, 4, 6]).tolist() == [0, 0]


def test_second_derivative_small_case():
    assert second_derivative([0, 0, 1]).tolist() == [1]


def test_second_derivative_too_short():
    with pytest.raises(TooShortError):
        second_derivative([1, 2])


@given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=100))
@settings(max_examples=100, deadline=None)
def test_second_derivative_equals_twice_first(series):
    twice = first_derivative(first_derivative(series))
    assert np.array_equal(second_derivative(series), twice)


# --- kinematics -------------------------------------------------------------


def test_speed_series_hand_example():
    v = speed_series([0, 3, 3], [0, 4, 4])
    assert v.tolist() == [5.0, 0.0]
    assert v.max() == 5.0


def test_speed_of_stationary_pen_is_zero():
    assert speed_series([4] * 6, [9] * 6).tolist() == [0.0] * 5


def test_speed_equals_abs_dx_for_pure_x_motion(rng):
    x = rng.integers(-100, 100, size=30)
    y = np.zeros(30, dtype=int)
    assert np.array_equal(speed_series(x, y), np.abs(np.diff(x)))


def test_speed_shape_mismatch():
    with pytest.raises(ShapeError):
        speed_series([1, 2, 3], [1, 2])


def test_acceleration_of_uniform_motion_is_zero():
    x = np.arange(10) * 7
    y = np.arange(10) * 2
    assert acceleration_series(x, y).tolist() == [0.0] * 8


def test_acceleration_small_case():
    assert acceleration_series([0, 1, 3], [0, 0, 0]).tolist() == [1.0]


def test_acceleration_matches_naive_recomputation(rng):
    x = rng.integers(-500, 500, size=80)
    y = rng.integers(-500, 500, size=80)
    got = acceleration_series(x, y)
    for i in range(len(x) - 2):
        ddx = x[i + 2] - 2 * x[i + 1] + x[i]
        ddy = y[i + 2] - 2 * y[i + 1] + y[i]
        assert got[i] == pytest.approx(math.sqrt(ddx * ddx + ddy * ddy), abs=1e-12)


def test_acceleration_too_short():
    with pytest.raises(TooShortError):
        acceleration_series([1, 2], [1, 2])


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


def test_pressure_above_hand_example():
    assert pressure_above([50, 150, 700], 100) == 2


def test_pressure_above_zero_threshold_equals_time_down(rng):
    p = rng.integers(0, 2048, size=50)
    assert pressure_above(p, 0) == time_down(p)


def test_pressure_above_max_threshold_is_zero(rng):
    p = rng.integers(0, 2048, size=50)
    assert pressure_above(p, 2047) == 0


def test_pressure_above_rejects_bad_threshold():
    with pytest.raises(RangeError):
        pressure_above([1], -1)
    with pytest.raises(RangeError):
        pressure_above([1], 2048)


def test_pressure_band_hand_example():
    assert pressure_band([50, 150, 700], 100, 600) == 1


def test_pressure_band_is_inclusive_both_ends():
    assert pressure_band([100, 600], 100, 600) == 2


def test_pressure_band_full_range_equals_time_down(rng):
    p = rng.integers(0, 2048, size=50)
    assert pressure_band(p, 1, 2047) == time_down(p)


@given(pressure_series)
@settings(max_examples=100, deadline=None)
def test_pressure_band_subset_of_above(p):
    assert pressure_band(p, 100, 600) <= pressure_above(p, 99)


@pytest.mark.parametrize("n1,n2", [(0, 600), (600, 100), (100, 100), (100, 2048)])
def test_pressure_band_rejects_bad_bounds(n1, n2):
    with pytest.raises(RangeError):
        pressure_band([1], n1, n2)


# --- extraction -------------------------------------------------------------


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
    table = feature_table(corpus)
    assert len(table) == 19
    key = ("U01", SetId.S1, 1)
    assert tuple(table[key].values) == DEFAULT_CATALOG
    failed = table[("U03", SetId.S1, 1)]
    assert failed.values is None
    assert failed.flags == {"extraction-failed"}
    assert failed.error == "feature extraction needs at least 3 samples, got 2"
