import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inkfatigue.errors import ConfigError
from inkfatigue.features import extract_features
from inkfatigue.model import ALL_SETS, SetId, TASK_IDS, parse_task_file, serialize_task
from inkfatigue.synth import (
    Perturbation,
    SynthProfile,
    generate_corpus,
    generate_task,
    load_profile,
    parse_profile,
)

from oracles import reference_generate_task


def test_same_key_gives_identical_records():
    profile = SynthProfile(seed=100)
    a = generate_task(profile, "U03", SetId.S2, 6)
    b = generate_task(profile, "U03", SetId.S2, 6)
    assert a == b


def test_different_keys_give_different_records():
    profile = SynthProfile(seed=100)
    a = generate_task(profile, "U03", SetId.S2, 6)
    assert a != generate_task(profile, "U03", SetId.S3, 6)
    assert a != generate_task(profile, "U04", SetId.S2, 6)
    assert a != generate_task(profile, "U03", SetId.S2, 7)
    assert a != generate_task(SynthProfile(seed=101), "U03", SetId.S2, 6)


def test_corpus_generation_is_pure():
    profile = SynthProfile(seed=31, n_subjects=2)
    first = generate_corpus(profile)
    second = generate_corpus(profile)
    for a, b in zip(first.records(), second.records()):
        assert a == b


def test_full_corpus_size():
    corpus = generate_corpus(SynthProfile(seed=32, n_subjects=20))
    assert len(corpus) == 900
    assert len(corpus.subjects) == 20


def test_records_pass_model_validation_via_round_trip():
    profile = SynthProfile(seed=33, n_subjects=1)
    for task in TASK_IDS:
        record = generate_task(profile, "U01", SetId.S4, task)
        assert parse_task_file(serialize_task(record)) == record


def test_air_inflation_exactly_scales_air_time():
    base = SynthProfile(seed=34)
    doubled = SynthProfile(
        seed=34, perturbations={SetId.S3: Perturbation(air_inflation=2.0)}
    )
    for task in (1, 5, 8):
        f1 = extract_features(generate_task(base, "U05", SetId.S3, task))
        f2 = extract_features(generate_task(doubled, "U05", SetId.S3, task))
        assert f2["time_in_air"] == 2 * f1["time_in_air"]


def test_pressure_shift_clamps_at_max():
    profile = SynthProfile(
        seed=35, perturbations={SetId.S2: Perturbation(pressure_shift=3000)}
    )
    record = generate_task(profile, "U01", SetId.S2, 2)
    assert record.signal.pressure.max() == 2047
    assert record.signal.pressure.min() == 0  # air samples stay at zero


def test_pressure_shift_moves_only_pressure_features():
    base = SynthProfile(seed=36)
    shifted = SynthProfile(
        seed=36, perturbations={SetId.S1: Perturbation(pressure_shift=900)}
    )
    ra = generate_task(base, "U02", SetId.S1, 3)
    rb = generate_task(shifted, "U02", SetId.S1, 3)
    assert np.array_equal(ra.signal.x, rb.signal.x)
    assert np.array_equal(ra.signal.y, rb.signal.y)
    fa, fb = extract_features(ra), extract_features(rb)
    assert fa["time_in_air"] == fb["time_in_air"]
    assert fa["time_down"] == fb["time_down"]
    assert fa["normalized_time_up"] == fb["normalized_time_up"]
    assert fb["p_gt_600"] > fa["p_gt_600"]
    # the shift clamps a band of values at the ceiling, merging histogram bins
    assert fb["entropy_p"] != fa["entropy_p"]


def test_speed_scale_moves_only_kinematics():
    base = SynthProfile(seed=37)
    slowed = SynthProfile(
        seed=37, perturbations={SetId.S5: Perturbation(speed_scale=0.5)}
    )
    ra = generate_task(base, "U02", SetId.S5, 9)
    rb = generate_task(slowed, "U02", SetId.S5, 9)
    assert np.array_equal(ra.signal.pressure, rb.signal.pressure)
    fa, fb = extract_features(ra), extract_features(rb)
    assert fb["mean_speed"] == pytest.approx(0.5 * fa["mean_speed"], rel=0.02)
    assert fa["time_in_air"] == fb["time_in_air"]


def test_jitter_moves_only_coordinates():
    base = SynthProfile(seed=38)
    jittered = SynthProfile(
        seed=38, perturbations={SetId.S1: Perturbation(jitter_sd=3.0)}
    )
    ra = generate_task(base, "U01", SetId.S1, 1)
    rb = generate_task(jittered, "U01", SetId.S1, 1)
    assert not np.array_equal(ra.signal.x, rb.signal.x)
    assert np.array_equal(ra.signal.pressure, rb.signal.pressure)


def test_subject_stream_independent_of_cohort_size():
    small = SynthProfile(seed=39, n_subjects=2)
    large = SynthProfile(seed=39, n_subjects=5)
    assert generate_task(small, "U01", SetId.S1, 1) == generate_task(
        large, "U01", SetId.S1, 1
    )


def test_degenerate_profiles_rejected():
    with pytest.raises(ConfigError):
        SynthProfile(stroke_count=0)
    with pytest.raises(ConfigError):
        SynthProfile(n_subjects=0)
    with pytest.raises(ConfigError):
        SynthProfile(base_pressure_level=0)
    with pytest.raises(ConfigError):
        SynthProfile(air_gap_len=0)
    with pytest.raises(ConfigError):
        Perturbation(speed_scale=0.0)
    with pytest.raises(ConfigError):
        Perturbation(air_inflation=-1.0)
    with pytest.raises(ConfigError):
        Perturbation(jitter_sd=-0.5)
    with pytest.raises(ConfigError):
        Perturbation(pressure_shift=1.5)


@given(
    seed=st.integers(0, 2**32),
    subject=st.sampled_from(["U01", "U02", "U17"]),
    set_id=st.sampled_from(ALL_SETS),
    task=st.sampled_from(TASK_IDS),
    stroke_count=st.integers(1, 12),
    air_gap_len=st.integers(1, 60),
    base_pressure_level=st.sampled_from([1, 1100, 2047]),
    speed_scale=st.floats(0.1, 3.0),
    air_inflation=st.floats(0.01, 3.0),
    jitter_sd=st.just(0.0) | st.floats(0.01, 5.0),
    pressure_shift=st.integers(-3000, 3000),
)
@settings(max_examples=150, deadline=None)
def test_generator_matches_per_stroke_reference(
    seed, subject, set_id, task, stroke_count, air_gap_len, base_pressure_level,
    speed_scale, air_inflation, jitter_sd, pressure_shift,
):
    perturbation = Perturbation(
        speed_scale=speed_scale,
        pressure_shift=pressure_shift,
        air_inflation=air_inflation,
        jitter_sd=jitter_sd,
    )
    profile = SynthProfile(
        seed=seed,
        stroke_count=stroke_count,
        air_gap_len=air_gap_len,
        base_pressure_level=base_pressure_level,
        perturbations={set_id: perturbation},
    )
    assert generate_task(profile, subject, set_id, task) == reference_generate_task(
        profile, subject, set_id, task
    )


def test_generate_task_rejects_bad_task():
    with pytest.raises(ConfigError):
        generate_task(SynthProfile(), "U01", SetId.S1, 0)


# --- profile files -----------------------------------------------------------

PROFILE_TEXT = """
# fatigue experiment profile
seed = 7
n_subjects = 4
base_speed = 12.5
base_pressure_level = 1000
stroke_count = 6
air_gap_len = 20

set.S4.speed_scale = 0.7
set.S4.air_inflation = 1.5
set.S4.pressure_shift = -120
set.S2.jitter_sd = 1.25
"""


def test_parse_profile_round_trip_fields():
    profile = parse_profile(PROFILE_TEXT)
    assert profile.seed == 7
    assert profile.n_subjects == 4
    assert profile.base_speed == 12.5
    assert profile.base_pressure_level == 1000
    assert profile.stroke_count == 6
    assert profile.air_gap_len == 20
    assert profile.perturbation(SetId.S4) == Perturbation(
        speed_scale=0.7, air_inflation=1.5, pressure_shift=-120
    )
    assert profile.perturbation(SetId.S2) == Perturbation(jitter_sd=1.25)
    assert profile.perturbation(SetId.S1) == Perturbation()


def test_parse_profile_defaults_when_empty():
    assert parse_profile("") == SynthProfile()


@pytest.mark.parametrize(
    "line",
    [
        "unknown_key = 3",
        "set.S9.speed_scale = 1.0",
        "set.S1.wrong = 1.0",
        "seed = not-a-number",
        "just a line",
        "set.S4.speed_scale = 0",
    ],
)
def test_parse_profile_rejects_bad_lines(line):
    with pytest.raises(ConfigError):
        parse_profile(line)


@pytest.mark.parametrize(
    "line",
    [
        "seed = \u0663",
        "n_subjects = 1_0",
        "base_speed = \u0661\u0664",
        "base_speed = 1_4.0",
        "base_speed = inf",
        "set.S4.pressure_shift = \uff11",
        "set.S4.jitter_sd = 0x1",
    ],
)
def test_parse_profile_numbers_are_ascii_decimals(line):
    # int() and float() take these; a profile value is [+-]?[0-9]+ or an
    # ASCII decimal float.
    with pytest.raises(ConfigError) as info:
        parse_profile(f"# header\n{line}\n")
    key, value = (part.strip() for part in line.split("="))
    assert str(info.value) == f"line 2: bad value {value!r} for {key}"


def test_parse_profile_accepts_signed_and_exponent_numbers():
    profile = parse_profile("seed = +7\nbase_speed = 1.25e1\nset.S4.pressure_shift = -3\n")
    assert (profile.seed, profile.base_speed) == (7, 12.5)
    assert profile.perturbation(SetId.S4).pressure_shift == -3


def test_load_profile_from_file(tmp_path):
    path = tmp_path / "profile.cfg"
    path.write_text(PROFILE_TEXT)
    assert load_profile(path) == parse_profile(PROFILE_TEXT)


def test_subject_ids_are_stable():
    assert SynthProfile(n_subjects=3).subject_ids() == ["U01", "U02", "U03"]
