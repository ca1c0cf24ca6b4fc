import dataclasses
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inkfatigue import synth
from inkfatigue.errors import ConfigError, FormatError, RangeError
from inkfatigue.features import extract_features
from inkfatigue.model import ALL_SETS, SetId, TASK_IDS, parse_task_file, serialize_task
from inkfatigue.synth import (
    Perturbation,
    SynthProfile,
    generate_corpus,
    generate_records,
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
    for a, b in zip(first, second):
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
    with pytest.raises(ConfigError, match="^base_speed must be > 0, got 0.0$"):
        SynthProfile(base_speed=0.0)
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
    with pytest.raises(ConfigError, match="^pressure_shift must be an integer, got True$"):
        Perturbation(pressure_shift=True)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
        ({"seed": "1"}, "seed must be an integer, got '1'"),
        ({"n_subjects": 2.0}, "n_subjects must be an integer, got 2.0"),
        ({"stroke_count": True}, "stroke_count must be an integer, got True"),
        ({"air_gap_len": "24"}, "air_gap_len must be an integer, got '24'"),
        ({"base_pressure_level": 1100.0}, "base_pressure_level must be an integer, got 1100.0"),
        (
            {"perturbations": {"S9": Perturbation(speed_scale=0.5)}},
            f"perturbations map a SetId to a Perturbation, got 'S9': {Perturbation(speed_scale=0.5)!r}",
        ),
        (
            {"perturbations": {"S1": Perturbation(speed_scale=0.5)}},
            f"perturbations map a SetId to a Perturbation, got 'S1': {Perturbation(speed_scale=0.5)!r}",
        ),
        (
            {"perturbations": {SetId.S2: {"speed_scale": 0.5}}},
            f"perturbations map a SetId to a Perturbation, got {SetId.S2!r}: {{'speed_scale': 0.5}}",
        ),
    ],
    ids=[
        "bool-seed", "float-seed", "str-seed", "float-n_subjects", "bool-stroke_count",
        "str-air_gap_len", "float-pressure-level", "unknown-set", "str-set", "dict-perturbation",
    ],
)
def test_profile_refuses_a_seed_or_perturbation_it_would_not_apply_as_given(fields, message):
    with pytest.raises(ConfigError) as exc:
        SynthProfile(**fields)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "cls, fields, message",
    [
        (SynthProfile, {"base_speed": True}, "base_speed must be a number, got True"),
        (SynthProfile, {"base_speed": "14"}, "base_speed must be a number, got '14'"),
        (SynthProfile, {"base_speed": None}, "base_speed must be a number, got None"),
        (Perturbation, {"speed_scale": True}, "speed_scale must be a number, got True"),
        (Perturbation, {"air_inflation": np.True_}, f"air_inflation must be a number, got {np.True_!r}"),
        (Perturbation, {"jitter_sd": "1"}, "jitter_sd must be a number, got '1'"),
        (Perturbation, {"jitter_sd": 1j}, "jitter_sd must be a number, got 1j"),
    ],
    ids=[
        "bool-base_speed", "str-base_speed", "none-base_speed", "bool-speed_scale",
        "numpy-bool-air_inflation", "str-jitter_sd", "complex-jitter_sd",
    ],
)
def test_float_fields_refuse_bools_and_non_numbers(cls, fields, message):
    with pytest.raises(ConfigError) as exc:
        cls(**fields)
    assert str(exc.value) == message


def test_float_fields_accept_ints_and_numpy_floats():
    profile = SynthProfile(
        n_subjects=1, base_speed=14, perturbations={SetId.S2: Perturbation(
            speed_scale=np.float32(0.5), air_inflation=2, jitter_sd=np.float64(1.5)
        )},
    )
    assert len(generate_corpus(profile, sets=(SetId.S2,))) == 9


def test_a_set_past_int32_stores_each_record_by_its_own_values():
    # At this speed task 2 leaves int32 and the other tasks stay inside it.
    profile = SynthProfile(seed=3, n_subjects=1, base_speed=1e7)
    dtypes = []
    for task in TASK_IDS:
        record = generate_task(profile, "U01", SetId.S1, task)
        values = record.signal.x.tolist() + record.signal.y.tolist()
        fits = all(-(2**31) <= v < 2**31 for v in values)
        assert record.signal.x.dtype == record.signal.y.dtype == (np.int32 if fits else np.int64)
        assert record == reference_generate_task(profile, "U01", SetId.S1, task)
        dtypes.append(record.signal.x.dtype)
    assert set(dtypes) == {np.dtype(np.int32), np.dtype(np.int64)}


def test_int_fields_accept_numpy_integers():
    profile = SynthProfile(
        seed=np.int64(3), n_subjects=np.int32(1), stroke_count=np.int16(2),
        perturbations={SetId.S2: Perturbation(pressure_shift=np.int64(-40))},
    )
    assert len(generate_corpus(profile, sets=(SetId.S2,))) == 9


def test_profile_perturbations_are_a_read_only_copy():
    given = {SetId.S2: Perturbation(jitter_sd=1.5)}
    profile = SynthProfile(seed=12, perturbations=given)
    given[SetId.S3] = Perturbation(speed_scale=0.5)
    with pytest.raises(TypeError):
        profile.perturbations[SetId.S1] = Perturbation(speed_scale=0.5)
    assert dict(profile.perturbations) == {SetId.S2: Perturbation(jitter_sd=1.5)}


def test_equal_profiles_hash_equal_and_share_records():
    def make():
        perturbations = {SetId.S2: Perturbation(jitter_sd=1.5)}
        return SynthProfile(seed=np.int64(12), n_subjects=2, perturbations=perturbations)

    a, b = make(), make()
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != dataclasses.replace(b, perturbations={})
    for profile, task in ((a, 1), (b, 2), (a, 3), (b, 1)):
        record = generate_task(profile, "U02", SetId.S2, task)
        assert record == reference_generate_task(profile, "U02", SetId.S2, task)


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


perturbations = st.builds(
    Perturbation,
    speed_scale=st.floats(0.1, 3.0),
    pressure_shift=st.integers(-3000, 3000),
    air_inflation=st.floats(0.01, 3.0),
    jitter_sd=st.just(0.0) | st.floats(0.01, 5.0),
)


@st.composite
def corpus_profiles(draw):
    """A profile of 1-3 subjects, a random subset of the sets in random
    order, and a different perturbation drawn for each set."""
    sets = draw(st.lists(st.sampled_from(ALL_SETS), min_size=1, max_size=5, unique=True))
    profile = SynthProfile(
        seed=draw(st.integers(0, 2**32)),
        n_subjects=draw(st.integers(1, 3)),
        stroke_count=draw(st.integers(1, 12)),
        air_gap_len=draw(st.integers(1, 60)),
        perturbations={set_id: draw(perturbations) for set_id in sets},
    )
    return profile, tuple(sets)


@given(corpus_profiles(), st.data())
@settings(max_examples=100, deadline=None)
def test_corpus_matches_per_record_reference(profile_sets, data):
    profile, sets = profile_sets
    corpus = generate_corpus(profile, sets)
    keys = [(s, set_id, t) for s in profile.subject_ids() for set_id in sets for t in TASK_IDS]
    assert len(corpus) == len(keys)
    for key in keys:
        assert corpus.get(*key) == reference_generate_task(profile, *key)
    key = data.draw(st.sampled_from(keys))
    assert generate_task(profile, *key) == corpus.get(*key)


def test_generate_task_rejects_bad_task():
    with pytest.raises(RangeError) as exc:
        generate_task(SynthProfile(), "U01", SetId.S1, 0)
    assert str(exc.value) == "task id must be in 1..9, got 0"


def test_a_set_id_that_is_not_a_set_id_is_a_range_error_before_any_draw(monkeypatch):
    profile = SynthProfile(seed=9, n_subjects=1)
    generate_task(profile, "U01", SetId.S1, 1)  # the SetId.S1 tasks of U01 are now cached
    monkeypatch.setattr(synth, "_stream", lambda *key: pytest.fail(f"drew {key}"))
    for call, bad in (
        (lambda: generate_task(profile, "U01", "S1", 2), "S1"),
        (lambda: generate_task(profile, "U02", "S1", 2), "S1"),
        (lambda: generate_corpus(profile, sets=("S1",)), "S1"),
        (lambda: generate_corpus(profile, sets=(SetId.S1, "S2")), "S2"),
        # The call raises, before any record is asked for.
        (lambda: generate_records(profile, sets=(SetId.S1, "S2")), "S2"),
    ):
        with pytest.raises(RangeError) as exc:
            call()
        assert str(exc.value) == f"set id must be a SetId, got {bad!r}"
    # Still cached, so this draws nothing.
    assert generate_task(profile, "U01", SetId.S1, 2) == reference_generate_task(profile, "U01", SetId.S1, 2)


def test_generate_corpus_builds_every_record_through_generate_task(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return generate_task(*args)

    monkeypatch.setattr(synth, "generate_task", counted)
    sets = (SetId.S3, SetId.S1)
    corpus = generate_corpus(SynthProfile(seed=44, n_subjects=2), sets)
    assert len(corpus) == len(calls) == 2 * 2 * 9
    assert calls == [(s, set_id, t) for s in ("U01", "U02") for set_id in sets for t in TASK_IDS]


def test_generate_records_yields_the_corpus_records_in_its_order():
    profile = SynthProfile(seed=46, n_subjects=2)
    records = generate_records(profile)
    assert iter(records) is records  # a stream, not a list
    assert list(records) == list(generate_corpus(profile))


def test_generate_corpus_checks_every_set_id_before_any_draw(monkeypatch):
    # A seed no other test uses, so no record or trait of it is cached.
    profile = SynthProfile(seed=4_000_019, n_subjects=2)
    monkeypatch.setattr(synth, "_stream", lambda *key: pytest.fail(f"drew {key}"))
    with pytest.raises(RangeError) as exc:
        generate_corpus(profile, sets=(SetId.S1, "S2"))
    assert str(exc.value) == "set id must be a SetId, got 'S2'"


@pytest.mark.parametrize("task", [True, 3.0])
def test_generate_task_rejects_a_task_that_is_not_an_integer(task):
    profile = SynthProfile(seed=5)
    # Built first, so the task's records are held when the bad one is asked for.
    generate_task(profile, "U01", SetId.S1, 2)
    with pytest.raises(RangeError, match=f"task id must be an integer, got {task!r}"):
        generate_task(profile, "U01", SetId.S1, task)


def test_repeated_key_gives_a_new_record_with_its_own_metadata():
    profile = SynthProfile(seed=6)
    first = [generate_task(profile, "U02", SetId.S3, task) for task in (4, 4, 5)]
    again = generate_task(profile, "U02", SetId.S3, 5)
    for a, b in (first[:2], (first[2], again)):
        assert a == b and a is not b
        assert a.metadata is not b.metadata
        with pytest.raises(TypeError):
            a.metadata["note"] = "edited"
        assert "note" not in a.metadata and "note" not in b.metadata


def test_int64_overflow_in_another_task_of_the_set_does_not_fail_this_one():
    # At this speed tasks 1 and 5 of U01 in S1 stay inside int64; the other
    # seven leave it.
    profile = SynthProfile(seed=1, n_subjects=1, base_speed=1e17)
    for task in TASK_IDS:
        if task in (1, 5):
            record = generate_task(profile, "U01", SetId.S1, task)
            assert record == reference_generate_task(profile, "U01", SetId.S1, task)
        else:
            with pytest.raises(ConfigError, match="int64"):
                generate_task(profile, "U01", SetId.S1, task)


def test_a_set_past_int64_is_built_in_one_pass(monkeypatch):
    # Tasks 1 and 5 of this set stay inside int64 and the other seven leave
    # it; the nine calls still draw each record's stream once.
    profile = SynthProfile(seed=1, n_subjects=1, base_speed=1e17)
    generate_task(SynthProfile(seed=1, n_subjects=1), "U01", SetId.S2, 1)  # holds another set
    drawn = []

    def counted(seed, *key):
        drawn.append(key)
        return stream(seed, *key)

    stream = synth._stream
    monkeypatch.setattr(synth, "_stream", counted)
    messages = []
    for task in TASK_IDS:
        try:
            generate_task(profile, "U01", SetId.S1, task)
        except ConfigError as exc:
            messages.append(str(exc))
    assert [key for key in drawn if key[0] == "record"] == [
        ("record", "U01", "S1", task) for task in TASK_IDS
    ]
    assert messages == [
        f"subject U01 set S1 task {task}: synthetic x or y leaves the int64 range; "
        "base_speed, speed_scale or jitter_sd is too large"
        for task in (2, 3, 4, 6, 7, 8, 9)
    ]


def test_threads_sharing_held_tasks_each_get_correct_records_once():
    profile = SynthProfile(seed=8, n_subjects=2)
    keys = [(s, set_id, t) for s in ("U01", "U02") for set_id in (SetId.S1, SetId.S2) for t in TASK_IDS]
    want = {key: reference_generate_task(profile, *key) for key in keys}
    got, errors = [], []
    start = threading.Barrier(4)

    def work(order):
        start.wait(timeout=60)
        try:
            for key in order * 5:
                got.append((key, generate_task(profile, *key)))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(order,)) for order in (keys, keys, keys[::-1], keys[::-1])]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(got) == 4 * 5 * len(keys)
    assert all(record == want[key] for key, record in got)
    assert len({id(record) for _, record in got}) == len(got)


@st.composite
def call_sequences(draw):
    """Calls of ``generate_task`` on two profiles: runs of shuffled tasks of
    one (profile, subject, set), with repeated tasks, ``np.int64`` tasks,
    calls for other keys and perturbation changes in between."""
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        key = (
            draw(st.integers(0, 1)),
            draw(st.sampled_from(["U01", "U02"])),
            draw(st.sampled_from([SetId.S1, SetId.S4])),
        )
        tasks = draw(st.permutations(TASK_IDS))[: draw(st.integers(1, 9))]
        tasks += draw(st.lists(st.sampled_from(tasks), max_size=2))
        for task in draw(st.permutations(tasks)):
            between = draw(st.sampled_from([None, None, None, None, "edit", "other"]))
            if between == "edit":
                steps.append(("edit", key[0], key[2], draw(perturbations)))
            elif between == "other":
                other = (draw(st.integers(0, 1)), "U03", SetId.S2, draw(st.sampled_from(TASK_IDS)))
                steps.append(("call", *other))
            if draw(st.booleans()):
                task = np.int64(task)
            steps.append(("call", *key, task))
    return steps


@given(st.integers(0, 2**32), st.integers(0, 2**32), call_sequences())
@settings(max_examples=30, deadline=None)
def test_any_call_sequence_matches_the_per_record_reference(seed_a, seed_b, steps):
    profiles = [
        SynthProfile(seed=seed_a, n_subjects=3, perturbations={SetId.S4: Perturbation(speed_scale=0.7)}),
        SynthProfile(seed=seed_b, n_subjects=3),
    ]
    handed_out = []
    for kind, which, *rest in steps:
        profile = profiles[which]
        if kind == "edit":
            set_id, perturbation = rest
            profiles[which] = dataclasses.replace(
                profile, perturbations={**profile.perturbations, set_id: perturbation}
            )
            continue
        record = generate_task(profile, *rest)
        assert record == reference_generate_task(profile, *rest)
        handed_out.append(record)
    assert len({id(record) for record in handed_out}) == len(handed_out)


@pytest.mark.parametrize(
    "profile",
    [
        SynthProfile(seed=1, n_subjects=1, base_speed=1e19),
        SynthProfile(seed=1, n_subjects=1, base_speed=1e300),
        SynthProfile(seed=1, n_subjects=1, perturbations={SetId.S1: Perturbation(jitter_sd=1e300)}),
    ],
    ids=["speed-1e19", "speed-1e300", "jitter-1e300"],
)
def test_pen_moved_past_int64_is_a_config_error(profile):
    # Casting such coordinates to int64 would write garbage, not fail.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="int64"):
            generate_task(profile, "U01", SetId.S1, 1)
        with pytest.raises(ConfigError, match="int64"):
            generate_corpus(profile)


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
    "text, message",
    [
        ("seed = 1\nset.S9.speed_scale = 1.0\n", "line 2: set must be one of S1..S5, got 'S9'"),
        ("set.X.jitter_sd = 1\n", "line 1: set must be one of S1..S5, got 'X'"),
        ("set.S1.wrong = 1.0\n", "line 1: unknown per-set key 'set.S1.wrong'"),
        ("seed = 1\n\nseed = 2\n", "line 3: seed is already set on line 1"),
        ("seed = 1\nseed = 1\n", "line 2: seed is already set on line 1"),
        (
            "set.S4.speed_scale = 0.7\n# again\nset.S4.speed_scale = 0.5\n",
            "line 3: set.S4.speed_scale is already set on line 1",
        ),
    ],
    ids=["set", "not-a-set", "per-set-key", "seed-twice", "same-value-twice", "per-set-twice"],
)
def test_parse_profile_names_a_bad_set_or_repeated_key_at_its_line(text, message):
    with pytest.raises(ConfigError) as info:
        parse_profile(text)
    assert str(info.value) == message


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


def test_load_profile_error_names_the_file_and_keeps_its_line(tmp_path):
    path = tmp_path / "profile.cfg"
    path.write_text("seed = 1\nbogus = 2\n")
    with pytest.raises(ConfigError) as err:
        load_profile(path)
    assert str(err.value) == f"{path}: line 2: unknown key 'bogus'"
    assert err.value.line == 2


def test_load_profile_names_the_file_as_its_caller_spelled_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("p.cfg").write_text("seed = 1\nbogus = 2\n")
    with pytest.raises(ConfigError, match=r"^\./p\.cfg: line 2: "):
        load_profile("./p.cfg")
    Path("p.cfg").write_bytes(b"seed = 1\n\xff\n")
    with pytest.raises(FormatError, match=r"^\./p\.cfg: not UTF-8 text: "):
        load_profile("./p.cfg")


def test_subject_ids_are_stable():
    assert SynthProfile(n_subjects=3).subject_ids() == ["U01", "U02", "U03"]
