import copy
import dataclasses
import hashlib
import itertools
import os
import pickle
import shutil
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from inkfatigue.errors import (
    ConfigError,
    DuplicateError,
    FormatError,
    InkError,
    RangeError,
    ShapeError,
    TooShortError,
)
from inkfatigue.model import (
    ALL_SETS,
    ALTITUDE_MAX,
    AUX_FIELDS,
    AZIMUTH_MAX,
    PRESSURE_MAX,
    AuxRecord,
    InkSignal,
    SetId,
    StudyCorpus,
    TASK_IDS,
    TaskRecord,
    check_subject_id,
    load_corpus,
    parse_set_id,
    parse_task_file,
    parse_task_id,
    read_files,
    read_records,
    record_path,
    serialize_task,
    write_corpus,
)
from inkfatigue import cli, model
from inkfatigue.model import _check_body, _parse_lines
from inkfatigue import synth
from inkfatigue.synth import Perturbation, SynthProfile, generate_corpus, generate_task

from conftest import call_beside_fifos, lax_numbers, needs_fifo, random_record, sets_corpus
from oracles import SAMPLE_BODY_RE, ReferenceInkSignal, reference_serialize_task

DATA = Path(__file__).parent / "data"

MINIMAL = "#subject=U1\n#set=S1\n#task=3\n10 20 500 200 60\n11 21 0 200 60\n"


# --- samples and signals ---------------------------------------------------


def signal_with(pressure=0, azimuth=0, altitude=0):
    """A 2-sample signal whose second sample holds the given channel values."""
    return InkSignal(
        x=np.zeros(2, dtype=int),
        y=np.zeros(2, dtype=int),
        pressure=np.array([0, pressure]),
        azimuth=np.array([0, azimuth]),
        altitude=np.array([0, altitude]),
    )


def test_sample_validates_pressure_range():
    signal_with(0, 0, 0)
    signal_with(2047, 359, 90)
    with pytest.raises(RangeError):
        signal_with(pressure=3000)
    with pytest.raises(RangeError):
        signal_with(pressure=-1)


@pytest.mark.parametrize(
    "azimuth,altitude", [(360, 0), (-1, 0), (0, 91), (0, -2)]
)
def test_sample_validates_angles(azimuth, altitude):
    with pytest.raises(RangeError):
        signal_with(azimuth=azimuth, altitude=altitude)


def test_signal_rejects_mismatched_channels():
    with pytest.raises(ShapeError):
        InkSignal(
            x=np.arange(3),
            y=np.arange(4),
            pressure=np.zeros(3, dtype=int),
            azimuth=np.zeros(3, dtype=int),
            altitude=np.zeros(3, dtype=int),
        )


def test_signal_rejects_single_sample():
    with pytest.raises(TooShortError):
        InkSignal(
            x=np.array([1]),
            y=np.array([2]),
            pressure=np.array([0]),
            azimuth=np.array([0]),
            altitude=np.array([0]),
        )


def test_signal_rejects_out_of_range_channel():
    with pytest.raises(RangeError, match="pressure"):
        InkSignal(
            x=np.arange(3),
            y=np.arange(3),
            pressure=np.array([0, 4000, 0]),
            azimuth=np.zeros(3, dtype=int),
            altitude=np.zeros(3, dtype=int),
        )


_INPUT_DTYPES = (np.int64, np.uint8, np.uint64, np.bool_, np.float64, object)
# Values past the low or the high bound of [lo, hi]. All but lo - 1 and
# hi + 1 are wrapped by an int16 cast: to 0, to hi or to hi + 1.
_PAST_BOUND = {
    "low": lambda lo, hi: [lo - 1, lo - 2**16, -(2**31), -(2**53)],
    "high": lambda lo, hi: [hi + 1, hi + 1 + 2**16, hi + 2**16, 2**31, 2**53, 65536.0],
}
_DEFECTS = (None, None, "low", "high", "fraction", "2-D", "length")


@st.composite
def channel_inputs(draw):
    """Five channels of n samples, each int64, uint8, uint64, bool, float or
    object (Python ints), with at most one defect in one channel: values past
    a bound or fractional values at up to three random samples, a 2-D shape
    or another length. A value past a bound is either just past it or one
    that an int16 cast wraps into or near the range (``_PAST_BOUND``), so a
    channel narrowed before its bounds check would pass. n < 2 gives a
    too-short signal. uint8 and bool keep only the low bits; uint64 wraps a
    negative value past int64."""
    n = draw(st.integers(0, 8))
    columns = [
        draw(arrays(np.int64, n, elements=st.integers(max(lo, -(2**53)), min(hi, 2**53))))
        for lo, hi in _CHANNEL_RANGES
    ]
    defect = draw(st.sampled_from(_DEFECTS))
    k = draw(st.sampled_from(range(2 if defect in ("low", "high") else 0, 5)))
    if n and defect in ("low", "high", "fraction"):
        at = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        lo, hi = _CHANNEL_RANGES[k]
        if defect == "fraction":
            columns[k] = columns[k] + 0.5 * np.isin(np.arange(n), at)
        else:
            value = draw(st.sampled_from(_PAST_BOUND[defect](lo, hi)))
            if isinstance(value, float):
                columns[k] = columns[k].astype(np.float64)
            columns[k][at] = value
    elif defect == "length":
        columns[k] = columns[k][: draw(st.integers(0, n))] if n else np.arange(1)
    for j, column in enumerate(columns):
        if column.dtype == np.int64:
            dtype = draw(st.sampled_from(_INPUT_DTYPES))
            columns[j] = (column & (1 if dtype is np.bool_ else 0xFF)).astype(dtype) if dtype in (
                np.uint8, np.bool_
            ) else column.astype(dtype)
    if defect == "2-D":
        columns[k] = columns[k].reshape(draw(st.sampled_from([(1, n), (n, 1)])))
    return columns


def _construct(cls, channels):
    """The converted channels, or the type and message of the error."""
    try:
        signal = cls(*(c.copy() for c in channels))
    except InkError as exc:
        return type(exc), str(exc)
    arrays_ = [getattr(signal, name) for name in model._CHANNELS]
    return [(a.dtype, a.flags.writeable, a.tolist()) for a in arrays_]


@given(channel_inputs())
@settings(max_examples=400, deadline=None)
def test_signal_checks_match_the_reference(channels):
    assert _construct(InkSignal, channels) == _construct(ReferenceInkSignal, channels)


@pytest.mark.parametrize(
    "channel, value, shown",
    [
        ("x", np.array([2**63, 0], dtype=np.uint64), "9223372036854775808"),
        ("x", np.array([2.0**63, 0.0]), "9.223372036854776e+18"),
        ("x", np.array([1e20, 0.0]), "1e+20"),
        ("x", np.array([np.inf, 0.0]), "inf"),
        ("pressure", np.array([np.inf, 0.0]), "inf"),
        ("pressure", np.array([-np.inf, 0.0]), "-inf"),
        ("x", [2**70, 0], "1180591620717411303424"),
        # Checked value by value before any min/max pair, which would skip a
        # leading nan of an object array and, under numpy's float flags, warn.
        ("altitude", np.array([float("nan"), 0], dtype=object), "nan"),
    ],
)
def test_signal_names_a_value_its_channel_cannot_hold_as_given(channel, value, shown):
    channels = dict.fromkeys(model._CHANNELS, np.array([0, 1])) | {channel: value}
    lo, hi = model._CHANNEL_BOUNDS.get(channel, model._INT64_BOUNDS)
    with pytest.raises(RangeError) as err:
        InkSignal(**channels)
    assert str(err.value) == f"{channel} value {shown} at sample 0 outside [{lo}, {hi}]"


def _as_object_array(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


@pytest.mark.parametrize(
    "value",
    [np.array(["0", "1"]), _as_object_array([None, 0]), np.array([0j, 1j])],
    ids=["str", "None", "complex"],
)
@pytest.mark.parametrize("channel", ["x", "pressure"])
@pytest.mark.parametrize("cls", [InkSignal, ReferenceInkSignal])
def test_signal_rejects_a_channel_of_non_numbers(cls, channel, value):
    channels = dict.fromkeys(model._CHANNELS, np.array([0, 1])) | {channel: value}
    with pytest.raises(RangeError, match=f"^channel {channel} holds non-number values$"):
        cls(**channels)


_SMALL = st.integers(-2, 400)
_CHANNEL_KINDS = {
    "int64": (st.one_of(_SMALL, st.integers(-(2**63), 2**63 - 1)), np.int64),
    "uint64": (st.one_of(st.integers(0, 400), st.integers(0, 2**64 - 1)), np.uint64),
    "float": (st.one_of(_SMALL.map(float), st.floats()), np.float64),
    "bool": (st.booleans(), np.bool_),
    "object": (st.one_of(_SMALL, st.integers(-(2**70), 2**70), st.floats()), object),
}


@st.composite
def any_channels(draw):
    """Five channels of n samples, each int64, uint64, float, bool or object
    (Python ints and floats), with values in and far past every bound."""
    n = draw(st.integers(0, 6))
    channels = []
    for _ in model._CHANNELS:
        elements, dtype = _CHANNEL_KINDS[draw(st.sampled_from(sorted(_CHANNEL_KINDS)))]
        values = draw(st.lists(elements, min_size=n, max_size=n))
        channels.append(_as_object_array(values) if dtype is object else np.array(values, dtype))
    return channels


def _one_value(value, dtype):
    return _as_object_array([value] * 3) if dtype is object else np.array([value] * 3, dtype)


@given(any_channels())
@settings(max_examples=400, deadline=None)
# Any number dtype: a one-value bounded channel views the shared table, and x
# and y are int32 or int64 by the extremes of both.
@example([np.array([-(2.0**31), 0.0, 3.0]), _as_object_array([1, 2**31 - 1, 0]),
          _one_value(7.0, np.float64), _one_value(359, object), _one_value(True, np.bool_)])
@example([_as_object_array([5, -(2**31), 0]), np.array([1, 2**31, 2**62], np.uint64),
          _one_value(2047, np.uint16), _one_value(90, np.int8), _one_value(0, np.uint64)])
@example([np.array([0, 1, 2], np.uint64), np.array([3.0, -(2.0**31) - 1, 2.0**62]),
          _one_value(0, np.int32), _one_value(1, np.uint32), _one_value(2, np.uint8)])
def test_signal_stores_exactly_the_integers_given_or_raises(channels):
    try:
        signal = InkSignal(*(c.copy() for c in channels))
    except InkError:
        return
    wide = not all(-(2**31) <= v < 2**31 for c in channels[:2] for v in c.tolist())
    for name, given_ in zip(model._CHANNELS, channels):
        stored = getattr(signal, name)
        assert stored.dtype == (model.WIDE_CHANNEL_DTYPES if wide else model.CHANNEL_DTYPES)[name]
        assert not stored.flags.writeable
        one_value = name in model._CHANNEL_BOUNDS and len(set(given_.tolist())) == 1
        assert _views_the_value_table(stored) == one_value
        assert all(type(v) is int for v in stored.tolist())
        assert stored.tolist() == given_.tolist()  # Python compares int, float and bool exactly


@pytest.mark.parametrize("name", list(model._CHANNEL_BOUNDS))
def test_bounded_channel_dtype_holds_its_range_and_second_differences(name):
    # Features take first and second differences of the stored dtype without
    # widening, so it must hold +-2 * (hi - lo) as well as [lo, hi].
    lo, hi = model._CHANNEL_BOUNDS[name]
    info = np.iinfo(model.CHANNEL_DTYPES[name])
    assert info.min <= lo and hi <= info.max
    assert info.min <= -2 * (hi - lo) and 2 * (hi - lo) <= info.max


def _bytes_per_sample(signal):
    return sum(getattr(signal, name).nbytes for name in model._CHANNELS) / len(signal)


def test_signals_store_14_bytes_per_sample_when_x_and_y_fit_int32_else_22():
    # x and y int32, pressure, azimuth and altitude int16: 4 + 4 + 2 + 2 + 2.
    # nbytes is the logical size: a one-value channel, stored once as a
    # zero-stride view, still counts 2 bytes a sample here.
    synthesized = sets_corpus(SynthProfile(n_subjects=1), (SetId.S1,))
    parsed = parse_task_file(serialize_task(next(iter(synthesized))))
    bounded = [[0, 2047, 9], [0, 359, 1], [0, 90, 2]]
    from_lists = InkSignal([-(2**31), 1, 2], [3, 4, 2**31 - 1], *bounded)
    signals = [r.signal for r in synthesized] + [parsed.signal, from_lists]
    assert [_bytes_per_sample(s) for s in signals] == [14.0] * len(signals)
    # One x or y past int32 stores both as int64: 8 + 8 + 2 + 2 + 2.
    for x, y in [([0, 2**31, 2], [3, 4, 5]), ([0, 1, 2], [3, -(2**31) - 1, 5])]:
        signal = InkSignal(x, y, *bounded)
        parsed = parse_task_file(serialize_task(TaskRecord("U1", SetId.S1, 1, signal))).signal
        for s in (signal, parsed):
            assert (s.x.dtype, s.y.dtype) == (np.int64, np.int64)
            assert _bytes_per_sample(s) == 22.0
        assert parsed == signal


def test_synthesized_and_parsed_signals_hold_about_10_bytes_per_sample():
    # Synth draws one azimuth and one altitude per subject, so each record
    # stores those channels once: x and y int32 and pressure int16 remain.
    # Counted are the array bytes numpy gives tracemalloc; dense storage of
    # every channel holds 14.
    generate_corpus(SynthProfile(seed=3, n_subjects=1))  # first-call caches stay out
    arrays_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(arrays_only)
        records = list(generate_corpus(SynthProfile(seed=4, n_subjects=1)))
        records += [parse_task_file(serialize_task(r)) for r in records]
        after = tracemalloc.take_snapshot().filter_traces(arrays_only)
    finally:
        tracemalloc.stop()
    held = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert len(records) == 90
    assert held <= 11 * sum(len(r.signal) for r in records)


@st.composite
def constant_or_varying_channels(draw):
    """Five channels of n >= 2 samples as a list, int16 or int64 array; each
    bounded channel holds one value or many, with 0 and its upper bound
    drawn often."""
    n = draw(st.integers(2, 6))
    channels = {}
    for name in model._CHANNELS:
        lo, hi = model._CHANNEL_BOUNDS.get(name, (-1000, 1000))
        value = st.sampled_from([lo, hi]) | st.integers(lo, hi)
        if name in model._CHANNEL_BOUNDS and draw(st.booleans()):
            values = [draw(value)] * n
        else:
            values = draw(st.lists(value, min_size=n, max_size=n))
        kind = draw(st.sampled_from([list, np.int16, np.int64]))
        channels[name] = values if kind is list else np.array(values, kind)
    return channels


@given(constant_or_varying_channels())
@settings(max_examples=300, deadline=None)
def test_constant_and_varying_channels_store_the_same_values_apart_from_the_caller(channels):
    given_ = {name: list(values) for name, values in channels.items()}
    signal = InkSignal(**channels)
    for name, values in given_.items():
        stored = getattr(signal, name)
        assert stored.dtype == model.CHANNEL_DTYPES[name]
        assert stored.tolist() == values
        with pytest.raises(ValueError):
            stored[-1] = 0
    for values in channels.values():
        values[0] += 1
    assert all(getattr(signal, name).tolist() == values for name, values in given_.items())
    record = TaskRecord("U01", SetId.S1, 1, signal)
    assert parse_task_file(serialize_task(record)) == record


def test_signal_is_immutable(rng):
    sig = random_record(rng).signal
    with pytest.raises(ValueError):
        sig.x[0] = 99


def _views_the_value_table(channel):
    return channel.strides == (0,) and np.shares_memory(
        channel, np.frombuffer(model._VALUE_TABLE, channel.dtype)
    )


def test_one_value_channels_view_one_shared_table_that_nothing_can_write():
    first, second = (InkSignal([1, 2, 3], [4, 5, 6], [0, 9, 0], [7, 7, 7], [90] * 3)
                     for _ in range(2))
    for channel in (first.azimuth, first.altitude):
        with pytest.raises(ValueError):
            channel[0] = 1
        with pytest.raises(ValueError):
            channel.setflags(write=True)
        with pytest.raises(TypeError):
            channel.base[0] = 1
    assert first.altitude.tolist() == [90] * 3 and first.azimuth.tolist() == [7] * 3
    assert np.shares_memory(first.azimuth, second.azimuth)
    assert _views_the_value_table(first.azimuth) and _views_the_value_table(first.altitude)
    assert not _views_the_value_table(first.pressure)


def test_signals_and_records_carry_no_instance_dict():
    record = TaskRecord("U01", SetId.S1, 1, InkSignal([1, 2], [3, 4], [0, 5], [7, 7], [9, 9]))
    assert not hasattr(record, "__dict__") and not hasattr(record.signal, "__dict__")


@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copies_rebuild_records_through_their_checks(round_trip):
    # Azimuth and altitude hold one value; x, y and pressure vary.
    signal = InkSignal([1, 2, 3], [4, 5, 6], [0, 9, 0], [7, 7, 7], [90] * 3)
    record = TaskRecord("U01", SetId.S2, 4, signal, {"device": "pen"})
    with mock.patch.object(InkSignal, "__post_init__", autospec=True,
                           side_effect=InkSignal.__post_init__) as signal_checks, \
         mock.patch.object(TaskRecord, "__post_init__", autospec=True,
                           side_effect=TaskRecord.__post_init__) as record_checks:
        copies = round_trip(record), round_trip(signal)
    assert record_checks.call_count == 1
    assert signal_checks.call_count == (1 if round_trip is copy.copy else 2)
    restored, restored_signal = copies
    assert restored == record and restored_signal == signal
    assert restored.metadata == {"device": "pen"}
    with pytest.raises(TypeError):
        restored.metadata["device"] = "a\nb"
    for s in (restored.signal, restored_signal):
        assert not any(getattr(s, n).flags.writeable for n in model._CHANNELS)
        assert _views_the_value_table(s.azimuth) and _views_the_value_table(s.altitude)
        assert s.pressure.tolist() == [0, 9, 0]


def test_a_synthesized_record_holds_at_most_1200_bytes_of_small_objects():
    # Small objects are the blocks under 1 KiB that tracemalloc sees: the
    # record, its signal and metadata, the array headers and the data of
    # short arrays. A one-value channel owns no data and records keep no
    # instance dict, so one subject's 45 records hold about 1100 bytes each;
    # a private one-element copy per one-value channel and a __dict__ per
    # record and signal held about 1480.
    generate_corpus(SynthProfile(seed=3, n_subjects=1))  # first-call caches stay out
    profile = SynthProfile(seed=4, n_subjects=1)

    def small_bytes():
        return sum(t.size for t in tracemalloc.take_snapshot().traces if t.size < 1024)

    tracemalloc.start()
    try:
        before = small_bytes()
        records = [generate_task(profile, "U01", s, t) for s in ALL_SETS for t in TASK_IDS]
        synth._generate_set.cache_clear()  # the cached set is not part of the records
        held = small_bytes() - before
    finally:
        tracemalloc.stop()
    assert len(records) == 45
    assert held <= 1200 * len(records), held / len(records)


def test_task_record_rejects_unsafe_subject_ids():
    sig = InkSignal(
        x=np.arange(2), y=np.arange(2), pressure=np.zeros(2, dtype=int),
        azimuth=np.zeros(2, dtype=int), altitude=np.zeros(2, dtype=int),
    )
    for bad in ("", "a b", "x/y", "u\n1", "u1\n", ".", ".."):
        with pytest.raises(FormatError):
            TaskRecord(bad, SetId.S1, 1, sig)


@pytest.mark.parametrize(
    "metadata",
    [
        {"note": "a\nb"},
        {"note": "a\x0cb"},
        {"note": "a\x85b"},
        {"note": "a\u2028b"},
        {"note": "a\x1cb"},
        {"note": " a "},
        {"note": "a\t"},
        {"subject": "U2"},
        {"set": "S2"},
        {"task": "2"},
        {"note\n": "a"},
    ],
)
def test_task_record_rejects_metadata_that_cannot_round_trip(metadata):
    with pytest.raises(FormatError):
        TaskRecord("U1", SetId.S1, 1, signal_with(), metadata)


def test_task_record_metadata_is_a_read_only_copy_so_it_stays_checked():
    given_ = {"device": "pen"}
    record = TaskRecord("U1", SetId.S1, 1, signal_with(), given_)
    with pytest.raises(TypeError):
        record.metadata["device"] = "a\nb"
    given_["device"] = "a\nb"
    assert record.metadata == {"device": "pen"}
    assert parse_task_file(serialize_task(record)) == record


def test_task_record_rejects_bad_task():
    sig = InkSignal(
        x=np.arange(2), y=np.arange(2), pressure=np.zeros(2, dtype=int),
        azimuth=np.zeros(2, dtype=int), altitude=np.zeros(2, dtype=int),
    )
    with pytest.raises(RangeError):
        TaskRecord("U1", SetId.S1, 10, sig)


@pytest.mark.parametrize(
    "key, error, message",
    [
        (
            (7, SetId.S1, 1),
            FormatError,
            "subject id 7 must be non-empty and use only letters, digits, '_', '.', '-'",
        ),
        (("U1", "S1", 1), RangeError, "set id must be a SetId, got 'S1'"),
        (("U1", None, 1), RangeError, "set id must be a SetId, got None"),
    ],
)
def test_task_record_checks_the_types_of_its_key(key, error, message):
    with pytest.raises(error) as info:
        TaskRecord(*key, signal_with())
    assert str(info.value) == message


@pytest.mark.parametrize(
    "metadata, message",
    [
        ({"note": 5}, "metadata value for 'note' must be a string, got 5"),
        ({"note": None}, "metadata value for 'note' must be a string, got None"),
        ({"note": b"a"}, "metadata value for 'note' must be a string, got b'a'"),
        ({5: "a"}, "metadata key 5 is not header-safe"),
    ],
)
def test_task_record_checks_the_types_of_its_metadata(metadata, message):
    with pytest.raises(FormatError) as info:
        TaskRecord("U1", SetId.S1, 1, signal_with(), metadata)
    assert str(info.value) == message


def test_task_record_stores_a_numpy_task_as_int():
    record = TaskRecord("U1", SetId.S1, np.int64(3), signal_with())
    assert type(record.task) is int and record.task == 3
    assert parse_task_file(serialize_task(record)) == record


@pytest.mark.parametrize(
    "field, value",
    [
        ("subject_id", "U2"),
        ("set_id", SetId.S2),
        ("task", 2),
        ("signal", signal_with(pressure=1)),
        ("metadata", {"device": "b"}),
    ],
)
def test_task_records_are_equal_exactly_when_every_field_is(field, value):
    record = TaskRecord("U1", SetId.S1, 1, signal_with(), {"device": "a"})
    assert record == TaskRecord("U1", SetId.S1, 1, signal_with(), {"device": "a"})
    assert record != dataclasses.replace(record, **{field: value})
    assert (record == record.key) is False
    with pytest.raises(TypeError):
        hash(record)


def test_set_order_and_labels():
    assert SetId.S1 < SetId.S2 < SetId.S3 < SetId.S4 < SetId.S5


# --- parsing ---------------------------------------------------------------


def test_parse_minimal_valid_file():
    record = parse_task_file(MINIMAL)
    assert record.subject_id == "U1"
    assert record.set_id is SetId.S1
    assert record.task == 3
    assert len(record.signal) == 2
    assert record.metadata == {}


def test_parse_preserves_unknown_headers():
    text = "#subject=U1\n#set=S2\n#task=4\n#device=wacom\n#note=warmup\n1 2 3 4 5\n1 2 3 4 5\n"
    record = parse_task_file(text)
    assert record.metadata == {"device": "wacom", "note": "warmup"}


def test_parse_out_of_range_pressure_names_channel_and_line():
    text = "#subject=U1\n#set=S1\n#task=3\n10 20 500 200 60\n10 20 3000 200 60\n"
    with pytest.raises(RangeError) as err:
        parse_task_file(text)
    assert "pressure" in str(err.value)
    assert "line 5" in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("#subject\n#set=S1\n#task=1\n1 2 3 4 5\n1 2 3 4 5\n", "key=value"),
        ("#subject=U1\n#set=S9\n#task=1\n1 2 3 4 5\n1 2 3 4 5\n", "S1..S5"),
        ("#subject=U1\n#set=S1\n#task=12\n1 2 3 4 5\n1 2 3 4 5\n", "1..9"),
        ("#set=S1\n#task=1\n1 2 3 4 5\n1 2 3 4 5\n", "subject"),
        ("#subject=U1\n#set=S1\n#task=1\n1 2 3 4\n1 2 3 4 5\n", "5 integers"),
        ("#subject=U1\n#set=S1\n#task=1\n1 2 x 4 5\n1 2 3 4 5\n", "non-integer"),
        ("#subject=U1\n#subject=U2\n#set=S1\n#task=1\n1 2 3 4 5\n1 2 3 4 5\n", "duplicate"),
        ("#subject=U1\n#set=S1\n#task=\u0663\n1 2 3 4 5\n", "line 3: task must be an integer"),
        ("#subject=U1\n#set=S1\n#task=0_3\n1 2 3 4 5\n", "line 3: task must be an integer"),
        ("#subject=U1\n#set=S1\n#task=+3\n1 2 3 4 5\n", "line 3: task must be an integer"),
        ("#subject=U1\n#bad key=1\n#set=S1\n#task=1\n1 2 3 4 5\n", "line 2: invalid header key"),
    ],
)
def test_parse_malformed_inputs_are_diagnosed(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_task_file(text)
    assert fragment in str(err.value)


_SUBJECT_RULE = "must be non-empty and use only letters, digits, '_', '.', '-'"


@pytest.mark.parametrize(
    "read, text, error, message",
    [
        (parse_set_id, "S9", RangeError, "set must be one of S1..S5, got 'S9'"),
        (parse_set_id, "s1", RangeError, "set must be one of S1..S5, got 's1'"),
        (parse_set_id, "", RangeError, "set must be one of S1..S5, got ''"),
        (parse_task_id, "10", RangeError, "task id must be in 1..9, got 10"),
        (parse_task_id, "0", RangeError, "task id must be in 1..9, got 0"),
        (parse_task_id, "+3", FormatError, "task must be an integer, got '+3'"),
        (parse_task_id, "\u0663", FormatError, "task must be an integer, got '\u0663'"),
        (parse_task_id, "", FormatError, "task must be an integer, got ''"),
        (check_subject_id, "U 01", FormatError, f"subject id 'U 01' {_SUBJECT_RULE}"),
        (check_subject_id, "", FormatError, f"subject id '' {_SUBJECT_RULE}"),
        (check_subject_id, "..", FormatError, "subject id '..' must not be only dots"),
    ],
)
def test_each_part_of_a_record_key_has_one_rule(read, text, error, message):
    with pytest.raises(error) as err:
        read(text)
    assert str(err.value) == message


def test_the_key_rules_return_the_key_parts():
    assert parse_set_id("S3") is SetId.S3
    assert parse_task_id("7") == 7 and type(parse_task_id("7")) is int
    assert check_subject_id("U_0.1-a") == "U_0.1-a"


@pytest.mark.parametrize(
    "headers, line, message",
    [
        ("#subject=U1\n#set=S9\n#task=1\n", 2, "set must be one of S1..S5, got 'S9'"),
        ("#subject=U1\n#task=10\n#set=S1\n", 2, "task id must be in 1..9, got 10"),
        ("#task=+3\n#subject=U1\n#set=S1\n", 1, "task must be an integer, got '+3'"),
        ("#subject=U 01\n#set=S1\n#task=1\n", 1, f"subject id 'U 01' {_SUBJECT_RULE}"),
        ("#device=a\n#set=S1\n#subject=\n#task=1\n", 3, f"subject id '' {_SUBJECT_RULE}"),
        # The first bad header comes before a header that is missing.
        ("#set=S9\n#task=1\n", 1, "set must be one of S1..S5, got 'S9'"),
        ("#subject=U1\n#set=S1\n#device=a\n", 3, "missing required header #task=..."),
    ],
    ids=["set", "task-10", "task-sign", "subject-space", "subject-empty", "set-then-missing",
         "missing"],
)
@pytest.mark.parametrize(
    "body",
    ["1 2 3 4 5\n1 2 3 4 5\n", "1 2 x 4 5\n1 2 3 4 5\n", "1 2 3 4 5\n1 2 3000 4 5\n",
     "1 2 3 4 5\n", "", "1 2 3 4 5\n#late=1\n"],
    ids=["valid", "bad-sample", "bad-pressure", "one-sample", "no-sample", "late-header"],
)
def test_a_key_error_names_its_own_header_line_before_any_sample_line(
    headers, line, message, body
):
    for parse in (parse_task_file, _parse_lines):
        with pytest.raises(FormatError) as err:
            parse(headers + body)
        assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


def test_parse_rejects_blank_line_and_late_headers():
    with pytest.raises(FormatError, match="blank"):
        parse_task_file("#subject=U1\n#set=S1\n#task=1\n\n1 2 3 4 5\n1 2 3 4 5\n")
    with pytest.raises(FormatError, match="after data"):
        parse_task_file("#subject=U1\n#set=S1\n#task=1\n1 2 3 4 5\n#late=1\n1 2 3 4 5\n")


def test_parse_too_few_samples():
    with pytest.raises(TooShortError):
        parse_task_file("#subject=U1\n#set=S1\n#task=3\n10 20 500 200 60\n")


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11", "2\u0663"])
def test_parse_accepts_only_ascii_integers(token):
    # int() takes these; the grammar is ASCII [+-]?[0-9]+ only.
    text = f"#subject=U1\n#set=S1\n#task=1\n1 2 3 4 5\n1 {token} 3 4 5\n"
    with pytest.raises(FormatError, match="non-integer") as err:
        parse_task_file(text)
    assert err.value.line == 5


def test_parse_accepts_signs_tabs_spaces_and_line_endings():
    text = (
        "#subject=U1\r\n #set=S1\r#task=3\x0b+10\t-20 500\xa0200 60 \u2028"
        "\t11 21\u3000+0 -0 60\x85"
    )
    assert parse_task_file(text) == parse_task_file(
        "#subject=U1\n#set=S1\n#task=3\n10 -20 500 200 60\n11 21 0 0 60\n"
    )


_BODY = "1 2 3 4 5\n6 7 8 9 10\n11 12 13 14 15\n"


@pytest.mark.parametrize(
    "body",
    [_BODY.replace(" 7", f"{c}7") for c in "\xa0\u3000\x1f"]
    + [_BODY.replace("5\n", f"5{c}", 1) for c in "\x1c\x85\u2028"],
    ids=["nbsp", "ideographic-space", "unit-separator", "file-separator", "nel", "u2028"],
)
def test_parse_reads_every_sample_past_spaces_c_does_not_know(body):
    head = "#subject=U1\n#set=S1\n#task=3\n"
    assert parse_task_file(head + body) == parse_task_file(head + _BODY)


@pytest.mark.parametrize(
    "sample,message",
    [
        ("99999999999999999999 2 3 4 5", "x value 99999999999999999999 outside"),
        ("1 -9223372036854775809 3 4 5", "y value -9223372036854775809 outside"),
    ],
)
def test_parse_value_beyond_int64_is_a_range_error(sample, message):
    text = f"#subject=U1\n#set=S1\n#task=3\n1 2 3 4 5\n{sample}\n"
    with pytest.raises(RangeError, match=message) as err:
        parse_task_file(text)
    assert err.value.line == 5


@pytest.mark.parametrize(
    "sample,message",
    [
        ("1 2 65536 4 5", r"pressure value 65536 outside \[0, 2047\]"),
        ("1 2 3 65895 5", r"azimuth value 65895 outside \[0, 359\]"),
        ("1 2 3 4 -65446", r"altitude value -65446 outside \[0, 90\]"),
    ],
)
@pytest.mark.parametrize("space", [" ", "\xa0"], ids=["byte-class", "line-loop"])
def test_parse_value_that_int16_wraps_into_range_is_a_range_error(sample, message, space):
    # As int16, these values are 0, 359 and 90: in range.
    body = f"1 2 3 4 5\n{sample.replace(' ', space)}\n"
    assert _check_body(body) == (space == " ")
    with pytest.raises(RangeError, match=message) as err:
        parse_task_file("#subject=U1\n#set=S1\n#task=3\n" + body)
    assert err.value.line == 5


def test_parse_error_line_numbers_count_headers():
    text = "#subject=U1\n#set=S1\n#task=3\n#device=d\n1 2 3 4 5\nbad line here x y\n"
    with pytest.raises(FormatError) as err:
        parse_task_file(text)
    assert err.value.line == 6


# --- serialization and round trips ----------------------------------------


def test_serialize_minimal_layout():
    record = parse_task_file(MINIMAL)
    text = serialize_task(record)
    assert text == MINIMAL


def test_round_trip_boundary_pressures():
    text = "#subject=U1\n#set=S5\n#task=9\n0 0 0 0 0\n1 1 2047 359 90\n"
    record = parse_task_file(text)
    assert parse_task_file(serialize_task(record)) == record


def test_serialize_then_parse_golden_file():
    # Frozen output of the serializer; guards the format against drift.
    golden = (DATA / "golden_task.ink").read_text(encoding="utf-8")
    record = parse_task_file(golden)
    assert serialize_task(record) == golden


def test_round_trip_randomized_records(rng):
    for _ in range(200):
        record = random_record(rng)
        assert parse_task_file(serialize_task(record)) == record


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(seed):
    record = random_record(np.random.default_rng(seed))
    assert parse_task_file(serialize_task(record)) == record


# sha256 of serialize_task over every record of each profile, fixed before
# the serializer was vectorized.
_S4_EFFECT = {SetId.S4: Perturbation(speed_scale=0.7, air_inflation=1.5)}
_SERIALIZED_DIGESTS = [
    (
        SynthProfile(seed=7, n_subjects=1),
        "2d805351ae27c0c045c656fee9ccdfd61fb798000434979222b6858d0508a538",
    ),
    (
        SynthProfile(seed=11, n_subjects=2, perturbations=_S4_EFFECT),
        "aa9a2f00cf203ad582d9e20e9c0fdb1cedf697d56930290ed19100329c17dd4c",
    ),
    (
        SynthProfile(
            seed=3,
            n_subjects=1,
            stroke_count=3,
            perturbations={SetId.S4: Perturbation(pressure_shift=-200, jitter_sd=1.5)},
        ),
        "919f55f69cc7dda8038f1c57f7482ae365c6bb3a338704b067839f30d443c712",
    ),
    (
        SynthProfile(seed=5, n_subjects=1, stroke_count=1, air_gap_len=1),
        "7a064eebc73a5204342d109b95f88f07532b9ff992a8bdeff6cf830acbca71f8",
    ),
    (
        SynthProfile(
            seed=13,
            n_subjects=1,
            perturbations={SetId.S3: Perturbation(air_inflation=0.01, pressure_shift=500)},
        ),
        "af7f6c620ff56c09658d53246ab1739ecae6df1ea413958c196894f2123ad372",
    ),
]


@pytest.mark.parametrize("profile,digest", _SERIALIZED_DIGESTS)
def test_serialized_corpus_bytes_are_pinned(profile, digest):
    h = hashlib.sha256()
    for record in generate_corpus(profile):
        h.update(serialize_task(record).encode("utf-8"))
    assert h.hexdigest() == digest


# Accepted value range of each channel: x, y, pressure, azimuth, altitude.
_CHANNEL_RANGES = [
    (-(2**63), 2**63 - 1),
    (-(2**63), 2**63 - 1),
    (0, PRESSURE_MAX),
    (0, AZIMUTH_MAX),
    (0, ALTITUDE_MAX),
]


@st.composite
def in_bounds_signals(draw):
    n = draw(st.integers(2, 40))

    def column(lo, hi):
        values = st.integers(lo, hi) | st.sampled_from([lo, hi])
        return draw(arrays(np.int64, n, elements=values))

    return InkSignal(*(column(lo, hi) for lo, hi in _CHANNEL_RANGES))


@given(in_bounds_signals())
@settings(max_examples=200, deadline=None)
def test_round_trip_holds_for_any_in_bounds_signal(signal):
    record = TaskRecord("U1", SetId.S2, 5, signal)
    assert parse_task_file(serialize_task(record)) == record


@st.composite
def writer_signals(draw):
    """Signals of n >= 2 samples: x and y up to a drawn scale, so that both
    are stored int32 or (mostly, at the largest) int64, with the edges of
    the digit counts and of the scale drawn often; each bounded channel
    holds one value or many."""
    n = draw(st.integers(2, 8))
    scale = draw(st.sampled_from([120, 2**31, 2**63]))
    edges = st.sampled_from([0, -1, 9, -9, 10, -10, 99, 100, -scale, scale - 1])
    xy = st.integers(-scale, scale - 1) | edges
    channels = [draw(st.lists(xy, min_size=n, max_size=n)) for _ in "xy"]
    for lo, hi in model._CHANNEL_BOUNDS.values():
        value = st.sampled_from([lo, hi]) | st.integers(lo, hi)
        if draw(st.booleans()):
            channels.append([draw(value)] * n)
        else:
            channels.append(draw(st.lists(value, min_size=n, max_size=n)))
    return InkSignal(*channels)


@given(writer_signals())
@settings(max_examples=300, deadline=None)
@example(InkSignal([-(2**63), 2**63 - 1], [0, -5], [2047, 2047], [0, 0], [90, 90]))
@example(InkSignal([-(2**31), 2**31 - 1, 9], [10, 99, 100], [0, 1, 2047], [359, 0, 7], [0, 0, 0]))
@example(InkSignal([2**32, 9, 10], [99, 100, -(2**31)], [5, 5, 5], [1, 2, 3], [45, 45, 45]))
def test_serialize_writes_the_bytes_of_the_reference_writer(signal):
    # The parser takes [+-]?[0-9]+, so a round trip cannot see a leading 0 or
    # a "+"; the reference formats each sample with "%d".
    record = TaskRecord("U1", SetId.S2, 5, signal, {"device": "pen", "date": "2024-01-01"})
    assert serialize_task(record) == reference_serialize_task(record)


# Line boundaries of str.splitlines, whitespace and header syntax.
_TRICKY_CHARS = st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029=#")


@given(
    st.sampled_from(("subject", "set", "task"))
    | st.builds(
        str.__add__,
        st.from_regex(r"[A-Za-z0-9_.\-]{1,4}", fullmatch=True),
        st.just("") | _TRICKY_CHARS,
    )
    | st.text(max_size=4),
    st.text(st.sampled_from("a") | _TRICKY_CHARS | st.characters(), max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_round_trip_holds_for_any_accepted_metadata(key, value):
    try:
        record = TaskRecord("U1", SetId.S1, 3, signal_with(), {key: value})
    except FormatError:
        return
    assert parse_task_file(serialize_task(record)) == record


# --- the parser against its diagnostic loop ------------------------------

_LINE_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", ""]
_SPACES = ["\t", "  ", "\x1f", "\xa0", "\u3000"]
_MUTATIONS = (
    "underscore", "non_ascii_digit", "drop_field", "add_field", "sign", "out_of_range",
    "at_bound", "blank_line", "late_header", "drop_line", "one_sample", "separator",
    "line_end", "subject", "set", "task",
)
# Values of a required header the key rules refuse; None drops the header.
_HEADER_EDITS = {
    "subject": ["U 1", "", "U/1", "\u00dc1", None],
    "set": ["S9", "s1", "S0", "", None],
    "task": ["10", "0", "+3", "\u0663", None],
}


def _mutate(lines, name, i, j, k):
    """Edit line ``i`` of a file held as [text, line end] pairs; ``j`` picks
    a field of that line and ``k`` a variant of the edit. A header edit sets
    or drops the value of that header, wherever it is."""
    if name in _HEADER_EDITS:
        at = [n for n, line in enumerate(lines) if line[0].startswith(f"#{name}=")]
        value = _HEADER_EDITS[name][k % len(_HEADER_EDITS[name])]
        if at and value is None:
            del lines[at[0]]
        elif at:
            lines[at[0]][0] = f"#{name}={value}"
        return
    line = lines[i]
    fields = line[0].split(" ")
    j %= len(fields)
    if name == "underscore":
        fields[j] = fields[j][:1] + "_" + fields[j][1:]
    elif name == "non_ascii_digit":
        fields[j] += "\u0663\uff11\u07c1"[k % 3]
    elif name == "drop_field":
        del fields[j]
    elif name == "add_field":
        fields.insert(j, "7")
    elif name == "sign":
        fields[j] = "+-"[k % 2] + fields[j]
    elif name in ("out_of_range", "at_bound"):
        lo, hi = _CHANNEL_RANGES[j % 5]
        step = 1 if name == "out_of_range" else 0
        fields[j] = str((lo - step, hi + step)[k % 2])
    elif name == "blank_line":
        lines.insert(i, [("", " ", "\t")[k % 3], "\n"])
    elif name == "late_header":
        lines.insert(i, ["#late=1", "\n"])
    elif name == "drop_line":
        del lines[i]
    elif name == "one_sample":
        del lines[i + 1 :]
    elif name == "separator":
        fields = [line[0].replace(" ", _SPACES[k % len(_SPACES)], j + 1)]
    elif name == "line_end":
        line[1] = _LINE_ENDS[k % len(_LINE_ENDS)]
    line[0] = " ".join(fields)


def _outcome(parse, text):
    """The record ``parse`` reads from ``text``, or the error it raises, which
    names its line unless the file holds too few samples."""
    try:
        return parse(text)
    except InkError as exc:
        assert exc.line is not None or type(exc) is TooShortError, exc
        return type(exc), str(exc), exc.line


def _reference_parse(text):
    """The record of the line-by-line parser, whose samples must be those
    that int() reads from its sample lines."""
    record = _parse_lines(text)
    rows = [line.split() for line in text.splitlines() if not line.strip().startswith("#")]
    columns = np.array([[int(f) for f in row] for row in rows], dtype=np.int64).T
    assert record.signal == InkSignal(*columns)
    return record


@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(
            st.sampled_from(_MUTATIONS),
            st.integers(0, 2**16),
            st.integers(0, 7),
            st.integers(0, 7),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=400, deadline=None)
def test_parser_and_diagnostic_loop_agree_on_mutated_files(seed, mutations):
    record = random_record(np.random.default_rng(seed))
    lines = [[line, "\n"] for line in serialize_task(record).splitlines()]
    for name, i, j, k in mutations:
        if lines:
            _mutate(lines, name, i % len(lines), j, k)
    text = "".join(line + end for line, end in lines)
    assert _outcome(parse_task_file, text) == _outcome(_reference_parse, text)


# --- the two parse paths against the grammar regex --------------------------

# Separators of plain text, which the byte-class check reads, and the others,
# which go to the line-by-line reference path.
_C_SPACES = " \t"
_C_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c"]
_OTHER_SPACES = "\x1f\xa0\u3000"
_OTHER_BREAKS = ["\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_EDIT_CHARS = "0++--#._\x85\xa0\u2028\u3000\u0663" + _C_SPACES + _OTHER_SPACES + "".join(
    _C_BREAKS + _OTHER_BREAKS
)


def _token(signs, value):
    return st.builds(
        lambda sign, zeros, v: f"{sign}{zeros}{v}",
        st.sampled_from(signs),
        st.sampled_from(["", "", "0", "00"]),
        value,
    )


_XY_SIGNS = ["", "", "+", "-"]
_SMALL_XY = st.integers(0, 999) | st.integers(0, 10**6)
# Values at and past the int64 bounds, with any sign.
_BIG_XY = _SMALL_XY | st.sampled_from([2**63 - 1, 2**63, 2**63 + 1])
# The bounded channels stay in range but for a few tokens.
_CHANNEL_TOKEN = _token(["", "", "+"], st.sampled_from([*range(91), 91, 2048]))


@st.composite
def sample_bodies(draw):
    """Sample lines of signed, zero-padded tokens joined by the separators of
    plain text, with padding, doubled separators and up to two one-character
    edits (insert, replace or delete). Some bodies also use the other
    separators, x and y tokens at and past the int64 bounds, or lines of 4 or
    6 tokens, blank lines and ``#`` lines."""
    plain, big, odd = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    spaces = _C_SPACES if plain else _C_SPACES + _OTHER_SPACES
    breaks = _C_BREAKS if plain else _C_BREAKS + _OTHER_BREAKS
    xy_token = _token(_XY_SIGNS, _BIG_XY if big else _SMALL_XY)
    pad = st.text(st.sampled_from(spaces), max_size=2)
    gap = st.text(st.sampled_from(spaces), min_size=1, max_size=2)
    body = ""
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from([5, 5, 5, 4, 6, 0, "#"] if odd else [5]))
        if n == "#":
            line = draw(pad) + "#note=1"
        else:
            tokens = [draw(xy_token if j < 2 else _CHANNEL_TOKEN) for j in range(n)]
            line = draw(pad) + "".join(t + draw(gap) for t in tokens[:-1])
            line += (tokens[-1] if tokens else "") + draw(pad)
        body += line + draw(st.sampled_from(breaks))
    body += draw(st.sampled_from(["", "", "1 2 3 4 5", "1\t2 3 4 5 ", " ", "\t\x1f"]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(body)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        c = "" if edit == "delete" else draw(st.sampled_from(_EDIT_CHARS))
        body = body[:i] + c + body[i + (edit != "insert") :]
    return body


def _assert_check_is_the_regex_on_plain_text(body):
    plain = body.isascii() and not any(c in body for c in "\x1c\x1d\x1e\x1f")
    assert _check_body(body) == (plain and bool(SAMPLE_BODY_RE.fullmatch(body)))


def _assert_parse_paths_agree(body):
    """The record or error of the parser is that of the line-by-line
    reference parser, which it falls back to for every file its byte-class
    path does not take."""
    text = "#subject=U1\n#set=S1\n#task=3\n" + body
    assert _outcome(parse_task_file, text) == _outcome(_parse_lines, text)


@given(sample_bodies())
@settings(max_examples=500, deadline=None)
def test_byte_class_check_equals_the_grammar_regex(body):
    _assert_check_is_the_regex_on_plain_text(body)


@given(sample_bodies())
@settings(max_examples=500, deadline=None)
def test_parse_agrees_with_the_reference_path(body):
    _assert_parse_paths_agree(body)


@pytest.mark.parametrize(
    "body",
    [
        "", " ", "\n", "1 2 3 4 5", "1 2 3 4 5\n", " 1 2 3 4 5 \r\n", "1 2 3 4 5\r",
        "1 2 3 4 5\r\r\n", "1 2 3 4 5\n\n", "1 2 3 4 5\n ", "1 2 3 4\n", "1 2 3 4 5 6",
        "+1 -2 +03 4 5", "+ 1 2 3 4 5", "1+ 2 3 4 5", "1+2 3 4 5 6", "1 2 3 4 5+",
        "1 2 3 4 +-5", "1 2 3 4 5\x1c6 7 8 9 10\x1f", "1 2 3 4 5\x1e\x1f",
        "1 2 3 4 5\x0b1 2 3 4 5\x0c", "1 2 3 4 5#", "1.0 2 3 4 5", "1_0 2 3 4 5",
        "1 2 3 4 5\x85", "1 2 3 4 5\u2028", "1\xa02 3 4 5", "\u0663 2 3 4 5",
        "1\t2\x0b3 4 5\r\n6 7 8 9 10\x0c11 12 13 14 15",
        "1 2 3 4 5\x1d6 7 8 9 10\u2029", "1\u30002 3 4 5\n6 7 8 9 10",
        "9223372036854775807 -9223372036854775808 3 4 5\n1 2 3 4 5\n",
        "9223372036854775807\xa0-9223372036854775808 3 4 5\n1 2 3 4 5\n",
        "9223372036854775808 2 3 4 5\n1 2 3 4 5\n",
        "1 -9223372036854775809 3 4 5\n1 2 3 4 5\n",
        "-0009223372036854775808 +0 00 0 0\n1 2 3 4 5\n",
        "1 2 3 4 5\n\n1 2 3 4 5\n", "1 2 3 4 5\n \t\n1 2 3 4 5\n",
        "1 2 3 4 5\n#late=1\n1 2 3 4 5\n", "#note=1\n1 2 3 4 5\n1 2 3 4 5\n",
        "1 2 3 4 5\n1 2 2048 4 5\n", "1 2 3 4 5\x851 2 2048 4 5\n",
    ],
)
def test_byte_class_check_on_edge_bodies(body):
    _assert_check_is_the_regex_on_plain_text(body)
    _assert_parse_paths_agree(body)


def _fast_path_records():
    narrow = random_record(np.random.default_rng(5))
    wide = dataclasses.replace(narrow, signal=InkSignal(
        np.array([-(2**63) + 1, 2**40]), np.array([0, 2**63 - 2]),
        np.array([0, 2047]), np.array([359, 0]), np.array([90, 0])))
    constant = dataclasses.replace(narrow, signal=InkSignal(
        *(np.arange(4) if name in ("x", "y") else np.full(4, 7) for name in model._CHANNELS)))
    return [narrow, wide, constant]


@pytest.mark.parametrize("record", _fast_path_records(), ids=["int32", "int64", "one-value"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\x0b"], ids=["lf", "crlf", "vt"])
def test_plain_files_stay_on_the_fast_path(monkeypatch, record, end):
    def no_fallback(text):
        raise AssertionError("a plain valid file reached the line-by-line parser")

    monkeypatch.setattr(model, "_parse_lines", no_fallback)
    parsed = parse_task_file(serialize_task(record).replace("\n", end))
    assert parsed == record and parsed.signal.x.dtype == record.signal.x.dtype


# --- corpus loading --------------------------------------------------------


# Each input file reader called on a path, a text with a defect, and the
# class, line and message (before the path goes in front) of its parser's error.
_NAMED_ERRORS = {
    "task-file": (
        lambda path: next(read_records(path.parent)),
        "#subject=U1\n#set=S1\n#task=1\n1 2 3 4 5\n1 2 3000 4 5\n",
        RangeError, 5, "line 5: pressure value 3000 outside [0, 2047]",
    ),
    "profile": (
        synth.load_profile, "seed = 1\nbogus = 2\n",
        ConfigError, 2, "line 2: unknown key 'bogus'",
    ),
    "config": (
        lambda path: model.read_input(path, cli._parse_config), "alpha = 0.01\nbogus = 2\n",
        ConfigError, 2, "line 2: unknown config key 'bogus'",
    ),
}


@pytest.mark.parametrize(
    "read, text, error, line, message", _NAMED_ERRORS.values(), ids=_NAMED_ERRORS.keys()
)
def test_an_error_that_names_its_file_keeps_its_line(tmp_path, read, text, error, line, message):
    path = tmp_path / "task1.ink"
    path.write_text(text)
    with pytest.raises(error) as err:
        read(path)
    assert type(err.value) is error and type(err.value.__cause__) is error
    assert str(err.value) == f"{path}: {message}"
    assert str(err.value).count(f"{path}: ") == 1
    assert err.value.line == line
    assert str(err.value.__cause__) == message


def test_read_input_lets_any_other_error_through(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("seed = 1\n")
    raised = ValueError("not an InkError")

    def parse(text):
        raise raised

    with pytest.raises(ValueError) as err:
        model.read_input(path, parse)
    assert err.value is raised


def test_load_full_corpus_no_gaps(tmp_path):
    corpus = generate_corpus(SynthProfile(seed=3, n_subjects=20))
    write_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert len(loaded) == 900
    assert loaded.subjects == tuple(f"U{i:02d}" for i in range(1, 21))
    grid = itertools.product(loaded.subjects, ALL_SETS, TASK_IDS)
    assert [record.key for record in loaded] == list(grid)


def test_loaded_corpus_equals_generated(tmp_path):
    corpus = generate_corpus(SynthProfile(seed=4, n_subjects=2))
    write_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    for record in corpus:
        assert loaded.get(*record.key) == record


def test_read_records_yields_files_in_path_order_and_checks_sidecars_after_them(tmp_path):
    corpus = sets_corpus(SynthProfile(seed=4, n_subjects=2), (SetId.S1,))
    write_corpus(corpus, tmp_path)
    # Headers, not paths, decide a key: the first key moves last in path order.
    (tmp_path / "U01" / "S1" / "task1.ink").rename(tmp_path / "U03.ink")
    paths = sorted(tmp_path.rglob("*.ink"))
    keys = [r.key for r in read_records(tmp_path)]
    assert keys == [model.parse_task_file(p.read_text()).key for p in paths] != sorted(keys)
    assert list(load_corpus(tmp_path)) == list(corpus)
    (tmp_path / "U01" / "S1" / "aux.tsv").write_text("bad\n")
    records = read_records(tmp_path)
    assert len([next(records) for _ in paths]) == 18
    with pytest.raises(FormatError, match="aux sidecar needs a header line"):
        next(records)


@needs_fifo
def test_read_files_names_a_task_file_or_sidecar_it_cannot_read_and_never_opens_it(tmp_path):
    # A named pipe opened for reading waits for a writer, so reading one named
    # *.ink or aux.tsv stalled the walk; a directory so named is the same case.
    write_corpus(sets_corpus(SynthProfile(seed=4, n_subjects=1), (SetId.S1,)), tmp_path)
    s1 = tmp_path / "U01" / "S1"
    (s1 / "task9.ink").unlink()
    fifos = [s1 / "task9.ink", s1 / "aux.tsv"]
    for fifo in fifos:
        os.mkfifo(fifo)
    (s1 / "folder.ink").mkdir()
    named = dict(call_beside_fifos(lambda: list(read_files(tmp_path)), fifos))
    for path in [*fifos, s1 / "folder.ink"]:
        assert type(named[path]) is FormatError
        assert str(named[path]) == f"{path}: not a regular file"
    assert sum(isinstance(outcome, TaskRecord) for outcome in named.values()) == 8


def test_read_files_gives_one_outcome_a_file_and_each_error_names_its_file(tmp_path):
    corpus = sets_corpus(SynthProfile(seed=4, n_subjects=2), (SetId.S1,))
    write_corpus(corpus, tmp_path)
    s1, s1_of_u02 = tmp_path / "U01" / "S1", tmp_path / "U02" / "S1"
    shutil.copy(s1 / "task5.ink", s1 / "copy_of_task5.ink")  # read before task5.ink
    (s1_of_u02 / ".ink").write_text("garbage\n")  # a task file whose suffix is ''
    (s1 / "aux.tsv").write_text("bad\n")
    (s1_of_u02 / "aux.tsv").write_text(AUX_HEADER + "1\t0.5\t700\t1.5\tNA\n")
    # Files that are not read, at any depth, come last in path order, with no
    # outcome; directories are not named.
    shutil.copy(s1 / "task1.ink", s1 / "task1.INK")
    (s1 / "task2.ink").rename(s1 / "task2.ink.bak")
    (s1_of_u02 / "notes.txt").write_text("hello\n")
    (s1_of_u02 / "extra").mkdir()
    (s1_of_u02 / "extra" / "deeper.txt").write_text("hello\n")
    (tmp_path / "U01" / "README").write_text("hello\n")
    (tmp_path / "README").write_text("hello\n")
    (tmp_path / "empty").mkdir()
    outcomes = list(read_files(tmp_path))
    paths = [path for path, _ in outcomes]
    unread = [
        tmp_path / "README", tmp_path / "U01" / "README", s1 / "task1.INK", s1 / "task2.ink.bak",
        s1_of_u02 / "extra" / "deeper.txt", s1_of_u02 / "notes.txt",
    ]
    assert paths == sorted(tmp_path.rglob("*.ink")) + sorted(tmp_path.rglob("aux.tsv")) + unread
    assert [o for _, o in outcomes[-6:]] == [None] * 6 and None not in dict(outcomes[:-6]).values()
    errors = {path: type(o) for path, o in outcomes if isinstance(o, Exception)}
    assert errors == {
        s1 / "task5.ink": DuplicateError, s1_of_u02 / ".ink": FormatError,
        s1 / "aux.tsv": FormatError,
    }
    named = dict(outcomes)
    for path in errors:
        assert str(named[path]).startswith(f"{path}: ")
    assert str(named[s1 / "task5.ink"]) == (
        f"{s1 / 'task5.ink'}: duplicate of {s1 / 'copy_of_task5.ink'} (subject=U01 set=S1 task=5)"
    )
    assert str(named[s1_of_u02 / ".ink"]) == (
        f"{s1_of_u02 / '.ink'}: line 1: missing required header #subject=..."
    )
    # Every file after the duplicate is still read.
    records = [o for o in named.values() if isinstance(o, TaskRecord)]
    renamed = ("U01", SetId.S1, 2)
    assert sorted(records, key=lambda r: r.key) == [r for r in corpus if r.key != renamed]
    assert named[s1_of_u02 / "aux.tsv"] == ("U02", SetId.S1, AuxRecord(1, 0.5, 700, 1.5))


def test_load_empty_directory(tmp_path):
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 0
    assert [record.key for record in corpus] == [] and corpus.subjects == ()


def test_duplicate_key_raises(tmp_path):
    corpus = generate_corpus(SynthProfile(seed=6, n_subjects=1))
    write_corpus(corpus, tmp_path)
    original = tmp_path / "U01" / "S1" / "task1.ink"
    copy = tmp_path / "U01" / "S1" / "copy_of_task1.ink"
    shutil.copy(original, copy)
    with pytest.raises(DuplicateError) as err:
        load_corpus(tmp_path)
    assert str(err.value) == f"{original}: duplicate of {copy} (subject=U01 set=S1 task=1)"


def test_parse_error_carries_path(tmp_path):
    corpus = generate_corpus(SynthProfile(seed=7, n_subjects=1))
    write_corpus(corpus, tmp_path)
    target = tmp_path / "U01" / "S2" / "task3.ink"
    target.write_text(target.read_text().replace("\n", "\nnot an ink line\n", 1))
    with pytest.raises(FormatError) as err:
        load_corpus(tmp_path)
    assert "task3.ink" in str(err.value)


@pytest.mark.parametrize("name", ["task3.ink", "aux.tsv"])
def test_load_corpus_reports_non_utf8_file_with_path(tmp_path, name):
    corpus = sets_corpus(SynthProfile(seed=7, n_subjects=1), (SetId.S2,))
    write_corpus(corpus, tmp_path)
    (tmp_path / "U01" / "S2" / name).write_bytes(b"#subject=U01\n\xff\n")
    with pytest.raises(FormatError) as err:
        load_corpus(tmp_path)
    assert str(err.value).startswith(f"{tmp_path / 'U01' / 'S2' / name}: not UTF-8 text: ")


def test_corpus_add_enforces_uniqueness(rng):
    record = random_record(rng)
    corpus = StudyCorpus()
    corpus.add(record)
    with pytest.raises(DuplicateError):
        corpus.add(record)


def test_record_path_layout(rng):
    record = random_record(rng)
    rel = record_path(record)
    assert rel == Path(record.subject_id) / record.set_id.value / f"task{record.task}.ink"


# --- aux sidecar -----------------------------------------------------------

AUX_HEADER = "lactate\tflight_time\tforce\tvelocity\trpe\n"


def test_aux_sidecar_loads(tmp_path):
    corpus = sets_corpus(SynthProfile(seed=10, n_subjects=1), (SetId.S1,))
    write_corpus(corpus, tmp_path)
    aux = tmp_path / "U01" / "S1" / "aux.tsv"
    aux.write_text(AUX_HEADER + "1.11\t0.52\t700\t1.5\t2\n")
    assert len(load_corpus(tmp_path)) == 9
    assert dict(read_files(tmp_path))[aux] == (
        "U01", SetId.S1, AuxRecord(lactate=1.11, flight_time=0.52, force=700, velocity=1.5, rpe=2)
    )


def test_aux_sidecar_allows_na(tmp_path):
    corpus = sets_corpus(SynthProfile(seed=10, n_subjects=1), (SetId.S1,))
    write_corpus(corpus, tmp_path)
    path = tmp_path / "U01" / "S1" / "aux.tsv"
    path.write_text(AUX_HEADER + "NA\tNA\tNA\tNA\t5\n")
    _, _, aux = dict(read_files(tmp_path))[path]
    assert aux.lactate is None and aux.rpe == 5


@pytest.mark.parametrize(
    "body", ["1 2 3\n", "bad\theader\tline\tx\ty\n1\t2\t3\t4\t5\n", AUX_HEADER + "1\t2\t3\t4\n"]
)
def test_aux_sidecar_malformed(tmp_path, body):
    corpus = sets_corpus(SynthProfile(seed=10, n_subjects=1), (SetId.S1,))
    write_corpus(corpus, tmp_path)
    (tmp_path / "U01" / "S1" / "aux.tsv").write_text(body)
    with pytest.raises(FormatError):
        load_corpus(tmp_path)


@pytest.mark.parametrize(
    "place, message",
    [
        ("U01/S9/aux.tsv", "set must be one of S1..S5, got 'S9'"),
        ("U01/X1/aux.tsv", "set must be one of S1..S5, got 'X1'"),
        ("U 9/S1/aux.tsv", f"subject id 'U 9' {_SUBJECT_RULE}"),
        ("U01/aux.tsv", "aux sidecar must sit at <subject>/<set>/aux.tsv"),
        ("U01/S1/extra/aux.tsv", "aux sidecar must sit at <subject>/<set>/aux.tsv"),
    ],
    ids=["set", "not-a-set", "subject", "too-shallow", "too-deep"],
)
def test_a_sidecar_out_of_its_place_is_an_error_naming_the_file(tmp_path, place, message):
    path = tmp_path / place
    path.parent.mkdir(parents=True)
    path.write_text(AUX_HEADER + "1\t0.5\t700\t1.5\t2\n")
    with pytest.raises(InkError) as err:
        load_corpus(tmp_path)
    assert str(err.value) == f"{path}: {message}"


def _load_aux(value_line):
    """Reads ``U01/S1/aux.tsv`` holding ``value_line``; returns the file's
    path and the record read, or the path and the FormatError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "U01" / "S1" / "aux.tsv"
        path.parent.mkdir(parents=True)
        path.write_text(AUX_HEADER + value_line + "\n")
        outcome = dict(read_files(Path(tmp)))[path]
        return path, outcome if isinstance(outcome, FormatError) else outcome[2]


@given(lax_numbers(st.floats(0, 1e6), padded=False), st.sampled_from(AUX_FIELDS))
@example("\u0660.\u0660\u0665", "lactate")
@example("0.0_5", "force")
@example("nan", "velocity")
@example("inf", "rpe")
@settings(max_examples=100, deadline=None)
def test_aux_values_must_be_ascii_decimals(token, field):
    values = ["1"] * len(AUX_FIELDS)
    values[AUX_FIELDS.index(field)] = token
    path, error = _load_aux("\t".join(values))
    assert isinstance(error, FormatError)
    assert str(error) == f"{path}: aux field {field} is not a number: {token!r}"


@given(st.lists(st.one_of(st.just(None), st.floats(0, 1e6)), min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_aux_ascii_decimals_load_as_their_value(values):
    tokens = ["NA" if v is None else repr(v) for v in values]
    _, aux = _load_aux("\t".join(tokens))
    assert aux == AuxRecord(*values)


def test_aux_record_rejects_negative_values():
    with pytest.raises(RangeError):
        AuxRecord(lactate=-0.1)


def test_write_corpus_refuses_a_repeated_key_and_keeps_the_files_before_it(tmp_path):
    first = TaskRecord("U01", SetId.S1, 1, signal_with())
    other = TaskRecord("U01", SetId.S1, 2, signal_with())
    again = TaskRecord("U01", SetId.S1, 1, signal_with(pressure=7))
    with pytest.raises(DuplicateError) as err:
        write_corpus([first, other, again], tmp_path)
    assert str(err.value) == "duplicate record for subject=U01 set=S1 task=1"
    assert sorted(path.name for path in tmp_path.rglob("*.ink")) == ["task1.ink", "task2.ink"]
    assert list(load_corpus(tmp_path)) == [first, other]


def test_write_corpus_layout(tmp_path):
    corpus = sets_corpus(SynthProfile(seed=11, n_subjects=1), (SetId.S1,))
    written = write_corpus(corpus, tmp_path)
    assert len(written) == 9
    assert (tmp_path / "U01" / "S1" / "task1.ink").exists()
    assert all(str(p).startswith("U01") for p in written)
