import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inkfatigue.errors import (
    DuplicateError,
    FormatError,
    RangeError,
    ShapeError,
    TooShortError,
)
from inkfatigue.model import (
    ALL_SETS,
    AuxRecord,
    InkSignal,
    SetId,
    StudyCorpus,
    TASK_IDS,
    TaskRecord,
    load_corpus,
    parse_task_file,
    record_path,
    serialize_task,
    write_corpus,
)
from inkfatigue.synth import SynthProfile, generate_corpus

from conftest import random_record

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


def test_signal_is_immutable(rng):
    sig = random_record(rng).signal
    with pytest.raises(ValueError):
        sig.x[0] = 99


def test_task_record_rejects_unsafe_subject_ids():
    sig = InkSignal(
        x=np.arange(2), y=np.arange(2), pressure=np.zeros(2, dtype=int),
        azimuth=np.zeros(2, dtype=int), altitude=np.zeros(2, dtype=int),
    )
    for bad in ("", "a b", "x/y", "u\n1", "u1\n"):
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


def test_task_record_rejects_bad_task():
    sig = InkSignal(
        x=np.arange(2), y=np.arange(2), pressure=np.zeros(2, dtype=int),
        azimuth=np.zeros(2, dtype=int), altitude=np.zeros(2, dtype=int),
    )
    with pytest.raises(RangeError):
        TaskRecord("U1", SetId.S1, 10, sig)


def test_set_order_and_labels():
    assert SetId.S1 < SetId.S2 < SetId.S3 < SetId.S4 < SetId.S5
    assert SetId.S1.acquisition_label == "Ph1-Pre-Fa"
    assert SetId.S5.acquisition_label == "Ph3-Post-Fa"


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
    ],
)
def test_parse_malformed_inputs_are_diagnosed(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_task_file(text)
    assert fragment in str(err.value)


def test_parse_rejects_blank_line_and_late_headers():
    with pytest.raises(FormatError, match="blank"):
        parse_task_file("#subject=U1\n#set=S1\n#task=1\n\n1 2 3 4 5\n1 2 3 4 5\n")
    with pytest.raises(FormatError, match="after data"):
        parse_task_file("#subject=U1\n#set=S1\n#task=1\n1 2 3 4 5\n#late=1\n1 2 3 4 5\n")


def test_parse_too_few_samples():
    with pytest.raises(TooShortError):
        parse_task_file("#subject=U1\n#set=S1\n#task=3\n10 20 500 200 60\n")


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


# --- corpus loading --------------------------------------------------------


def test_load_full_corpus_no_gaps(tmp_path):
    corpus = generate_corpus(SynthProfile(seed=3, n_subjects=20))
    write_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert len(loaded) == 900
    assert loaded.subjects == tuple(f"U{i:02d}" for i in range(1, 21))
    assert loaded.gaps() == []


def test_loaded_corpus_equals_generated(tmp_path):
    corpus = generate_corpus(SynthProfile(seed=4, n_subjects=2))
    write_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    for record in corpus.records():
        assert loaded.get(*record.key) == record


def test_load_empty_directory(tmp_path):
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 0
    assert corpus.gaps() == []


def test_gap_report_for_missing_set(tmp_path):
    corpus = generate_corpus(SynthProfile(seed=5, n_subjects=2))
    write_corpus(corpus, tmp_path)
    shutil.rmtree(tmp_path / "U02" / "S5")
    loaded = load_corpus(tmp_path)
    gaps = loaded.gaps()
    assert len(gaps) == 9
    assert all(subject == "U02" and set_id is SetId.S5 for subject, set_id, _ in gaps)
    assert sorted(task for _, _, task in gaps) == list(TASK_IDS)


def test_duplicate_key_raises(tmp_path):
    corpus = generate_corpus(SynthProfile(seed=6, n_subjects=1))
    write_corpus(corpus, tmp_path)
    original = tmp_path / "U01" / "S1" / "task1.ink"
    shutil.copy(original, tmp_path / "U01" / "S1" / "copy_of_task1.ink")
    with pytest.raises(DuplicateError):
        load_corpus(tmp_path)


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
    corpus = generate_corpus(SynthProfile(seed=7, n_subjects=1), sets=(SetId.S2,))
    write_corpus(corpus, tmp_path)
    (tmp_path / "U01" / "S2" / name).write_bytes(b"#subject=U01\n\xff\n")
    with pytest.raises(FormatError, match=f"{name}: not UTF-8"):
        load_corpus(tmp_path)


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
    corpus = generate_corpus(SynthProfile(seed=10, n_subjects=1), sets=(SetId.S1,))
    write_corpus(corpus, tmp_path)
    (tmp_path / "U01" / "S1" / "aux.tsv").write_text(AUX_HEADER + "1.11\t0.52\t700\t1.5\t2\n")
    loaded = load_corpus(tmp_path)
    aux = loaded.aux("U01", SetId.S1)
    assert aux == AuxRecord(lactate=1.11, flight_time=0.52, force=700, velocity=1.5, rpe=2)


def test_aux_sidecar_allows_na(tmp_path):
    corpus = generate_corpus(SynthProfile(seed=10, n_subjects=1), sets=(SetId.S1,))
    write_corpus(corpus, tmp_path)
    (tmp_path / "U01" / "S1" / "aux.tsv").write_text(AUX_HEADER + "NA\tNA\tNA\tNA\t5\n")
    aux = load_corpus(tmp_path).aux("U01", SetId.S1)
    assert aux.lactate is None and aux.rpe == 5


@pytest.mark.parametrize(
    "body", ["1 2 3\n", "bad\theader\tline\tx\ty\n1\t2\t3\t4\t5\n", AUX_HEADER + "1\t2\t3\t4\n"]
)
def test_aux_sidecar_malformed(tmp_path, body):
    corpus = generate_corpus(SynthProfile(seed=10, n_subjects=1), sets=(SetId.S1,))
    write_corpus(corpus, tmp_path)
    (tmp_path / "U01" / "S1" / "aux.tsv").write_text(body)
    with pytest.raises(FormatError):
        load_corpus(tmp_path)


def test_aux_record_rejects_negative_values():
    with pytest.raises(RangeError):
        AuxRecord(lactate=-0.1)


def test_write_corpus_layout(tmp_path):
    corpus = generate_corpus(SynthProfile(seed=11, n_subjects=1), sets=(SetId.S1,))
    written = write_corpus(corpus, tmp_path)
    assert len(written) == 9
    assert (tmp_path / "U01" / "S1" / "task1.ink").exists()
    assert all(str(p).startswith("U01") for p in written)
