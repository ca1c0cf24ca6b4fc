"""Ink data model: pen-tablet recordings, task taxonomy, and corpus I/O.

A recording is a uniformly sampled pen time series (100 Hz) with five integer
channels per sample: x, y (int32 when both fit, else int64), pressure, azimuth,
altitude (int16; one that holds a single value is a zero-stride view into one
shared 4 KiB table of every bounded value). There are no stored timestamps;
the sample index is the clock.
Recordings are keyed by (subject, set, task), where a "set" is one full assessment
(S1..S5) and tasks 1..9 cover three task categories; ``read_files`` is the one
walk of a corpus directory, ``read_records`` the filter of it that streams the
records, and a ``StudyCorpus`` holds them in key order.

File format (one file per task execution, UTF-8):

    #subject=U01
    #set=S1
    #task=3
    #device=optional free-form value
    812 1040 655 210 55
    815 1043 812 210 55
    ...

Header lines start with ``#`` and hold ``key=value`` pairs; ``subject``,
``set`` and ``task`` are required, anything else is preserved as metadata
(``TaskRecord`` rejects metadata that would not re-parse unchanged).
Data lines follow the headers and hold five whitespace-separated integers:
x y pressure azimuth altitude. Each is an ASCII integer with an optional
sign, ``[+-]?[0-9]+``; x and y must fit in int64. Lines end at any
``str.splitlines`` boundary, and no line may be blank. Plain text (ASCII
whose spaces and line breaks C's ``isspace`` knows) goes through a fast path,
one vectorized pass over byte classes. Every file that path does not take,
other text (such as a non-ASCII space or the separators ``\\x1c``-``\\x1f``)
or any defect, is read by the line-by-line reference parser, which returns
the record or the first defect in line order.
Directory layout for a corpus:

    <corpus>/<subject>/<set>/task<k>.ink

with an optional per-set sidecar ``<corpus>/<subject>/<set>/aux.tsv`` of auxiliary
scalars (lactate, flight_time, force, velocity, rpe; ``NA`` allowed), checked, not kept.

Every input file is opened by ``read_input``, which puts its path in front of
the error, line and all, that a parser such as ``parse_task_file`` raises.
"""

from __future__ import annotations

import enum
import math
import re
import types
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

from .errors import (
    ConfigError,
    DuplicateError,
    FormatError,
    InkError,
    RangeError,
    ShapeError,
    TooShortError,
)

_T = TypeVar("_T")

#: The sample clock of every recording; features count time in samples.
SAMPLE_RATE_HZ = 100

PRESSURE_MAX = 2047
AZIMUTH_MAX = 359
ALTITUDE_MAX = 90

_CHANNELS = ("x", "y", "pressure", "azimuth", "altitude")

#: Inclusive value range of each bounded channel, in channel order.
_CHANNEL_BOUNDS: Mapping[str, tuple[int, int]] = {
    "pressure": (0, PRESSURE_MAX),
    "azimuth": (0, AZIMUTH_MAX),
    "altitude": (0, ALTITUDE_MAX),
}

#: Storage dtype of each channel: int16 holds each bounded range and its second differences.
CHANNEL_DTYPES = dict.fromkeys(_CHANNELS, np.int32) | dict.fromkeys(_CHANNEL_BOUNDS, np.int16)
WIDE_CHANNEL_DTYPES = CHANNEL_DTYPES | dict.fromkeys(("x", "y"), np.int64)  # x or y past int32

# The int16 values 0..PRESSURE_MAX, which cover every bounded range: a one-value
# channel is a zero-stride view into these bytes, so it owns no memory and,
# backed by bytes, can never be made writeable.
_VALUE_TABLE = np.arange(PRESSURE_MAX + 1, dtype=np.int16).tobytes()

_INT64_BOUNDS = (int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))
_INT32_BOUNDS = (int(np.iinfo(CHANNEL_DTYPES["x"]).min), int(np.iinfo(CHANNEL_DTYPES["x"]).max))
_INT64_SAFE = frozenset(np.dtype(c) for c in "?bBhHiIlLqQ" if np.can_cast(c, np.int64))

# Subject ids appear in file paths, so keep them path-safe.
_SUBJECT_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_HEADER_KEY_RE = re.compile(r"[A-Za-z0-9_.\-]+")

# Header lines. Line breaks are those of str.splitlines; spaces are the other
# str.isspace characters, which is what re's \s matches.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SPACE = rf"[^\S{_LINE_BREAKS}]"
_HEADER_LINE_RE = re.compile(rf"{_SPACE}*#[^{_LINE_BREAKS}]*(?:\r\n|[{_LINE_BREAKS}]|\Z)")
_INT_RE = re.compile(r"[+-]?[0-9]+")
_FLOAT_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

# Byte classes of the sample grammar in plain text: ASCII whose spaces and
# line breaks C's isspace() knows. Everything else, \x1c-\x1f included, is
# "other".
_DIGIT_CLASS, _SIGN_CLASS, _SPACE_CLASS, _BREAK_CLASS, _OTHER_CLASS = range(5)
_BYTE_CLASSES = bytes(
    _DIGIT_CLASS if c in b"0123456789"
    else _SIGN_CLASS if c in b"+-"
    else _SPACE_CLASS if c in b" \t"
    else _BREAK_CLASS if c in b"\n\r\x0b\x0c"
    else _OTHER_CLASS
    for c in range(256)
)


class Category(str, enum.Enum):
    """Broad task groups: drawings needing planning, routine writing, and
    shapes demanding precise motor control."""

    COGNITIVE = "Cognitive"
    MECHANICAL = "Mechanical"
    FINE_MOTOR = "FineMotor"


#: Fixed task -> category mapping for the nine tasks of one assessment.
TASK_CATEGORIES: Mapping[int, Category] = {
    1: Category.COGNITIVE,
    2: Category.COGNITIVE,
    3: Category.FINE_MOTOR,
    4: Category.MECHANICAL,
    5: Category.FINE_MOTOR,
    6: Category.MECHANICAL,
    7: Category.MECHANICAL,
    8: Category.MECHANICAL,
    9: Category.FINE_MOTOR,
}

TASK_IDS = tuple(sorted(TASK_CATEGORIES))


class SetId(str, enum.Enum):
    """The five assessment sets; a set id is its name, a str, so sets sort in acquisition order."""

    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"
    S5 = "S5"


ALL_SETS = tuple(SetId)


def check_subject_id(subject: str) -> str:
    if not (isinstance(subject, str) and _SUBJECT_RE.fullmatch(subject)):
        raise FormatError(
            f"subject id {subject!r} must be non-empty and use only "
            "letters, digits, '_', '.', '-'"
        )
    if not subject.strip("."):  # as a path part, "." or ".." leaves the subject level
        raise FormatError(f"subject id {subject!r} must not be only dots")
    return subject


def check_set_id(set_id: SetId) -> SetId:
    if not isinstance(set_id, SetId):
        raise RangeError(f"set id must be a SetId, got {set_id!r}")
    return set_id


def parse_set_id(text: str) -> SetId:
    """The set named by ``text``, as in files, directories and pair labels."""
    try:
        return SetId(text)
    except ValueError:
        raise RangeError(f"set must be one of S1..S5, got {text!r}") from None


def validate_task_id(task: int) -> int:
    if not isinstance(task, (int, np.integer)) or isinstance(task, bool):
        raise RangeError(f"task id must be an integer, got {task!r}")
    if task not in TASK_CATEGORIES:
        raise RangeError(f"task id must be in 1..9, got {task}")
    return int(task)


def parse_task_id(text: str) -> int:
    """The task numbered by ``text``, which must be ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise FormatError(f"task must be an integer, got {text!r}")
    return validate_task_id(int(text))


@dataclass(frozen=True, eq=False, slots=True)
class InkSignal:
    """Array-backed, immutable pen time series at a fixed 100 Hz clock.

    Channels are read-only arrays of equal length >= 2. This is the one place
    that picks their storage, so a producer passes any integer array: they are
    ``CHANNEL_DTYPES``, or ``WIDE_CHANNEL_DTYPES`` if x or y holds a value past
    int32. x and y must fit int64, as in files. A pressure, azimuth or altitude
    of an integer type that holds one value is a zero-stride view into one
    shared read-only 4 KiB table of the values 0..2047, so it stores nothing of
    its own; every other channel is a dense copy. No channel aliases the
    caller's array. Checks see the values as given and come before any cast,
    so no value wraps into range, and an error names the value as given
    (``inf``, not -2**63). Equality is structural over all channels. Pickling
    and copying rebuild the signal through these checks.
    """

    x: np.ndarray
    y: np.ndarray
    pressure: np.ndarray
    azimuth: np.ndarray
    altitude: np.ndarray

    def __post_init__(self):
        for name in _CHANNELS:
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1:
                raise ShapeError(f"channel {name} must be one-dimensional")
            # A fraction leaves a remainder in (0, 1]; nan and inf leave nan;
            # a non-number has no remainder and raises TypeError.
            try:
                fraction = arr.dtype.kind not in "iu" and any(0 < v % 1 for v in arr.tolist())
            except TypeError:
                raise RangeError(f"channel {name} holds non-number values") from None
            if fraction:
                raise RangeError(f"channel {name} holds non-integer values")
            object.__setattr__(self, name, arr)
        n = self.x.size
        for name in _CHANNELS[1:]:
            if getattr(self, name).size != n:
                raise ShapeError("all channels must have the same length")
        if n < 2:
            raise TooShortError(f"a signal needs at least 2 samples, got {n}")
        constant = {}
        for name in _CHANNELS:
            arr = getattr(self, name)
            lo, hi = _CHANNEL_BOUNDS.get(name, _INT64_BOUNDS)
            # An x or y of an integer type up to int64 needs no check; an integer
            # bounded channel takes one min/max pair, which also tells a
            # one-value channel.
            if arr.dtype in _INT64_SAFE:
                if name not in _CHANNEL_BOUNDS:
                    continue
                least, most = np.minimum.reduce(arr), np.maximum.reduce(arr)
                if lo <= least and most <= hi:
                    if least == most:
                        constant[name] = int(least)
                    continue
            # Python numbers compare exactly, so 2**63, inf and nan are named as given.
            for i, v in enumerate(arr.tolist()):
                if not lo <= v <= hi:
                    raise RangeError(f"{name} value {v} at sample {i} outside [{lo}, {hi}]")
        # The one storage rule: x and y are int32 when every value of both fits it.
        lo, hi = _INT32_BOUNDS
        wide = not all(lo <= np.minimum.reduce(a) and np.maximum.reduce(a) <= hi
                       for a in (self.x, self.y))
        for name, dtype in (WIDE_CHANNEL_DTYPES if wide else CHANNEL_DTYPES).items():
            if name in constant:
                # Bounded channels are int16, as is the table: 2 bytes a value.
                arr = np.ndarray(n, dtype, _VALUE_TABLE, offset=2 * constant[name], strides=(0,))
            else:
                arr = getattr(self, name).astype(dtype)
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        return InkSignal, tuple(getattr(self, n) for n in _CHANNELS)

    def __len__(self) -> int:
        return int(self.x.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InkSignal):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _CHANNELS)


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """One task execution: who wrote, in which set, which task, plus the ink.

    ``metadata`` is a read-only mapping over the record's own copy of the
    headers given. Pickling and copying rebuild the record through its checks.
    """

    subject_id: str
    set_id: SetId
    task: int
    signal: InkSignal
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        check_subject_id(self.subject_id)
        check_set_id(self.set_id)
        object.__setattr__(self, "task", validate_task_id(self.task))
        metadata = dict(self.metadata)
        # Each rule keeps the header line of serialize_task re-parsing to
        # the same key and value.
        for k, v in metadata.items():
            if not (isinstance(k, str) and _HEADER_KEY_RE.fullmatch(k)):
                raise FormatError(f"metadata key {k!r} is not header-safe")
            if k in _REQUIRED_HEADERS:
                raise FormatError(f"metadata key {k!r} is reserved for the record key")
            if not isinstance(v, str):
                raise FormatError(f"metadata value for {k!r} must be a string, got {v!r}")
            if "".join(v.splitlines()) != v:
                raise FormatError(f"metadata value for {k!r} contains a line break")
            if v != v.strip():
                raise FormatError(
                    f"metadata value for {k!r} has leading or trailing whitespace"
                )
        object.__setattr__(self, "metadata", types.MappingProxyType(metadata))

    def __reduce__(self):
        return TaskRecord, (self.subject_id, self.set_id, self.task, self.signal,
                            dict(self.metadata))

    @property
    def key(self) -> tuple[str, SetId, int]:
        return (self.subject_id, self.set_id, self.task)


@dataclass(frozen=True)
class AuxRecord:
    """Per-set auxiliary scalars recorded by other instruments.

    All fields optional (``None`` when not measured) and non-negative when
    present: lactate (mmol/L), flight_time (s), force (N), velocity (m/s),
    rpe (Borg 0-10 scale).
    """

    lactate: float | None = None
    flight_time: float | None = None
    force: float | None = None
    velocity: float | None = None
    rpe: float | None = None

    def __post_init__(self):
        for name in AUX_FIELDS:
            v = getattr(self, name)
            if v is None:
                continue
            if not math.isfinite(v) or v < 0:
                raise RangeError(f"aux field {name} must be finite and >= 0, got {v}")


AUX_FIELDS = tuple(f.name for f in fields(AuxRecord))
AUX_FILE_NAME = "aux.tsv"  # a set's sidecar sits at <subject>/<set>/aux.tsv

class StudyCorpus:
    """All task records of a study, keyed by (subject, set, task), iterated in key order.

    The uniqueness invariant is enforced on insertion. Treat a corpus as
    read-only once loaded; records themselves are immutable.
    """

    def __init__(self, records: Iterable[TaskRecord] = ()):
        self._records: dict[tuple[str, SetId, int], TaskRecord] = {}
        for record in records:
            self.add(record)

    def add(self, record: TaskRecord) -> None:
        if record.key in self._records:
            raise _duplicate(record.key)
        self._records[record.key] = record

    def get(self, subject_id: str, set_id: SetId, task: int) -> TaskRecord | None:
        return self._records.get((subject_id, set_id, task))

    @property
    def subjects(self) -> tuple[str, ...]:
        return tuple(sorted({k[0] for k in self._records}))

    def __iter__(self) -> Iterator[TaskRecord]:
        """All records in deterministic (subject, set, task) order."""
        return (self._records[key] for key in sorted(self._records))

    def __len__(self) -> int:
        return len(self._records)


def _duplicate(key: tuple[str, SetId, int]) -> DuplicateError:
    subject, set_id, task = key
    return DuplicateError(f"duplicate record for subject={subject} set={set_id.value} task={task}")


# ---------------------------------------------------------------------------
# Task file parsing / serialization
# ---------------------------------------------------------------------------


def ascii_int(text: str) -> int:
    """The value of an ASCII integer ``[+-]?[0-9]+``. Raises ValueError for
    any other text, including what int() takes: ``1_0``, padding spaces and
    non-ASCII digits."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def ascii_float(text: str) -> float:
    """The value of an ASCII decimal float such as ``0.5``, ``.5``, ``1`` or
    ``1e-05``. Raises ValueError for any other text, including what float()
    takes: ``0_5``, padding spaces, ``nan``, ``inf`` and non-ASCII digits."""
    if not _FLOAT_RE.fullmatch(text):
        raise ValueError(f"not an ASCII decimal number: {text!r}")
    return float(text)


def read_key_values(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) of each ``key = value`` line of a profile or
    config text; ``#`` starts a comment. A line without ``=``, or a key set
    before, raises ConfigError naming its line."""
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in key_lines:
            raise ConfigError(f"{key} is already set on line {key_lines[key]}", line=lineno)
        key_lines[key] = lineno
        yield lineno, key, value


def read_input(path: str | Path, parse: Callable[[str], _T]) -> _T:
    """``parse`` of the UTF-8 text of the file at ``path``; undecodable bytes or
    a byte-order mark in front raise FormatError. An InkError from ``parse`` is
    raised again as its class with ``{path}: `` (as the caller spelled it) in
    front, ``line`` kept and the original as cause. Any other error, OSError
    included, passes through."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}")
    if text.startswith("\ufeff"):
        raise FormatError(f"{path}: starts with a UTF-8 byte-order mark")
    try:
        return parse(text)
    except InkError as exc:
        named = type(exc)(f"{path}: {exc}")
        named.line = exc.line
        raise named from exc


def parse_task_file(text: str) -> TaskRecord:
    """Parse one task file into a TaskRecord.

    Plain text goes through the byte-class fast path. Every file that path
    does not take (other text, or any defect) is read by the line-by-line
    reference parser, which returns the record or the first defect in line
    order: FormatError (with line number) for structural problems, RangeError
    for out-of-range channel values, TooShortError for fewer than 2 samples.
    """
    try:
        headers: dict[str, str] = {}
        pos = 0
        while match := _HEADER_LINE_RE.match(text, pos):
            _add_header(headers, match.group().strip(), len(headers) + 1)
            pos = match.end()
        body = text[pos:]
        if _check_body(body):
            flat = np.fromstring(body, dtype=np.int64, sep=" ")
            lo, hi = (flat.min(), flat.max()) if flat.size else (0, 0)
            # np.fromstring clamps out-of-range values to the int64 ends.
            if _INT64_BOUNDS[0] < lo and hi < _INT64_BOUNDS[1]:
                return _record(headers, InkSignal(*flat.reshape(-1, 5).T))
    except InkError:
        pass  # the reference parser names the first defect
    return _parse_lines(text)


def _check_body(body: str) -> bool:
    """Whether ``body`` is plain text (ASCII with no separator C's isspace()
    does not know) that holds only sample lines of the grammar.

    The check is one pass over an array of byte classes: with each "\\r\\n"
    folded into one break and a space put in front, the body matches when
    every byte is in the grammar, every sign follows a separator and precedes
    a digit, every break ends a line of exactly 5 tokens, and the last break
    is followed by nothing or by one line of 5.
    """
    if not body.isascii():
        return False
    raw = b" " + body.encode("ascii")
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b" \n")
    cls = np.frombuffer(raw.translate(_BYTE_CLASSES), dtype=np.uint8)
    if np.maximum.reduce(cls) == _OTHER_CLASS:
        return False
    token = cls < _SPACE_CLASS
    # The index of the separator in front of each token.
    starts = np.flatnonzero(token[1:] > token[:-1])
    signs = np.flatnonzero(cls == _SIGN_CLASS)
    if signs.size and (
        signs[-1] == cls.size - 1
        or np.logical_or.reduce(token[signs - 1])
        or np.logical_or.reduce(cls[signs + 1] != _DIGIT_CLASS)
    ):
        return False
    breaks = np.flatnonzero(cls == _BREAK_CLASS)
    n_lines = breaks.size
    if not np.array_equal(np.searchsorted(starts, breaks), np.arange(5, 5 * n_lines + 1, 5)):
        return False
    last_line = starts.size - 5 * n_lines
    ends_at_break = (breaks[-1] if n_lines else 0) == cls.size - 1
    return bool(last_line == 5 or (last_line == 0 and ends_at_break))


def _parse_lines(text: str) -> TaskRecord:
    """The reference parser of task files: read ``text`` line by line and
    return its record, or raise the error of its first defect in line order.
    It accepts exactly the grammar, and parse_task_file falls back to it for
    every file its byte-class fast path does not take.
    """
    headers: dict[str, str] = {}
    samples: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            raise FormatError("blank line not allowed", line=lineno)
        if line.startswith("#"):
            if samples:
                raise FormatError("header line after data lines", line=lineno)
            _add_header(headers, line, lineno)
            continue
        if not samples:  # the header block ends at the first data line
            _record_key(headers)
        fields = line.split()
        if len(fields) != 5:
            raise FormatError(f"expected 5 integers (x y pressure azimuth altitude), got "
                              f"{len(fields)} fields", line=lineno)
        try:
            values = tuple(map(ascii_int, fields))
        except ValueError:
            raise FormatError(f"non-integer sample value in {line!r}", line=lineno)
        for name, v in zip(_CHANNELS, values):
            lo, hi = _CHANNEL_BOUNDS.get(name, _INT64_BOUNDS)
            if not lo <= v <= hi:
                raise RangeError(f"{name} value {v} outside [{lo}, {hi}]", line=lineno)
        samples.append(values)
    _record_key(headers)  # a file of headers only names its key error first
    if len(samples) < 2:
        raise TooShortError(f"task file holds {len(samples)} samples, need at least 2")
    return _record(headers, InkSignal(*np.array(samples, dtype=np.int64).T))


def _add_header(headers: dict[str, str], line: str, lineno: int) -> None:
    """Add the stripped header line ``#key=value`` to ``headers``."""
    body = line[1:]
    if "=" not in body:
        raise FormatError("header line must be #key=value", line=lineno)
    key, value = body.split("=", 1)
    key = key.strip()
    value = value.strip()
    if not _HEADER_KEY_RE.fullmatch(key):
        raise FormatError(f"invalid header key {key!r}", line=lineno)
    if key in headers:
        raise FormatError(f"duplicate header key {key!r}", line=lineno)
    headers[key] = value


_REQUIRED_HEADERS = {"subject": check_subject_id, "set": parse_set_id, "task": parse_task_id}


def _record_key(headers: Mapping[str, str]) -> tuple[str, SetId, int]:
    """The record key named by the headers, which fill lines 1..k of the file.
    An error names the line of its header; a missing header, the last one."""
    key = {}
    for lineno, name in enumerate(headers, start=1):
        if name in _REQUIRED_HEADERS:
            try:
                key[name] = _REQUIRED_HEADERS[name](headers[name])
            except InkError as exc:
                raise FormatError(str(exc), line=lineno) from exc
    for name in _REQUIRED_HEADERS:
        if name not in key:
            raise FormatError(f"missing required header #{name}=...", line=len(headers) or 1)
    return key["subject"], key["set"], key["task"]


def _record(headers: Mapping[str, str], signal: InkSignal) -> TaskRecord:
    metadata = {k: v for k, v in headers.items() if k not in _REQUIRED_HEADERS}
    return TaskRecord(*_record_key(headers), signal, metadata)


def serialize_task(record: TaskRecord) -> str:
    """Render a TaskRecord in the task file format. Output re-parses to an
    identical record; extra metadata keys are written in sorted order so the
    rendering is canonical."""
    lines = [
        f"#subject={record.subject_id}",
        f"#set={record.set_id.value}",
        f"#task={record.task}",
    ]
    for key in sorted(record.metadata):
        lines.append(f"#{key}={record.metadata[key]}")
    sig = record.signal
    samples = np.column_stack([getattr(sig, name) for name in _CHANNELS]).ravel().tolist()
    return "\n".join(lines) + "\n" + ("%d %d %d %d %d\n" * len(sig)) % tuple(samples)


def _parse_aux(rel: Path, text: str) -> tuple[str, SetId, AuxRecord]:
    if len(rel.parts) != 3:
        raise FormatError("aux sidecar must sit at <subject>/<set>/aux.tsv")
    subject, set_id = check_subject_id(rel.parts[0]), parse_set_id(rel.parts[1])
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise FormatError("aux sidecar needs a header line and one value line")
    if tuple(lines[0].split()) != AUX_FIELDS:
        raise FormatError(f"aux header must be {' '.join(AUX_FIELDS)}")
    fields = lines[1].split()
    if len(fields) != len(AUX_FIELDS):
        raise FormatError(f"aux value line needs {len(AUX_FIELDS)} fields")
    values: dict[str, float | None] = {}
    for name, token in zip(AUX_FIELDS, fields):
        try:
            values[name] = None if token == "NA" else ascii_float(token)
        except ValueError:
            raise FormatError(f"aux field {name} is not a number: {token!r}")
    return subject, set_id, AuxRecord(**values)


def read_files(
    directory: str | Path,
) -> Iterator[tuple[Path, TaskRecord | tuple[str, SetId, AuxRecord] | InkError | OSError | None]]:
    """The one walk of a corpus: each ``*.ink`` file under ``directory``, then
    each ``aux.tsv`` sidecar, in path order, with what reading it gave: a task
    file's record (headers, not paths, decide its key), a sidecar's subject, set
    and record, or the InkError or OSError naming the file; a key read before
    is a DuplicateError naming both files. Last come the other files at
    ``<subject>/<set>/<name>``, with None: they are not read. Files are read 32
    at a time: one at a time between a consumer's steps ran about a tenth
    slower, and 32 synthesized records hold about 0.3 MiB."""
    directory = Path(directory)
    seen: dict[tuple[str, SetId, int], Path] = {}

    def read(path: Path):
        try:
            if path.name == AUX_FILE_NAME:
                return read_input(path, lambda text: _parse_aux(path.relative_to(directory), text))
            record = read_input(path, parse_task_file)
        except (InkError, OSError) as exc:
            return exc
        if seen.setdefault(record.key, path) is path:
            return record
        subject, set_id, task = record.key
        return DuplicateError(
            f"{path}: duplicate of {seen[record.key]} "
            f"(subject={subject} set={set_id.value} task={task})"
        )

    tasks, sidecars, unread = [], [], []
    for path in sorted(directory.rglob("*")):
        if path.name.endswith(".ink"):
            tasks.append(path)
        elif path.name == AUX_FILE_NAME:
            sidecars.append(path)
        elif len(path.relative_to(directory).parts) == 3 and path.is_file():
            unread.append(path)
    paths = tasks + sidecars
    for i in range(0, len(paths), 32):
        yield from [(path, read(path)) for path in paths[i : i + 32]]
    yield from ((path, None) for path in unread)


def read_records(directory: str | Path) -> Iterator[TaskRecord]:
    """The records of ``read_files(directory)``; its first error is raised
    when reached, so every record before it is yielded."""
    for _, outcome in read_files(directory):
        if isinstance(outcome, Exception):
            raise outcome
        if isinstance(outcome, TaskRecord):
            yield outcome


def load_corpus(directory: str | Path) -> StudyCorpus:
    """A StudyCorpus of ``read_records(directory)``."""
    return StudyCorpus(read_records(directory))


def record_path(record: TaskRecord) -> Path:
    """Relative path of a record inside a corpus directory."""
    return Path(record.subject_id) / record.set_id.value / f"task{record.task}.ink"


def write_corpus(records: Iterable[TaskRecord], directory: str | Path) -> list[Path]:
    """Write each record of a corpus or any iterable of records, read once,
    in the corpus directory layout, as it comes.

    Returns the written paths (relative to ``directory``), in write order. A
    key met before raises DuplicateError; the files written before it stay.
    """
    directory = Path(directory)
    written: dict[Path, None] = {}  # one path per key
    for record in records:
        rel = record_path(record)
        if rel in written:
            raise _duplicate(record.key)
        write_text(directory / rel, serialize_task(record))
        written[rel] = None
    return list(written)


def write_text(path: str | Path, content: str) -> Path:
    """Write ``content`` to ``path`` as UTF-8, making its directories first; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    return path
