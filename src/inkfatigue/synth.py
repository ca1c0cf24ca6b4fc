"""Deterministic synthetic-ink generator.

Generates complete study corpora with controllable fatigue-like perturbations
so the whole pipeline (parsing, features, comparison matrices) can be
exercised and statistically validated without any real recordings. Strokes
are parametric curves (heading random walks with sinusoidal pressure arcs),
not a handwriting forgery model: realism extends exactly as far as the
feature code paths require.

Determinism contract: every record is a pure function of
(profile.seed, subject_id, set_id, task). Randomness is drawn from a stream
keyed by that tuple, and raw draws never depend on perturbation parameters,
so changing for example ``pressure_shift`` moves pressures without touching
the trajectory. Adding a subject never perturbs other subjects' data.

Records are built one subject and set at a time. ``generate_task`` is the one
entry point: it builds the nine signals of its (profile, subject, set) in one
pass, under that set's one perturbation, and caches them until the next
(profile, subject, set) is asked for; each call builds the one record it
returns around its cached signal. ``generate_records`` asks for every
record of the five-set study through it, in key order. A task whose pen
leaves the int64 range is a ConfigError of its own and costs the other tasks
of its set nothing. Each record still draws from its own stream, per stage in
a fixed order, each per-sample stage in one draw covering all strokes of the
record; the strokes of the nine records are then rows of shared zero-padded
arrays. A ``Generator`` stream gives the same values in one draw as in one
draw per stroke, and every per-sample expression groups its operations as the
per-stroke form does (floating-point addition and multiplication commute but
do not associate), so a record is bit-identical to building it stroke by
stroke.

Per-set perturbations:

* ``speed_scale``   multiplies pen speed (spatial step size per sample),
* ``pressure_shift`` adds to pen-down pressure (clamped to [1, 2047]),
* ``air_inflation`` scales every in-air gap length (rounded per gap),
* ``jitter_sd``     adds Gaussian positional noise, tablet units.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .errors import ConfigError, InkError
from .model import (
    ALL_SETS,
    ALTITUDE_MAX,
    AZIMUTH_MAX,
    InkSignal,
    PRESSURE_MAX,
    SetId,
    StudyCorpus,
    TASK_IDS,
    TaskRecord,
    ascii_float,
    ascii_int,
    check_set_id,
    parse_set_id,
    read_input,
    read_key_values,
    validate_task_id,
)

# Internal shape constants; wide integer spreads keep count-valued features
# from producing tied ranks downstream.
_STROKE_LEN_RANGE = (24, 96)
_EXTRA_STROKES = 3  # each record draws 0.._EXTRA_STROKES-1 extra strokes
_HEADING_STEP_SD = 0.12
_CURVATURE_SD = 0.18
_STROKE_SPEED_SD = 0.12
_SAMPLE_SPEED_SD = 0.10
_PRESSURE_NOISE_SD = 0.10
_SUBJECT_AMP_SD = 0.06
_SUBJECT_PRESSURE_SD = 0.05
_SUBJECT_TEMPO_SD = 0.04


def _check_number_fields(value) -> None:
    """Each ``int`` field holds an integer and each ``float`` field a real number,
    never a bool: str(seed) keys the streams, and True or 1.0 equal 1 but print otherwise."""
    for f in fields(value):
        v = getattr(value, f.name)
        kind, what = (Integral, "an integer") if f.type == "int" else (Real, "a number")
        if f.type in ("int", "float") and (not isinstance(v, kind) or isinstance(v, bool)):
            raise ConfigError(f"{f.name} must be {what}, got {v!r}")


@dataclass(frozen=True)
class Perturbation:
    """Per-set deviation from baseline handwriting."""

    speed_scale: float = 1.0
    pressure_shift: int = 0
    air_inflation: float = 1.0
    jitter_sd: float = 0.0

    def __post_init__(self):
        _check_number_fields(self)
        if not (math.isfinite(self.speed_scale) and self.speed_scale > 0):
            raise ConfigError(f"speed_scale must be > 0, got {self.speed_scale}")
        if not (math.isfinite(self.air_inflation) and self.air_inflation > 0):
            raise ConfigError(f"air_inflation must be > 0, got {self.air_inflation}")
        if not math.isfinite(self.jitter_sd) or self.jitter_sd < 0:
            raise ConfigError(f"jitter_sd must be >= 0, got {self.jitter_sd}")


IDENTITY = Perturbation()


@dataclass(frozen=True)
class SynthProfile:
    """Generator parameters, a hashable value: baseline motion, read-only per-set perturbations."""

    seed: int = 0
    n_subjects: int = 20
    base_speed: float = 14.0  # tablet units per sample
    base_pressure_level: int = 1100
    stroke_count: int = 8
    air_gap_len: int = 24  # mean in-air gap, samples
    perturbations: Mapping[SetId, Perturbation] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        _check_number_fields(self)
        if self.n_subjects < 1:
            raise ConfigError(f"n_subjects must be >= 1, got {self.n_subjects}")
        if self.stroke_count < 1:
            raise ConfigError(f"stroke_count must be >= 1, got {self.stroke_count}")
        if not (math.isfinite(self.base_speed) and self.base_speed > 0):
            raise ConfigError(f"base_speed must be > 0, got {self.base_speed}")
        if not 1 <= self.base_pressure_level <= PRESSURE_MAX:
            raise ConfigError(
                f"base_pressure_level must be in [1, {PRESSURE_MAX}], "
                f"got {self.base_pressure_level}"
            )
        if self.air_gap_len < 1:
            raise ConfigError(f"air_gap_len must be >= 1, got {self.air_gap_len}")
        perturbations = dict(self.perturbations)
        for k, v in perturbations.items():
            if not (isinstance(k, SetId) and isinstance(v, Perturbation)):
                raise ConfigError(f"perturbations map a SetId to a Perturbation, got {k!r}: {v!r}")
        object.__setattr__(self, "perturbations", MappingProxyType(perturbations))

    def perturbation(self, set_id: SetId) -> Perturbation:
        return self.perturbations.get(set_id, IDENTITY)

    def subject_ids(self) -> list[str]:
        """U01, U02, ... in key order, which puts U100 between U10 and U11."""
        return sorted(f"U{i:02d}" for i in range(1, self.n_subjects + 1))


def _stream(seed: int, *key_parts: object) -> np.random.Generator:
    """Independent generator for one hierarchical key."""
    label = "/".join([str(seed), *map(str, key_parts)])
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest[:16], "big")))


@dataclass(frozen=True)
class _SubjectTraits:
    amp_scale: float
    pressure_scale: float
    tempo: float
    azimuth: int
    altitude: int
    origin_x: int
    origin_y: int


@functools.lru_cache(maxsize=256)
def _subject_traits(seed: int, subject_id: str) -> _SubjectTraits:
    rng = _stream(seed, "subject", subject_id)
    z = rng.standard_normal(5)
    return _SubjectTraits(
        amp_scale=float(np.exp(_SUBJECT_AMP_SD * z[0])),
        pressure_scale=float(np.exp(_SUBJECT_PRESSURE_SD * z[1])),
        tempo=float(np.exp(_SUBJECT_TEMPO_SD * z[2])),
        azimuth=int(np.clip(round(200 + 50 * z[3]), 0, AZIMUTH_MAX)),
        altitude=int(np.clip(round(55 + 9 * z[4]), 0, ALTITUDE_MAX)),
        origin_x=int(rng.integers(2000, 6001)),
        origin_y=int(rng.integers(2000, 6001)),
    )


def generate_task(
    profile: SynthProfile, subject_id: str, set_id: SetId, task: int
) -> TaskRecord:
    """Generate one record: pen-down arcs separated by pressure-zero gaps.

    Identical inputs yield bit-identical records; ``generate_records`` builds
    every record through this function. A call builds the signals of all
    nine tasks of its subject and set in one pass (about 2 ms) and caches
    them, so the next calls for an equal profile, the same subject and the
    same set only build their record around the cached signal. Every call
    builds its own ``TaskRecord``, whose metadata is a read-only mapping of
    its own; the signal, immutable, is shared. A task whose x or y leaves
    the int64 range is a ConfigError of its own; the other tasks of its set
    are still returned.
    """
    task = validate_task_id(task)
    signal = _generate_set(profile, subject_id, set_id)[task - 1]
    if signal is None:
        raise ConfigError(
            f"subject {subject_id} set {set_id.value} task {task}: synthetic x or y "
            "leaves the int64 range; base_speed, speed_scale or jitter_sd is too large"
        )
    return TaskRecord(subject_id, set_id, task, signal, {"generator": "synthetic"})


def generate_records(profile: SynthProfile) -> Iterator[TaskRecord]:
    """Yield every record of the n_subjects x 5 sets x 9 tasks study in key
    order through ``generate_task``, which builds a set's nine tasks in one
    pass and holds one set at a time; a subset is a loop over it alone."""
    keys = itertools.product(profile.subject_ids(), ALL_SETS, TASK_IDS)
    return (generate_task(profile, *key) for key in keys)


def generate_corpus(profile: SynthProfile) -> StudyCorpus:
    """The ``generate_records`` study in memory."""
    return StudyCorpus(generate_records(profile))


# Row L - _STROKE_LEN_RANGE[0] holds sin(pi * (col + 0.5) / L), the pressure
# arc of a stroke of length L: it depends on nothing but the length.
_ARC = np.sin(
    math.pi
    * (np.arange(_STROKE_LEN_RANGE[1]) + 0.5)
    / np.arange(_STROKE_LEN_RANGE[0], _STROKE_LEN_RANGE[1] + 1)[:, None]
)


@functools.lru_cache(maxsize=1, typed=True)
def _generate_set(
    profile: SynthProfile, subject_id: str, set_id: SetId
) -> tuple[InkSignal | None, ...]:
    """Build the signals of the nine tasks of one subject and set in one
    padded pass, in task order, with None for a task whose x or y leaves
    the int64 range.

    Each record draws from its own stream. The arithmetic then runs on the
    strokes of all records at once, one stroke per row of zero-padded arrays.
    """
    check_set_id(set_id)
    traits = _subject_traits(profile.seed, subject_id)
    pert = profile.perturbation(set_id)
    # base_v * amp_scale, multiplied in the per-record order.
    v = profile.base_speed * traits.tempo * pert.speed_scale * traits.amp_scale
    gap_lo = max(1, profile.air_gap_len // 4)
    gap_hi = max(gap_lo + 1, 2 * profile.air_gap_len - gap_lo)

    # Stage 1, structure: raw integer draws; perturbations are applied
    # afterwards, so identical keys give identical draws whatever the
    # parameters are. Stage 2, trajectory: each per-sample draw covers all
    # strokes of the record. Stage 3: pressure noise. Stage 4, jitter, comes
    # last from the kept stream, once the record's length is known.
    rngs, draws = [], []
    has_gap = []  # per stroke row: whether a gap follows
    for task in TASK_IDS:
        rng = _stream(profile.seed, "record", subject_id, set_id.value, task)
        n = int(profile.stroke_count + rng.integers(0, _EXTRA_STROKES))
        stroke_len = rng.integers(_STROKE_LEN_RANGE[0], _STROKE_LEN_RANGE[1] + 1, size=n)
        raw_gaps = rng.integers(gap_lo, gap_hi + 1, size=n - 1)
        headings0 = rng.uniform(0.0, 2.0 * math.pi, size=n)
        curvature = rng.normal(0.0, _CURVATURE_SD, size=n)
        stroke_speed = rng.normal(0.0, _STROKE_SPEED_SD, size=n)
        n_down = int(stroke_len.sum())
        # Heading noise, then speed noise.
        noise = rng.standard_normal(2 * n_down)
        jump_angle = rng.uniform(0.0, 2.0 * math.pi, size=n - 1)
        jump_spread = rng.uniform(0.3, 0.8, size=n - 1)
        pressure_noise = rng.standard_normal(n_down)
        draws.append(
            (
                stroke_len, raw_gaps, headings0, curvature, stroke_speed, noise[:n_down],
                noise[n_down:], jump_angle, jump_spread, pressure_noise,
            )
        )
        rngs.append(rng)
        has_gap += [True] * (n - 1) + [False]
    (
        stroke_len, raw_gaps, headings0, curvature, stroke_speed, heading_noise,
        speed_noise, jump_angle, jump_spread, pressure_noise,
    ) = (np.concatenate(parts) for parts in zip(*draws))
    del draws
    gaps = np.maximum(1, np.rint(raw_gaps * pert.air_inflation).astype(np.int64))
    gap_len = np.zeros(stroke_len.size, dtype=np.int64)
    gap_len[np.array(has_gap)] = gaps

    # Row r holds stroke r, then the gap after it. The row-major gather of
    # ``keep`` yields stroke 0, gap 0, stroke 1, ..., last stroke, record
    # after record. A cumsum along a row adds in the same order as over the
    # stroke alone.
    col = np.arange(stroke_len.max())
    step = np.arange(1, gap_len.max() + 1)
    down = col < stroke_len[:, None]
    keep = np.concatenate([down, step <= gap_len[:, None]], axis=1)

    def by_stroke(flat: np.ndarray) -> np.ndarray:
        rows = np.zeros(down.shape)
        rows[down] = flat
        return rows

    # Pressure rises and falls within the stroke; clamp keeps pen-down
    # samples strictly positive so perturbing pressure never edits timing.
    p = np.zeros(keep.shape)
    level = profile.base_pressure_level * traits.pressure_scale
    np.clip(
        np.rint(
            level
            * _ARC[stroke_len - _STROKE_LEN_RANGE[0], : col.size]
            * np.exp(_PRESSURE_NOISE_SD * by_stroke(pressure_noise))
        )
        + pert.pressure_shift,
        1,
        PRESSURE_MAX,
        out=p[:, : col.size],
    )
    p = np.compress(keep.ravel(), p.ravel()).astype(int)
    # Padded planes cost about 100 KiB each for a set's nine records, so
    # inputs are dropped as soon as they are used.
    del pressure_noise

    # Sine and cosine are the costly part, so padding stays at zero.
    theta = headings0[:, None] + np.cumsum(
        curvature[:, None] + _HEADING_STEP_SD * by_stroke(heading_noise), axis=1
    )
    heading = np.zeros((2, *down.shape))
    np.cos(theta, out=heading[0], where=down)
    np.sin(theta, out=heading[1], where=down)
    heading *= (v * np.exp(stroke_speed))[:, None] * np.exp(
        _SAMPLE_SPEED_SD * by_stroke(speed_noise)
    )
    del theta, heading_noise, speed_noise
    # walk[0] and walk[1]: x and y offsets from each stroke's start, built
    # in place in the stroke columns of xy.
    xy = np.empty((2, *keep.shape))
    walk = xy[:, :, : col.size]
    np.cumsum(heading, axis=2, out=walk)
    del heading

    # Each stroke starts where the jump after the previous one lands, and a
    # record's first stroke at the subject's origin. Row r's gap runs from
    # stroke r's end to that target; a record's last row has none.
    walk_end = walk[:, np.arange(stroke_len.size), stroke_len - 1].T.tolist()
    jumps = (v * gaps * jump_spread).tolist()
    angles = jump_angle.tolist()
    origin_x, origin_y = float(traits.origin_x), float(traits.origin_y)
    pos_x, pos_y = origin_x, origin_y
    corners, lengths = [], []
    length = j = 0
    row_len = (stroke_len + gap_len).tolist()
    for (walk_x, walk_y), n, gap_follows in zip(walk_end, row_len, has_gap):
        start_x, start_y = pos_x, pos_y
        pos_x, pos_y = pos_x + walk_x, pos_y + walk_y
        length += n
        if gap_follows:
            target_x = pos_x + jumps[j] * math.cos(angles[j])
            target_y = pos_y + jumps[j] * math.sin(angles[j])
            corners.append((start_x, start_y, pos_x, pos_y, target_x, target_y))
            pos_x, pos_y = target_x, target_y
            j += 1
        else:
            corners.append((start_x, start_y, pos_x, pos_y, pos_x, pos_y))
            lengths.append(length)
            length = 0
            pos_x, pos_y = origin_x, origin_y
    corners = np.array(corners).T[:, :, None]
    starts, ends, targets = corners[0:2], corners[2:4], corners[4:6]

    # Gap samples sit strictly between the stroke end and next start.
    walk += starts
    gap_xy = xy[:, :, col.size :]
    np.multiply(targets - ends, step / (gap_len[:, None] + 1), out=gap_xy)
    gap_xy += ends
    del walk, gap_xy
    xy = np.compress(keep.ravel(), xy.reshape(2, -1), axis=1)
    if pert.jitter_sd > 0:
        unit = [rng.standard_normal((2, n)) for rng, n in zip(rngs, lengths)]
        xy += pert.jitter_sd * np.concatenate(unit, axis=1)

    # Casting a value outside int64 would write garbage (NaN fails both
    # comparisons), so a record holding one is zeroed and comes out None.
    # Channels are cast to plain integers: InkSignal alone picks their storage.
    np.rint(xy, out=xy)
    starts = np.cumsum([0, *lengths])
    lo = np.minimum.reduceat(xy, starts[:-1], axis=1).min(axis=0)
    hi = np.maximum.reduceat(xy, starts[:-1], axis=1).max(axis=0)
    inside = ((-(2.0**63) <= lo) & (hi < 2.0**63)).tolist()
    if not all(inside):
        xy[:, np.repeat(np.logical_not(inside), lengths)] = 0
    x, y = xy.astype(np.int64)
    azimuth = np.full(max(lengths), traits.azimuth, dtype=int)
    altitude = np.full(max(lengths), traits.altitude, dtype=int)
    return tuple(
        InkSignal(
            x=x[start : start + n], y=y[start : start + n], pressure=p[start : start + n],
            azimuth=azimuth[:n], altitude=altitude[:n],
        )
        if fits
        else None
        for start, n, fits in zip(starts.tolist(), lengths, inside)
    )


# ---------------------------------------------------------------------------
# Profile files
# ---------------------------------------------------------------------------

def _readers(cls) -> dict:
    """The ASCII reader of each int or float field of a profile dataclass."""
    readers = {"int": ascii_int, "float": ascii_float}
    return {f.name: readers[f.type] for f in fields(cls) if f.type in readers}


_PROFILE_READERS = _readers(SynthProfile)
_PERTURBATION_READERS = _readers(Perturbation)


def parse_profile(text: str) -> SynthProfile:
    """Parse a plain-text ``key = value`` profile.

    Global keys: seed, n_subjects, base_speed, base_pressure_level,
    stroke_count, air_gap_len. Per-set keys: ``set.<S>.<param>`` with
    param one of speed_scale, pressure_shift, air_inflation, jitter_sd.
    ``#`` starts a comment. An unknown key, or a key set twice, raises
    ConfigError.
    """
    globals_: dict[str, object] = {}
    per_set: dict[SetId, dict[str, object]] = {}
    for lineno, key, value in read_key_values(text):
        try:
            if key in _PROFILE_READERS:
                globals_[key] = _PROFILE_READERS[key](value)
                continue
            if key.startswith("set."):
                parts = key.split(".")
                if len(parts) != 3 or parts[2] not in _PERTURBATION_READERS:
                    raise ConfigError(f"unknown per-set key {key!r}")
                set_id = parse_set_id(parts[1])
                per_set.setdefault(set_id, {})[parts[2]] = _PERTURBATION_READERS[parts[2]](value)
                continue
        except ValueError:
            raise ConfigError(f"bad value {value!r} for {key}", line=lineno)
        except InkError as exc:
            raise ConfigError(str(exc), line=lineno) from exc
        raise ConfigError(f"unknown key {key!r}", line=lineno)

    perturbations = {s: Perturbation(**kw) for s, kw in per_set.items()}  # type: ignore[arg-type]
    return SynthProfile(perturbations=perturbations, **globals_)  # type: ignore[arg-type]


def load_profile(path: str | Path) -> SynthProfile:
    """Read and parse a profile file; every error names the file."""
    return read_input(path, parse_profile)
