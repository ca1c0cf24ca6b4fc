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

Draws are batched per stage in a fixed order: each per-sample stage is one
draw covering all strokes of the record, and the strokes are built as rows
of padded arrays. A ``Generator`` stream gives the same values in one draw as
in one draw per stroke, and every per-sample expression keeps its operand
order, so the output is bit-identical to building the record stroke by
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
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .model import (
    ALL_SETS,
    InkSignal,
    PRESSURE_MAX,
    SetId,
    StudyCorpus,
    TASK_IDS,
    TaskRecord,
    ascii_float,
    ascii_int,
    read_text,
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


@dataclass(frozen=True)
class Perturbation:
    """Per-set deviation from baseline handwriting."""

    speed_scale: float = 1.0
    pressure_shift: int = 0
    air_inflation: float = 1.0
    jitter_sd: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.speed_scale) and self.speed_scale > 0):
            raise ConfigError(f"speed_scale must be > 0, got {self.speed_scale}")
        if not (math.isfinite(self.air_inflation) and self.air_inflation > 0):
            raise ConfigError(f"air_inflation must be > 0, got {self.air_inflation}")
        if not math.isfinite(self.jitter_sd) or self.jitter_sd < 0:
            raise ConfigError(f"jitter_sd must be >= 0, got {self.jitter_sd}")
        if not isinstance(self.pressure_shift, (int, np.integer)):
            raise ConfigError(f"pressure_shift must be an integer, got {self.pressure_shift!r}")


IDENTITY = Perturbation()


@dataclass(frozen=True)
class SynthProfile:
    """Parameters of the generator: baseline motion plus per-set perturbations."""

    seed: int = 0
    n_subjects: int = 20
    base_speed: float = 14.0  # tablet units per sample
    base_pressure_level: int = 1100
    stroke_count: int = 8
    air_gap_len: int = 24  # mean in-air gap, samples
    perturbations: Mapping[SetId, Perturbation] = field(default_factory=dict)

    def __post_init__(self):
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
        object.__setattr__(self, "perturbations", dict(self.perturbations))

    def perturbation(self, set_id: SetId) -> Perturbation:
        return self.perturbations.get(set_id, IDENTITY)

    def subject_ids(self) -> list[str]:
        return [f"U{i:02d}" for i in range(1, self.n_subjects + 1)]


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
        azimuth=int(np.clip(round(200 + 50 * z[3]), 0, 359)),
        altitude=int(np.clip(round(55 + 9 * z[4]), 0, 90)),
        origin_x=int(rng.integers(2000, 6001)),
        origin_y=int(rng.integers(2000, 6001)),
    )


def generate_task(
    profile: SynthProfile, subject_id: str, set_id: SetId, task: int
) -> TaskRecord:
    """Generate one record: pen-down arcs separated by pressure-zero gaps.

    Identical inputs yield bit-identical records.
    """
    if task not in TASK_IDS:
        raise ConfigError(f"task must be in 1..9, got {task}")
    traits = _subject_traits(profile.seed, subject_id)
    pert = profile.perturbation(set_id)
    rng = _stream(profile.seed, "record", subject_id, set_id.value, task)

    # Stage 1: structure. Raw integer draws; perturbations applied afterwards
    # so identical keys give identical draws whatever the parameters are.
    n_strokes = int(profile.stroke_count + rng.integers(0, _EXTRA_STROKES))
    stroke_len = rng.integers(_STROKE_LEN_RANGE[0], _STROKE_LEN_RANGE[1] + 1, size=n_strokes)
    gap_lo = max(1, profile.air_gap_len // 4)
    gap_hi = max(gap_lo + 1, 2 * profile.air_gap_len - gap_lo)
    raw_gaps = rng.integers(gap_lo, gap_hi + 1, size=max(n_strokes - 1, 0))
    gaps = np.maximum(1, np.rint(raw_gaps * pert.air_inflation).astype(np.int64))

    # Stage 2: trajectory draws. A per-sample draw covers all strokes at once.
    n_down = int(stroke_len.sum())
    headings0 = rng.uniform(0.0, 2.0 * math.pi, size=n_strokes)
    curvature = rng.normal(0.0, _CURVATURE_SD, size=n_strokes)
    stroke_speed_mult = np.exp(rng.normal(0.0, _STROKE_SPEED_SD, size=n_strokes))
    heading_noise = rng.standard_normal(n_down)
    speed_noise = rng.standard_normal(n_down)
    jump_angle = rng.uniform(0.0, 2.0 * math.pi, size=max(n_strokes - 1, 0))
    jump_spread = rng.uniform(0.3, 0.8, size=max(n_strokes - 1, 0))

    # Stage 3: pressure noise, one value per pen-down sample.
    pressure_noise = rng.standard_normal(n_down)

    # Stroke i is row i of zero-padded (n_strokes, max_len) arrays; a cumsum
    # along a row adds in the same order as over the stroke alone.
    col = np.arange(stroke_len.max())
    down = col < stroke_len[:, None]

    def by_stroke(flat: np.ndarray) -> np.ndarray:
        rows = np.zeros(down.shape)
        rows[down] = flat
        return rows

    base_v = profile.base_speed * traits.tempo * pert.speed_scale
    theta = headings0[:, None] + np.cumsum(
        curvature[:, None] + _HEADING_STEP_SD * by_stroke(heading_noise), axis=1
    )
    v = (base_v * traits.amp_scale * stroke_speed_mult)[:, None] * np.exp(
        _SAMPLE_SPEED_SD * by_stroke(speed_noise)
    )
    # walk[0] and walk[1]: x and y offsets from each stroke's start.
    walk = np.cumsum(v * np.stack([np.cos(theta), np.sin(theta)]), axis=2)

    # Pressure rises and falls within the stroke; clamp keeps pen-down
    # samples strictly positive so perturbing pressure never edits timing.
    arc = np.sin(math.pi * (col + 0.5) / stroke_len[:, None])
    level = profile.base_pressure_level * traits.pressure_scale
    p_raw = np.rint(level * arc * np.exp(_PRESSURE_NOISE_SD * by_stroke(pressure_noise)))
    pen = np.clip(p_raw + pert.pressure_shift, 1, PRESSURE_MAX)

    # Each stroke starts where the jump after the previous one lands. Row i's
    # gap runs from stroke i's end to that target; the last row has none.
    walk_end = walk[:, np.arange(n_strokes), stroke_len - 1].T.tolist()
    jumps = (base_v * traits.amp_scale * gaps * jump_spread).tolist()
    angles = jump_angle.tolist()
    starts, ends, targets = [], [], []
    pos_x, pos_y = float(traits.origin_x), float(traits.origin_y)
    for i, (walk_x, walk_y) in enumerate(walk_end):
        starts.append((pos_x, pos_y))
        pos_x, pos_y = pos_x + walk_x, pos_y + walk_y
        ends.append((pos_x, pos_y))
        if i < n_strokes - 1:
            pos_x = pos_x + jumps[i] * math.cos(angles[i])
            pos_y = pos_y + jumps[i] * math.sin(angles[i])
        targets.append((pos_x, pos_y))
    starts, ends, targets = (np.array(a).T[:, :, None] for a in (starts, ends, targets))

    # Gap samples sit strictly between the stroke end and next start. The
    # row-major gather yields stroke 0, gap 0, stroke 1, ..., last stroke.
    gap_len = np.append(gaps, 0)
    step = np.arange(1, gap_len.max() + 1)
    frac = step / (gap_len[:, None] + 1)
    keep = np.concatenate([down, step <= gap_len[:, None]], axis=1)
    xy = np.concatenate([starts + walk, ends + (targets - ends) * frac], axis=2)[:, keep]
    p = np.concatenate([pen, np.zeros(frac.shape)], axis=1)[keep]

    # Stage 4: positional jitter, drawn last because its size depends on the
    # (inflation-dependent) record length.
    if pert.jitter_sd > 0:
        xy = xy + pert.jitter_sd * rng.standard_normal(xy.shape)

    x, y = np.rint(xy).astype(np.int64)
    signal = InkSignal(
        x=x,
        y=y,
        pressure=p.astype(np.int64),
        azimuth=np.full(x.size, traits.azimuth, dtype=np.int64),
        altitude=np.full(x.size, traits.altitude, dtype=np.int64),
    )
    return TaskRecord(
        subject_id=subject_id,
        set_id=set_id,
        task=task,
        signal=signal,
        metadata={"generator": "synthetic"},
    )


def generate_corpus(
    profile: SynthProfile, sets: tuple[SetId, ...] = ALL_SETS
) -> StudyCorpus:
    """Generate the full n_subjects x sets x 9-tasks corpus in memory."""
    corpus = StudyCorpus()
    for subject_id in profile.subject_ids():
        for set_id in sets:
            for task in TASK_IDS:
                corpus.add(generate_task(profile, subject_id, set_id, task))
    return corpus


# ---------------------------------------------------------------------------
# Profile files
# ---------------------------------------------------------------------------

_GLOBAL_KEYS = {
    "seed": ascii_int,
    "n_subjects": ascii_int,
    "base_speed": ascii_float,
    "base_pressure_level": ascii_int,
    "stroke_count": ascii_int,
    "air_gap_len": ascii_int,
}

_SET_KEYS = {
    "speed_scale": ascii_float,
    "pressure_shift": ascii_int,
    "air_inflation": ascii_float,
    "jitter_sd": ascii_float,
}


def parse_profile(text: str) -> SynthProfile:
    """Parse a plain-text ``key = value`` profile.

    Global keys: seed, n_subjects, base_speed, base_pressure_level,
    stroke_count, air_gap_len. Per-set keys: ``set.<S>.<param>`` with
    param one of speed_scale, pressure_shift, air_inflation, jitter_sd.
    ``#`` starts a comment. Unknown keys raise ConfigError.
    """
    globals_: dict[str, object] = {}
    per_set: dict[SetId, dict[str, object]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key in _GLOBAL_KEYS:
                globals_[key] = _GLOBAL_KEYS[key](value)
                continue
            if key.startswith("set."):
                parts = key.split(".")
                if len(parts) != 3 or parts[2] not in _SET_KEYS:
                    raise ConfigError(f"line {lineno}: unknown per-set key {key!r}")
                try:
                    set_id = SetId(parts[1])
                except ValueError:
                    raise ConfigError(f"line {lineno}: unknown set {parts[1]!r}")
                per_set.setdefault(set_id, {})[parts[2]] = _SET_KEYS[parts[2]](value)
                continue
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {value!r} for {key}")
        raise ConfigError(f"line {lineno}: unknown key {key!r}")

    perturbations = {s: Perturbation(**kw) for s, kw in per_set.items()}  # type: ignore[arg-type]
    return SynthProfile(perturbations=perturbations, **globals_)  # type: ignore[arg-type]


def load_profile(path: str | Path) -> SynthProfile:
    return parse_profile(read_text(Path(path)))
