"""Independent brute-force oracles used to check the production code.

Everything here is deliberately naive: plain-Python loops, dict counting,
O(n^2) ranking and literal enumeration. None of it shares code with the
package under test, except the ``reference_*`` functions, which keep earlier
forms of production code that was rewritten for speed; the rewrites must
match them bit for bit:

- ``reference_generate_task`` keeps the per-stroke form of the
  synthetic-ink generator and reuses the generator's key streams, subject
  traits and shape constants;
- ``reference_extract_features`` keeps the per-feature extractor, built from
  separate helper calls, over x and y widened to int64, with the coordinate
  entropies counted by a ``Counter`` of the distinct values;
- ``reference_wilcoxon_signed_rank`` and ``reference_rank_sum_test`` keep
  the rank tests with one ``np.unique`` per tie question, and reuse the
  production null distribution, normal tail and result type;
- ``reference_feature_table`` keeps the dict feature table, one
  ``ReferenceFeatureVector`` per record key (values None for a failed
  extraction), filled from ``extract_features``;
- ``reference_build_matrix`` keeps the matrix build that re-pairs subjects
  through that dict table in every cell, and reuses the production rank
  tests and matrix types;
- ``ReferenceInkSignal`` keeps the channel checks of ``model.InkSignal``
  as plain-Python loops over each channel's values as given, without the
  min/max pair per bounded channel. It then stores x and y as int32 when
  every value of both fits, else both as int64, and each bounded channel
  as int16, the storage of ``model.InkSignal``;
- ``reference_matrix_to_tsv``, ``reference_mask_to_tsv``,
  ``reference_matrix_to_markdown``, ``reference_features_to_tsv``,
  ``reference_features_to_markdown`` and ``reference_summarize_recovery``
  keep the table renderers and the recovery summary from before they shared
  one TSV writer, one markdown writer and ``ComparisonMatrix.mask``: each
  renderer wrote its own framing, and the mask, the markdown bold cells and
  the recovery counts each compared p with alpha themselves. The one change is
  that ``ComparisonMatrix.column`` is spelled out as ``_column``. The
  feature renderers read the dict table;
- ``reference_matrix_to_json`` and ``reference_recovery_to_json`` keep the
  JSON writers that named every field of ``Cell``, ``RecoverySummary`` and
  ``CategoryCount`` by hand.

``SAMPLE_BODY_RE`` is the sample-line grammar of a task file as one regex,
the oracle of the parser's byte-class check.
"""

import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from inkfatigue.errors import (
    ConfigError,
    EmptyInputError,
    InsufficientDataError,
    RangeError,
    ShapeError,
    TooShortError,
)
from inkfatigue.features import (
    DEFAULT_CATALOG,
    EXTRACTION_FAILED,
    MIN_SIGNAL_LEN,
    PENDOWN_CATALOG,
    FeatureVector,
    extract_features,
    full_catalog,
)
from inkfatigue.model import (
    _CHANNEL_BOUNDS,
    _CHANNELS,
    PRESSURE_MAX,
    SAMPLE_RATE_HZ,
    TASK_IDS,
    Category,
    InkSignal,
    TaskRecord,
    validate_task_id,
)
from inkfatigue.protocol import (
    BASELINE_PAIRS,
    RECOVERY_PAIR,
    CategoryCount,
    RecoverySummary,
    pair_label,
)
from inkfatigue.reporting import NA, PER_SECOND_SCALE
from inkfatigue.stats import (
    EXACT_MAX_N,
    LOW_N_THRESHOLD,
    TESTS,
    Cell,
    ComparisonMatrix,
    MatrixRow,
    TestResult,
    _check_alternative,
    _exact_p,
    _normal_p,
    rank_sum_test,
    wilcoxon_signed_rank,
)
from inkfatigue.synth import (
    _CURVATURE_SD,
    _EXTRA_STROKES,
    _HEADING_STEP_SD,
    _PRESSURE_NOISE_SD,
    _SAMPLE_SPEED_SD,
    _STROKE_LEN_RANGE,
    _STROKE_SPEED_SD,
    _stream,
    _subject_traits,
)


def scan_segments(pressure):
    """Segment-scanning reference for stroke and timing features.

    Walks the pressure series once, tracking maximal runs of pen-down
    (pressure > 0) and in-air (pressure == 0) samples.
    """
    down_segments = 0
    up_segments = 0
    air = 0
    down = 0
    prev_state = None
    for value in pressure:
        state = "down" if value > 0 else "up"
        if value > 0:
            down += 1
        else:
            air += 1
        if state != prev_state:
            if state == "down":
                down_segments += 1
            else:
                up_segments += 1
            prev_state = state
    if up_segments == 0:
        ntu = 0.0
        flagged = True
    else:
        ntu = air / up_segments
        flagged = False
    return {
        "strokes_down": down_segments,
        "strokes_up": up_segments,
        "time_in_air": air,
        "time_down": down,
        "normalized_time_up": ntu,
        "flagged": flagged,
    }


def histogram_entropy(series):
    """Dict-counting Shannon entropy in bits."""
    counts = {}
    for value in series:
        counts[value] = counts.get(value, 0) + 1
    n = len(series)
    h = 0.0
    for c in counts.values():
        p = c / n
        h -= p * math.log2(p)
    return h


def naive_ranks(values):
    """Midranks by pairwise counting, O(n^2)."""
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def enumerate_signed_rank_p(diffs, alternative="two-sided"):
    """Exact signed-rank p-value by literal enumeration of sign assignments.

    Zero differences are dropped first. The two-sided p counts assignments at
    least as extreme in either direction: W' >= max(W, M - W) or
    W' <= min(W, M - W), with M the total rank sum.
    """
    d = [x for x in diffs if x != 0]
    n = len(d)
    if n == 0:
        return 1.0
    ranks = naive_ranks([abs(x) for x in d])
    w_obs = sum(r for r, x in zip(ranks, d) if x > 0)
    m = sum(ranks)
    eps = 1e-9
    count = 0
    total = 0
    for signs in itertools.product((False, True), repeat=n):
        w = sum(r for r, positive in zip(ranks, signs) if positive)
        total += 1
        if alternative == "greater":
            count += w >= w_obs - eps
        elif alternative == "less":
            count += w <= w_obs + eps
        else:
            hi = max(w_obs, m - w_obs)
            lo = m - hi
            count += (w >= hi - eps) or (w <= lo + eps)
    return min(1.0, count / total)


# Line breaks are those of str.splitlines; spaces are the other str.isspace
# characters, which is what re's \s matches. Digits, spaces and line breaks
# are disjoint, so each line matches one way only.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_EOL = rf"(?:\r\n|[{_LINE_BREAKS}])"
_SPACE = rf"[^\S{_LINE_BREAKS}]"
_INT = r"[+-]?[0-9]+"
_SAMPLE_LINE = rf"{_SPACE}*{_INT}" + rf"{_SPACE}+{_INT}" * 4 + rf"{_SPACE}*"
SAMPLE_BODY_RE = re.compile(rf"(?:{_SAMPLE_LINE}{_EOL})*(?:{_SAMPLE_LINE})?")


@dataclass(frozen=True, eq=False)
class ReferenceInkSignal:
    """``model.InkSignal``'s fields and channel checks, over Python lists.
    Python compares int, float and bool exactly, so every value is checked
    and named as given: x and y must fit int64, and nan and inf lie outside
    every range. Only after every check does each channel become an array:
    int16 for the bounded channels, and for x and y int32 when every value
    of both lies in [-2**31, 2**31 - 1], else int64."""

    x: np.ndarray
    y: np.ndarray
    pressure: np.ndarray
    azimuth: np.ndarray
    altitude: np.ndarray

    def __post_init__(self):
        values = {}
        for name in _CHANNELS:
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1:
                raise ShapeError(f"channel {name} must be one-dimensional")
            values[name] = arr.tolist()
            if not all(isinstance(v, (int, float)) for v in values[name]):
                raise RangeError(f"channel {name} holds non-number values")
            if any(
                isinstance(v, float) and math.isfinite(v) and not v.is_integer()
                for v in values[name]
            ):
                raise RangeError(f"channel {name} holds non-integer values")
        n = len(values["x"])
        for name in _CHANNELS[1:]:
            if len(values[name]) != n:
                raise ShapeError("all channels must have the same length")
        if n < 2:
            raise TooShortError(f"a signal needs at least 2 samples, got {n}")
        for name in _CHANNELS:
            lo, hi = _CHANNEL_BOUNDS.get(name, (-(2**63), 2**63 - 1))
            bad = [i for i, v in enumerate(values[name]) if not lo <= v <= hi]
            if bad:
                v = values[name][bad[0]]
                raise RangeError(f"{name} value {v} at sample {bad[0]} outside [{lo}, {hi}]")
        narrow = all(-(2**31) <= v <= 2**31 - 1 for v in values["x"] + values["y"])
        for name in _CHANNELS:
            dtype = np.int16 if name in _CHANNEL_BOUNDS else np.int32 if narrow else np.int64
            arr = np.array(values[name], dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def reference_generate_task(profile, subject_id, set_id, task):
    """Per-stroke form of ``synth.generate_task``: one Python iteration and
    separate draws per stroke. The production generator must match it bit
    for bit."""
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

    # Stage 2: trajectory draws.
    headings0 = rng.uniform(0.0, 2.0 * math.pi, size=n_strokes)
    curvature = rng.normal(0.0, _CURVATURE_SD, size=n_strokes)
    stroke_speed_mult = np.exp(rng.normal(0.0, _STROKE_SPEED_SD, size=n_strokes))
    heading_noise = [rng.standard_normal(int(L)) for L in stroke_len]
    speed_noise = [rng.standard_normal(int(L)) for L in stroke_len]
    jump_angle = rng.uniform(0.0, 2.0 * math.pi, size=max(n_strokes - 1, 0))
    jump_spread = rng.uniform(0.3, 0.8, size=max(n_strokes - 1, 0))

    # Stage 3: pressure noise, one value per pen-down sample.
    pressure_noise = [rng.standard_normal(int(L)) for L in stroke_len]

    base_v = profile.base_speed * traits.tempo * pert.speed_scale
    x_parts: list[np.ndarray] = []
    y_parts: list[np.ndarray] = []
    p_parts: list[np.ndarray] = []
    pos_x, pos_y = float(traits.origin_x), float(traits.origin_y)

    for i in range(n_strokes):
        L = int(stroke_len[i])
        theta = headings0[i] + np.cumsum(
            curvature[i] + _HEADING_STEP_SD * heading_noise[i]
        )
        v = base_v * traits.amp_scale * stroke_speed_mult[i] * np.exp(
            _SAMPLE_SPEED_SD * speed_noise[i]
        )
        dx = v * np.cos(theta)
        dy = v * np.sin(theta)
        sx = pos_x + np.cumsum(dx)
        sy = pos_y + np.cumsum(dy)
        x_parts.append(sx)
        y_parts.append(sy)
        pos_x, pos_y = float(sx[-1]), float(sy[-1])

        # Pressure rises and falls within the stroke; clamp keeps pen-down
        # samples strictly positive so perturbing pressure never edits timing.
        arc = np.sin(math.pi * (np.arange(L) + 0.5) / L)
        level = profile.base_pressure_level * traits.pressure_scale
        p_raw = np.rint(level * arc * np.exp(_PRESSURE_NOISE_SD * pressure_noise[i]))
        p_parts.append(np.clip(p_raw + pert.pressure_shift, 1, PRESSURE_MAX))

        if i < n_strokes - 1:
            gap = int(gaps[i])
            jump = base_v * traits.amp_scale * float(gaps[i]) * jump_spread[i]
            target_x = pos_x + jump * math.cos(jump_angle[i])
            target_y = pos_y + jump * math.sin(jump_angle[i])
            # Gap samples sit strictly between the stroke end and next start.
            frac = np.arange(1, gap + 1) / (gap + 1)
            x_parts.append(pos_x + (target_x - pos_x) * frac)
            y_parts.append(pos_y + (target_y - pos_y) * frac)
            p_parts.append(np.zeros(gap))
            pos_x, pos_y = target_x, target_y

    x = np.concatenate(x_parts)
    y = np.concatenate(y_parts)
    p = np.concatenate(p_parts)

    # Stage 4: positional jitter, drawn last because its size depends on the
    # (inflation-dependent) record length.
    if pert.jitter_sd > 0:
        jitter = rng.standard_normal((2, x.size))
        x = x + pert.jitter_sd * jitter[0]
        y = y + pert.jitter_sd * jitter[1]

    signal = InkSignal(
        x=np.rint(x).astype(np.int64),
        y=np.rint(y).astype(np.int64),
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


# ---------------------------------------------------------------------------
# Per-feature extractor, kept from before the single-pass rewrite
# ---------------------------------------------------------------------------

_KINEMATIC_NAMES = frozenset(name.removeprefix("pendown_") for name in PENDOWN_CATALOG)
_PENDOWN_NAMES = frozenset(PENDOWN_CATALOG)


def _as_1d(series, name="series"):
    arr = np.asarray(series)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional")
    return arr


def _entropy(series, alphabet_size):
    arr = _as_1d(series)
    if arr.size == 0:
        raise EmptyInputError("entropy of an empty series is undefined")
    if alphabet_size < 1:
        raise RangeError(f"alphabet_size must be >= 1, got {alphabet_size}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise RangeError("entropy expects an integer series")
    if arr.min() < 0 or arr.max() >= alphabet_size:
        raise RangeError(
            f"series values must lie in [0, {alphabet_size}), "
            f"got range [{arr.min()}, {arr.max()}]"
        )
    counts = np.bincount(arr, minlength=alphabet_size)
    probs = counts[counts > 0] / arr.size
    return float(-(probs * np.log2(probs)).sum())


def _speed_series(x, y):
    xa = _as_1d(x, "x")
    ya = _as_1d(y, "y")
    if xa.size != ya.size:
        raise ShapeError(f"x and y must have the same length ({xa.size} != {ya.size})")
    if xa.size < 2:
        raise TooShortError("speed needs at least 2 samples")
    return np.hypot(np.diff(xa), np.diff(ya))


def _acceleration_series(x, y):
    xa = _as_1d(x, "x")
    ya = _as_1d(y, "y")
    if xa.size != ya.size:
        raise ShapeError(f"x and y must have the same length ({xa.size} != {ya.size})")
    if xa.size < 3:
        raise TooShortError("acceleration needs at least 3 samples")
    return np.hypot(np.diff(xa, n=2), np.diff(ya, n=2))


def _stroke_counts(pressure):
    arr = _as_1d(pressure, "pressure")
    if arr.size == 0:
        raise EmptyInputError("stroke counting needs a non-empty pressure series")
    b = (arr > 0).astype(np.int8)
    v = np.diff(b)
    strokes_down = int(b[0]) + int((v == 1).sum())
    strokes_up = int(1 - b[0]) + int((v == -1).sum())
    return strokes_down, strokes_up


def _time_in_air(pressure):
    arr = _as_1d(pressure, "pressure")
    if arr.size == 0:
        raise EmptyInputError("time_in_air needs a non-empty pressure series")
    return int((arr == 0).sum())


def _time_down(pressure):
    arr = _as_1d(pressure, "pressure")
    if arr.size == 0:
        raise EmptyInputError("time_down needs a non-empty pressure series")
    return int((arr > 0).sum())


def _normalized_time_up(pressure):
    up = _time_in_air(pressure)
    _, strokes_up = _stroke_counts(pressure)
    if strokes_up == 0:
        return 0.0
    return up / strokes_up


def _pressure_above(pressure, n):
    if not 0 <= n <= PRESSURE_MAX:
        raise RangeError(f"threshold must be in [0, {PRESSURE_MAX}], got {n}")
    arr = _as_1d(pressure, "pressure")
    return int((arr > n).sum())


def _pressure_band(pressure, n1, n2):
    if not (0 < n1 < n2 <= PRESSURE_MAX):
        raise RangeError(
            f"band bounds must satisfy 0 < n1 < n2 <= {PRESSURE_MAX}, got ({n1}, {n2})"
        )
    arr = _as_1d(pressure, "pressure")
    return int(((arr >= n1) & (arr <= n2)).sum())


def _shifted_entropy(series):
    """Entropy of the raw values as the alphabet: a ``Counter`` of the
    distinct values, taken in ascending value order, so memory follows the
    sample count and not the span."""
    counter = Counter(series.tolist())
    probs = np.array([counter[v] for v in sorted(counter)]) / series.size
    return float(-(probs * np.log2(probs)).sum())


def _kinematic_stats(x, y):
    speed = _speed_series(x, y)
    accel = _acceleration_series(x, y)
    return {
        "mean_speed": float(speed.mean()),
        "std_speed": float(speed.std()),
        "max_speed": float(speed.max()),
        "mean_acceleration": float(accel.mean()),
        "std_acceleration": float(accel.std()),
        "max_acceleration": float(accel.max()),
    }


def reference_extract_features(record, catalog=DEFAULT_CATALOG):
    """Per-feature form of ``features.extract_features``: each feature from
    its own helper call, with ``ndarray.mean``/``std``/``max``."""
    sig = record.signal
    n = len(sig)
    if n < MIN_SIGNAL_LEN:
        raise TooShortError(
            f"feature extraction needs at least {MIN_SIGNAL_LEN} samples, got {n}"
        )
    unknown = [name for name in catalog if name not in full_catalog()]
    if unknown:
        raise RangeError(f"unknown feature name(s): {', '.join(unknown)}")

    # x and y may be stored as int32, whose differences could wrap.
    x, y, p = sig.x.astype(np.int64), sig.y.astype(np.int64), sig.pressure
    wanted = set(catalog)
    flags = set()
    pool = {}

    if wanted & {"entropy_x", "entropy_y", "entropy_p"}:
        pool["entropy_x"] = _shifted_entropy(x)
        pool["entropy_y"] = _shifted_entropy(y)
        pool["entropy_p"] = _entropy(p, PRESSURE_MAX + 1)
    if wanted & _KINEMATIC_NAMES:
        pool.update(_kinematic_stats(x, y))
    if "mean_abs_dp" in wanted:
        pool["mean_abs_dp"] = float(np.abs(np.diff(p)).mean())
    if "mean_abs_ddp" in wanted:
        pool["mean_abs_ddp"] = float(np.abs(np.diff(p, n=2)).mean())
    if wanted & {"time_in_air", "time_down", "normalized_time_up"}:
        pool["time_in_air"] = _time_in_air(p)
        pool["time_down"] = _time_down(p)
        pool["normalized_time_up"] = _normalized_time_up(p)
        if _stroke_counts(p)[1] == 0:
            flags.add("normalized_time_up")
    if "p_gt_100" in wanted:
        pool["p_gt_100"] = _pressure_above(p, 100)
    if "p_gt_600" in wanted:
        pool["p_gt_600"] = _pressure_above(p, 600)
    if "p_band_100_400" in wanted:
        pool["p_band_100_400"] = _pressure_band(p, 100, 400)
    if "p_band_100_600" in wanted:
        pool["p_band_100_600"] = _pressure_band(p, 100, 600)
    if wanted & _PENDOWN_NAMES:
        mask = p > 0
        if int(mask.sum()) < MIN_SIGNAL_LEN:
            for name in PENDOWN_CATALOG:
                pool[name] = 0.0
                flags.add(name)
        else:
            stats = _kinematic_stats(x[mask], y[mask])
            for name in PENDOWN_CATALOG:
                pool[name] = stats[name.removeprefix("pendown_")]

    values = {name: pool[name] for name in catalog}
    return FeatureVector(values=values, flags=frozenset(f for f in flags if f in wanted))


# ---------------------------------------------------------------------------
# Rank tests, kept from before the single-unique rewrite
# ---------------------------------------------------------------------------


def _midranks(values):
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg = (starts + 1 + ends) / 2.0
    return avg[inverse]


def reference_wilcoxon_signed_rank(paired, alternative="two-sided"):
    """``stats.wilcoxon_signed_rank`` with three ``np.unique`` calls."""
    _check_alternative(alternative)
    pairs = np.asarray(list(paired), dtype=np.float64)
    if pairs.size == 0:
        raise EmptyInputError("signed-rank test needs at least one pair")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("paired input must be a sequence of (a, b) pairs")
    if not np.isfinite(pairs).all():
        raise ValueError("paired values must be finite")

    d = pairs[:, 0] - pairs[:, 1]
    zeros = int((d == 0).sum())
    d = d[d != 0]
    n = int(d.size)
    if n == 0:
        return TestResult(
            statistic=0.0,
            n_effective=0,
            p=1.0,
            method="exact",
            ties_present=False,
            zeros_dropped=zeros,
            alternative=alternative,
        )

    abs_d = np.abs(d)
    ranks = _midranks(abs_d)
    w = float(ranks[d > 0].sum())
    ties = bool(np.unique(abs_d).size != n)

    if not ties and n <= EXACT_MAX_N:
        p = _exact_p(w, n, alternative)
        method = "exact"
    else:
        _, tie_counts = np.unique(abs_d, return_counts=True)
        var = n * (n + 1) * (2 * n + 1) / 24.0
        var -= float((tie_counts.astype(np.float64) ** 3 - tie_counts).sum()) / 48.0
        p = _normal_p(w, n * (n + 1) / 4.0, var, alternative)
        method = "normal-approx"
    return TestResult(
        statistic=w,
        n_effective=n,
        p=p,
        method=method,
        ties_present=ties,
        zeros_dropped=zeros,
        alternative=alternative,
    )


def reference_rank_sum_test(a_values, b_values, alternative="two-sided"):
    """``stats.rank_sum_test`` with two ``np.unique`` calls."""
    _check_alternative(alternative)
    a = np.asarray(list(a_values), dtype=np.float64)
    b = np.asarray(list(b_values), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise EmptyInputError("rank-sum test needs both samples non-empty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("sample values must be finite")
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    n1, n2 = int(a.size), int(b.size)
    n = n1 + n2
    r1 = float(ranks[:n1].sum())
    mu = n1 * (n + 1) / 2.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float((tie_counts.astype(np.float64) ** 3 - tie_counts).sum())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    ties = bool(tie_counts.size != n)
    return TestResult(
        statistic=r1,
        n_effective=n,
        p=_normal_p(r1, mu, var, alternative),
        method="normal-approx",
        ties_present=ties,
        zeros_dropped=0,
        alternative=alternative,
    )


# ---------------------------------------------------------------------------
# Matrix build, kept from before the value-column rewrite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceFeatureVector:
    """One entry of the dict feature table: ``values`` maps the catalog to
    the extracted values, or is None with the ``extraction-failed`` flag
    for a failed extraction."""

    values: dict | None
    flags: frozenset = frozenset()

    def __getitem__(self, name):
        return self.values[name]


def reference_feature_table(corpus, catalog):
    """The dict feature table: one ``ReferenceFeatureVector`` per record key."""
    table = {}
    for record in corpus:
        try:
            vector = extract_features(record, catalog)
        except TooShortError:
            table[record.key] = ReferenceFeatureVector(None, frozenset({EXTRACTION_FAILED}))
        else:
            table[record.key] = ReferenceFeatureVector(dict(vector.values), vector.flags)
    return table


def reference_compare_sets(
    corpus,
    task,
    feature,
    pair,
    *,
    table=None,
    test="signed-rank",
    alternative="two-sided",
):
    """``stats.compare_sets`` when it paired subjects through the dict table."""
    validate_task_id(task)
    if test not in TESTS:
        raise ValueError(f"test must be 'signed-rank' or 'rank-sum', got {test!r}")
    _check_alternative(alternative)
    if table is None:
        table = reference_feature_table(corpus, [feature])
    set_a, set_b = pair
    get = table.get
    complete = [
        (fa.values, fb.values)
        for subject in corpus.subjects
        if (fa := get((subject, set_a, task))) is not None and fa.values is not None
        and (fb := get((subject, set_b, task))) is not None and fb.values is not None
    ]
    if not complete:
        raise InsufficientDataError(
            f"no subject has task {task} in both {pair[0].value} and {pair[1].value}"
        )
    # One float column per set: converting a list of pairs costs far more.
    a = np.array([va[feature] for va, _ in complete], dtype=np.float64)
    b = np.array([vb[feature] for _, vb in complete], dtype=np.float64)
    if test == "signed-rank":
        return wilcoxon_signed_rank(np.column_stack((a, b)), alternative)
    return rank_sum_test(a, b, alternative)


def reference_build_matrix(
    corpus,
    rows,
    pairs,
    *,
    alpha=0.05,
    test="signed-rank",
    alternative="two-sided",
):
    """``stats.build_matrix`` with one ``reference_compare_sets`` per cell,
    over the dict table of every row feature."""
    if not rows:
        raise EmptyInputError("row spec must name at least one (task, feature)")
    if not 0.0 < alpha < 1.0:
        raise RangeError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    catalog_order = {name: i for i, name in enumerate(DEFAULT_CATALOG)}
    norm_rows = sorted(
        {(validate_task_id(t), f) for t, f in rows},
        key=lambda r: (r[0], catalog_order.get(r[1], len(catalog_order)), r[1]),
    )
    needed = sorted(
        {f for _, f in norm_rows},
        key=lambda f: (catalog_order.get(f, len(catalog_order)), f),
    )
    table = reference_feature_table(corpus, needed)

    matrix_rows = tuple(MatrixRow(t, f) for t, f in norm_rows)
    all_cells = []
    for task, feature in norm_rows:
        row_cells = []
        for pair in pairs:
            try:
                result = reference_compare_sets(
                    corpus, task, feature, pair,
                    table=table, test=test, alternative=alternative,
                )
            except InsufficientDataError:
                row_cells.append(None)
                continue
            row_cells.append(
                Cell(
                    p=result.p,
                    n_effective=result.n_effective,
                    method=result.method,
                    ties_present=result.ties_present,
                    low_n=result.n_effective < LOW_N_THRESHOLD,
                )
            )
        all_cells.append(tuple(row_cells))
    return ComparisonMatrix(
        rows=matrix_rows,
        pairs=tuple(pairs),
        cells=tuple(all_cells),
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# Table renderers and the recovery summary, each with its own framing and
# its own p < alpha test
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _column(matrix, pair):
    j = matrix.pairs.index(pair)
    return [row_cells[j] for row_cells in matrix.cells]


def reference_matrix_to_tsv(matrix: ComparisonMatrix) -> str:
    header = ["task_type", "task", "feature"] + [pair_label(p) for p in matrix.pairs]
    lines = ["\t".join(header)]
    for row, cells in zip(matrix.rows, matrix.cells):
        fields = [row.category.value, str(row.task), row.feature]
        fields += [NA if c is None else _fmt(c.p) for c in cells]
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def reference_mask_to_tsv(matrix: ComparisonMatrix) -> str:
    """Boolean significance table parallel to the p-value TSV: a cell is
    significant when p < matrix.alpha, and NA never is."""
    header = ["task_type", "task", "feature"] + [pair_label(p) for p in matrix.pairs]
    lines = ["\t".join(header)]
    for row, cells in zip(matrix.rows, matrix.cells):
        fields = [row.category.value, str(row.task), row.feature]
        fields += ["true" if c is not None and c.p < matrix.alpha else "false" for c in cells]
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def reference_matrix_to_markdown(matrix: ComparisonMatrix, alpha: float | None = None) -> str:
    a = matrix.alpha if alpha is None else alpha
    header = ["Task type", "Task", "Feature"] + [pair_label(p) for p in matrix.pairs]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(["---"] * len(header)) + "|",
    ]
    for row, cells in zip(matrix.rows, matrix.cells):
        fields = [row.category.value, str(row.task), row.feature]
        for cell in cells:
            if cell is None:
                fields.append(NA)
            else:
                text = f"{cell.p:.4g}"
                fields.append(f"**{text}**" if cell.p < a else text)
        lines.append("| " + " | ".join(fields) + " |")
    return "\n".join(lines) + "\n"


def _table_rows(table):
    for key in sorted(table, key=lambda k: (k[0], int(k[1].value[1]), k[2])):
        yield key, table[key]


def reference_features_to_tsv(table, catalog) -> str:
    header = ["subject", "set", "task", *catalog, "degenerate"]
    lines = ["\t".join(header)]
    for (subject, set_id, task), vector in _table_rows(table):
        fields = [subject, set_id.value, str(task)]
        fields += [NA if vector.values is None else _fmt(vector[name]) for name in catalog]
        fields.append(",".join(sorted(vector.flags)))
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def reference_features_to_markdown(table, catalog) -> str:
    """Markdown feature table with speeds/accelerations shown per second."""

    def label(name: str) -> str:
        if PER_SECOND_SCALE.get(name) == SAMPLE_RATE_HZ:
            return f"{name} (units/s)"
        if PER_SECOND_SCALE.get(name) == SAMPLE_RATE_HZ**2:
            return f"{name} (units/s^2)"
        return name

    header = ["subject", "set", "task", *(label(n) for n in catalog)]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(["---"] * len(header)) + "|",
    ]
    for (subject, set_id, task), vector in _table_rows(table):
        fields = [subject, set_id.value, str(task)]
        for name in catalog:
            if vector.values is None:
                fields.append(NA)
                continue
            value = vector[name] * PER_SECOND_SCALE.get(name, 1.0)
            fields.append(f"{value:.6g}")
        lines.append("| " + " | ".join(fields) + " |")
    return "\n".join(lines) + "\n"


def _column_counts(rows, column_cells, alpha):
    grouped = {c: [] for c in Category}
    for row, cell in zip(rows, column_cells):
        if cell is not None and cell.p < alpha:
            grouped[row.category].append((row.task, row.feature))
    return {
        category: CategoryCount(len(cells), tuple(cells))
        for category, cells in grouped.items()
    }


def reference_summarize_recovery(matrix: ComparisonMatrix, alpha: float = 0.05) -> RecoverySummary:
    """Count significant cells per category for each against-baseline column.

    Columns absent from the matrix are skipped. The S4-S5 column, when
    present, is summarized across all categories combined as the
    ``no_recovery`` count.
    """
    if not 0.0 <= alpha <= 1.0:
        raise RangeError(f"alpha must lie in [0, 1], got {alpha}")
    columns = {}
    for pair in BASELINE_PAIRS:
        if pair in matrix.pairs:
            columns[pair_label(pair)] = _column_counts(
                matrix.rows, _column(matrix, pair), alpha
            )
    no_recovery = None
    if RECOVERY_PAIR in matrix.pairs:
        sig = [
            (row.task, row.feature)
            for row, cell in zip(matrix.rows, _column(matrix, RECOVERY_PAIR))
            if cell is not None and cell.p < alpha
        ]
        no_recovery = CategoryCount(len(sig), tuple(sig))
    return RecoverySummary(alpha=alpha, columns=columns, no_recovery=no_recovery)


# ---------------------------------------------------------------------------
# JSON writers that name every field of the dataclasses they write
# ---------------------------------------------------------------------------


def reference_matrix_to_json(matrix: ComparisonMatrix) -> str:
    payload = {
        "alpha": matrix.alpha,
        "pairs": [pair_label(p) for p in matrix.pairs],
        "rows": [
            {
                "task": row.task,
                "feature": row.feature,
                "category": row.category.value,
                "cells": [
                    None
                    if cell is None
                    else {
                        "p": cell.p,
                        "n_effective": cell.n_effective,
                        "method": cell.method,
                        "ties_present": cell.ties_present,
                        "low_n": cell.low_n,
                    }
                    for cell in cells
                ],
            }
            for row, cells in zip(matrix.rows, matrix.cells)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_recovery_to_json(summary: RecoverySummary) -> str:
    payload = {
        "alpha": summary.alpha,
        "scope": summary.scope,
        "columns": {
            label: {
                category.value: {
                    "count": cc.count,
                    "cells": [[task, feature] for task, feature in cc.cells],
                }
                for category, cc in by_category.items()
            }
            for label, by_category in summary.columns.items()
        },
        "no_recovery": None
        if summary.no_recovery is None
        else {
            "count": summary.no_recovery.count,
            "cells": [[task, feature] for task, feature in summary.no_recovery.cells],
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
