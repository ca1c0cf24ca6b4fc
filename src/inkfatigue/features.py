"""Fatigue-sensitive features computed from one ink recording.

All operations are pure functions over integer channel arrays. Derivatives run
over the full sample sequence, in-air samples included; a pen-down-only
variant of the kinematic features exists under the ``pendown_`` name prefix
but is not part of the default catalog.

Units: one sample interval is the time unit (the 100 Hz clock is constant and
the downstream tests are rank-based, so per-second conversion is cosmetic and
lives in report rendering only). Speeds are tablet units per sample,
accelerations tablet units per sample squared, times are sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyInputError, RangeError, ShapeError, TooShortError
from .model import PRESSURE_MAX, SetId, TaskRecord

#: Default feature catalog; name order defines export column order.
DEFAULT_CATALOG: tuple[str, ...] = (
    "entropy_x",
    "entropy_y",
    "entropy_p",
    "mean_speed",
    "std_speed",
    "max_speed",
    "mean_acceleration",
    "std_acceleration",
    "max_acceleration",
    "mean_abs_dp",
    "mean_abs_ddp",
    "time_in_air",
    "time_down",
    "normalized_time_up",
    "p_gt_100",
    "p_gt_600",
    "p_band_100_400",
    "p_band_100_600",
)

#: Optional namespace: kinematics restricted to pen-down samples.
PENDOWN_CATALOG: tuple[str, ...] = (
    "pendown_mean_speed",
    "pendown_std_speed",
    "pendown_max_speed",
    "pendown_mean_acceleration",
    "pendown_std_acceleration",
    "pendown_max_acceleration",
)

#: Features whose values are exact non-negative integer counts.
COUNT_FEATURES = frozenset(
    {"time_in_air", "time_down", "p_gt_100", "p_gt_600", "p_band_100_400", "p_band_100_600"}
)

_KINEMATIC_NAMES = frozenset(name.removeprefix("pendown_") for name in PENDOWN_CATALOG)
_PENDOWN_NAMES = frozenset(PENDOWN_CATALOG)

MIN_SIGNAL_LEN = 3

#: Flag of a record whose extraction failed; its vector holds no values.
EXTRACTION_FAILED = "extraction-failed"


def _as_1d(series, name: str = "series") -> np.ndarray:
    arr = np.asarray(series)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional")
    return arr


def entropy(series, alphabet_size: int) -> float:
    """Plug-in Shannon entropy of an integer series, in bits.

    Probabilities are histogram frequencies count/len; 0*log2(0) is 0. The
    result lies in [0, log2(alphabet_size)].
    """
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


def first_derivative(series) -> np.ndarray:
    """Forward differences d[i] = s[i+1] - s[i] (length n-1)."""
    arr = _as_1d(series)
    if arr.size < 2:
        raise TooShortError("first derivative needs at least 2 samples")
    return np.diff(arr)


def second_derivative(series) -> np.ndarray:
    """Second differences dd[i] = s[i+2] - 2 s[i+1] + s[i] (length n-2)."""
    arr = _as_1d(series)
    if arr.size < 3:
        raise TooShortError("second derivative needs at least 3 samples")
    return np.diff(arr, n=2)


def speed_series(x, y) -> np.ndarray:
    """Instantaneous speed sqrt(dx^2 + dy^2), units per sample."""
    xa = _as_1d(x, "x")
    ya = _as_1d(y, "y")
    if xa.size != ya.size:
        raise ShapeError(f"x and y must have the same length ({xa.size} != {ya.size})")
    if xa.size < 2:
        raise TooShortError("speed needs at least 2 samples")
    return np.hypot(np.diff(xa), np.diff(ya))


def acceleration_series(x, y) -> np.ndarray:
    """Euclidean magnitude of per-axis second differences."""
    xa = _as_1d(x, "x")
    ya = _as_1d(y, "y")
    if xa.size != ya.size:
        raise ShapeError(f"x and y must have the same length ({xa.size} != {ya.size})")
    if xa.size < 3:
        raise TooShortError("acceleration needs at least 3 samples")
    return np.hypot(np.diff(xa, n=2), np.diff(ya, n=2))


def stroke_counts(pressure) -> tuple[int, int]:
    """Count pen-down and in-air strokes from the thresholded pressure signal.

    With b = (pressure > 0): strokes_down = b[0] + rising edges of b,
    strokes_up = (1 - b[0]) + falling edges of b. Equivalently, the number of
    maximal pen-down runs and maximal in-air runs.
    """
    arr = _as_1d(pressure, "pressure")
    if arr.size == 0:
        raise EmptyInputError("stroke counting needs a non-empty pressure series")
    b = (arr > 0).astype(np.int8)
    v = np.diff(b)
    strokes_down = int(b[0]) + int((v == 1).sum())
    strokes_up = int(1 - b[0]) + int((v == -1).sum())
    return strokes_down, strokes_up


def time_in_air(pressure) -> int:
    """Number of samples with zero pressure (pen hovering)."""
    arr = _as_1d(pressure, "pressure")
    if arr.size == 0:
        raise EmptyInputError("time_in_air needs a non-empty pressure series")
    return int((arr == 0).sum())


def time_down(pressure) -> int:
    """Number of samples with positive pressure (pen on the surface)."""
    arr = _as_1d(pressure, "pressure")
    if arr.size == 0:
        raise EmptyInputError("time_down needs a non-empty pressure series")
    return int((arr > 0).sum())


def normalized_time_up(pressure) -> float:
    """Time in air divided by the number of in-air strokes.

    Returns 0.0 when there is no in-air stroke (the extractor flags this case
    so downstream consumers can tell it apart from a genuine zero).
    """
    up = time_in_air(pressure)
    _, strokes_up = stroke_counts(pressure)
    if strokes_up == 0:
        return 0.0
    return up / strokes_up


def pressure_above(pressure, n: int) -> int:
    """Number of samples with pressure strictly greater than ``n``."""
    if not 0 <= n <= PRESSURE_MAX:
        raise RangeError(f"threshold must be in [0, {PRESSURE_MAX}], got {n}")
    arr = _as_1d(pressure, "pressure")
    return int((arr > n).sum())


def pressure_band(pressure, n1: int, n2: int) -> int:
    """Number of samples with n1 <= pressure <= n2 (inclusive both ends)."""
    if not (0 < n1 < n2 <= PRESSURE_MAX):
        raise RangeError(
            f"band bounds must satisfy 0 < n1 < n2 <= {PRESSURE_MAX}, got ({n1}, {n2})"
        )
    arr = _as_1d(pressure, "pressure")
    return int(((arr >= n1) & (arr <= n2)).sum())


def _shifted_entropy(series: np.ndarray) -> float:
    # Raw integer values shifted to a zero-based alphabet; no binning parameter.
    lo = int(series.min())
    hi = int(series.max())
    return entropy(series - lo, hi - lo + 1)


@dataclass(frozen=True)
class FeatureVector:
    """Named scalar features of one task record.

    ``values`` preserves catalog order. ``flags`` names features whose value
    came from a degenerate-input rule (for example no in-air stroke), so rank
    tests never see NaN but diagnostics stay honest. A record whose
    extraction failed has ``values`` None, the ``extraction-failed`` flag and
    the failure message in ``error``.
    """

    values: Mapping[str, float] | None
    flags: frozenset[str] = frozenset()
    error: str | None = None

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def __iter__(self):
        return iter(self.values)


def full_catalog() -> tuple[str, ...]:
    """Every known feature name, default catalog first."""
    return DEFAULT_CATALOG + PENDOWN_CATALOG


def _kinematic_stats(x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    speed = speed_series(x, y)
    accel = acceleration_series(x, y)
    return {
        "mean_speed": float(speed.mean()),
        "std_speed": float(speed.std()),
        "max_speed": float(speed.max()),
        "mean_acceleration": float(accel.mean()),
        "std_acceleration": float(accel.std()),
        "max_acceleration": float(accel.max()),
    }


def extract_features(
    record: TaskRecord, catalog: Sequence[str] = DEFAULT_CATALOG
) -> FeatureVector:
    """Compute every catalog feature for one record.

    Deterministic and side-effect free. Raises TooShortError for signals
    shorter than 3 samples (second derivatives need that much).
    """
    sig = record.signal
    n = len(sig)
    if n < MIN_SIGNAL_LEN:
        raise TooShortError(
            f"feature extraction needs at least {MIN_SIGNAL_LEN} samples, got {n}"
        )
    unknown = [name for name in catalog if name not in full_catalog()]
    if unknown:
        raise RangeError(f"unknown feature name(s): {', '.join(unknown)}")

    p = sig.pressure
    wanted = set(catalog)
    flags: set[str] = set()
    pool: dict[str, float] = {}

    if wanted & {"entropy_x", "entropy_y", "entropy_p"}:
        pool["entropy_x"] = _shifted_entropy(sig.x)
        pool["entropy_y"] = _shifted_entropy(sig.y)
        pool["entropy_p"] = entropy(p, PRESSURE_MAX + 1)
    if wanted & _KINEMATIC_NAMES:
        pool.update(_kinematic_stats(sig.x, sig.y))
    if "mean_abs_dp" in wanted:
        pool["mean_abs_dp"] = float(np.abs(np.diff(p)).mean())
    if "mean_abs_ddp" in wanted:
        pool["mean_abs_ddp"] = float(np.abs(np.diff(p, n=2)).mean())
    if wanted & {"time_in_air", "time_down", "normalized_time_up"}:
        pool["time_in_air"] = time_in_air(p)
        pool["time_down"] = time_down(p)
        pool["normalized_time_up"] = normalized_time_up(p)
        if stroke_counts(p)[1] == 0:
            flags.add("normalized_time_up")
    if "p_gt_100" in wanted:
        pool["p_gt_100"] = pressure_above(p, 100)
    if "p_gt_600" in wanted:
        pool["p_gt_600"] = pressure_above(p, 600)
    if "p_band_100_400" in wanted:
        pool["p_band_100_400"] = pressure_band(p, 100, 400)
    if "p_band_100_600" in wanted:
        pool["p_band_100_600"] = pressure_band(p, 100, 600)
    if wanted & _PENDOWN_NAMES:
        mask = p > 0
        if int(mask.sum()) < MIN_SIGNAL_LEN:
            for name in PENDOWN_CATALOG:
                pool[name] = 0.0
                flags.add(name)
        else:
            stats = _kinematic_stats(sig.x[mask], sig.y[mask])
            for name in PENDOWN_CATALOG:
                pool[name] = stats[name.removeprefix("pendown_")]

    values = {name: pool[name] for name in catalog}
    return FeatureVector(values=values, flags=frozenset(f for f in flags if f in wanted))


FeatureTable = Mapping[tuple[str, SetId, int], FeatureVector]


def feature_table(corpus, catalog: Sequence[str] = DEFAULT_CATALOG) -> FeatureTable:
    """Extract features for every record of a corpus, keyed like the corpus.

    Every record gets an entry. One too short to extract maps to a vector
    with no values, flagged ``extraction-failed``, carrying the error message.
    """
    table = {}
    for record in corpus.records():
        try:
            table[record.key] = extract_features(record, catalog)
        except TooShortError as exc:
            table[record.key] = FeatureVector(None, frozenset({EXTRACTION_FAILED}), str(exc))
    return table
