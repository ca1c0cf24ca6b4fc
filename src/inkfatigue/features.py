"""Fatigue-sensitive features computed from one ink recording.

All operations are pure functions over integer channel arrays. Derivatives run
over the full sample sequence, in-air samples included; a pen-down-only
variant of the kinematic features exists under the ``pendown_`` name prefix
but is not part of the default catalog.

Units: one sample interval is the time unit (the 100 Hz clock is constant and
the downstream tests are rank-based, so per-second conversion is cosmetic and
lives in report rendering only). Speeds are tablet units per sample,
accelerations tablet units per sample squared, times are sample counts.

``feature_table`` reads a corpus or any stream of records once into one
columnar ``FeatureTable``, a float64 row per record from ``extract_features``
in key order; matrices and renderers read its columns.
"""

from __future__ import annotations

import array
import types
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyInputError, RangeError, ShapeError, TooShortError
from .model import SetId, TaskRecord

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

#: Kinematic feature names, in the order ``_kinematics`` returns them.
_KINEMATIC_NAMES = tuple(name.removeprefix("pendown_") for name in PENDOWN_CATALOG)
_KNOWN_NAMES = frozenset(DEFAULT_CATALOG + PENDOWN_CATALOG)

MIN_SIGNAL_LEN = 3

#: Flag rendered for a record whose extraction failed; its row holds no values.
EXTRACTION_FAILED = "extraction-failed"


def _as_1d(series, name: str = "series") -> np.ndarray:
    arr = np.asarray(series)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional")
    return arr


# Private kernels, shared by ``extract_features`` and the public helpers
# below. They skip the checks that ``InkSignal`` already guarantees.


#: Widest value span counted with a dense histogram; wider spans count the
#: distinct values instead, so memory follows the sample count.
_DENSE_SPAN = 1 << 16


def _lo_span(a: np.ndarray) -> tuple[np.integer, int]:
    """Minimum and exact span (maximum - minimum) of a non-empty integer array."""
    lo = np.minimum.reduce(a)
    return lo, int(np.maximum.reduce(a)) - int(lo)


def _value_counts(a: np.ndarray, lo: np.integer, span: int) -> np.ndarray:
    """Counts of the values of a non-empty integer array with minimum ``lo``
    and span ``span``, ascending by value; may hold zero counts."""
    if span < _DENSE_SPAN:
        return np.bincount(a - lo)
    return np.unique(a, return_counts=True)[1]


def _entropy_bits(counts: np.ndarray, n: int) -> float:
    """Plug-in entropy in bits of a histogram of ``n`` samples."""
    probs = counts[counts > 0] / n
    return float(-np.add.reduce(probs * np.log2(probs)))


def _mean_std_max(a: np.ndarray) -> tuple[float, float, float]:
    """``a.mean()``, ``a.std()`` and ``a.max()`` of a non-empty float array,
    bit for bit: numpy's own order, sum / n and then sqrt(sum(d * d) / n)."""
    mean = np.add.reduce(a) / a.size
    d = a - mean
    return float(mean), float(np.sqrt(np.add.reduce(d * d) / a.size)), float(np.maximum.reduce(a))


def _kinematics(x: np.ndarray, y: np.ndarray) -> tuple[float, ...]:
    """Speed and acceleration statistics, in ``_KINEMATIC_NAMES`` order.

    Speed is sqrt(dx^2 + dy^2) of forward differences (units per sample);
    acceleration the same magnitude of second differences. Integer or
    Python-int object channels; the magnitudes are taken in float64.
    """
    dx = x[1:] - x[:-1]
    dy = y[1:] - y[:-1]
    speed = _mean_std_max(np.hypot(dx, dy, dtype=np.float64, casting="unsafe"))
    ddx, ddy = dx[1:] - dx[:-1], dy[1:] - dy[:-1]
    return speed + _mean_std_max(np.hypot(ddx, ddy, dtype=np.float64, casting="unsafe"))


def _timing(down: np.ndarray) -> tuple[int, int, int, int]:
    """(time_in_air, time_down, strokes_down, strokes_up) of a non-empty
    pen-down mask. Strokes are the maximal pen-down and in-air runs, which
    alternate starting from the state of the first sample."""
    n_down = int(np.count_nonzero(down))
    runs = 1 + int(np.count_nonzero(down[1:] != down[:-1]))
    first_down = int(down[0])
    return down.size - n_down, n_down, (runs + first_down) // 2, (runs + 1 - first_down) // 2


def _normalized_time_up(air: int, strokes_up: int) -> float:
    return air / strokes_up if strokes_up else 0.0


def _pen_down(pressure, what: str) -> np.ndarray:
    arr = _as_1d(pressure, "pressure")
    if arr.size == 0:
        raise EmptyInputError(f"{what} needs a non-empty pressure series")
    return arr > 0


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
    return _entropy_bits(_value_counts(arr, *_lo_span(arr)), arr.size)


def stroke_counts(pressure) -> tuple[int, int]:
    """Count pen-down and in-air strokes from the thresholded pressure signal.

    With b = (pressure > 0): strokes_down = b[0] + rising edges of b,
    strokes_up = (1 - b[0]) + falling edges of b. Equivalently, the number of
    maximal pen-down runs and maximal in-air runs.
    """
    return _timing(_pen_down(pressure, "stroke counting"))[2:]


def time_in_air(pressure) -> int:
    """Number of samples without positive pressure (pen hovering)."""
    return _timing(_pen_down(pressure, "time_in_air"))[0]


def time_down(pressure) -> int:
    """Number of samples with positive pressure (pen on the surface)."""
    return _timing(_pen_down(pressure, "time_down"))[1]


def normalized_time_up(pressure) -> float:
    """Time in air divided by the number of in-air strokes.

    Returns 0.0 when there is no in-air stroke (the extractor flags this case
    so downstream consumers can tell it apart from a genuine zero).
    """
    air, _, _, strokes_up = _timing(_pen_down(pressure, "normalized_time_up"))
    return _normalized_time_up(air, strokes_up)


@dataclass(frozen=True)
class FeatureVector:
    """Named scalar features of one task record, as ``extract_features``
    returns them.

    ``values`` preserves catalog order; count features are ints. ``flags``
    names features whose value came from a degenerate-input rule (for
    example no in-air stroke), so rank tests never see NaN but diagnostics
    stay honest.
    """

    values: Mapping[str, float]
    flags: frozenset[str] = frozenset()

    def __getitem__(self, name: str) -> float:
        return self.values[name]


def full_catalog() -> tuple[str, ...]:
    """Every known feature name, default catalog first."""
    return DEFAULT_CATALOG + PENDOWN_CATALOG


def extract_features(
    record: TaskRecord, catalog: Sequence[str] = DEFAULT_CATALOG
) -> FeatureVector:
    """Compute every catalog feature for one record.

    Deterministic and side-effect free. Raises TooShortError for signals
    shorter than 3 samples (second derivatives need that much). Each
    intermediate (differences, pen-down mask, counts) is computed once.
    """
    sig = record.signal
    n = len(sig)
    if n < MIN_SIGNAL_LEN:
        raise TooShortError(
            f"feature extraction needs at least {MIN_SIGNAL_LEN} samples, got {n}"
        )
    unknown = [name for name in catalog if name not in _KNOWN_NAMES]
    if unknown:
        raise RangeError(f"unknown feature name(s): {', '.join(unknown)}")

    x, y, p = sig.x, sig.y, sig.pressure
    wanted = set(catalog)
    flags: set[str] = set()
    pool: dict[str, float] = {}

    (x_lo, x_span), (y_lo, y_span) = _lo_span(x), _lo_span(y)
    if not wanted.isdisjoint(("entropy_x", "entropy_y", "entropy_p")):
        # Raw integer values as the alphabet; no binning.
        pool["entropy_x"] = _entropy_bits(_value_counts(x, x_lo, x_span), n)
        pool["entropy_y"] = _entropy_bits(_value_counts(y, y_lo, y_span), n)
        pool["entropy_p"] = _entropy_bits(np.bincount(p), n)
    # Differences are taken in int64, widening int32 x and y once; the one overflow
    # rule: int64 second differences of a 2**62 span could wrap, so use Python ints.
    wide = object if max(x_span, y_span) >= 1 << 62 else np.int64
    x, y = x.astype(wide, copy=False), y.astype(wide, copy=False)
    if not wanted.isdisjoint(_KINEMATIC_NAMES):
        pool.update(zip(_KINEMATIC_NAMES, _kinematics(x, y)))
    if "mean_abs_dp" in wanted or "mean_abs_ddp" in wanted:
        # int16 differences stay within +-2 * PRESSURE_MAX; np.add.reduce sums them
        # in the platform integer, exact below 2**53, so each quotient is mean()'s.
        dp = p[1:] - p[:-1]
        pool["mean_abs_dp"] = float(np.add.reduce(np.abs(dp)) / (n - 1))
        pool["mean_abs_ddp"] = float(np.add.reduce(np.abs(dp[1:] - dp[:-1])) / (n - 2))
    down = p > 0
    if not wanted.isdisjoint(("time_in_air", "time_down", "normalized_time_up")):
        air, n_down, _, strokes_up = _timing(down)
        pool["time_in_air"] = air
        pool["time_down"] = n_down
        pool["normalized_time_up"] = _normalized_time_up(air, strokes_up)
        if strokes_up == 0:
            flags.add("normalized_time_up")
    if not wanted.isdisjoint(("p_gt_100", "p_gt_600", "p_band_100_400", "p_band_100_600")):
        # Each band is the difference of two threshold counts.
        from_100, above_100, above_400, above_600 = (
            int(np.count_nonzero(p > t)) for t in (99, 100, 400, 600)
        )
        pool["p_gt_100"] = above_100
        pool["p_gt_600"] = above_600
        pool["p_band_100_400"] = from_100 - above_400
        pool["p_band_100_600"] = from_100 - above_600
    if not wanted.isdisjoint(PENDOWN_CATALOG):
        if np.count_nonzero(down) < MIN_SIGNAL_LEN:
            for name in PENDOWN_CATALOG:
                pool[name] = 0.0
                flags.add(name)
        else:
            pool.update(zip(PENDOWN_CATALOG, _kinematics(x[down], y[down])))

    values = {name: pool[name] for name in catalog}
    return FeatureVector(values=values, flags=frozenset(f for f in flags if f in wanted))


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Read-only ``values`` (float64, a NaN row for a failed record) and
    ``flags`` (degenerate-input rule) by [record, feature], for ``keys`` in
    row order and ``catalog`` in column order; ``errors`` maps the key of
    each failed record to its message. Arrays not shaped (keys, catalog), a
    repeated feature or key, or an error for a key outside ``keys`` raise
    RangeError; the table holds read-only views of the arrays and the
    mapping given."""

    keys: tuple[tuple[str, SetId, int], ...]
    catalog: tuple[str, ...]
    values: np.ndarray
    flags: np.ndarray
    errors: Mapping[tuple[str, SetId, int], str]

    def __post_init__(self):
        shape = (len(self.keys), len(self.catalog))
        for name in ("values", "flags"):
            array = getattr(self, name).view()
            if array.shape != shape:
                raise RangeError(f"{name} must have shape {shape}, got {array.shape}")
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        for what, where, items in (
            ("feature", "catalog", self.catalog), ("key", "keys", self.keys)
        ):
            seen = set()
            for item in items:
                if item in seen:
                    raise RangeError(f"duplicate {what} {item!r} in {where}")
                seen.add(item)
        for key in self.errors:
            if key not in seen:  # the loop above ends on the keys
                raise RangeError(f"error for {key!r}, which is not in keys")
        object.__setattr__(self, "errors", types.MappingProxyType(self.errors))

    def __len__(self) -> int:
        return len(self.keys)


def feature_table(
    records: Iterable[TaskRecord], catalog: Sequence[str] = DEFAULT_CATALOG
) -> FeatureTable:
    """Extract features for every record of a corpus or any iterable of
    records, read once, a row each in catalog order and rows in key order; a
    record too short to extract keeps a NaN row. The catalog, a repeated
    feature among it, is checked before any record is read."""
    catalog, width = tuple(catalog), len(catalog)
    FeatureTable((), catalog, np.empty((0, width)), np.empty((0, width), bool), {})
    keys, errors, values, flags = [], {}, array.array("d"), array.array("b")
    for record in records:
        keys.append(record.key)
        try:
            vector = extract_features(record, catalog)
        except TooShortError as exc:
            errors[record.key] = str(exc)
            vector = FeatureVector(dict.fromkeys(catalog, np.nan))
        values.extend(vector.values.values())
        flags.extend([name in vector.flags for name in catalog])
    # Headers, not paths, decide a key, so the rows are sorted once, here;
    # rows already in key order (from a corpus, or most directories) stay put.
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rows = slice(None) if order == list(range(len(keys))) else order
    shape = (len(keys), width)
    values = np.frombuffer(values, np.float64).reshape(shape)[rows]
    flags = np.frombuffer(flags, bool).reshape(shape)[rows]
    keys = tuple(keys[i] for i in order)
    return FeatureTable(keys, catalog, values, flags, dict(sorted(errors.items())))
