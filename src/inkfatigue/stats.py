"""Paired nonparametric testing and the set-pair comparison matrix.

The workhorse is the Wilcoxon signed-rank test with an exact small-sample null
distribution: zero differences are dropped (classic discard rule), |d| is
ranked with midranks on ties, and W is the sum of ranks of positive
differences. With no ties and n_effective <= 25 the two-sided p-value is exact
(symmetric tail counts of the W null distribution, computed by convolution
over the rank set); otherwise a normal approximation with tie-corrected
variance and a 0.5 continuity correction is used. n_effective == 0 yields
p = 1.0.

A matrix run reads its records once into a feature table and gathers it once,
by row index, into one float64 array ``[set, task, subject, feature]``: the
table's subjects in key order, NaN for a missing record or failed extraction.
Each (task, feature) row and set pair column is one ``compare_sets`` call on
two subject columns of it, which excludes the subjects NaN in either.
``Cell``, ``MatrixRow`` and ``ComparisonMatrix`` own the rules for their
fields and shape, so a matrix built here and one loaded from a file pass the
same checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyInputError, InsufficientDataError, RangeError
from .features import DEFAULT_CATALOG, FeatureTable, feature_table, full_catalog
from .model import Category, SetId, TASK_CATEGORIES, TASK_IDS, TaskRecord, validate_task_id

EXACT_MAX_N = 25

#: Below this n_effective even the most extreme exact two-sided p (2/2^n)
#: cannot fall under 0.05, so the cell is flagged as low-n.
LOW_N_THRESHOLD = 6

ALTERNATIVES = ("two-sided", "greater", "less")
TESTS = ("signed-rank", "rank-sum")


@dataclass(frozen=True)
class TestResult:
    """Outcome of one paired test.

    ``statistic`` is W, the sum of positive-difference ranks. ``p`` is the
    p-value under the recorded ``alternative``. ``zeros_dropped`` records how
    many zero differences the discard rule removed.
    """

    statistic: float
    n_effective: int
    p: float
    method: str  # "exact" | "normal-approx"
    ties_present: bool
    zeros_dropped: int = 0
    alternative: str = "two-sided"


@lru_cache(maxsize=64)
def _w_null_counts(n: int) -> np.ndarray:
    """Number of sign assignments reaching each W value, for ranks 1..n.

    Computed by convolving (1 + z^k) over k = 1..n; equivalent to literal
    enumeration of the 2^n assignments and safe in int64 up to n = 25.
    """
    counts = np.zeros(n * (n + 1) // 2 + 1, dtype=np.int64)
    counts[0] = 1
    for k in range(1, n + 1):
        counts[k:] += counts[:-k].copy()
    return counts


def _exact_p(w: float, n: int, alternative: str) -> float:
    counts = _w_null_counts(n)
    total = float(2**n)
    m = n * (n + 1) // 2
    w_int = int(round(w))
    if alternative == "greater":
        return float(counts[w_int:].sum() / total)
    if alternative == "less":
        return float(counts[: w_int + 1].sum() / total)
    hi = max(w_int, m - w_int)
    lo = m - hi
    p = (counts[hi:].sum() + counts[: lo + 1].sum()) / total
    return float(min(p, 1.0))


def _normal_phi_tail(z: float) -> float:
    """P(Z >= z) for a standard normal; P(Z <= z) is the tail at -z, which
    keeps the precision that 1 - P(Z >= z) loses for small p."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _normal_p(stat: float, mu: float, var: float, alternative: str) -> float:
    """Normal-approximation p-value of ``stat`` with mean ``mu`` and variance
    ``var``, with a 0.5 continuity correction; 1.0 when ``var`` is not positive."""
    if var <= 0:
        return 1.0
    sd = math.sqrt(var)
    if alternative == "greater":
        return min(1.0, _normal_phi_tail((stat - mu - 0.5) / sd))
    if alternative == "less":
        return min(1.0, _normal_phi_tail(-(stat - mu + 0.5) / sd))
    return min(1.0, 2.0 * _normal_phi_tail((abs(stat - mu) - 0.5) / sd))


def _check_alternative(alternative: str) -> None:
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midranks of ``values`` and the size of each tie group, from one sort."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg = (starts + 1 + ends) / 2.0
    return avg[inverse], counts


def _float_array(values) -> np.ndarray:
    """``values`` as a float64 array; an ndarray converts without a list."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.asarray(values, dtype=np.float64)


def wilcoxon_signed_rank(
    paired: Iterable[tuple[float, float]] | np.ndarray, alternative: str = "two-sided"
) -> TestResult:
    """Wilcoxon signed-rank test over (a, b) value pairs, given as an
    iterable of pairs or an (n, 2) array.

    ``alternative="greater"`` tests whether a tends to exceed b. Raises
    EmptyInputError for no pairs and ValueError for non-finite values.
    """
    _check_alternative(alternative)
    pairs = _float_array(paired)
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
    ranks, tie_counts = _midranks(np.abs(d))
    w = float(ranks[d > 0].sum())
    ties = bool(tie_counts.size != n)

    if not ties and n <= EXACT_MAX_N:
        p = _exact_p(w, n, alternative)
        method = "exact"
    else:
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


def rank_sum_test(
    a_values: Iterable[float],
    b_values: Iterable[float],
    alternative: str = "two-sided",
) -> TestResult:
    """Unpaired two-sample rank-sum test (sensitivity-analysis variant).

    Normal approximation with tie-corrected variance and continuity
    correction; the statistic reported is the rank sum of the first sample.
    """
    _check_alternative(alternative)
    a = _float_array(a_values)
    b = _float_array(b_values)
    if a.size == 0 or b.size == 0:
        raise EmptyInputError("rank-sum test needs both samples non-empty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("sample values must be finite")
    pooled = np.concatenate([a, b])
    ranks, tie_counts = _midranks(pooled)
    n1, n2 = int(a.size), int(b.size)
    n = n1 + n2
    r1 = float(ranks[:n1].sum())
    mu = n1 * (n + 1) / 2.0
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
# Corpus-level comparisons
# ---------------------------------------------------------------------------

def _check_test(test: str, alternative: str) -> None:
    if test not in TESTS:
        raise ValueError(f"test must be 'signed-rank' or 'rank-sum', got {test!r}")
    _check_alternative(alternative)


def compare_sets(
    a: np.ndarray, b: np.ndarray, *, test: str = "signed-rank", alternative: str = "two-sided"
) -> TestResult:
    """Test one matrix cell: two value columns, one entry per subject.

    A subject whose value is NaN in either column (record missing or failed
    extraction) is excluded; raises InsufficientDataError when no subject is
    left. An unknown ``test`` or ``alternative`` raises ValueError before any
    pairing.
    """
    _check_test(test, alternative)
    keep = ~(np.isnan(a) | np.isnan(b))
    if not keep.any():
        raise InsufficientDataError("no subject has a value in both sets")
    a, b = a[keep], b[keep]
    if test == "signed-rank":
        return wilcoxon_signed_rank(np.column_stack((a, b)), alternative)
    return rank_sum_test(a, b, alternative)


@dataclass(frozen=True)
class MatrixRow:
    """One (task, feature) row; a task that ``validate_task_id`` refuses or
    a feature that is not a string raises RangeError."""

    task: int
    feature: str

    def __post_init__(self):
        object.__setattr__(self, "task", validate_task_id(self.task))
        if type(self.feature) is not str:
            raise RangeError(f"feature must be a string, got {self.feature!r}")

    @property
    def category(self) -> Category:
        return TASK_CATEGORIES[self.task]


@dataclass(frozen=True)
class Cell:
    """One matrix cell. ``n_effective`` may be None for matrices loaded from
    p-value tables that carry no sample-size information. A field of the
    wrong type or range raises RangeError; ``p`` is stored as a float."""

    p: float
    n_effective: int | None = None
    method: str | None = None
    ties_present: bool | None = None
    low_n: bool = False

    def __post_init__(self):
        p, n, ties = self.p, self.n_effective, self.ties_present
        checks = (
            (
                isinstance(p, (int, float)) and not isinstance(p, bool) and 0 <= p <= 1,
                "p must be a number in [0, 1]",
                p,
            ),
            (
                n is None or (type(n) is int and n >= 0),
                "n_effective must be a non-negative integer or null",
                n,
            ),
            (
                self.method in (None, "exact", "normal-approx"),
                "method must be 'exact', 'normal-approx' or null",
                self.method,
            ),
            (ties is None or type(ties) is bool, "ties_present must be a boolean or null", ties),
            (type(self.low_n) is bool, "low_n must be a boolean", self.low_n),
        )
        for ok, rule, value in checks:
            if not ok:
                raise RangeError(f"{rule}, got {value!r}")
        object.__setattr__(self, "p", float(p))


def check_alpha(alpha) -> float:
    """``alpha`` if it is a float in (0, 1), the one alpha rule; else RangeError."""
    if not isinstance(alpha, float) or not 0 < alpha < 1:
        raise RangeError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
    return alpha


@dataclass(frozen=True)
class ComparisonMatrix:
    """P-values for (task, feature) rows across ordered set-pair columns.

    ``cells[i][j]``, a ``Cell`` or None (no computable test, rendered NA),
    matches ``rows[i]`` and ``pairs[j]``. Rows and pairs are distinct, pairs
    ascend and alpha is a float in (0, 1); anything else raises RangeError.
    """

    rows: tuple[MatrixRow, ...]
    pairs: tuple[tuple[SetId, SetId], ...]
    cells: tuple[tuple[Cell | None, ...], ...]
    alpha: float = 0.05

    def __post_init__(self):
        check_alpha(self.alpha)
        rows, pairs, cells = self.rows, self.pairs, self.cells
        for pair in pairs:
            of_sets = type(pair) is tuple and tuple(map(type, pair)) == (SetId, SetId)
            if not (of_sets and pair[0] < pair[1]):
                raise RangeError(f"set pair must be a tuple of two ascending SetIds, got {pair!r}")
        if len(set(pairs)) < len(pairs):
            a, b = next(pair for i, pair in enumerate(pairs) if pair in pairs[:i])
            raise RangeError(f"duplicate set pair {a.value}-{b.value}")
        for row in rows:
            if type(row) is not MatrixRow:
                raise RangeError(f"row must be a MatrixRow, got {row!r}")
        if len(set(rows)) < len(rows):
            row = next(row for i, row in enumerate(rows) if row in rows[:i])
            raise RangeError(f"duplicate row for task {row.task} and feature {row.feature!r}")
        if len(cells) != len(rows):
            raise RangeError(f"cells must hold one tuple per row, got {len(cells)} for {len(rows)}")
        for number, row_cells in enumerate(cells, start=1):
            if type(row_cells) is not tuple:
                raise RangeError(f"row {number} cells must be a tuple, got {row_cells!r}")
            if len(row_cells) != len(pairs):
                raise RangeError(f"row {number} has {len(row_cells)} cells, expected {len(pairs)}")
            for cell in row_cells:
                if cell is not None and cell.__class__ is not Cell:
                    raise RangeError(f"row {number}: cell must be a Cell or None, got {cell!r}")

    def mask(self) -> list[list[bool]]:
        """Significance mask at the matrix's alpha: True where p < alpha, False
        for NA cells. The mask TSV, the markdown bold cells and the recovery
        summary read it; ``replace(matrix, alpha=a)`` re-masks at ``a``."""
        return [[c is not None and c.p < self.alpha for c in cells] for cells in self.cells]


def default_rows(catalog: Sequence[str] = DEFAULT_CATALOG) -> list[tuple[int, str]]:
    """Row spec covering every task and catalog feature, in canonical order."""
    return [(task, feature) for task in TASK_IDS for feature in catalog]


def cell_records(
    records: Iterable[TaskRecord],
    rows: Sequence[tuple[int, str]],
    pairs: Sequence[tuple[SetId, SetId]],
) -> Iterator[TaskRecord]:
    """The records, as they come, that some cell of a ``rows`` x ``pairs``
    matrix reads: those of a row's task in a pair's set."""
    tasks = {task for task, _ in rows}
    set_ids = {s for pair in pairs for s in pair}
    return (r for r in records if r.task in tasks and r.set_id in set_ids)


def build_matrix(
    records: Iterable[TaskRecord],
    rows: Sequence[tuple[int, str]],
    pairs: Sequence[tuple[SetId, SetId]],
    *,
    alpha: float = 0.05,
    test: str = "signed-rank",
    alternative: str = "two-sided",
    table: FeatureTable | None = None,
) -> ComparisonMatrix:
    """Run one test per (row, pair) cell over a corpus or any iterable of records.

    Cells without any complete subject pair become None instead of aborting
    the run. Row order is normalized to task ascending, then ``full_catalog()``
    order for features; duplicate rows collapse, but duplicate pairs are a
    RangeError. A ``table`` replaces the extraction, and the records are then not read; a
    row feature outside its catalog is a RangeError. ``test`` and
    ``alternative`` are checked before any record is read.
    """
    _check_test(test, alternative)
    if not rows:
        raise EmptyInputError("row spec must name at least one (task, feature)")
    empty = ComparisonMatrix(rows=(), pairs=tuple(pairs), cells=(), alpha=alpha)
    row_set = {MatrixRow(t, f) for t, f in rows}
    order = {name: i for i, name in enumerate(full_catalog())}
    features = sorted({r.feature for r in row_set}, key=lambda f: (order.get(f, len(order)), f))
    matrix_rows = tuple(sorted(row_set, key=lambda r: (r.task, features.index(r.feature))))
    set_ids = list(dict.fromkeys(s for pair in pairs for s in pair))
    tasks = sorted({r.task for r in row_set})
    if table is None:
        table = feature_table(cell_records(records, rows, pairs), features)
    missing = [f for f in features if f not in table.catalog]
    if missing:
        raise RangeError(f"feature table has no values for {missing[0]}")
    # One gather by table row into [set, task, subject, feature], subjects in
    # the table's key order; a missing record reads the NaN row appended last.
    row_of = {key: i for i, key in enumerate(table.keys)}
    subjects = sorted({subject for subject, _, _ in table.keys})
    grid = itertools.product(set_ids, tasks, subjects)
    index = [row_of.get((subject, s, t), -1) for s, t, subject in grid]
    values = table.values[:, [table.catalog.index(f) for f in features]]
    shape = (len(set_ids), len(tasks), len(subjects), len(features))
    columns = np.vstack((values, np.full(len(features), np.nan)))[index].reshape(shape)

    all_cells = []
    for row in matrix_rows:
        by_set = columns[:, tasks.index(row.task), :, features.index(row.feature)]
        row_cells: list[Cell | None] = []
        for set_a, set_b in pairs:
            try:
                result = compare_sets(
                    by_set[set_ids.index(set_a)], by_set[set_ids.index(set_b)],
                    test=test, alternative=alternative,
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
    return replace(empty, rows=matrix_rows, cells=tuple(all_cells))
