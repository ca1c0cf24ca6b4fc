"""Paired nonparametric testing and the set-pair comparison matrix.

The workhorse is the Wilcoxon signed-rank test with an exact small-sample null
distribution: zero differences are dropped (classic discard rule), |d| is
ranked with midranks on ties, and W is the sum of ranks of positive
differences. With no ties and n_effective <= 25 the two-sided p-value is exact
(symmetric tail counts of the W null distribution, computed by convolution
over the rank set); otherwise a normal approximation with tie-corrected
variance and a 0.5 continuity correction is used. n_effective == 0 yields
p = 1.0.

A matrix run reads the feature table once into value columns, one float64
array per (set, task, feature) with subjects in corpus order and NaN for a
missing record or a failed extraction. Each (task, feature) row and set pair
column is then one ``compare_sets`` call on two such columns, which excludes
the subjects that are NaN in either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyInputError, InsufficientDataError, RangeError
from .features import DEFAULT_CATALOG, FeatureTable, feature_table
from .model import Category, SetId, StudyCorpus, TASK_CATEGORIES, validate_task_id

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

def compare_sets(
    a: np.ndarray, b: np.ndarray, *, test: str = "signed-rank", alternative: str = "two-sided"
) -> TestResult:
    """Test one matrix cell: two value columns, one entry per subject.

    A subject whose value is NaN in either column (record missing or failed
    extraction) is excluded; raises InsufficientDataError when no subject is
    left. An unknown ``test`` or ``alternative`` raises ValueError before any
    pairing.
    """
    if test not in TESTS:
        raise ValueError(f"test must be 'signed-rank' or 'rank-sum', got {test!r}")
    _check_alternative(alternative)
    keep = ~(np.isnan(a) | np.isnan(b))
    if not keep.any():
        raise InsufficientDataError("no subject has a value in both sets")
    a, b = a[keep], b[keep]
    if test == "signed-rank":
        return wilcoxon_signed_rank(np.column_stack((a, b)), alternative)
    return rank_sum_test(a, b, alternative)


@dataclass(frozen=True)
class MatrixRow:
    task: int
    feature: str

    @property
    def category(self) -> Category:
        return TASK_CATEGORIES[self.task]


@dataclass(frozen=True)
class Cell:
    """One matrix cell. ``n_effective`` may be None for matrices loaded from
    p-value tables that carry no sample-size information."""

    p: float
    n_effective: int | None = None
    method: str | None = None
    ties_present: bool | None = None
    low_n: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise RangeError(f"p-value {self.p} outside [0, 1]")


@dataclass(frozen=True)
class ComparisonMatrix:
    """P-values for (task, feature) rows across ordered set-pair columns.

    ``cells[i][j]`` matches ``rows[i]`` and ``pairs[j]``; None marks a cell
    with no computable test (rendered NA).
    """

    rows: tuple[MatrixRow, ...]
    pairs: tuple[tuple[SetId, SetId], ...]
    cells: tuple[tuple[Cell | None, ...], ...]
    alpha: float = 0.05

    def mask(self, alpha: float | None = None) -> list[list[bool]]:
        """Significance mask: True where p < alpha (NA cells are False),
        alpha defaulting to the matrix's own. The mask TSV, the markdown bold
        cells and the recovery summary all read it."""
        a = self.alpha if alpha is None else alpha
        return [
            [cell is not None and cell.p < a for cell in row_cells]
            for row_cells in self.cells
        ]


def default_rows(
    tasks: Sequence[int] = tuple(sorted(TASK_CATEGORIES)),
    catalog: Sequence[str] = DEFAULT_CATALOG,
) -> list[tuple[int, str]]:
    """Row spec covering every task and catalog feature, in canonical order."""
    return [(task, feature) for task in sorted(tasks) for feature in catalog]


def build_matrix(
    corpus: StudyCorpus,
    rows: Sequence[tuple[int, str]],
    pairs: Sequence[tuple[SetId, SetId]],
    *,
    alpha: float = 0.05,
    test: str = "signed-rank",
    alternative: str = "two-sided",
    table: FeatureTable | None = None,
) -> ComparisonMatrix:
    """Run one test per (row, pair) cell over the corpus.

    Cells without any complete subject pair become None instead of aborting
    the run. Row order is normalized to task ascending, then catalog order for
    features; duplicate rows collapse.
    """
    if not rows:
        raise EmptyInputError("row spec must name at least one (task, feature)")
    if not 0.0 < alpha < 1.0:
        raise RangeError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    catalog_order = {name: i for i, name in enumerate(DEFAULT_CATALOG)}
    norm_rows = sorted(
        {(validate_task_id(t), f) for t, f in rows},
        key=lambda r: (r[0], catalog_order.get(r[1], len(catalog_order)), r[1]),
    )
    features = sorted(
        {f for _, f in norm_rows}, key=lambda f: (catalog_order.get(f, len(catalog_order)), f)
    )
    set_ids = list(dict.fromkeys(s for pair in pairs for s in pair))
    tasks = sorted({t for t, _ in norm_rows})
    if table is None:
        # Extract only the records that some cell reads.
        used = StudyCorpus()
        for record in corpus.records():
            if record.task in tasks and record.set_id in set_ids:
                used.add(record)
        table = feature_table(used, features)
    # One float64 column per (set, task, feature), subjects in corpus order:
    # [set, task, feature, subject], NaN where a record is missing or failed.
    columns = np.full((len(set_ids), len(tasks), len(features), len(corpus.subjects)), np.nan)
    for i, subject in enumerate(corpus.subjects):
        for s, set_id in enumerate(set_ids):
            for t, task in enumerate(tasks):
                vec = table.get((subject, set_id, task))
                if vec is not None and vec.values is not None:
                    columns[s, t, :, i] = [vec.values[f] for f in features]

    matrix_rows = tuple(MatrixRow(t, f) for t, f in norm_rows)
    all_cells = []
    for task, feature in norm_rows:
        by_set = columns[:, tasks.index(task), features.index(feature)]
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
    return ComparisonMatrix(
        rows=matrix_rows,
        pairs=tuple(pairs),
        cells=tuple(all_cells),
        alpha=alpha,
    )
