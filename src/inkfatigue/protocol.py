"""Study protocol constants, physiology helpers, and recovery summaries.

The assessment protocol takes five measurement sets S1..S5 (rest baseline,
after a jump test, before and after an all-out cycling bout, and after a
short recovery). Handwriting comparisons run over the ten ordered set pairs,
every set with each later one; recovery is summarized per task category
from the significant cells that ``ComparisonMatrix.mask`` reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from .errors import RangeError
from .model import ALL_SETS, Category, SetId
from .stats import ComparisonMatrix

GRAVITY = 9.81  # m/s^2, default only; callers may pass their own constant

_CANONICAL_PAIRS = tuple(itertools.combinations(ALL_SETS, 2))

#: Columns compared against the rest baseline S1.
BASELINE_PAIRS = _CANONICAL_PAIRS[:4]

#: The "no recovery" contrast: the two post-exercise sets.
RECOVERY_PAIR = (SetId.S4, SetId.S5)


def canonical_set_pairs() -> list[tuple[SetId, SetId]]:
    """The ten ordered set pairs, in canonical column order."""
    return list(_CANONICAL_PAIRS)


def pair_label(pair: tuple[SetId, SetId]) -> str:
    return f"{pair[0].value}-{pair[1].value}"


def parse_pair_label(label: str) -> tuple[SetId, SetId]:
    parts = label.split("-") if isinstance(label, str) else ()
    if len(parts) != 2:
        raise RangeError(f"set pair must look like S1-S2, got {label!r}")
    try:
        a, b = SetId(parts[0]), SetId(parts[1])
    except ValueError:
        raise RangeError(f"unknown set in pair {label!r}")
    if not a < b:
        raise RangeError(f"set pair must be ordered ascending, got {label!r}")
    return (a, b)


def jump_height(flight_time: float, g: float = GRAVITY) -> float:
    """Vertical jump height in meters from flight time: h = g * t^2 / 8."""
    if not math.isfinite(flight_time) or flight_time < 0:
        raise RangeError(f"flight time must be finite and >= 0, got {flight_time}")
    return g * flight_time**2 / 8.0


def power_output(force: float, velocity: float) -> float:
    """Mechanical power in watts: force (N) times velocity (m/s)."""
    if not (math.isfinite(force) and math.isfinite(velocity)):
        raise ValueError("force and velocity must be finite")
    return force * velocity


@dataclass(frozen=True)
class CategoryCount:
    """Significant cells of one category in one column."""

    count: int
    cells: tuple[tuple[int, str], ...]  # (task, feature), row order


@dataclass(frozen=True)
class RecoverySummary:
    """Counts of significant cells per baseline column and task category.

    ``scope`` marks that counts cover only the configured feature catalog, not
    any larger feature set; ``no_recovery`` covers the S4-S5 column when the
    matrix includes it (None otherwise).
    """

    alpha: float
    columns: Mapping[str, Mapping[Category, CategoryCount]]
    no_recovery: CategoryCount | None
    scope: str = "catalog-subset"


def summarize_recovery(matrix: ComparisonMatrix, alpha: float = 0.05) -> RecoverySummary:
    """Count significant cells per category for each against-baseline column.

    Significance is ``matrix.mask(alpha)``. Columns absent from the matrix are
    skipped. The S4-S5 column, when present, is summarized across all
    categories combined as the ``no_recovery`` count.
    """
    if not 0.0 <= alpha <= 1.0:
        raise RangeError(f"alpha must lie in [0, 1], got {alpha}")
    mask = matrix.mask(alpha)

    def significant(pair, category=None) -> CategoryCount:
        j = matrix.pairs.index(pair)
        cells = tuple(
            (row.task, row.feature)
            for row, mask_row in zip(matrix.rows, mask)
            if mask_row[j] and (category is None or row.category is category)
        )
        return CategoryCount(len(cells), cells)

    columns = {
        pair_label(pair): {category: significant(pair, category) for category in Category}
        for pair in BASELINE_PAIRS
        if pair in matrix.pairs
    }
    no_recovery = significant(RECOVERY_PAIR) if RECOVERY_PAIR in matrix.pairs else None
    return RecoverySummary(alpha=alpha, columns=columns, no_recovery=no_recovery)
