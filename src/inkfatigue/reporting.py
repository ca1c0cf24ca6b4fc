"""Rendering and round-tripping of pipeline outputs.

Comparison matrices render as TSV (one row per task/feature, one column per
set pair), JSON (full cell detail, reloadable), and markdown (significant
cells in bold). The significance TSV and the bold cells read
``ComparisonMatrix.mask``, the one place that compares p with alpha. Feature
tables render as TSV/JSON/markdown in catalog column order, one row per
record; a record whose extraction failed renders NA values (JSON ``null``).
Every TSV and markdown table goes through one writer per format. All
renderers are deterministic: identical inputs yield identical bytes.

Raw feature values are per-sample quantities; only the markdown feature view
converts speeds and accelerations to per-second units for readability.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from .errors import FormatError, RangeError
from .features import FeatureTable, full_catalog
from .model import Category, SAMPLE_RATE_HZ, TASK_CATEGORIES, ascii_float
from .protocol import RecoverySummary, pair_label, parse_pair_label
from .stats import Cell, ComparisonMatrix, MatrixRow

#: Display conversion of speeds and accelerations to per-second units.
PER_SECOND_SCALE = {
    name: float(SAMPLE_RATE_HZ) ** (2 if name.endswith("_acceleration") else 1)
    for name in full_catalog()
    if name.endswith(("_speed", "_acceleration"))
}

NA = "NA"


def _fmt(value: float) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _tsv(header: Sequence[str], rows) -> str:
    return "".join("\t".join(fields) + "\n" for fields in (header, *rows))


def _markdown(header: Sequence[str], rows) -> str:
    lines = ["| " + " | ".join(fields) + " |" for fields in (header, *rows)]
    lines.insert(1, "|" + "|".join(["---"] * len(header)) + "|")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Comparison matrix
# ---------------------------------------------------------------------------


def _matrix_layout(matrix: ComparisonMatrix, prefix: Sequence[str], cell_rows):
    """Header and rows of a matrix view: the task-type, task and feature
    columns named by ``prefix``, then one column per set pair whose fields
    come from ``cell_rows``, one list per matrix row."""
    header = [*prefix, *(pair_label(p) for p in matrix.pairs)]
    rows = (
        [row.category.value, str(row.task), row.feature, *fields]
        for row, fields in zip(matrix.rows, cell_rows)
    )
    return header, rows


_TSV_PREFIX = ("task_type", "task", "feature")


def matrix_to_tsv(matrix: ComparisonMatrix) -> str:
    cell_rows = ([NA if c is None else _fmt(c.p) for c in cells] for cells in matrix.cells)
    return _tsv(*_matrix_layout(matrix, _TSV_PREFIX, cell_rows))


def mask_to_tsv(matrix: ComparisonMatrix, alpha: float | None = None) -> str:
    """Boolean significance table parallel to the p-value TSV."""
    mask_rows = (["true" if m else "false" for m in row] for row in matrix.mask(alpha))
    return _tsv(*_matrix_layout(matrix, _TSV_PREFIX, mask_rows))


def matrix_to_markdown(matrix: ComparisonMatrix, alpha: float | None = None) -> str:
    cell_rows = []
    for cells, mask_row in zip(matrix.cells, matrix.mask(alpha)):
        texts = [NA if c is None else f"{c.p:.4g}" for c in cells]
        cell_rows.append([f"**{t}**" if m else t for t, m in zip(texts, mask_row)])
    return _markdown(*_matrix_layout(matrix, ("Task type", "Task", "Feature"), cell_rows))


def matrix_to_json(matrix: ComparisonMatrix) -> str:
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


_METHODS = (None, "exact", "normal-approx")


def _is_number(value) -> bool:
    # JSON true/false load as bool, a subclass of int: never a number here.
    return type(value) in (int, float)


def _cell_from_json(c: dict, number: int, column: int) -> Cell:
    """One matrix JSON cell, each field checked by type and range."""
    p, n_effective = c["p"], c.get("n_effective")
    method, ties_present, low_n = c.get("method"), c.get("ties_present"), c.get("low_n", False)
    checks = (
        (_is_number(p) and 0 <= p <= 1, "p must be a number in [0, 1]", p),
        (
            n_effective is None or (type(n_effective) is int and n_effective >= 0),
            "n_effective must be a non-negative integer or null",
            n_effective,
        ),
        (method in _METHODS, "method must be 'exact', 'normal-approx' or null", method),
        (
            ties_present is None or type(ties_present) is bool,
            "ties_present must be a boolean or null",
            ties_present,
        ),
        (type(low_n) is bool, "low_n must be a boolean", low_n),
    )
    for ok, rule, value in checks:
        if not ok:
            raise FormatError(f"matrix JSON row {number}: cell {column} {rule}, got {value!r}")
    return Cell(
        p=float(p),
        n_effective=n_effective,
        method=method,
        ties_present=ties_present,
        low_n=low_n,
    )


def matrix_from_json(text: str) -> ComparisonMatrix:
    try:
        payload = json.loads(text)
        alpha = payload["alpha"]
        if not (_is_number(alpha) and 0 < alpha < 1):
            raise FormatError(
                f"matrix JSON: alpha must lie strictly between 0 and 1, got {alpha!r}"
            )
        pairs = tuple(parse_pair_label(p) for p in payload["pairs"])
        rows = []
        cells = []
        for number, row in enumerate(payload["rows"], start=1):
            task = row["task"]
            if type(task) is not int or task not in TASK_CATEGORIES:
                raise FormatError(
                    f"matrix JSON row {number}: task must be an integer in 1..9, got {task!r}"
                )
            if len(row["cells"]) != len(pairs):
                raise FormatError(
                    f"matrix JSON row {number} has {len(row['cells'])} cells, "
                    f"expected {len(pairs)}"
                )
            rows.append(MatrixRow(task=task, feature=row["feature"]))
            cells.append(
                tuple(
                    None if c is None else _cell_from_json(c, number, column)
                    for column, c in enumerate(row["cells"], start=1)
                )
            )
        return ComparisonMatrix(
            rows=tuple(rows),
            pairs=pairs,
            cells=tuple(cells),
            alpha=float(alpha),
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"not a valid matrix JSON document: {exc}")


def load_matrix_tsv(text: str, alpha: float = 0.05) -> ComparisonMatrix:
    """Load a p-value table in the matrix TSV layout.

    Cells carry p-values only (no sample sizes); NA cells load as None.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("matrix TSV is empty")
    header = lines[0].split("\t")
    if tuple(header[:3]) != _TSV_PREFIX:
        raise FormatError("matrix TSV must start with task_type, task, feature columns")
    pairs = tuple(parse_pair_label(label) for label in header[3:])
    rows = []
    cells = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 3 + len(pairs):
            raise FormatError(
                f"expected {3 + len(pairs)} fields, got {len(fields)}", line=lineno
            )
        category, task_text, feature = fields[:3]
        if not (task_text.isascii() and task_text.isdigit()):
            raise FormatError(f"task must be an integer, got {task_text!r}", line=lineno)
        task = int(task_text)
        if task not in TASK_CATEGORIES:
            raise FormatError(f"task must be in 1..9, got {task}", line=lineno)
        if TASK_CATEGORIES[task].value != category:
            raise FormatError(
                f"task {task} belongs to {TASK_CATEGORIES[task].value}, "
                f"row says {category!r}",
                line=lineno,
            )
        row_cells = []
        for label, token in zip(header[3:], fields[3:]):
            if token == NA:
                row_cells.append(None)
                continue
            try:
                p = ascii_float(token)
            except ValueError:
                raise FormatError(f"bad p-value {token!r} under {label}", line=lineno)
            if not 0.0 <= p <= 1.0:
                raise RangeError(f"p-value {p} outside [0, 1]", line=lineno)
            row_cells.append(Cell(p=p))
        rows.append(MatrixRow(task=task, feature=feature))
        cells.append(tuple(row_cells))
    return ComparisonMatrix(rows=tuple(rows), pairs=pairs, cells=tuple(cells), alpha=alpha)


# ---------------------------------------------------------------------------
# Feature tables
# ---------------------------------------------------------------------------

def _table_rows(table: FeatureTable):
    for key in sorted(table, key=lambda k: (k[0], k[1].order, k[2])):
        yield key, table[key]


def features_to_tsv(table: FeatureTable, catalog: Sequence[str]) -> str:
    rows = []
    for (subject, set_id, task), vector in _table_rows(table):
        values = [NA if vector.values is None else _fmt(vector[name]) for name in catalog]
        rows.append([subject, set_id.value, str(task), *values, ",".join(sorted(vector.flags))])
    return _tsv(["subject", "set", "task", *catalog, "degenerate"], rows)


def features_to_json(table: FeatureTable, catalog: Sequence[str]) -> str:
    payload = [
        {
            "subject": subject,
            "set": set_id.value,
            "task": task,
            "values": None
            if vector.values is None
            else {name: vector[name] for name in catalog},
            "degenerate": sorted(vector.flags),
        }
        for (subject, set_id, task), vector in _table_rows(table)
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: Markdown column-label suffix by display scale.
_UNIT_SUFFIX = {SAMPLE_RATE_HZ: " (units/s)", SAMPLE_RATE_HZ**2: " (units/s^2)"}


def features_to_markdown(table: FeatureTable, catalog: Sequence[str]) -> str:
    """Markdown feature table with speeds/accelerations shown per second."""
    labels = [name + _UNIT_SUFFIX.get(PER_SECOND_SCALE.get(name), "") for name in catalog]
    scales = [PER_SECOND_SCALE.get(name, 1.0) for name in catalog]
    rows = []
    for (subject, set_id, task), vector in _table_rows(table):
        values = [
            NA if vector.values is None else f"{vector[name] * scale:.6g}"
            for name, scale in zip(catalog, scales)
        ]
        rows.append([subject, set_id.value, str(task), *values])
    return _markdown(["subject", "set", "task", *labels], rows)


# ---------------------------------------------------------------------------
# Recovery summaries
# ---------------------------------------------------------------------------


def recovery_to_json(summary: RecoverySummary) -> str:
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


def recovery_to_text(summary: RecoverySummary) -> str:
    lines = [f"Recovery summary (alpha = {summary.alpha:g}, {summary.scope})", ""]
    lines.append("Significant cells against the rest baseline S1:")
    for label, by_category in summary.columns.items():
        counts = " | ".join(
            f"{category.value} {by_category[category].count}" for category in Category
        )
        lines.append(f"  {label}: {counts}")
    detail = [
        (label, category, cc)
        for label, by_category in summary.columns.items()
        for category, cc in by_category.items()
        if cc.count
    ]
    if detail:
        lines.append("")
        lines.append("Cells:")
        for label, category, cc in detail:
            for task, feature in cc.cells:
                lines.append(f"  {label} {category.value}: task {task} {feature}")
    if summary.no_recovery is not None:
        lines.append("")
        lines.append(
            f"S4-S5 (post-exercise vs short recovery): "
            f"{summary.no_recovery.count} significant cell(s)"
        )
    return "\n".join(lines) + "\n"


def write_text(path: str | Path, content: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    return path
