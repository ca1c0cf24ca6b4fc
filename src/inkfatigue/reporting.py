"""Rendering and round-tripping of pipeline outputs.

Comparison matrices render as TSV (one row per task/feature, one column per
set pair), JSON (full cell detail, reloadable), and markdown (significant
cells in bold). The significance TSV and the bold cells read
``ComparisonMatrix.mask``, which compares p with the matrix's own alpha. Feature
tables render as TSV/JSON/markdown in the table's catalog order, one row per
record; a record whose extraction failed renders NA values (JSON ``null``).
Every TSV and markdown table goes through one writer per format, which takes
its rows as an iterator. Both JSON views of a table go through one row
writer, ``_json_array``: it dumps each row alone, re-indents it to its depth
and joins all parts once, giving the bytes of one ``json.dumps`` of the whole
document. So every render holds about twice the text it returns. The cells
of ``matrix.json`` and all of ``recovery.json`` are the ``Cell`` and
``RecoverySummary`` fields as declared, so adding a field changes those
files. All renderers are deterministic: identical inputs yield identical
bytes. ``Cell``, ``MatrixRow`` and ``ComparisonMatrix`` own the rules for
their fields and shape; the two matrix readers only build them, check a
row's category against its task, and name the row (JSON) or file line (TSV)
of a field error and the reader (``matrix JSON:``) of a shape error.

Raw feature values are per-sample quantities; only the markdown feature view
converts speeds and accelerations to per-second units for readability.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from typing import Iterable, Sequence

from .errors import FormatError, InkError, RangeError
from .features import COUNT_FEATURES, EXTRACTION_FAILED, FeatureTable, full_catalog
# The CLI writes as reporting.write_text, the name perfbench/tracer.py patches.
from .model import Category, SAMPLE_RATE_HZ, ascii_float, parse_task_id, write_text
from .protocol import RecoverySummary, pair_label, parse_pair_label
from .stats import Cell, ComparisonMatrix, MatrixRow

#: Display conversion of speeds and accelerations to per-second units.
PER_SECOND_SCALE = {
    name: float(SAMPLE_RATE_HZ) ** (2 if name.endswith("_acceleration") else 1)
    for name in full_catalog()
    if name.endswith(("_speed", "_acceleration"))
}

NA = "NA"


def _tsv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    return "".join("\t".join(fields) + "\n" for fields in itertools.chain([header], rows))


def _markdown(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    lines = ("| " + " | ".join(fields) + " |\n" for fields in itertools.chain([header], rows))
    rule = "|" + "|".join(["---"] * len(header)) + "|\n"
    return "".join(itertools.chain([next(lines), rule], lines))


def _json_array(head: str, rows: Iterable, depth: int, tail: str) -> str:
    """``head``, the array of ``rows`` as ``json.dumps(..., indent=2,
    sort_keys=True)`` writes it ``depth`` levels deep, then ``tail``. Each
    row is dumped alone and re-indented to its depth (every newline in a
    dump is layout: strings escape theirs), and all parts are joined once."""
    inner = "\n" + "  " * (depth + 1)
    parts = [head, "["]
    for row in rows:
        parts += (inner, json.dumps(row, indent=2, sort_keys=True).replace("\n", inner), ",")
    parts[-1] = "[]" if len(parts) == 2 else "\n" + "  " * depth + "]"
    parts.append(tail)
    return "".join(parts)


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
    cell_rows = ([NA if c is None else repr(c.p) for c in cells] for cells in matrix.cells)
    return _tsv(*_matrix_layout(matrix, _TSV_PREFIX, cell_rows))


def mask_to_tsv(matrix: ComparisonMatrix) -> str:
    """Boolean significance table parallel to the p-value TSV."""
    mask_rows = (["true" if m else "false" for m in row] for row in matrix.mask())
    return _tsv(*_matrix_layout(matrix, _TSV_PREFIX, mask_rows))


def matrix_to_markdown(matrix: ComparisonMatrix) -> str:
    cell_rows = (
        [NA if c is None else f"**{c.p:.4g}**" if m else f"{c.p:.4g}" for c, m in zip(cells, row)]
        for cells, row in zip(matrix.cells, matrix.mask())
    )
    return _markdown(*_matrix_layout(matrix, ("Task type", "Task", "Feature"), cell_rows))


def matrix_to_json(matrix: ComparisonMatrix) -> str:
    pairs = [pair_label(p) for p in matrix.pairs]
    head = json.dumps({"alpha": matrix.alpha, "pairs": pairs}, indent=2, sort_keys=True)
    rows = (
        {
            "task": row.task,
            "feature": row.feature,
            "category": row.category.value,
            "cells": [None if cell is None else vars(cell) for cell in cells],
        }
        for row, cells in zip(matrix.rows, matrix.cells)
    )
    # "rows" sorts after "alpha" and "pairs": it opens where head's "\n}" was.
    return _json_array(head[:-2] + ',\n  "rows": ', rows, 1, "\n}\n")


def _matrix_row(task, feature, category) -> MatrixRow:
    """A matrix row as a reader finds it; a category, when not None, must
    be the task's."""
    row = MatrixRow(task=task, feature=feature)
    if category is not None and category != row.category.value:
        raise FormatError(f"task {task} belongs to {row.category.value}, row says {category!r}")
    return row


def _array(value, name: str) -> list:
    if type(value) is not list:
        raise FormatError(f"{name} must be an array, got {value!r}")
    return value


_CELL_FIELDS = frozenset(f.name for f in dataclasses.fields(Cell))


def _known_fields(value: dict, known: frozenset | set, where: str = "") -> None:
    if not known.issuperset(value):
        raise FormatError(f"{where}has unknown field {min(value.keys() - known)!r}")


def _cell(value) -> Cell | None:
    """A matrix JSON cell: null, or an object of ``Cell`` fields."""
    if value is None:
        return None
    if type(value) is not dict:
        raise FormatError(f"must be an object or null, got {value!r}")
    _known_fields(value, _CELL_FIELDS)
    if "p" not in value:
        raise FormatError("is missing field 'p'")
    return Cell(**value)


def matrix_from_json(text: str) -> ComparisonMatrix:
    """Load ``matrix_to_json`` output: an object whose ``pairs``, ``rows``
    and each row's ``cells`` are arrays, each row an object and each cell an
    object of ``Cell`` fields or null, none with a field it does not write. An
    error in a row or cell names the row and cell, and one in the matrix's
    shape is prefixed ``matrix JSON:``. A row's category may be missing or null."""
    try:
        payload = json.loads(text)
        if type(payload) is not dict:
            raise FormatError("matrix JSON: document must be an object")
        _known_fields(payload, {"alpha", "pairs", "rows"}, "matrix JSON: ")
        pairs = tuple(parse_pair_label(p) for p in _array(payload["pairs"], "matrix JSON: pairs"))
        rows, cells = [], []
        for number, row in enumerate(_array(payload["rows"], "matrix JSON: rows"), start=1):
            column = ""
            try:
                if type(row) is not dict:
                    raise FormatError(f"must be an object, got {row!r}")
                _known_fields(row, {"task", "feature", "category", "cells"})
                rows.append(_matrix_row(row["task"], row["feature"], row.get("category")))
                row_cells = []
                for i, cell in enumerate(_array(row["cells"], "cells"), start=1):
                    column = f"cell {i} "
                    row_cells.append(_cell(cell))
            except InkError as exc:
                raise FormatError(f"matrix JSON row {number}: {column}{exc}") from exc
            except KeyError as exc:
                raise FormatError(f"matrix JSON row {number}: missing field {exc}") from exc
            cells.append(tuple(row_cells))
        return ComparisonMatrix(tuple(rows), pairs, tuple(cells), payload["alpha"])
    except RangeError as exc:
        raise FormatError(f"matrix JSON: {exc}") from exc
    except KeyError as exc:
        raise FormatError(f"matrix JSON: missing field {exc}") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"not a valid matrix JSON document: {exc}")


def load_matrix_tsv(text: str) -> ComparisonMatrix:
    """Load a p-value table in the matrix TSV layout, at the default alpha 0.05.

    Cells carry p-values only (no sample sizes); NA cells load as None.
    Blank lines are skipped; an error names its line in the file.
    """
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise FormatError("matrix TSV is empty")
    header = lines[0][1].split("\t")
    if tuple(header[:3]) != _TSV_PREFIX:
        raise FormatError("matrix TSV must start with task_type, task, feature columns")
    pairs = tuple(parse_pair_label(label) for label in header[3:])
    rows, cells = [], []
    for lineno, line in lines[1:]:
        fields = line.split("\t")
        try:
            if len(fields) != len(header):
                raise FormatError(f"expected {len(header)} fields, got {len(fields)}")
            category, task_text, feature = fields[:3]
            rows.append(_matrix_row(parse_task_id(task_text), feature, category))
            row_cells = []
            for label, token in zip(header[3:], fields[3:]):
                try:
                    row_cells.append(None if token == NA else Cell(p=ascii_float(token)))
                except ValueError:
                    raise FormatError(f"bad p-value {token!r} under {label}")
        except InkError as exc:
            raise type(exc)(str(exc), line=lineno) from exc
        cells.append(tuple(row_cells))
    try:
        return ComparisonMatrix(rows=tuple(rows), pairs=pairs, cells=tuple(cells))
    except RangeError as exc:
        raise RangeError(f"matrix TSV: {exc}") from exc


# ---------------------------------------------------------------------------
# Feature tables
# ---------------------------------------------------------------------------

def _feature_rows(table: FeatureTable):
    """Key, values (None if failed; counts as ints) and sorted flags of each row."""
    counts = [name in COUNT_FEATURES for name in table.catalog]
    for key, row, flags in zip(table.keys, table.values, table.flags):
        if key in table.errors:
            yield key, None, [EXTRACTION_FAILED]
        else:
            values = [int(v) if count else v for v, count in zip(row.tolist(), counts)]
            yield key, values, sorted(n for n, flag in zip(table.catalog, flags.tolist()) if flag)


def features_to_tsv(table: FeatureTable) -> str:
    def rows():
        for (subject, set_id, task), values, flags in _feature_rows(table):
            texts = [NA] * len(table.catalog) if values is None else map(repr, values)
            yield [subject, set_id.value, str(task), *texts, ",".join(flags)]

    return _tsv(["subject", "set", "task", *table.catalog, "degenerate"], rows())


def features_to_json(table: FeatureTable) -> str:
    rows = (
        {
            "subject": subject,
            "set": set_id.value,
            "task": task,
            "values": None if values is None else dict(zip(table.catalog, values)),
            "degenerate": flags,
        }
        for (subject, set_id, task), values, flags in _feature_rows(table)
    )
    return _json_array("", rows, 0, "\n")


#: Markdown column-label suffix by display scale.
_UNIT_SUFFIX = {SAMPLE_RATE_HZ: " (units/s)", SAMPLE_RATE_HZ**2: " (units/s^2)"}


def features_to_markdown(table: FeatureTable) -> str:
    """Markdown feature table with speeds/accelerations shown per second."""
    labels = [name + _UNIT_SUFFIX.get(PER_SECOND_SCALE.get(name), "") for name in table.catalog]
    scales = [PER_SECOND_SCALE.get(name, 1.0) for name in table.catalog]

    def rows():
        for (subject, set_id, task), values, _ in _feature_rows(table):
            texts = [NA] * len(table.catalog) if values is None else [
                f"{v * scale:.6g}" for v, scale in zip(values, scales)
            ]
            yield [subject, set_id.value, str(task), *texts]

    return _markdown(["subject", "set", "task", *labels], rows())


# ---------------------------------------------------------------------------
# Recovery summaries
# ---------------------------------------------------------------------------


def recovery_to_json(summary: RecoverySummary) -> str:
    return json.dumps(summary, default=vars, indent=2, sort_keys=True) + "\n"


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
