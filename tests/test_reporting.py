import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inkfatigue.errors import FormatError, RangeError
from inkfatigue.features import (
    COUNT_FEATURES,
    DEFAULT_CATALOG,
    EXTRACTION_FAILED,
    FeatureTable,
    feature_table,
    full_catalog,
)
from inkfatigue.model import ALL_SETS, TASK_IDS, Category, SetId, parse_task_id
from inkfatigue.protocol import canonical_set_pairs, summarize_recovery
from inkfatigue.reporting import (
    PER_SECOND_SCALE,
    features_to_json,
    features_to_markdown,
    features_to_tsv,
    load_matrix_tsv,
    mask_to_tsv,
    matrix_from_json,
    matrix_to_json,
    matrix_to_markdown,
    matrix_to_tsv,
    recovery_to_json,
    recovery_to_text,
)
from inkfatigue.stats import Cell, ComparisonMatrix, MatrixRow, build_matrix
from inkfatigue.synth import SynthProfile, generate_corpus

from conftest import sets_corpus
from oracles import (
    ReferenceFeatureVector,
    reference_features_to_markdown,
    reference_features_to_tsv,
    reference_mask_to_tsv,
    reference_matrix_to_json,
    reference_matrix_to_markdown,
    reference_matrix_to_tsv,
    reference_recovery_to_json,
    reference_summarize_recovery,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def small_matrix():
    corpus = generate_corpus(SynthProfile(seed=40, n_subjects=4))
    rows = [(1, "mean_speed"), (1, "time_in_air"), (6, "mean_speed"), (6, "time_in_air")]
    return build_matrix(corpus, rows, canonical_set_pairs())


@pytest.fixture(scope="module")
def reference_matrix():
    return load_matrix_tsv((DATA / "reference_matrix.tsv").read_text())


def test_matrix_tsv_layout(small_matrix):
    lines = matrix_to_tsv(small_matrix).splitlines()
    header = lines[0].split("\t")
    assert header[:3] == ["task_type", "task", "feature"]
    assert header[3:] == [
        "S1-S2", "S1-S3", "S1-S4", "S1-S5", "S2-S3",
        "S2-S4", "S2-S5", "S3-S4", "S3-S5", "S4-S5",
    ]
    assert len(lines) == 1 + 4
    first = lines[1].split("\t")
    assert first[:3] == ["Cognitive", "1", "mean_speed"]


def test_matrix_tsv_round_trip(small_matrix):
    text = matrix_to_tsv(small_matrix)
    loaded = load_matrix_tsv(text)
    assert [(r.task, r.feature) for r in loaded.rows] == [
        (r.task, r.feature) for r in small_matrix.rows
    ]
    for loaded_row, original_row in zip(loaded.cells, small_matrix.cells):
        for lc, oc in zip(loaded_row, original_row):
            assert lc.p == oc.p


def test_matrix_json_round_trip(small_matrix):
    text = matrix_to_json(small_matrix)
    loaded = matrix_from_json(text)
    assert loaded == small_matrix
    assert matrix_to_json(loaded) == text


def test_matrix_json_rejects_garbage():
    with pytest.raises(FormatError):
        matrix_from_json("{not json")
    with pytest.raises(FormatError):
        matrix_from_json('{"alpha": 0.05}')


@pytest.mark.parametrize("where", ["document", "cells"])
def test_matrix_json_nested_past_the_parser_depth_is_a_format_error(where):
    deep = "[" * 100_000 + "]" * 100_000
    text = deep if where == "document" else _matrix_json(3, f"[{deep}]")
    with pytest.raises(FormatError, match="not a valid matrix JSON document: maximum recursion"):
        matrix_from_json(text)


def _matrix_json(task, cells='[{"p": 0.5}]'):
    return (
        '{"alpha": 0.05, "pairs": ["S1-S2"], "rows": '
        f'[{{"task": {task}, "feature": "mean_speed", "cells": {cells}}}]}}'
    )


@pytest.mark.parametrize("task", ["12", "0", "-1", "3.7", '"3"', '"\u0663"', "true", "null"])
def test_matrix_json_task_must_be_an_integer_in_range(task):
    with pytest.raises(FormatError, match=r"task id must be (an integer|in 1\.\.9), got "):
        matrix_from_json(_matrix_json(task))


@pytest.mark.parametrize("cells", ["[]", '[{"p": 0.5}, {"p": 0.2}]', '[{"p": 0.5}, null]'])
def test_matrix_json_row_must_have_one_cell_per_pair(cells):
    with pytest.raises(FormatError, match="row 1 has .* cells, expected 1"):
        matrix_from_json(_matrix_json(3, cells))


def test_matrix_json_accepts_every_task_and_na_cells():
    for task in range(1, 10):
        loaded = matrix_from_json(_matrix_json(task, "[null]"))
        assert loaded.rows[0].task == task and loaded.cells == ((None,),)


@pytest.mark.parametrize(
    "category, message",
    [
        ('"Cognitive"', "task 3 belongs to FineMotor, row says 'Cognitive'"),
        ("3", "task 3 belongs to FineMotor, row says 3"),
    ],
)
def test_matrix_json_category_must_be_the_tasks(category, message):
    text = _matrix_json(3).replace('"task": 3', f'"task": 3, "category": {category}')
    with pytest.raises(FormatError) as exc:
        matrix_from_json(text)
    assert str(exc.value) == f"matrix JSON row 1: {message}"
    for given_category in ('"FineMotor"', "null"):
        right = _matrix_json(3).replace('"task": 3', f'"task": 3, "category": {given_category}')
        assert matrix_from_json(right) == matrix_from_json(_matrix_json(3))


@pytest.mark.parametrize("feature", ["5", "null", '["mean_speed"]'])
def test_matrix_json_feature_must_be_a_string(feature):
    text = _matrix_json(3).replace('"mean_speed"', feature)
    with pytest.raises(FormatError) as exc:
        matrix_from_json(text)
    assert str(exc.value) == (
        f"matrix JSON row 1: feature must be a string, got {json.loads(feature)!r}"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        (
            _matrix_json(3).replace('["S1-S2"]', '{"S1-S2": 1}'),
            "matrix JSON: pairs must be an array, got {'S1-S2': 1}",
        ),
        (
            _matrix_json(3).replace('["S1-S2"]', '"S1-S2"'),
            "matrix JSON: pairs must be an array, got 'S1-S2'",
        ),
        (
            '{"alpha": 0.05, "pairs": ["S1-S2"], "rows": {"task": 3}}',
            "matrix JSON: rows must be an array, got {'task': 3}",
        ),
        (_matrix_json(3, '{"p": 0.5}'), "matrix JSON row 1: cells must be an array, got {'p': 0.5}"),
    ],
    ids=["object-pairs", "string-pairs", "object-rows", "object-cells"],
)
def test_matrix_json_pairs_rows_and_cells_must_be_arrays(text, message):
    with pytest.raises(FormatError) as exc:
        matrix_from_json(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"alpha": 0.05, "pairs": ["S1-S2"], "rows": [5]}',
            "matrix JSON row 1: must be an object, got 5",
        ),
        (_matrix_json(3, "[5]"), "matrix JSON row 1: cell 1 must be an object or null, got 5"),
        (
            _matrix_json(3, '[{"p": 0.5, "q": 1}]'),
            "matrix JSON row 1: cell 1 has unknown field 'q'",
        ),
        ('[{"alpha": 0.05}]', "matrix JSON: document must be an object"),
        (_matrix_json(3, "[{}]"), "matrix JSON row 1: cell 1 is missing field 'p'"),
        (
            _matrix_json(3, '[null, {"low_n": false}]').replace('["S1-S2"]', '["S1-S2", "S1-S3"]'),
            "matrix JSON row 1: cell 2 is missing field 'p'",
        ),
        (
            _matrix_json(3).replace('[{"task"', '[{"task": 3, "feature": "f", "cells": [null]}, {"task"')
            .replace('"feature": "mean_speed", ', ""),
            "matrix JSON row 2: missing field 'feature'",
        ),
        (_matrix_json(3).replace('"task": 3, ', ""), "matrix JSON row 1: missing field 'task'"),
        (_matrix_json(3).replace(', "cells": [{"p": 0.5}]', ""), "matrix JSON row 1: missing field 'cells'"),
        (_matrix_json(3).replace('"alpha": 0.05, ', ""), "matrix JSON: missing field 'alpha'"),
        (_matrix_json(3).replace('"pairs": ["S1-S2"], ', ""), "matrix JSON: missing field 'pairs'"),
        ('{"alpha": 0.05, "pairs": ["S1-S2"]}', "matrix JSON: missing field 'rows'"),
        (_matrix_json(3).replace('"cells"', '"zzz": 1, "cells"'), "matrix JSON row 1: has unknown field 'zzz'"),
        (_matrix_json(3).replace('"alpha"', '"zzz": 1, "alpha"'), "matrix JSON: has unknown field 'zzz'"),
        (_matrix_json(3).replace('["S1-S2"]', "[5]"), "matrix JSON: set pair must look like S1-S2, got 5"),
        (
            _matrix_json(3).replace('"S1-S2"', '"S2-S1"'),
            "matrix JSON: set pair must be ordered ascending, got 'S2-S1'",
        ),
        (_matrix_json(3).replace('"S1-S2"', '"S1-S9"'), "matrix JSON: set must be one of S1..S5, got 'S9'"),
    ],
    ids=[
        "number-row", "number-cell", "unknown-cell-field", "array-document", "empty-cell",
        "cell-2-without-p", "row-2-without-feature", "row-without-task", "row-without-cells",
        "no-alpha", "no-pairs", "no-rows", "unknown-row-field", "unknown-document-field",
        "number-pair", "descending-pair", "unknown-set-pair",
    ],
)
def test_matrix_json_wrong_types_name_the_row_and_cell(text, message):
    with pytest.raises(FormatError) as exc:
        matrix_from_json(text)
    assert str(exc.value) == message


def _matrix_json_cell(**fields):
    cell = {"p": 0.5, "n_effective": 7, "method": "exact", "ties_present": False, "low_n": False}
    cell.update(fields)
    return _matrix_json(3, json.dumps([cell]))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("p", True, "p must be a number in [0, 1]"),
        ("p", "0.5", "p must be a number in [0, 1]"),
        ("p", 1.5, "p must be a number in [0, 1]"),
        ("p", -0.0001, "p must be a number in [0, 1]"),
        ("p", None, "p must be a number in [0, 1]"),
        ("n_effective", "x", "n_effective must be a non-negative integer or null"),
        ("n_effective", -1, "n_effective must be a non-negative integer or null"),
        ("n_effective", 2.0, "n_effective must be a non-negative integer or null"),
        ("n_effective", True, "n_effective must be a non-negative integer or null"),
        ("low_n", "no", "low_n must be a boolean"),
        ("low_n", 0, "low_n must be a boolean"),
        ("low_n", None, "low_n must be a boolean"),
        ("ties_present", "yes", "ties_present must be a boolean or null"),
        ("ties_present", 1, "ties_present must be a boolean or null"),
        ("method", "bogus", "method must be 'exact', 'normal-approx' or null"),
        ("method", 1, "method must be 'exact', 'normal-approx' or null"),
    ],
)
def test_matrix_json_cell_fields_are_checked(field, value, message):
    with pytest.raises(FormatError) as exc:
        matrix_from_json(_matrix_json_cell(**{field: value}))
    assert str(exc.value) == f"matrix JSON row 1: cell 1 {message}, got {value!r}"


@pytest.mark.parametrize(
    "fields",
    [
        {"p": 0, "n_effective": 0},
        {"p": 1, "n_effective": None, "method": None, "ties_present": None},
        {"p": 0.25, "method": "normal-approx", "ties_present": True, "low_n": True},
    ],
)
def test_matrix_json_accepts_well_typed_cells(fields):
    cell = matrix_from_json(_matrix_json_cell(**fields)).cells[0][0]
    want = {"p": 0.5, "n_effective": 7, "method": "exact", "ties_present": False, "low_n": False}
    want.update(fields)
    assert type(cell.p) is float
    assert (cell.p, cell.n_effective, cell.method, cell.ties_present, cell.low_n) == tuple(
        want[k] for k in ("p", "n_effective", "method", "ties_present", "low_n")
    )


@pytest.mark.parametrize("alpha", ["5.0", "0", "1", "-0.5", "true", '"0.05"', "null"])
def test_matrix_json_alpha_must_lie_in_open_unit_interval(alpha):
    text = _matrix_json(3).replace('"alpha": 0.05', f'"alpha": {alpha}')
    with pytest.raises(FormatError) as exc:
        matrix_from_json(text)
    assert str(exc.value) == (
        f"matrix JSON: alpha must lie strictly between 0 and 1, got {json.loads(alpha)!r}"
    )


def test_mask_tsv_matches_mask(small_matrix):
    lines = mask_to_tsv(small_matrix).splitlines()[1:]
    parsed = [line.split("\t")[3:] for line in lines]
    expected = small_matrix.mask()
    assert parsed == [
        ["true" if b else "false" for b in row] for row in expected
    ]


def test_markdown_renders_canonical_columns_and_bold(reference_matrix):
    text = matrix_to_markdown(reference_matrix)
    lines = text.splitlines()
    assert lines[0].startswith(
        "| Task type | Task | Feature | S1-S2 | S1-S3 | S1-S4 | S1-S5 "
        "| S2-S3 | S2-S4 | S2-S5 | S3-S4 | S3-S5 | S4-S5 |"
    )
    assert len(lines) == 2 + 29
    # spot-check one significant and one non-significant cell on the first row
    first = lines[2]
    assert "**0.0412**" in first
    assert "**0.863**" not in first and "0.863" in first


def test_markdown_na_cells():
    corpus = sets_corpus(SynthProfile(seed=41, n_subjects=2), (SetId.S1, SetId.S2))
    matrix = build_matrix(
        corpus, [(1, "mean_speed")], [(SetId.S1, SetId.S2), (SetId.S4, SetId.S5)]
    )
    text = matrix_to_markdown(matrix)
    assert "NA" in text.splitlines()[2]


def test_load_matrix_tsv_diagnostics():
    with pytest.raises(FormatError):
        load_matrix_tsv("")
    with pytest.raises(FormatError):
        load_matrix_tsv("wrong\theader\nrow")
    good_header = "task_type\ttask\tfeature\tS1-S2\n"
    with pytest.raises(FormatError, match="line 2"):
        load_matrix_tsv(good_header + "Cognitive\t1\tmean_speed\n")
    with pytest.raises(FormatError):
        load_matrix_tsv(good_header + "Mechanical\t1\tmean_speed\t0.5\n")  # wrong category
    with pytest.raises(RangeError):
        load_matrix_tsv(good_header + "Cognitive\t1\tmean_speed\t1.5\n")
    loaded = load_matrix_tsv(good_header + "Cognitive\t1\tmean_speed\tNA\n")
    assert loaded.cells[0][0] is None


@pytest.mark.parametrize(
    "row, error, message",
    [
        ("Cognitive\t12\tmean_speed\t0.5", RangeError, "task id must be in 1..9, got 12"),
        ("Cognitive\t1\tmean_speed\t1.5", RangeError, "p must be a number in [0, 1], got 1.5"),
        ("Cognitive\t1\tmean_speed\t1e999", RangeError, "p must be a number in [0, 1], got inf"),
        (
            "Mechanical\t1\tmean_speed\t0.5",
            FormatError,
            "task 1 belongs to Cognitive, row says 'Mechanical'",
        ),
    ],
)
def test_load_matrix_tsv_names_the_line_of_a_row_or_cell_error(row, error, message):
    text = f"task_type\ttask\tfeature\tS1-S2\nCognitive\t1\tmean_speed\t0.5\n{row}\n"
    with pytest.raises(error) as info:
        load_matrix_tsv(text)
    assert type(info.value) is error and str(info.value) == f"line 3: {message}"


def test_load_matrix_tsv_names_the_file_line_after_blank_lines():
    text = "task_type\ttask\tfeature\tS1-S2\n\n  \nCognitive\t1\tmean_speed\t0.5\n"
    text += "Cognitive\t2\tmean_speed\tbad\n"
    with pytest.raises(FormatError) as info:
        load_matrix_tsv(text)
    assert str(info.value) == "line 5: bad p-value 'bad' under S1-S2"


@pytest.mark.parametrize(
    "header, rows, alpha, message",
    [
        ("S1-S2\tS1-S2", ["0.5\t0.1"], None, "matrix TSV: duplicate set pair S1-S2"),
        (
            "S1-S2",
            ["0.5", "0.01"],
            None,
            "matrix TSV: duplicate row for task 1 and feature 'mean_speed'",
        ),
        ("S1-S2", ["0.5"], True, "alpha must lie strictly between 0 and 1, got True"),
    ],
    ids=["duplicate-pairs", "duplicate-rows", "alpha-true"],
)
def test_load_matrix_tsv_checks_the_matrix_shape_and_alpha(header, rows, alpha, message):
    # A table carries no alpha: one set on the loaded matrix meets
    # ComparisonMatrix's own check.
    text = f"task_type\ttask\tfeature\t{header}\n"
    text += "".join(f"Cognitive\t1\tmean_speed\t{cells}\n" for cells in rows)
    with pytest.raises(RangeError) as info:
        loaded = load_matrix_tsv(text)
        replace(loaded, alpha=alpha)
    assert str(info.value) == message


@pytest.mark.parametrize("task", ["+1", " 1", "1 ", "\u0663", "1_0", "", "1.0"])
def test_load_matrix_tsv_task_is_ascii_digits(task):
    text = f"task_type\ttask\tfeature\tS1-S2\nCognitive\t{task}\tmean_speed\t0.5\n"
    with pytest.raises(FormatError) as info:
        load_matrix_tsv(text)
    assert str(info.value) == f"line 2: task must be an integer, got {task!r}"


@pytest.mark.parametrize(
    "task, error, message",
    [
        ("10", RangeError, "task id must be in 1..9, got 10"),
        ("0", RangeError, "task id must be in 1..9, got 0"),
        ("+3", FormatError, "task must be an integer, got '+3'"),
    ],
)
def test_load_matrix_tsv_reads_its_task_column_by_the_task_rule(task, error, message):
    with pytest.raises(error) as rule:
        parse_task_id(task)
    text = f"task_type\ttask\tfeature\tS1-S2\nCognitive\t{task}\tmean_speed\t0.5\n"
    with pytest.raises(error) as info:
        load_matrix_tsv(text)
    assert str(rule.value) == message
    assert (str(info.value), info.value.line) == (f"line 2: {message}", 2)


@pytest.mark.parametrize("p", ["\u0660.\u0665", "0.0_5", " 0.5", "0.5 ", "nan", "0x0", "."])
def test_load_matrix_tsv_p_values_are_ascii_decimals(p):
    text = f"task_type\ttask\tfeature\tS1-S2\nCognitive\t1\tmean_speed\t{p}\n"
    with pytest.raises(FormatError) as info:
        load_matrix_tsv(text)
    assert str(info.value) == f"line 2: bad p-value {p!r} under S1-S2"


@pytest.mark.parametrize("p", ["0.5", "1", "0", ".5", "1.", "1e-05", "5E-324", "+0.25"])
def test_load_matrix_tsv_reads_ascii_decimal_p_values(p):
    text = f"task_type\ttask\tfeature\tS1-S2\nCognitive\t1\tmean_speed\t{p}\n"
    assert load_matrix_tsv(text).cells[0][0].p == float(p)


# --- feature tables ----------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    return sets_corpus(SynthProfile(seed=42, n_subjects=2), (SetId.S1,))


@pytest.fixture(scope="module")
def table(corpus):
    return feature_table(corpus)


def test_features_tsv_layout(table):
    lines = features_to_tsv(table).splitlines()
    assert lines[0].split("\t") == ["subject", "set", "task", *DEFAULT_CATALOG, "degenerate"]
    assert len(lines) == 1 + 18
    first = lines[1].split("\t")
    assert first[:3] == ["U01", "S1", "1"]
    # counts serialize as plain integers
    air_index = 3 + DEFAULT_CATALOG.index("time_in_air")
    assert "." not in first[air_index]


def test_features_tsv_deterministic(table):
    assert features_to_tsv(table) == features_to_tsv(table)


def test_features_json_contains_values(table):
    import json

    rows = json.loads(features_to_json(table))
    assert len(rows) == 18
    assert rows[0]["subject"] == "U01"
    assert set(rows[0]["values"]) == set(DEFAULT_CATALOG)


def test_features_markdown_converts_to_per_second(corpus, table):
    text = features_to_markdown(feature_table(corpus, ("mean_speed", "time_in_air")))
    lines = text.splitlines()
    assert lines[0] == "| subject | set | task | mean_speed (units/s) | time_in_air |"
    value_line = lines[2].split("|")
    assert value_line[1:4] == [" U01 ", " S1 ", " 1 "]
    shown = float(value_line[4].strip())
    # cell text carries 6 significant digits
    mean_speed = table.values[0, DEFAULT_CATALOG.index("mean_speed")]
    assert shown == pytest.approx(mean_speed * 100.0, rel=1e-4)
    assert PER_SECOND_SCALE["mean_acceleration"] == 10000.0


# --- recovery rendering -------------------------------------------------------


def test_recovery_rendering(reference_matrix):
    summary = summarize_recovery(reference_matrix, alpha=0.05)
    js = recovery_to_json(summary)
    assert '"scope": "catalog-subset"' in js
    import json

    payload = json.loads(js)
    assert payload["columns"]["S1-S5"]["Cognitive"]["count"] == 8
    assert payload["no_recovery"]["count"] == 0
    text = recovery_to_text(summary)
    assert "alpha = 0.05" in text
    assert "catalog-subset" in text
    assert "S1-S5" in text
    assert "S4-S5" in text


# --- one significance rule, one table layout ---------------------------------


@st.composite
def matrices_and_alphas(draw):
    """A matrix of drawn cells over 1 to 10 pairs, and an alpha to re-mask it
    at that is omitted (None) or given, 0 and 1 included. A cell is NA, a
    p-value alone (as loaded from a TSV) or a p-value with every other
    ``Cell`` field drawn. The p-values favour 0, 1, the smallest subnormal
    and the alphas in play, so that ``p == alpha`` comes up."""
    matrix_alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    alpha = draw(st.none() | st.sampled_from([0.0, 1.0, 0.05]) | st.floats(0.0, 1.0))
    pairs = draw(
        st.lists(st.sampled_from(canonical_set_pairs()), min_size=1, max_size=10, unique=True)
    )
    row = st.builds(MatrixRow, st.sampled_from(TASK_IDS), st.sampled_from(full_catalog()))
    rows = draw(st.lists(row, max_size=12, unique=True))
    specials = [0.0, 1.0, 5e-324, 0.05, matrix_alpha] + ([] if alpha is None else [alpha])
    p_values = st.sampled_from(specials) | st.floats(0.0, 1.0)
    full_cells = st.builds(
        Cell,
        p_values,
        st.none() | st.integers(0, 10**6),
        st.sampled_from([None, "exact", "normal-approx"]),
        st.none() | st.booleans(),
        st.booleans(),
    )
    cell = st.none() | p_values.map(Cell) | full_cells
    cell_rows = draw(
        st.lists(
            st.lists(cell, min_size=len(pairs), max_size=len(pairs)),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    cells = tuple(tuple(cs) for cs in cell_rows)
    matrix = ComparisonMatrix(
        rows=tuple(rows), pairs=tuple(pairs), cells=cells, alpha=matrix_alpha
    )
    return matrix, alpha


@given(matrices_and_alphas())
@settings(max_examples=150, deadline=None)
def test_matrix_views_and_recovery_match_their_reference_forms(drawn):
    matrix, alpha = drawn
    assert matrix_to_tsv(matrix) == reference_matrix_to_tsv(matrix)
    assert matrix_to_json(matrix) == reference_matrix_to_json(matrix)
    if alpha in (0.0, 1.0):
        message = re.escape(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
        with pytest.raises(RangeError, match=message):
            replace(matrix, alpha=alpha)
        with pytest.raises(RangeError, match=message):
            summarize_recovery(matrix, alpha)
        return
    a = matrix.alpha if alpha is None else alpha
    at_a = replace(matrix, alpha=a)
    assert mask_to_tsv(at_a) == reference_mask_to_tsv(at_a)
    assert matrix_to_markdown(at_a) == reference_matrix_to_markdown(matrix, a)
    summary = summarize_recovery(matrix, alpha)
    assert summary == summarize_recovery(at_a) == reference_summarize_recovery(matrix, a)
    assert recovery_to_json(summary) == reference_recovery_to_json(summary)


def test_every_view_of_a_matrix_reads_its_alpha():
    # At alpha 0.01, p = 0.03 is not significant and p = 0.005 is, in the mask
    # TSV, the bold cells and the recovery summary alike.
    pairs = ((SetId.S1, SetId.S2), (SetId.S1, SetId.S3))
    cells = ((Cell(p=0.03), Cell(p=0.005)),)
    matrix = ComparisonMatrix((MatrixRow(1, "mean_speed"),), pairs, cells, alpha=0.01)
    assert mask_to_tsv(matrix).splitlines()[1] == "Cognitive\t1\tmean_speed\tfalse\ttrue"
    assert matrix_to_markdown(matrix).splitlines()[2] == (
        "| Cognitive | 1 | mean_speed | 0.03 | **0.005** |"
    )
    summary = summarize_recovery(matrix)
    assert summary.alpha == 0.01
    assert summary.columns["S1-S2"][Category.COGNITIVE].cells == ()
    assert summary.columns["S1-S3"][Category.COGNITIVE].cells == ((1, "mean_speed"),)


def _columnar(entries, catalog) -> FeatureTable:
    """The columnar table of a dict table whose keys are in corpus order."""
    keys = tuple(entries)
    values = [[np.nan if v.values is None else v[n] for n in catalog] for v in entries.values()]
    flags = [[n in v.flags for n in catalog] for v in entries.values()]
    return FeatureTable(
        keys,
        tuple(catalog),
        np.array(values, dtype=np.float64).reshape(len(keys), len(catalog)),
        np.array(flags, dtype=bool).reshape(len(keys), len(catalog)),
        {k: "too short" for k, v in entries.items() if v.values is None},
    )


@st.composite
def feature_tables(draw):
    """A dict feature table with failed and flagged records over a drawn
    catalog subset, ``pendown_`` features included, keys in corpus order.
    Count features hold integers and the others floats, as extracted."""
    catalog = draw(st.lists(st.sampled_from(full_catalog()), max_size=8, unique=True))
    key = st.tuples(
        st.sampled_from(["U01", "U02", "a-7", "Z_9"]),
        st.sampled_from(ALL_SETS),
        st.sampled_from(TASK_IDS),
    )
    count, value = st.integers(-(10**6), 10**6), st.floats()
    flags = st.frozensets(st.sampled_from(catalog), max_size=3) if catalog else st.just(frozenset())
    table = {}
    for k in sorted(draw(st.lists(key, max_size=8, unique=True))):
        if draw(st.booleans()):
            table[k] = ReferenceFeatureVector(None, frozenset({EXTRACTION_FAILED}))
        else:
            values = {name: draw(count if name in COUNT_FEATURES else value) for name in catalog}
            table[k] = ReferenceFeatureVector(values, draw(flags))
    return table, catalog


@given(feature_tables())
@settings(max_examples=100, deadline=None)
def test_feature_views_match_their_reference_forms(drawn):
    entries, catalog = drawn
    table = _columnar(entries, catalog)
    assert features_to_tsv(table) == reference_features_to_tsv(entries, catalog)
    assert features_to_markdown(table) == reference_features_to_markdown(entries, catalog)


def test_counts_render_as_integers_and_failed_records_as_missing():
    # Counts are float64 in the table; the views write them as extracted.
    catalog = ("time_in_air", "mean_speed", "p_gt_100")
    ok, failed = ("U01", SetId.S1, 1), ("U02", SetId.S1, 1)
    table = _columnar(
        {
            ok: ReferenceFeatureVector({"time_in_air": 123, "mean_speed": 2.0, "p_gt_100": 0}),
            failed: ReferenceFeatureVector(None, frozenset({EXTRACTION_FAILED})),
        },
        catalog,
    )
    assert features_to_tsv(table).splitlines()[1:] == [
        "U01\tS1\t1\t123\t2.0\t0\t",
        "U02\tS1\t1\tNA\tNA\tNA\textraction-failed",
    ]
    assert features_to_markdown(table).splitlines()[2:] == [
        "| U01 | S1 | 1 | 123 | 200 | 0 |",
        "| U02 | S1 | 1 | NA | NA | NA |",
    ]
    text = features_to_json(table)
    # json.loads reads 123.0 as equal to 123, so the text itself is checked.
    assert '"p_gt_100": 0,\n' in text and '"time_in_air": 123\n' in text
    assert json.loads(text) == [
        {
            "subject": "U01", "set": "S1", "task": 1, "degenerate": [],
            "values": {"time_in_air": 123, "mean_speed": 2.0, "p_gt_100": 0},
        },
        {
            "subject": "U02", "set": "S1", "task": 1, "degenerate": [EXTRACTION_FAILED],
            "values": None,
        },
    ]
