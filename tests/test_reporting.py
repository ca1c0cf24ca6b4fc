import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from inkfatigue.errors import FormatError, RangeError
from inkfatigue.features import (
    DEFAULT_CATALOG,
    EXTRACTION_FAILED,
    FeatureVector,
    feature_table,
    full_catalog,
)
from inkfatigue.model import ALL_SETS, TASK_IDS, SetId
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
from inkfatigue.stats import Cell, ComparisonMatrix, MatrixRow, build_matrix, default_rows
from inkfatigue.synth import SynthProfile, generate_corpus

from oracles import (
    reference_features_to_markdown,
    reference_features_to_tsv,
    reference_mask_to_tsv,
    reference_matrix_to_markdown,
    reference_matrix_to_tsv,
    reference_summarize_recovery,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def small_matrix():
    corpus = generate_corpus(SynthProfile(seed=40, n_subjects=4))
    rows = default_rows(tasks=(1, 6), catalog=("mean_speed", "time_in_air"))
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
    loaded = load_matrix_tsv(text, alpha=small_matrix.alpha)
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


def _matrix_json(task, cells='[{"p": 0.5}]'):
    return (
        '{"alpha": 0.05, "pairs": ["S1-S2"], "rows": '
        f'[{{"task": {task}, "feature": "mean_speed", "cells": {cells}}}]}}'
    )


@pytest.mark.parametrize("task", ["12", "0", "-1", "3.7", '"3"', '"\u0663"', "true", "null"])
def test_matrix_json_task_must_be_an_integer_in_range(task):
    with pytest.raises(FormatError, match="task must be an integer in 1..9"):
        matrix_from_json(_matrix_json(task))


@pytest.mark.parametrize("cells", ["[]", '[{"p": 0.5}, {"p": 0.2}]', '[{"p": 0.5}, null]'])
def test_matrix_json_row_must_have_one_cell_per_pair(cells):
    with pytest.raises(FormatError, match="row 1 has .* cells, expected 1"):
        matrix_from_json(_matrix_json(3, cells))


def test_matrix_json_accepts_every_task_and_na_cells():
    for task in range(1, 10):
        loaded = matrix_from_json(_matrix_json(task, "[null]"))
        assert loaded.rows[0].task == task and loaded.cells == ((None,),)


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
    corpus = generate_corpus(SynthProfile(seed=41, n_subjects=2), sets=(SetId.S1, SetId.S2))
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


@pytest.mark.parametrize("task", ["+1", " 1", "1 ", "\u0663", "1_0", "", "1.0"])
def test_load_matrix_tsv_task_is_ascii_digits(task):
    text = f"task_type\ttask\tfeature\tS1-S2\nCognitive\t{task}\tmean_speed\t0.5\n"
    with pytest.raises(FormatError) as info:
        load_matrix_tsv(text)
    assert str(info.value) == f"line 2: task must be an integer, got {task!r}"


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
def table():
    corpus = generate_corpus(SynthProfile(seed=42, n_subjects=2), sets=(SetId.S1,))
    return feature_table(corpus)


def test_features_tsv_layout(table):
    lines = features_to_tsv(table, DEFAULT_CATALOG).splitlines()
    assert lines[0].split("\t") == ["subject", "set", "task", *DEFAULT_CATALOG, "degenerate"]
    assert len(lines) == 1 + 18
    first = lines[1].split("\t")
    assert first[:3] == ["U01", "S1", "1"]
    # counts serialize as plain integers
    air_index = 3 + DEFAULT_CATALOG.index("time_in_air")
    assert "." not in first[air_index]


def test_features_tsv_deterministic(table):
    assert features_to_tsv(table, DEFAULT_CATALOG) == features_to_tsv(table, DEFAULT_CATALOG)


def test_features_json_contains_values(table):
    import json

    rows = json.loads(features_to_json(table, DEFAULT_CATALOG))
    assert len(rows) == 18
    assert rows[0]["subject"] == "U01"
    assert set(rows[0]["values"]) == set(DEFAULT_CATALOG)


def test_features_markdown_converts_to_per_second(table):
    key = ("U01", SetId.S1, 1)
    vector = table[key]
    text = features_to_markdown({key: vector}, ("mean_speed", "time_in_air"))
    lines = text.splitlines()
    assert "mean_speed (units/s)" in lines[0]
    value_line = lines[2].split("|")
    shown = float(value_line[4].strip())
    # cell text carries 6 significant digits
    assert shown == pytest.approx(vector["mean_speed"] * 100.0, rel=1e-4)
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
    """A matrix of drawn p-value lists over 1 to 10 pairs, and a render alpha
    that is omitted (None) or given. The p-values favour 0, 1, the smallest
    subnormal and the alphas in play, so that ``p == alpha`` comes up."""
    matrix_alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    alpha = draw(st.none() | st.sampled_from([0.0, 1.0, 0.05]) | st.floats(0.0, 1.0))
    pairs = draw(
        st.lists(st.sampled_from(canonical_set_pairs()), min_size=1, max_size=10, unique=True)
    )
    row = st.builds(MatrixRow, st.sampled_from(TASK_IDS), st.sampled_from(full_catalog()))
    rows = draw(st.lists(row, max_size=12))
    specials = [0.0, 1.0, 5e-324, 0.05, matrix_alpha] + ([] if alpha is None else [alpha])
    p_values = st.sampled_from(specials) | st.floats(0.0, 1.0)
    cell_rows = draw(
        st.lists(
            st.lists(st.none() | p_values, min_size=len(pairs), max_size=len(pairs)),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    cells = tuple(tuple(None if p is None else Cell(p=p) for p in ps) for ps in cell_rows)
    matrix = ComparisonMatrix(
        rows=tuple(rows), pairs=tuple(pairs), cells=cells, alpha=matrix_alpha
    )
    return matrix, alpha


@given(matrices_and_alphas())
@settings(max_examples=150, deadline=None)
def test_matrix_views_and_recovery_match_their_reference_forms(drawn):
    matrix, alpha = drawn
    given_alpha = () if alpha is None else (alpha,)
    assert matrix_to_tsv(matrix) == reference_matrix_to_tsv(matrix)
    assert mask_to_tsv(matrix, *given_alpha) == reference_mask_to_tsv(matrix, *given_alpha)
    assert matrix_to_markdown(matrix, *given_alpha) == reference_matrix_to_markdown(
        matrix, *given_alpha
    )
    assert summarize_recovery(matrix, *given_alpha) == reference_summarize_recovery(
        matrix, *given_alpha
    )


@st.composite
def feature_tables(draw):
    """A feature table with failed and flagged records over a drawn catalog
    subset, ``pendown_`` features included."""
    catalog = draw(st.lists(st.sampled_from(full_catalog()), max_size=8, unique=True))
    key = st.tuples(
        st.sampled_from(["U01", "U02", "a-7", "Z_9"]),
        st.sampled_from(ALL_SETS),
        st.sampled_from(TASK_IDS),
    )
    value = st.floats() | st.integers(-(10**6), 10**6)
    flags = st.frozensets(st.sampled_from(full_catalog()), max_size=3)
    table = {}
    for k in draw(st.lists(key, max_size=8, unique=True)):
        if draw(st.booleans()):
            table[k] = FeatureVector(
                values=None, flags=frozenset({EXTRACTION_FAILED}), error="too short"
            )
        else:
            values = {name: draw(value) for name in catalog}
            table[k] = FeatureVector(values=values, flags=draw(flags))
    return table, catalog


@given(feature_tables())
@settings(max_examples=100, deadline=None)
def test_feature_views_match_their_reference_forms(drawn):
    table, catalog = drawn
    assert features_to_tsv(table, catalog) == reference_features_to_tsv(table, catalog)
    assert features_to_markdown(table, catalog) == reference_features_to_markdown(table, catalog)
