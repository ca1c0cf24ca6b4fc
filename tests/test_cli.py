import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from inkfatigue import cli
from inkfatigue.cli import _alpha_arg, main
from inkfatigue.errors import InkError
from inkfatigue.features import DEFAULT_CATALOG, check_names, feature_table, full_catalog
from inkfatigue.reporting import features_to_tsv, matrix_from_json, matrix_to_json
from inkfatigue.model import (
    TASK_IDS, SetId, load_corpus, parse_task_file, read_files, write_corpus,
)
from inkfatigue.protocol import canonical_set_pairs, pair_label, parse_pair_label
from inkfatigue.stats import Cell
from inkfatigue.synth import SynthProfile, generate_corpus, generate_task, load_profile

from conftest import call_beside_fifos, lax_numbers, needs_fifo, sets_corpus

PROFILE_SMALL = """
seed = 50
n_subjects = 2
"""

PROFILE_ONE = """
seed = 51
n_subjects = 1
"""

SHORT_TASK = "#subject=U01\n#set=S1\n#task=1\n1 2 3 4 5\n1 2 3 4 5\n"


def write_profile(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "profile.cfg"
    path.write_text(text)
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def corpus_dir(tmp_path):
    profile = write_profile(tmp_path, PROFILE_SMALL)
    corpus = tmp_path / "corpus"
    assert main(["synth", "--profile", str(profile), "--out", str(corpus)]) == 0
    return corpus


# --- synth -------------------------------------------------------------------


def test_synth_output_is_loadable(corpus_dir):
    assert main(["validate", "--corpus", str(corpus_dir)]) == 0


def test_synth_is_byte_reproducible(tmp_path):
    profile = write_profile(tmp_path, PROFILE_SMALL)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["synth", "--profile", str(profile), "--out", str(out_a)]) == 0
    assert main(["synth", "--profile", str(profile), "--out", str(out_b)]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_synth_single_subject_writes_45_files(tmp_path):
    profile = write_profile(tmp_path, PROFILE_ONE)
    out = tmp_path / "one"
    assert main(["synth", "--profile", str(profile), "--out", str(out)]) == 0
    assert sum(1 for _ in out.rglob("*.ink")) == 45


def test_synth_bad_profile_is_data_error(tmp_path, capsys):
    for text, message in [
        ("stroke_count = 0", "stroke_count must be >= 1, got 0"),
        ("seed = 1\nbogus = 2\n", "line 2: unknown key 'bogus'"),
        ("seed = 1\n\nseed = 2\n", "line 3: seed is already set on line 1"),
        ("set.S9.speed_scale = 1.0\n", "line 1: set must be one of S1..S5, got 'S9'"),
    ]:
        profile = write_profile(tmp_path, text)
        assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: {profile}: {message}\n"


def test_synth_pen_past_int64_is_a_one_line_data_error(tmp_path, capsys):
    profile = write_profile(tmp_path, PROFILE_ONE + "base_speed = 1e19\n")
    out = tmp_path / "x"
    assert main(["synth", "--profile", str(profile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "int64" in err
    assert not out.exists()


def test_synth_error_mid_stream_keeps_the_files_written_before_it(tmp_path, capsys):
    """Records are written as they are made: the first one that cannot be
    made stops the run with one line, and the files before it stay whole."""
    profile = write_profile(tmp_path, PROFILE_ONE + "set.S4.speed_scale = 1e19\n")
    out = tmp_path / "x"
    assert main(["synth", "--profile", str(profile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "int64" in err
    assert err.startswith("error: subject U01 set S4 task 1: ")
    keys = [("U01", set_id, t) for set_id in (SetId.S1, SetId.S2, SetId.S3) for t in TASK_IDS]
    paths = sorted(p for p in out.rglob("*") if p.is_file())
    assert paths == [out / subject / set_id.value / f"task{t}.ink" for subject, set_id, t in keys]
    for path, key in zip(paths, keys):
        assert parse_task_file(path.read_text()) == generate_task(load_profile(profile), *key)


@pytest.mark.parametrize("command", ["synth", "extract"])
def test_out_naming_an_existing_file_is_a_one_line_error(corpus_dir, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("")
    if command == "synth":
        source = ["--profile", str(write_profile(tmp_path, PROFILE_ONE))]
    else:
        source = ["--corpus", str(corpus_dir)]
    assert main([command, *source, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize("command", ["synth", "extract", "compare"])
@pytest.mark.parametrize("through", [False, True], ids=["file", "through-file"])
def test_out_blocked_by_a_file_fails_before_any_work(
    corpus_dir, tmp_path, capsys, monkeypatch, command, through
):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if through else taken

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "generate_corpus", refuse)
    monkeypatch.setattr(cli, "load_corpus", refuse)
    monkeypatch.setattr(cli, "read_records", refuse)
    if command == "synth":
        source = ["--profile", str(write_profile(tmp_path, PROFILE_ONE))]
    else:
        source = ["--corpus", str(corpus_dir)]
    assert main([command, *source, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --out {out}: {taken} is not a directory\n"
    assert taken.read_text() == ""


@pytest.mark.parametrize("command", ["validate", "extract", "compare"])
def test_duplicate_key_error_names_both_files(corpus_dir, tmp_path, capsys, command):
    original = corpus_dir / "U01" / "S1" / "task1.ink"
    copy = corpus_dir / "U01" / "S1" / "task1_copy.ink"
    copy.write_bytes(original.read_bytes())
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert main([command, "--corpus", str(corpus_dir), *out]) == 1
    err = capsys.readouterr().err
    line = f"error: {copy}: duplicate of {original} (subject=U01 set=S1 task=1)\n"
    if command == "validate":
        assert err == line + "error: 1 invalid file(s) out of 91\n"
    else:
        assert err == line


# --- validate ----------------------------------------------------------------


def test_validate_reports_corrupt_file(corpus_dir, capsys):
    target = corpus_dir / "U01" / "S2" / "task4.ink"
    lines = target.read_text().splitlines()
    lines[5] = "999 999 9999 999 999"  # pressure out of range
    target.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 1
    err = capsys.readouterr().err
    assert "task4.ink" in err
    assert "line 6" in err
    assert "pressure" in err


def test_validate_reports_non_utf8_file_and_keeps_checking(corpus_dir, capsys):
    bad = corpus_dir / "U01" / "S1" / "task1.ink"
    bad.write_bytes(b"#subject=U01\n\xff\n")
    (corpus_dir / "U02" / "S3" / "task2.ink").write_text("garbage\n")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: not UTF-8 text" in err
    assert "task2.ink" in err
    assert err.endswith("\nerror: 2 invalid file(s) out of 90\n")


def test_validate_reports_a_directory_named_like_a_task_file_and_keeps_checking(
    corpus_dir, capsys
):
    folder = corpus_dir / "U01" / "S1" / "task2.ink"
    folder.unlink()
    folder.mkdir()
    (corpus_dir / "U02" / "S3" / "task2.ink").write_text("garbage\n")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3 and lines[0].startswith("error: ") and str(folder) in lines[0]
    assert "task2.ink" in lines[1]
    assert lines[2] == "error: 2 invalid file(s) out of 90"


def test_validate_warns_of_each_file_in_a_set_it_does_not_read(corpus_dir, capsys):
    s1 = corpus_dir / "U01" / "S1"
    shutil.copy(s1 / "task1.ink", s1 / "task1.INK")
    (s1 / "task2.ink").rename(s1 / "task2.ink.bak")
    (corpus_dir / "U02" / "S3" / "notes.txt").write_text("hello\n")
    (corpus_dir / "U02" / "README").write_text("not in a set\n")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 0
    out, err = capsys.readouterr()
    skipped = [
        s1 / "task1.INK", s1 / "task2.ink.bak", corpus_dir / "U02" / "README",
        corpus_dir / "U02" / "S3" / "notes.txt",
    ]
    assert err.splitlines() == [
        f"warning: {path}: not read; only task files (*.ink) and aux.tsv are" for path in skipped
    ]
    assert out.splitlines()[:3] == [
        "89 task file(s) valid, 2 subject(s)", "1 missing (subject, set, task) cell(s):",
        "  U01 S1 task2",
    ]


def test_validate_warns_of_files_outside_a_set_directory(corpus_dir, capsys):
    assert main(["validate", "--corpus", str(corpus_dir)]) == 0
    clean = capsys.readouterr()
    strays = [
        corpus_dir / "README", corpus_dir / "U01" / "S1" / "extra" / "deeper.txt",
        corpus_dir / "U01" / "S1" / "stray.txt", corpus_dir / "U01" / "notes.txt",
    ]
    (corpus_dir / "U01" / "S1" / "extra").mkdir()
    for path in strays:
        path.write_text("hello\n")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        f"warning: {path}: not read; only task files (*.ink) and aux.tsv are" for path in strays
    ]
    assert clean.err == "" and out == clean.out


@pytest.mark.parametrize("command", ["extract", "compare"])
def test_files_a_set_holds_besides_its_task_files_change_no_output(
    corpus_dir, tmp_path, capsys, command
):
    argv = [command, "--corpus", str(corpus_dir), "--out"]
    assert main([*argv, str(tmp_path / "before")]) == 0
    before = capsys.readouterr()
    (corpus_dir / "U01" / "S1" / "notes.txt").write_text("hello\n")
    assert main([*argv, str(tmp_path / "after")]) == 0
    after = capsys.readouterr()
    assert after.err == before.err == ""
    assert after.out == before.out.replace("before", "after")
    assert tree_bytes(tmp_path / "after") == tree_bytes(tmp_path / "before")


@pytest.mark.parametrize("command", ["validate", "extract", "compare"])
def test_corpus_naming_a_file_is_a_usage_error_saying_so(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("")
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert main([command, "--corpus", str(afile), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: inkfatigue {command} [-h] ")
    assert err.endswith(f"inkfatigue {command}: error: --corpus {afile} is not a directory\n")
    assert main([command, "--corpus", str(tmp_path / "missing"), *out]) == 2
    assert capsys.readouterr().err.endswith(
        f"inkfatigue {command}: error: corpus directory does not exist: {tmp_path / 'missing'}\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate"], "--corpus is required"),
        (["synth", "--profile", "profile.cfg"], "--out is required (or set INKFATIGUE_OUT)"),
        (["report", "--matrix", "matrix.json"], "--out is required (or set INKFATIGUE_OUT)"),
    ],
    ids=["validate-corpus", "synth-out", "report-out"],
)
def test_a_missing_corpus_or_out_is_a_usage_error_under_its_commands_usage(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("INKFATIGUE_OUT", raising=False)
    write_profile(tmp_path, PROFILE_SMALL)
    Path("matrix.json").write_text(
        '{"alpha": 0.05, "pairs": ["S1-S2"], "rows": '
        '[{"task": 1, "feature": "mean_speed", "cells": [{"p": 0.5}]}]}'
    )
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: inkfatigue {argv[0]} [-h] ")
    assert err.endswith(f"\ninkfatigue {argv[0]}: error: {message}\n")


@pytest.mark.parametrize("command", ["extract", "compare"])
def test_directory_named_like_a_task_file_is_a_one_line_data_error(
    corpus_dir, tmp_path, capsys, command
):
    folder = corpus_dir / "U02" / "S3" / "task2.ink"
    folder.unlink()
    folder.mkdir()
    assert main([command, "--corpus", str(corpus_dir), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and str(folder) in err


@pytest.mark.parametrize("command", ["extract", "compare"])
def test_non_utf8_file_is_a_one_line_data_error(corpus_dir, tmp_path, capsys, command):
    bad = corpus_dir / "U02" / "S3" / "task5.ink"
    bad.write_bytes(b"\xff\xfe")
    assert main([command, "--corpus", str(corpus_dir), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {bad}: not UTF-8 text")


@pytest.mark.parametrize("command", ["validate", "extract"])
def test_aux_value_out_of_range_is_a_one_line_error_naming_the_file(
    corpus_dir, tmp_path, capsys, command
):
    aux = corpus_dir / "U02" / "S3" / "aux.tsv"
    aux.write_text("lactate\tflight_time\tforce\tvelocity\trpe\n-0.5\t0.5\t700\t1.5\t2\n")
    out = ["--out", str(tmp_path / "o")] if command == "extract" else []
    assert main([command, "--corpus", str(corpus_dir), *out]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {aux}: aux field lactate must be finite and >= 0, got -0.5\n"


def test_validate_reports_a_bad_aux_sidecar_next_to_bad_task_files(corpus_dir, capsys):
    bad = corpus_dir / "U01" / "S2" / "task4.ink"
    lines = bad.read_text().splitlines(keepends=True)
    bad.write_text("".join(lines[:4] + ["1 2 3\n"] + lines[5:]))
    aux = corpus_dir / "U02" / "S3" / "aux.tsv"
    aux.write_text("lactate\tflight_time\tforce\tvelocity\trpe\nabc\t0.5\t700\t1.5\t2\n")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: line 5: expected 5 integers (x y pressure azimuth altitude), got 3 fields\n"
        f"error: {aux}: aux field lactate is not a number: 'abc'\n"
        "error: 1 invalid file(s) out of 90\n"
    )


def test_validate_reads_aux_sidecars_of_a_corpus_without_task_files(tmp_path, capsys):
    aux = tmp_path / "U01" / "S1" / "aux.tsv"
    aux.parent.mkdir(parents=True)
    aux.write_text("lactate\n1\n")
    assert main(["validate", "--corpus", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {aux}: aux header must be lactate flight_time force velocity rpe\n"
        f"warning: no task files found under {tmp_path}\n"
    )


def test_validate_warns_of_a_file_whose_headers_name_another_place(corpus_dir, capsys):
    moved = corpus_dir / "U02" / "S3" / "task2.ink"
    moved.rename(corpus_dir / "U02" / "S3" / "second.ink")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 0
    assert capsys.readouterr().err == (
        f"warning: {moved.with_name('second.ink')}: headers say this file belongs at "
        f"{Path('U02', 'S3', 'task2.ink')}\n"
    )


@pytest.mark.parametrize("command", ["validate", "extract", "compare"])
def test_a_sidecar_under_a_directory_that_is_not_a_subject_id_names_the_file(
    corpus_dir, tmp_path, capsys, command
):
    aux = corpus_dir / "U 9" / "S1" / "aux.tsv"
    aux.parent.mkdir(parents=True)
    aux.write_text("lactate\tflight_time\tforce\tvelocity\trpe\n1\t0.5\t700\t1.5\t2\n")
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert main([command, "--corpus", str(corpus_dir), *out]) == 1
    assert capsys.readouterr().err == (
        f"error: {aux}: subject id 'U 9' must be non-empty and use only "
        "letters, digits, '_', '.', '-'\n"
    )


def test_validate_empty_dir_warns_but_passes(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["validate", "--corpus", str(empty)]) == 0
    assert "no task files" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "compare"])
def test_extract_and_compare_warn_of_an_empty_corpus(tmp_path, capsys, command):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([command, "--corpus", str(empty), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == f"warning: {empty}: no task record to analyse\n"


def test_compare_warns_when_no_record_is_in_a_set_of_its_pairs(tmp_path, capsys):
    corpus = tmp_path / "s1"
    write_corpus(sets_corpus(SynthProfile(seed=51, n_subjects=1), (SetId.S1,)), corpus)
    out = tmp_path / "o"
    argv = ["compare", "--corpus", str(corpus), "--out", str(out), "--pairs", "S2-S3"]
    assert main(argv) == 0
    assert capsys.readouterr().err == f"warning: {corpus}: no task record to analyse\n"
    assert (out / "matrix.tsv").exists()


def test_validate_reports_gaps(corpus_dir, capsys):
    (corpus_dir / "U02" / "S5" / "task9.ink").unlink()
    assert main(["validate", "--corpus", str(corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert "1 missing" in out
    assert "U02 S5 task9" in out


def test_validate_reports_every_task_of_a_missing_set(corpus_dir, capsys):
    shutil.rmtree(corpus_dir / "U02" / "S5")
    assert main(["validate", "--corpus", str(corpus_dir)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "81 task file(s) valid, 2 subject(s)",
        "9 missing (subject, set, task) cell(s):",
        *(f"  U02 S5 task{task}" for task in TASK_IDS),
    ]


# --- the read path of validate, extract and compare ----------------------------

_CORPUS_EDITS = (
    "truncate", "flip_byte", "edit_header", "duplicate", "delete", "empty", "corrupt_aux",
    "aux_not_under_a_subject", "crlf", "trailing_nul", "past_int64", "few_samples",
)
_HEADER_LINES = (
    "#set=S9", "#set=S2", "#task=0", "#task=4", "#subject=U 1", "#subject=U02", "#device",
)
_AUX_HEADER = "lactate\tflight_time\tforce\tvelocity\trpe\n"
_AUX_TEXTS = (
    "lactate\n1\n", _AUX_HEADER + "x\t1\t1\t1\t1\n", _AUX_HEADER + "-1\t1\t1\t1\t1\n", "",
)
# Sidecar places that are not <subject>/<set>: a subject id with a space or
# a '*', a directory that is not a set, one level too deep or too shallow.
_AUX_PLACES = ("U 1/S1", "U*1/S2", "U01/X1", "U01/S1/extra", "U01")


def _edit_corpus(root: Path, name: str, i: int, k: int) -> None:
    """Apply edit ``name`` to the ``i``-th task file of the corpus at ``root``
    (or to its directory); ``k`` picks a place or a variant of the edit."""
    files = sorted(root.rglob("*.ink"))
    path = files[i % len(files)]
    data = path.read_bytes()
    lines = data.split(b"\n")
    samples = [n for n, line in enumerate(lines) if line[:1].isdigit()]
    if name == "truncate":
        path.write_bytes(data[: k % (len(data) + 1)])
    elif name == "flip_byte" and data:
        at = k % len(data)
        path.write_bytes(data[:at] + bytes([data[at] ^ 1 << k % 8]) + data[at + 1:])
    elif name == "edit_header" and len(lines) > 3:
        lines[k % 3] = _HEADER_LINES[k % len(_HEADER_LINES)].encode()
        path.write_bytes(b"\n".join(lines))
    elif name == "duplicate":
        path.with_name(f"copy_{path.name}").write_bytes(data)
    elif name == "delete":
        path.unlink()
    elif name == "empty":
        path.write_bytes(b"")
    elif name == "corrupt_aux":
        (path.parent / "aux.tsv").write_text(_AUX_TEXTS[k % len(_AUX_TEXTS)])
    elif name == "aux_not_under_a_subject":
        place = root / _AUX_PLACES[k % len(_AUX_PLACES)]
        place.mkdir(parents=True, exist_ok=True)
        (place / "aux.tsv").write_text(_AUX_HEADER + "1\t0.5\t700\t1.5\t2\n")
    elif name == "crlf":
        path.write_bytes(data.replace(b"\n", b"\r\n"))
    elif name == "trailing_nul":
        path.write_bytes(data + b"\0")
    elif name == "past_int64" and samples:
        n = samples[k % len(samples)]
        lines[n] = b"9223372036854775808" + lines[n][lines[n].find(b" "):]
        path.write_bytes(b"\n".join(lines))
    elif name == "few_samples" and samples:  # 0, 1 or 2 samples: too few to extract
        path.write_bytes(b"\n".join(lines[: samples[0] + k % 3]) + b"\n")


def _run(argv: list[str]) -> tuple[int, list[str]]:
    """The exit code and stderr lines of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(st.sampled_from(_CORPUS_EDITS), st.integers(0, 2**16), st.integers(0, 2**16)),
        min_size=1,
        max_size=3,
    ),
)
@example(seed=0, edits=[("few_samples", 0, 2)])
@settings(max_examples=40, deadline=None)
def test_validate_extract_and_compare_agree_on_a_damaged_corpus(seed, edits):
    """On a one-subject corpus with up to three edits, each command exits 0
    or 1 and writes only error and warning lines to stderr, validate's count
    of invalid files included. A corpus validate refuses, extract and compare
    refuse with validate's first error. Validate's error lines are those of
    the error outcomes of read_files, in order, then its count of the task
    files among them. On a corpus it accepts, compare's error lines are
    exactly extract's for the records of the sets and tasks its cells read,
    and compare exits 1 if and only if there is one."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        write_corpus(generate_corpus(SynthProfile(seed=seed, n_subjects=1)), root)
        for edit in edits:
            _edit_corpus(root, *edit)
        outcomes = list(read_files(root))
        options = ["--features", "mean_speed"]
        runs = {
            "validate": _run(["validate", "--corpus", str(root)]),
            "extract": _run(["extract", "--corpus", str(root), "--out", f"{tmp}/x", *options]),
            "compare": _run([
                "compare", "--corpus", str(root), "--out", f"{tmp}/c", *options,
                "--pairs", "S1-S2",
            ]),
        }
    for command, (code, err) in runs.items():
        assert code in (0, 1), (command, err)
        for line in err:
            assert line.startswith(("error: ", "warning: ")), (command, err)
    code, err = runs["validate"]
    task_files = [o for path, o in outcomes if path.name != "aux.tsv"]
    invalid = sum(isinstance(o, Exception) for o in task_files)
    assert [line for line in err if line.startswith("error: ")] == [
        f"error: {o}" for _, o in outcomes if isinstance(o, Exception)
    ] + [f"error: {invalid} invalid file(s) out of {len(task_files)}"] * (invalid > 0), err
    if code == 1:
        first = next(line for line in err if line.startswith("error: "))
        for command in ("extract", "compare"):
            assert (runs[command][0], runs[command][1][:1]) == (1, [first]), (command, err)
    else:
        # The cells of S1-S2 read every task of sets S1 and S2.
        named = [line for line in runs["extract"][1] if line.split("/")[1] in ("S1", "S2")]
        assert runs["compare"] == (1 if named else 0, named), runs


# --- extract -----------------------------------------------------------------


def test_extract_full_corpus_row_count(tmp_path):
    profile = write_profile(tmp_path, "seed = 52\nn_subjects = 20\n")
    corpus = tmp_path / "corpus20"
    out = tmp_path / "features"
    assert main(["synth", "--profile", str(profile), "--out", str(corpus)]) == 0
    assert main(["extract", "--corpus", str(corpus), "--out", str(out)]) == 0
    lines = (out / "features.tsv").read_text().splitlines()
    assert len(lines) == 1 + 900
    assert lines[0].split("\t")[3:-1] == list(DEFAULT_CATALOG)


def test_extract_reruns_bit_identical(corpus_dir, tmp_path):
    out_a = tmp_path / "fa"
    out_b = tmp_path / "fb"
    assert main(["extract", "--corpus", str(corpus_dir), "--out", str(out_a)]) == 0
    assert main(["extract", "--corpus", str(corpus_dir), "--out", str(out_b)]) == 0
    assert (out_a / "features.tsv").read_bytes() == (out_b / "features.tsv").read_bytes()


def test_extract_feature_subset_restricts_columns(corpus_dir, tmp_path):
    out = tmp_path / "subset"
    assert main([
        "extract", "--corpus", str(corpus_dir), "--out", str(out),
        "--features", "entropy_p,max_speed",
    ]) == 0
    header = (out / "features.tsv").read_text().splitlines()[0]
    assert header.split("\t") == ["subject", "set", "task", "entropy_p", "max_speed", "degenerate"]


def test_extract_short_record_yields_na_row_and_exit_1(corpus_dir, tmp_path, capsys):
    (corpus_dir / "U01" / "S1" / "task1.ink").write_text(SHORT_TASK)
    out = tmp_path / "partial"
    assert main(["extract", "--corpus", str(corpus_dir), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "U01/S1/task1" in err
    lines = (out / "features.tsv").read_text().splitlines()
    na_rows = [ln for ln in lines if "extraction-failed" in ln]
    assert len(na_rows) == 1
    assert na_rows[0].split("\t")[3] == "NA"
    assert len(lines) == 1 + 90  # every record still has a row


def test_extract_short_record_yields_na_row_in_markdown_and_json(corpus_dir, tmp_path):
    (corpus_dir / "U01" / "S1" / "task1.ink").write_text(SHORT_TASK)
    md, js = tmp_path / "md", tmp_path / "js"
    assert main(["extract", "--corpus", str(corpus_dir), "--out", str(md), "--format", "markdown"]) == 1
    assert main(["extract", "--corpus", str(corpus_dir), "--out", str(js), "--format", "json"]) == 1
    lines = (md / "features.md").read_text().splitlines()
    assert len(lines) == 2 + 90
    assert lines[2] == "| U01 | S1 | 1 | " + " | ".join(["NA"] * len(DEFAULT_CATALOG)) + " |"
    first = json.loads((js / "features.json").read_text())[0]
    assert first["values"] is None and first["degenerate"] == ["extraction-failed"]


def test_extract_json_format(corpus_dir, tmp_path):
    out = tmp_path / "fj"
    assert main([
        "extract", "--corpus", str(corpus_dir), "--out", str(out), "--format", "json",
    ]) == 0
    rows = json.loads((out / "features.json").read_text())
    assert len(rows) == 90


def test_extract_rows_follow_headers_not_paths(corpus_dir, tmp_path):
    # U01's first record moves last in path order; its row stays first.
    (corpus_dir / "U01" / "S1" / "task1.ink").rename(corpus_dir / "U03.ink")
    out = tmp_path / "moved"
    assert main(["extract", "--corpus", str(corpus_dir), "--out", str(out)]) == 0
    expected = features_to_tsv(feature_table(load_corpus(corpus_dir)))
    assert (out / "features.tsv").read_bytes() == expected.encode("utf-8")
    assert expected.splitlines()[1].startswith("U01\tS1\t1\t")


@pytest.mark.parametrize(
    "command",
    ["synth", "validate", "extract", "compare", "extract --format json", "extract --format markdown"],
)
def test_corpus_commands_memory_grows_with_outputs_not_ink(tmp_path, command):
    """Three more subjects (135 more task files) raise the traced peak of a
    run by less than a quarter of their ink text: the records stream through
    it, and a render holds about twice its text. A run that held every record
    would need more than half of it. Synth writes the corpora that the other
    commands read."""
    command, *options = command.split()
    big, small = tmp_path / "four", tmp_path / "one"
    write_corpus(generate_corpus(SynthProfile(seed=53, n_subjects=4)), big)
    shutil.copytree(big / "U01", small / "U01")

    def peak(root):
        if command == "synth":
            n = len(list(root.iterdir()))
            profile = write_profile(tmp_path, f"seed = 53\nn_subjects = {n}\n")
            argv = ["synth", "--profile", str(profile), "--out", str(tmp_path / "out" / root.name)]
        else:
            argv = [command, "--corpus", str(root), *options]
            if command != "validate":
                argv += ["--out", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak(small)  # first-call caches stay out of the count
    ink = [sum(p.stat().st_size for p in root.rglob("*.ink")) for root in (small, big)]
    assert peak(big) - peak(small) < (ink[1] - ink[0]) / 4


# --- compare and report --------------------------------------------------------


def test_compare_writes_matrix_and_recovery(corpus_dir, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--corpus", str(corpus_dir), "--out", str(out)]) == 0
    assert (out / "matrix.tsv").exists()
    assert (out / "matrix_mask.tsv").exists()
    assert (out / "matrix.json").exists()
    assert (out / "recovery.json").exists()
    assert (out / "recovery.txt").exists()
    header = (out / "matrix.tsv").read_text().splitlines()[0].split("\t")
    assert header[3:] == [
        "S1-S2", "S1-S3", "S1-S4", "S1-S5", "S2-S3",
        "S2-S4", "S2-S5", "S3-S4", "S3-S5", "S4-S5",
    ]
    body = (out / "matrix.tsv").read_text().splitlines()[1:]
    assert len(body) == 9 * len(DEFAULT_CATALOG)


def test_compare_names_the_records_it_cannot_use_and_exits_1(corpus_dir, tmp_path, capsys):
    (corpus_dir / "U01" / "S1" / "task1.ink").write_text(SHORT_TASK)
    out = tmp_path / "cmp"
    assert main(["compare", "--corpus", str(corpus_dir), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: U01/S1/task1: feature extraction needs at least 3 samples, got 2\n"
    assert captured.out.splitlines()[-1] == f"wrote {out / 'recovery.txt'}"
    # No cell of S2-S3 reads the record, so it is not named.
    argv = ["compare", "--corpus", str(corpus_dir), "--out", str(out), "--pairs", "S2-S3"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_compare_markdown_renders_canonical_pairs(corpus_dir, tmp_path):
    out = tmp_path / "cmpmd"
    assert main([
        "compare", "--corpus", str(corpus_dir), "--out", str(out),
        "--format", "markdown", "--features", "mean_speed",
    ]) == 0
    header = (out / "matrix.md").read_text().splitlines()[0]
    for label in ("S1-S2", "S1-S3", "S1-S4", "S1-S5", "S2-S3",
                  "S2-S4", "S2-S5", "S3-S4", "S3-S5", "S4-S5"):
        assert label in header


def test_compare_pair_subset(corpus_dir, tmp_path):
    out = tmp_path / "cmpp"
    assert main([
        "compare", "--corpus", str(corpus_dir), "--out", str(out),
        "--pairs", "S1-S4,S1-S2", "--features", "max_speed",
    ]) == 0
    header = (out / "matrix.tsv").read_text().splitlines()[0].split("\t")
    assert header[3:] == ["S1-S2", "S1-S4"]  # canonical order, not flag order


def test_compare_rank_sum_and_one_sided(corpus_dir, tmp_path):
    out = tmp_path / "cmpv"
    assert main([
        "compare", "--corpus", str(corpus_dir), "--out", str(out),
        "--test", "rank-sum", "--sided", "one", "--features", "mean_speed",
    ]) == 0
    payload = json.loads((out / "matrix.json").read_text())
    assert payload["rows"][0]["cells"][0]["method"] == "normal-approx"


def test_sided_less_finds_the_rise_of_time_in_air_that_greater_cannot(tmp_path):
    # The README corpus: S4 writes slower and lifts the pen longer, so
    # time_in_air rises from S1 to S4 and only the "less" tail sees it.
    profile = write_profile(
        tmp_path,
        "seed = 7\nn_subjects = 20\nset.S4.speed_scale = 0.7\nset.S4.air_inflation = 1.5\n",
    )
    corpus = tmp_path / "corpus"
    assert main(["synth", "--profile", str(profile), "--out", str(corpus)]) == 0
    p_values = {}
    for sided in ("less", "greater", "one"):
        out = tmp_path / sided
        assert main([
            "compare", "--corpus", str(corpus), "--out", str(out), "--sided", sided,
            "--features", "time_in_air", "--pairs", "S1-S4", "--format", "json",
        ]) == 0
        rows = json.loads((out / "matrix.json").read_text())["rows"]
        p_values[sided] = {row["task"]: row["cells"][0]["p"] for row in rows}
    for task in (1, 4, 9):
        assert p_values["less"][task] < 0.05 < p_values["greater"][task]
    assert p_values["one"] == p_values["greater"]


def test_compare_perturbed_corpus_makes_s1_s4_densest_baseline_column(tmp_path):
    profile = write_profile(
        tmp_path,
        "seed = 60\nn_subjects = 12\n"
        "set.S4.speed_scale = 0.7\nset.S4.air_inflation = 1.5\n",
    )
    corpus = tmp_path / "perturbed"
    out = tmp_path / "cmp"
    assert main(["synth", "--profile", str(profile), "--out", str(corpus)]) == 0
    assert main(["compare", "--corpus", str(corpus), "--out", str(out)]) == 0
    lines = (out / "matrix_mask.tsv").read_text().splitlines()
    pairs = lines[0].split("\t")[3:]
    counts = {label: 0 for label in pairs}
    for line in lines[1:]:
        for label, token in zip(pairs, line.split("\t")[3:]):
            counts[label] += token == "true"
    baseline_columns = ["S1-S2", "S1-S3", "S1-S4", "S1-S5"]
    assert counts["S1-S4"] == max(counts[c] for c in baseline_columns)
    # every column not touching the perturbed S4 stays far behind
    for label in counts:
        if "S4" not in label:
            assert counts[label] < counts["S1-S4"]


def test_report_rerenders_saved_matrix(corpus_dir, tmp_path):
    cmp_out = tmp_path / "cmp"
    rep_out = tmp_path / "rep"
    assert main(["compare", "--corpus", str(corpus_dir), "--out", str(cmp_out)]) == 0
    assert main([
        "report", "--matrix", str(cmp_out / "matrix.json"), "--out", str(rep_out),
        "--alpha", "0.01",
    ]) == 0
    assert (rep_out / "matrix.md").exists()
    assert (rep_out / "recovery.json").exists()
    assert json.loads((rep_out / "recovery.json").read_text())["alpha"] == 0.01


def _json_row(task="1", cells='[{"p": 0.5}]'):
    """One matrix JSON row of task ``task`` and feature mean_speed."""
    return f'{{"task": {task}, "feature": "mean_speed", "cells": {cells}}}'


@pytest.mark.parametrize(
    "alpha,pairs,rows,error",
    [
        ("0.05", '["S1-S2"]', _json_row("12"), "matrix JSON row 1: task id must be in 1..9, got 12"),
        ("0.05", '["S1-S2"]', _json_row("true"), "matrix JSON row 1: task id must be an integer, got True"),
        ("0.05", '["S1-S2"]', _json_row(cells='[{"p": 0.5}, {"p": 0.1}]'), "matrix JSON: row 1 has 2 cells, expected 1"),
        ("5.0", '["S1-S2"]', _json_row(), "matrix JSON: alpha must lie strictly between 0 and 1, got 5.0"),
        ("0.05", '{"S1-S2": 1}', _json_row(), "matrix JSON: pairs must be an array, got {'S1-S2': 1}"),
        ("0.05", '"S1-S2"', _json_row(), "matrix JSON: pairs must be an array, got 'S1-S2'"),
        (
            "0.05",
            '["S1-S2", "S1-S2"]',
            _json_row(cells='[{"p": 0.5}, {"p": 0.1}]'),
            "matrix JSON: duplicate set pair S1-S2",
        ),
        (
            "0.05",
            '["S1-S2"]',
            _json_row() + ", " + _json_row(cells='[{"p": 0.01}]'),
            "matrix JSON: duplicate row for task 1 and feature 'mean_speed'",
        ),
    ],
    ids=[
        "task-12", "task-true", "extra-cell", "alpha-5",
        "object-pairs", "string-pairs", "duplicate-pairs", "duplicate-rows",
    ],
)
def test_report_bad_matrix_is_a_one_line_error_and_writes_nothing(
    tmp_path, capsys, alpha, pairs, rows, error
):
    matrix = tmp_path / "m.json"
    matrix.write_text(f'{{"alpha": {alpha}, "pairs": {pairs}, "rows": [{rows}]}}')
    out = tmp_path / "o"
    assert main(["report", "--matrix", str(matrix), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {matrix}: {error}\n"
    assert not out.exists()


# A valid matrix.json: a full cell, an NA cell, p-only cells, and a row with
# no category.
_REPORT_MATRIX = json.dumps({
    "alpha": 0.05,
    "pairs": ["S1-S2", "S4-S5"],
    "rows": [
        {
            "task": 1, "feature": "mean_speed", "category": "Cognitive",
            "cells": [
                {"p": 0.01, "n_effective": 7, "method": "exact", "ties_present": False,
                 "low_n": False},
                None,
            ],
        },
        {"task": 6, "feature": "time_in_air", "cells": [{"p": 0.5}, {"p": 1}]},
    ],
})


def _report_matrix_with(path, value) -> str:
    """``_REPORT_MATRIX`` with the value at ``path`` (keys and indices) replaced."""
    doc = json.loads(_REPORT_MATRIX)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "path,value,error",
    [
        (("pairs", 0), 5, "matrix JSON: set pair must look like S1-S2, got 5"),
        (("pairs", 0), None, "matrix JSON: set pair must look like S1-S2, got None"),
        (("rows", 0, "feature"), 5, "matrix JSON row 1: feature must be a string, got 5"),
        (
            ("rows", 0, "category"),
            "Mechanical",
            "matrix JSON row 1: task 1 belongs to Cognitive, row says 'Mechanical'",
        ),
    ],
    ids=["pair-5", "pair-null", "feature-5", "category-wrong"],
)
def test_report_bad_row_field_is_a_one_line_error_naming_the_file(
    tmp_path, capsys, path, value, error
):
    matrix = tmp_path / "m.json"
    matrix.write_text(_report_matrix_with(path, value))
    out = tmp_path / "o"
    assert main(["report", "--matrix", str(matrix), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {matrix}: {error}\n"
    assert not out.exists()


_CELL_FIELDS = ("p", "n_effective", "method", "ties_present", "low_n")

# Where a drawn value replaces the valid one: alpha, a pair label, a row's
# task, feature or category (row 2 has none), a cell, a cell field, or the
# pairs, rows or cells container; or where it lands in a field of no known
# name, of the document or of a row.
_REPORT_FIELD_PATHS = [
    ("alpha",), ("pairs",), ("pairs", 0), ("pairs", 1), ("rows",), ("zzz",), ("rows", 0, "zzz"),
    ("rows", 0, "task"), ("rows", 0, "feature"), ("rows", 0, "category"),
    ("rows", 1, "category"), ("rows", 0, "cells"), ("rows", 0, "cells", 0),
    *(("rows", 0, "cells", 0, name) for name in _CELL_FIELDS),
    ("rows", 1, "cells", 1, "p"),
]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(
        ["S1-S2", "S1-S3", "S2-S1", "S1-S6", "Cognitive", "Mechanical", "exact", "bogus"]
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_CELL_FIELDS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


_CELL_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(Cell) if f.default is not dataclasses.MISSING
}


def _assert_written_back_as_given(text: str) -> None:
    """``matrix_to_json`` of the matrix loaded from ``text`` is ``text``'s
    document, up to key order, a missing or null category and cell fields
    left out at their defaults."""
    given = json.loads(text)
    written = json.loads(matrix_to_json(matrix_from_json(text)))
    for given_row, written_row in zip(given["rows"], written["rows"]):
        if given_row.get("category") is None:
            given_row.pop("category", None)
            written_row.pop("category")
        given_row["cells"] = [
            None if cell is None else {**_CELL_DEFAULTS, **cell} for cell in given_row["cells"]
        ]
    assert written == given


@given(st.sampled_from(_REPORT_FIELD_PATHS), _JSON_VALUES)
@example(("pairs", 0), 5)
@example(("pairs", 0), None)
@example(("rows", 0, "feature"), 5)
@example(("pairs",), {"S1-S2": 1, "S4-S5": 2})
@example(("pairs",), ["S1-S2", "S1-S2"])
@settings(max_examples=300, deadline=None)
def test_report_on_any_json_value_in_any_field_exits_0_or_1_with_one_line(path, value):
    """A run exits 0 only on a document that ``matrix_to_json`` writes back
    as given; otherwise it exits 1 with one line naming the file."""
    text = _report_matrix_with(path, value)
    with tempfile.TemporaryDirectory() as tmp:
        matrix = Path(tmp) / "m.json"
        matrix.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            code, err = _stderr_of(["report", "--matrix", str(matrix), "--out", f"{tmp}/o"])
    if code == 0:
        assert err == ""
        _assert_written_back_as_given(text)
    else:
        assert code == 1
        assert err.startswith(f"error: {matrix}: ") and err.count("\n") == 1
        assert err.endswith("\n")


# --- flags, env, config ---------------------------------------------------------


def test_usage_errors_exit_2(corpus_dir, tmp_path):
    assert main(["compare", "--corpus", str(corpus_dir), "--out", str(tmp_path / "o"),
                 "--alpha", "1.5"]) == 2
    assert main(["validate", "--corpus", str(tmp_path / "missing")]) == 2
    assert main(["extract", "--corpus", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["extract", "--corpus", str(corpus_dir), "--out", str(tmp_path / "o"),
                 "--features", "bogus"]) == 2
    assert main(["compare", "--corpus", str(corpus_dir), "--out", str(tmp_path / "o"),
                 "--pairs", "S9-S1"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["extract", "--corpus", str(corpus_dir)]) == 2  # no --out anywhere


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--pairs", "S1-S2,S1-S9", "set must be one of S1..S5, got 'S9'"),
        ("--pairs", ",", "pair list is empty"),
        ("--features", " , ", "feature list is empty"),
    ],
)
def test_a_bad_list_flag_is_a_usage_error_naming_the_flag(
    corpus_dir, tmp_path, capsys, flag, value, message
):
    out = tmp_path / "o"
    assert main(["compare", "--corpus", str(corpus_dir), "--out", str(out), flag, value]) == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["validate", "--corpus", ""], "--corpus"),
        (["extract", "--corpus", "", "--out", "o"], "--corpus"),
        (["compare", "--corpus", "", "--out", "o"], "--corpus"),
        (["synth", "--profile", "", "--out", "o"], "--profile"),
        (["report", "--matrix", "", "--out", "o"], "--matrix"),
        (["extract", "--config", "", "--out", "o"], "--config"),
        (["extract", "--corpus", "corpus", "--out", ""], "--out"),
        (["compare", "--corpus", "corpus", "--out", ""], "--out"),
        (["synth", "--profile", "profile.cfg", "--out", ""], "--out"),
        (["report", "--matrix", "matrix.json", "--out", ""], "--out"),
    ],
    ids=["validate-corpus", "extract-corpus", "compare-corpus", "profile", "matrix", "config",
         "extract-out", "compare-out", "synth-out", "report-out"],
)
def test_an_empty_path_flag_is_a_usage_error_naming_the_flag(
    corpus_dir, tmp_path, monkeypatch, capsys, argv, flag
):
    # An empty path would name the working directory, which holds a corpus;
    # an empty --out is not absent, so INKFATIGUE_OUT does not stand in for it.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("INKFATIGUE_OUT", "env")
    before = tree_bytes(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: inkfatigue {argv[0]} [-h] ")
    assert err.endswith(f"\ninkfatigue {argv[0]}: error: argument {flag}: empty path\n")
    assert tree_bytes(tmp_path) == before and not Path("env").exists()


# Each list flag: its valid items in canonical order, a spelling of each, the
# items' owner, and names the owner refuses.
_LIST_FLAGS = {
    "pairs": (
        canonical_set_pairs(), [pair_label(p) for p in canonical_set_pairs()], parse_pair_label,
        ["S1-S1", "S2-S1", "S1-S9", "S1", "S1-S2-S3", "s1-s2", "bogus"],
    ),
    "features": (
        full_catalog(), full_catalog(), lambda name: check_names([name]),
        ["bogus", "MEAN_SPEED", "speed", "pendown_entropy_x", "pendown_"],
    ),
}


@given(st.sampled_from(sorted(_LIST_FLAGS)), st.data())
@settings(max_examples=200, deadline=None)
def test_a_list_flag_and_its_config_line_give_the_distinct_items_in_canonical_order(flag, data):
    values, labels, owner, bad_names = _LIST_FLAGS[flag]
    pad = st.sampled_from(["", " ", "  ", "\t"])
    item = st.builds("{}{}{}".format, pad, st.sampled_from(labels), pad)
    blank = st.sampled_from(["", " ", "\t "])
    items = data.draw(st.lists(st.one_of(item, item, blank), min_size=1, max_size=12).filter(
        lambda drawn: any(i.strip() for i in drawn)
    ))
    wanted = {i.strip() for i in items}
    expected = tuple(v for v, label in zip(values, labels) if label in wanted)
    text = ",".join(items)
    args = cli.build_parser().parse_args(["compare", f"--{flag}", text])
    assert getattr(args, flag) == expected
    assert cli._parse_config(f"{flag} = {text}\n")[flag] == expected

    bad = data.draw(st.sampled_from(bad_names))
    padded = data.draw(st.builds("{}{}{}".format, pad, st.just(bad), pad))
    items.insert(data.draw(st.integers(0, len(items))), padded)
    with pytest.raises(InkError) as owner_error:
        owner(bad)
    text = ",".join(items)
    code, err = _run(["compare", "--corpus", "missing", "--out", "o", f"--{flag}", text])
    assert code == 2 and err[-1].endswith(f"error: argument --{flag}: {owner_error.value}")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "run.cfg")
        config.write_text(f"{flag} = {text}\n")
        code, err = _run(["compare", "--config", str(config), "--corpus", "missing", "--out", "o"])
    assert (code, err) == (2, [f"usage error: {config}: line 1: {owner_error.value}"])


def test_out_defaults_to_env_var(corpus_dir, tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("INKFATIGUE_OUT", str(out))
    assert main(["extract", "--corpus", str(corpus_dir)]) == 0
    assert (out / "features.tsv").exists()


def test_config_file_supplies_defaults(corpus_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"corpus = {corpus_dir}\nalpha = 0.01\nfeatures = mean_speed\n")
    out = tmp_path / "cfgout"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads((out / "matrix.json").read_text())["alpha"] == 0.01


@pytest.mark.parametrize(
    "command, config, flags, env, out, alpha, notes",
    [
        ("compare", None, ["--out", "flag"], "env", "flag", 0.05, ()),
        ("compare", "out = config\n", ["--out", "flag"], "env", "flag", 0.05, ("out",)),
        ("compare", "out = config\n", [], "env", "config", 0.05, ()),
        ("compare", "out = flag\n", ["--out", "flag"], None, "flag", 0.05, ()),
        ("compare", None, [], "env", "env", 0.05, ()),
        ("compare", "alpha = 0.01\n", ["--out", "o", "--alpha", "0.2"], None, "o", 0.2, ("alpha",)),
        ("compare", "alpha = 0.01\n", ["--out", "o", "--alpha", "0.01"], None, "o", 0.01, ()),
        ("compare", "alpha = 0.01\nout = o\n", ["--alpha", "0.2"], "env", "o", 0.2, ("alpha",)),
        ("compare", "alpha = 0.01\n", ["--out", "o"], None, "o", 0.01, ()),
        ("extract", "alpha = 0.01\n", ["--out", "o"], None, "o", None, ()),
    ],
    ids=["out-flag", "out-flag-over-config", "out-config-over-env", "out-same", "out-env",
         "alpha-flag", "alpha-same", "alpha-flag-out-config", "alpha-config",
         "extract-ignores-alpha"],
)
def test_flag_then_config_then_env_then_default(
    corpus_dir, tmp_path, monkeypatch, command, config, flags, env, out, alpha, notes
):
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("INKFATIGUE_OUT", raising=False)
    else:
        monkeypatch.setenv("INKFATIGUE_OUT", env)
    argv = [command, "--corpus", str(corpus_dir), "--features", "mean_speed", *flags]
    if command == "compare":
        argv += ["--pairs", "S1-S2"]
    if config is not None:
        Path("run.cfg").write_text(config)
        argv += ["--config", "run.cfg"]
    code, err = _stderr_of(argv)
    assert code == 0
    assert err == "".join(
        f"note: --{key} on the command line overrides the config file value\n" for key in notes
    )
    if command == "extract":
        assert Path(out, "features.tsv").is_file()
    else:
        assert json.loads(Path(out, "matrix.json").read_text())["alpha"] == alpha
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == sorted({"corpus", out})


def test_config_with_unknown_key_is_usage_error(corpus_dir, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("nonsense = 1\n")
    assert main(["compare", "--config", str(config), "--corpus", str(corpus_dir),
                 "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    out = tmp_path / "o"
    assert main(["extract", "--config", str(missing), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error: ") and str(missing) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("alpha = 2\n", 1, "alpha must lie strictly between 0 and 1, got 2.0"),
        ("alpha = x\n", 1, "alpha must be a number, got 'x'"),
        ("# comment\nfeatures = bogus\n", 2, "unknown feature name(s): bogus"),
        ("alpha = 0.1\n\npairs = S2-S1\n", 3, "set pair must be ordered ascending, got 'S2-S1'"),
        ("sided = three\n", 1, "sided must be one of ('two', 'greater', 'less', 'one')"),
        ("pairs = S1-S9\n", 1, "set must be one of S1..S5, got 'S9'"),
        ("features = ,\n", 1, "feature list is empty"),
        ("pairs = , \n", 1, "pair list is empty"),
        ("alpha = 0.01\ncorpus =\n", 2, "empty path"),
        ("alpha = 0.01\nout =\n", 2, "empty path"),
        ("alpha = 0.01\n# again\nalpha = 0.2\n", 3, "alpha is already set on line 1"),
        ("test = rank-sum\ntest = rank-sum\n", 2, "test is already set on line 1"),
    ],
    ids=["alpha-range", "alpha-number", "features", "pairs", "sided", "pair-set",
         "no-features", "no-pairs", "empty-corpus", "empty-out", "alpha-twice",
         "same-value-twice"],
)
def test_config_value_of_wrong_type_names_file_and_line(corpus_dir, tmp_path, capsys, text, line, message):
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    out = tmp_path / "o"
    assert main(["compare", "--config", str(config), "--corpus", str(corpus_dir),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {config}: line {line}: {message}\n"
    assert not out.exists()


# One input file of each kind, the command that reads it, its exit code on
# a bad file and its name under the test's directory.
_EACH_INPUT_FILE = pytest.mark.parametrize(
    "argv,code,name",
    [
        (["report", "--matrix", "{bad}", "--out", "{out}"], 1, "input.bin"),
        (["synth", "--profile", "{bad}", "--out", "{out}"], 1, "input.bin"),
        (["extract", "--config", "{bad}", "--out", "{out}"], 2, "input.bin"),
        (
            ["extract", "--corpus", "{bad.parent.parent.parent}", "--out", "{out}"], 1,
            "c/U01/S1/task1.ink",
        ),
        (
            ["extract", "--corpus", "{bad.parent.parent.parent}", "--out", "{out}"], 1,
            "c/U01/S1/aux.tsv",
        ),
    ],
    ids=["report-matrix", "synth-profile", "config", "task-file", "aux-sidecar"],
)


@_EACH_INPUT_FILE
def test_non_utf8_input_file_is_a_one_line_error(tmp_path, capsys, argv, code, name):
    bad = tmp_path / name
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_bytes(b"seed = 1\n\xff\n")
    out = tmp_path / "o"
    assert main([a.format(bad=bad, out=out) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"error: {bad}: not UTF-8 text: " in err
    assert not out.exists()


@_EACH_INPUT_FILE
def test_input_file_starting_with_a_bom_is_a_one_line_error(tmp_path, capsys, argv, code, name):
    bad = tmp_path / name
    bad.parent.mkdir(parents=True, exist_ok=True)
    text = SHORT_TASK if name.endswith(".ink") else "seed = 1\n"
    bad.write_bytes(b"\xef\xbb\xbf" + text.encode())  # a UTF-8 byte-order mark in front
    out = tmp_path / "o"
    assert main([a.format(bad=bad, out=out) for a in argv]) == code
    err = capsys.readouterr().err
    prefix = "usage error: " if code == 2 else "error: "
    assert err == f"{prefix}{bad}: starts with a UTF-8 byte-order mark\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,code,name",
    [
        (["report", "--matrix", "{dir}", "--out", "{out}"], 1, "folder"),
        (["synth", "--profile", "{dir}", "--out", "{out}"], 1, "folder"),
        (["extract", "--config", "{dir}", "--out", "{out}"], 2, "folder"),
        (
            ["extract", "--corpus", "{dir.parent.parent.parent}", "--out", "{out}"], 1,
            "c/U01/S1/task1.ink",
        ),
        (
            ["extract", "--corpus", "{dir.parent.parent.parent}", "--out", "{out}"], 1,
            "c/U01/S1/aux.tsv",
        ),
    ],
    ids=["report-matrix", "synth-profile", "config", "task-file", "aux-sidecar"],
)
def test_directory_as_input_file_is_a_one_line_error(tmp_path, capsys, argv, code, name):
    folder = tmp_path / name
    folder.mkdir(parents=True)
    out = tmp_path / "o"
    assert main([a.format(dir=folder, out=out) for a in argv]) == code
    err = capsys.readouterr().err
    prefix = "usage error: " if code == 2 else "error: "
    assert err.count("\n") == 1 and err.startswith(prefix) and str(folder) in err
    assert not out.exists()


@needs_fifo
@pytest.mark.parametrize("command", ["validate", "extract", "compare"])
def test_a_named_pipe_as_task_file_is_a_one_line_error_not_a_hang(tmp_path, capsys, command):
    corpus = tmp_path / "c"
    write_corpus(sets_corpus(SynthProfile(seed=4, n_subjects=1), (SetId.S1,)), corpus)
    fifo = corpus / "U01" / "S1" / "task9.ink"
    fifo.unlink()
    os.mkfifo(fifo)
    out = tmp_path / "o"
    argv = [command, "--corpus", str(corpus)] + ([] if command == "validate" else ["--out", str(out)])
    assert call_beside_fifos(lambda: main(argv), [fifo]) == 1
    assert f"error: {fifo}: not a regular file\n" in capsys.readouterr().err
    assert not out.exists()


def _stderr_of(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(lax_numbers(st.floats(0.001, 0.999)))
@example("\u0660.\u0660\u0665")
@example("0.0_5")
@example(" 0.05")
@example("nan")
@example("inf")
@settings(max_examples=100, deadline=None)
def test_alpha_must_be_an_ascii_decimal(token):
    message = f"alpha must be a number, got {token!r}"
    code, err = _stderr_of(["compare", "--corpus", "c", "--out", "o", f"--alpha={token}"])
    assert code == 2
    assert err.endswith(f"error: argument --alpha: {message}\n")
    if token != token.strip():
        return  # a config value is stripped first
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text(f"alpha = {token}\n")
        code, err = _stderr_of(["compare", "--config", str(config), "--out", str(Path(tmp) / "o")])
        assert code == 2
        assert err == f"usage error: {config}: line 1: {message}\n"
        assert not (Path(tmp) / "o").exists()


@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=100, deadline=None)
def test_alpha_ascii_decimal_reads_as_its_value(alpha):
    assert repr(_alpha_arg(repr(alpha))) == repr(alpha)


# --- pinned artifacts ------------------------------------------------------------

PIN_PROFILE = """
seed = 61
n_subjects = 6
set.S4.speed_scale = 0.7
set.S4.air_inflation = 1.5
"""

# The sha256 of the output tree and the text of the transcript (argv, exit
# code, stdout, stderr) of the runs below, all with paths relative to the
# working directory. Any change to an artifact moves the hash; any change to a
# message, usage or help line, or exit code shows as a diff of the committed
# transcript. Help lines wrap at COLUMNS, which the test fixes.
PINNED_TREE_SHA256 = "a51b6d37871bc02f33a2d9b39e27ef4cec7bc156048c075b289ca687fba0b7cf"
PINNED_TRANSCRIPT = Path(__file__).parent / "data" / "cli_transcript.txt"


def _pin_invocations() -> list[list[str]]:
    """Writes the input files into the working directory; returns the runs."""
    Path("profile.cfg").write_text(PIN_PROFILE)
    Path("run.cfg").write_text(
        "# every config key\ncorpus = corpus\nout = out/config\nalpha = 0.1\n"
        "features = time_in_air, mean_speed\npairs = S1-S4,S1-S2\n"
        "format = markdown\ntest = rank-sum\nsided = one\n"
    )
    bad_configs = {
        "format": "format = xml\ntest = bogus\n",
        "test": "test = bogus\nsided = three\n",
        "sided": "sided = three\n",
        "alpha": "alpha = 2\n",
        "key": "profile = x\n",
        "line": "alpha 0.1\n",
    }
    for name, text in bad_configs.items():
        Path(f"bad-{name}.cfg").write_text(text)
    Path("alpha5.json").write_text(
        '{"alpha": 5.0, "pairs": ["S1-S2"], "rows": '
        '[{"task": 1, "feature": "mean_speed", "cells": [{"p": 0.5}]}]}'
    )
    runs = [
        ["synth", "--profile", "profile.cfg", "--out", "corpus"],
        ["validate", "--corpus", "corpus"],
    ]
    for command in ("extract", "compare", "report"):
        for fmt in ("tsv", "json", "markdown"):
            source = ["--corpus", "corpus"]
            if command == "report":
                source = ["--matrix", "out/compare-json/matrix.json", "--alpha", "0.2"]
            runs.append([command, *source, "--out", f"out/{command}-{fmt}", "--format", fmt])
    runs += [
        ["compare", "--config", "run.cfg", "--alpha", "0.2", "--sided", "two"],
        ["extract", "--config", "run.cfg", "--format", "json"],
        ["validate", "--config", "run.cfg"],
        ["report", "--matrix", "alpha5.json", "--out", "out/alpha5"],
        ["compare", "--corpus", "corpus", "--out", "out/x", "--format", "xml"],
        ["compare", "--out", "out/x"],
        ["extract", "--corpus", "corpus"],
        ["synth", "--out", "out/x"],
        ["report", "--matrix", "out/compare-json/matrix.json", "--out", "out/x", "--alpha", "1"],
    ]
    runs += [
        ["compare", "--config", f"bad-{name}.cfg", "--corpus", "corpus", "--out", "out/x"]
        for name in bad_configs
    ]
    runs += [[cmd, "--help"] for cmd in ("validate", "extract", "compare", "synth", "report")]
    return runs


def test_cli_outputs_messages_and_exit_codes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("INKFATIGUE_OUT", raising=False)
    monkeypatch.setenv("COLUMNS", "100")
    monkeypatch.chdir(tmp_path)
    transcript = []
    for argv in _pin_invocations():
        code = main(argv)
        captured = capsys.readouterr()
        transcript.append(
            f"$ {' '.join(argv)}\nexit {code}\n{captured.out}---\n{captured.err}===\n"
        )
        if argv[0] == "synth" and code == 0:
            Path("corpus/U01/S1/task1.ink").write_text(SHORT_TASK)
    tree = hashlib.sha256()
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        tree.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    assert "".join(transcript) == PINNED_TRANSCRIPT.read_bytes().decode()
    assert tree.hexdigest() == PINNED_TREE_SHA256
