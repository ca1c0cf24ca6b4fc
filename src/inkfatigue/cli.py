"""Command-line front end: generate/ingest, extract, compare, report.

Subcommands mirror the pipeline stages:

* ``synth``    write a synthetic corpus from a profile file,
* ``validate`` check every task file of a corpus and report gaps,
* ``extract``  compute the feature table for a corpus,
* ``compare``  build the set-pair p-value matrix plus the recovery summary,
* ``report``   re-render a saved matrix JSON at a chosen alpha.

Exit codes: 0 success, 1 data error, 2 usage error. A ``--config`` file can
supply any flag's value, each key at most once. A value comes from the flag,
else the config file, else (``--out`` only) the ``INKFATIGUE_OUT``
environment variable, else the built-in default. Each config value a flag
overrides gets one note on stderr, in config-file line order.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import features as features_mod
from . import reporting
from .errors import ConfigError, InkError
# parse_task_file, load_corpus and generate_corpus are not called here; they
# stay bound because perfbench/tracer.py patches each of them by name in this
# module, until ROADMAP item 1 drops cli from those lookup sites.
from .model import (
    ALL_SETS, AUX_FILE_NAME, TASK_IDS, ascii_float, load_corpus, parse_task_file,
    read_files, read_input, read_key_values, read_records, record_path, write_corpus,
)
from .protocol import canonical_set_pairs, parse_pair_label, summarize_recovery
from .stats import TESTS, build_matrix, cell_records, check_alpha, default_rows
from .synth import generate_corpus, generate_records, load_profile

ENV_OUT = "INKFATIGUE_OUT"

#: ``--sided`` choices and their alternative; ``one`` is an alias of ``greater``.
_SIDED = {"two": "two-sided", "greater": "greater", "less": "less", "one": "greater"}


def _alpha_arg(text: str) -> float:
    try:
        return check_alpha(ascii_float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"alpha must be a number, got {text!r}")
    except InkError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _list_arg(check, canonical, what: str, text: str) -> tuple:
    """The distinct comma-separated items of ``text`` that ``check`` maps to
    their values, blank ones dropped, in ``canonical`` order; ``check``'s
    module words the error for an item it refuses."""
    try:
        wanted = set(check([item.strip() for item in text.split(",") if item.strip()]))
    except InkError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not wanted:
        raise argparse.ArgumentTypeError(f"{what} list is empty")
    return tuple(value for value in canonical if value in wanted)


def _path_arg(text: str) -> str:
    """A path flag's value; an empty one would name the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


#: Every flag of every subcommand, as ``add_argument`` keywords, defaults
#: included. A --config file may set any of them except those in _FLAG_ONLY,
#: with the same conversion and choices.
_OPTIONS = {
    "corpus": {"type": _path_arg, "help": "corpus directory"},
    "profile": {"type": _path_arg, "required": True, "help": "profile file (key = value)"},
    "matrix": {"type": _path_arg, "required": True, "help": "matrix.json produced by compare"},
    "alpha": {
        "type": _alpha_arg, "default": 0.05, "help": "significance level (default %(default)s)",
    },
    "pairs": {
        "type": partial(_list_arg, partial(map, parse_pair_label), canonical_set_pairs(), "pair"),
        "default": tuple(canonical_set_pairs()), "help": "comma-separated set pairs",
    },
    "features": {
        "type": partial(_list_arg, features_mod.check_names, features_mod.full_catalog(),
                        "feature"),
        "default": features_mod.DEFAULT_CATALOG, "help": "comma-separated catalog subset",
    },
    "format": {"choices": ("tsv", "json", "markdown"), "default": "tsv"},
    "test": {"choices": TESTS, "default": "signed-rank"},
    "sided": {"choices": tuple(_SIDED), "default": "two"},
    "config": {"type": _path_arg, "help": "key = value defaults for flags"},
    "out": {"type": _path_arg, "help": f"output directory (default ${ENV_OUT})"},
}
_FLAG_ONLY = ("profile", "matrix", "config")


def _parse_config(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, key, value in read_key_values(text):
        if key not in _OPTIONS or key in _FLAG_ONLY:
            raise ConfigError(f"unknown config key {key!r}", line=lineno)
        try:
            values[key] = _OPTIONS[key].get("type", str)(value)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(str(exc), line=lineno)
        choices = _OPTIONS[key].get("choices")
        if choices and values[key] not in choices:
            raise ConfigError(f"{key} must be one of {choices}", line=lineno)
    return values


def _out_dir(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Path:
    """The output directory; a file at it or on the way to it is an error,
    raised before any work. Nothing is created here."""
    out = os.environ.get(ENV_OUT) if args.out is None else args.out
    if not out:
        parser.error(f"--out is required (or set {ENV_OUT})")
    out = Path(out)
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise NotADirectoryError(f"--out {out}: {existing} is not a directory")
    return out


def _corpus_dir(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Path:
    if args.corpus is None:
        parser.error("--corpus is required")
    if not Path(args.corpus).exists():
        parser.error(f"corpus directory does not exist: {args.corpus}")
    if not Path(args.corpus).is_dir():
        parser.error(f"--corpus {args.corpus} is not a directory")
    return Path(args.corpus)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args, parser) -> int:
    corpus_dir = _corpus_dir(args, parser)
    files = invalid = failed = 0  # task files, task files with an error, files with one
    for path, outcome in read_files(corpus_dir):
        if outcome is None:
            print(f"warning: {path}: not read; only task files (*.ink) and {AUX_FILE_NAME} are",
                  file=sys.stderr)
            continue
        task_file = path.name != AUX_FILE_NAME
        files += task_file
        if isinstance(outcome, Exception):
            print(f"error: {outcome}", file=sys.stderr)
            invalid += task_file
            failed += 1
        elif task_file and path.relative_to(corpus_dir) != record_path(outcome):
            print(
                f"warning: {path}: headers say this file belongs at {record_path(outcome)}",
                file=sys.stderr,
            )
    if not files:
        print(f"warning: no task files found under {corpus_dir}", file=sys.stderr)
    if invalid:
        print(f"error: {invalid} invalid file(s) out of {files}", file=sys.stderr)
    if failed or not files:
        return 1 if failed else 0
    # A second read for the keys alone: the benchmark pins four parses a
    # file on its CLI flow, so reusing the first pass waits for ROADMAP item 1.
    found = {record.key for record in read_records(corpus_dir)}
    subjects = sorted({subject for subject, _, _ in found})
    grid = itertools.product(subjects, ALL_SETS, TASK_IDS)
    gaps = [key for key in grid if key not in found]
    print(f"{files} task file(s) valid, {len(subjects)} subject(s)")
    if gaps:
        print(f"{len(gaps)} missing (subject, set, task) cell(s):")
        for subject, set_id, task in gaps:
            print(f"  {subject} {set_id.value} task{task}")
    else:
        print("no gaps: every subject has all 5 sets x 9 tasks")
    return 0


def cmd_extract(args, parser) -> int:
    corpus, out = _corpus_dir(args, parser), _out_dir(args, parser)
    table = features_mod.feature_table(read_records(corpus), args.features)
    name, render = {
        "tsv": ("features.tsv", reporting.features_to_tsv),
        "json": ("features.json", reporting.features_to_json),
        "markdown": ("features.md", reporting.features_to_markdown),
    }[args.format]
    path = reporting.write_text(out / name, render(table))
    print(f"wrote {path} ({len(table)} record(s))")
    return _name_failed_records(table, corpus)


def _name_failed_records(table: features_mod.FeatureTable, corpus: Path) -> int:
    """One stderr line per record the table could not extract, in key order,
    or a warning naming the corpus if the table holds no record; the exit
    code, 1 if a record failed."""
    if not len(table):
        print(f"warning: {corpus}: no task record to analyse", file=sys.stderr)
    for (subject, set_id, task), message in table.errors.items():
        print(f"error: {subject}/{set_id.value}/task{task}: {message}", file=sys.stderr)
    return 1 if table.errors else 0


def cmd_compare(args, parser) -> int:
    corpus, out = _corpus_dir(args, parser), _out_dir(args, parser)
    rows = default_rows(catalog=args.features)
    records = cell_records(read_records(corpus), rows, args.pairs)
    table = features_mod.feature_table(records, args.features)
    matrix = build_matrix(
        (), rows, args.pairs, alpha=args.alpha, test=args.test,
        alternative=_SIDED[args.sided], table=table,
    )
    names = {
        "tsv": ("matrix.json", "matrix.tsv", "matrix_mask.tsv"),
        "json": ("matrix.json",),
        "markdown": ("matrix.json", "matrix.md"),
    }[args.format]
    _write_matrix(out, matrix, names)
    return _name_failed_records(table, corpus)


def cmd_synth(args, parser) -> int:
    out = _out_dir(args, parser)
    profile = load_profile(Path(args.profile))
    # Each record is written as it is made; a record that cannot be made
    # stops the run, and the files before it stay.
    written = write_corpus(generate_records(profile), out)
    print(f"wrote {len(written)} task file(s) under {out}")
    return 0


def cmd_report(args, parser) -> int:
    matrix = read_input(Path(args.matrix), reporting.matrix_from_json)
    if args.alpha is not None:
        matrix = replace(matrix, alpha=args.alpha)
    names = {
        "markdown": ("matrix.md", "matrix_mask.tsv"),
        "tsv": ("matrix.tsv", "matrix_mask.tsv"),
        "json": ("matrix_mask.tsv",),
    }[args.format]
    _write_matrix(_out_dir(args, parser), matrix, names)
    return 0


def _write_matrix(out: Path, matrix, names: tuple[str, ...]) -> None:
    """Write the named matrix artifacts and the recovery summary
    (``recovery.json``, ``recovery.txt``), all at the matrix's alpha, and name
    each file on stdout."""
    summary = summarize_recovery(matrix)
    render = {
        "matrix.json": lambda: reporting.matrix_to_json(matrix),
        "matrix.tsv": lambda: reporting.matrix_to_tsv(matrix),
        "matrix_mask.tsv": lambda: reporting.mask_to_tsv(matrix),
        "matrix.md": lambda: reporting.matrix_to_markdown(matrix),
    }
    written = [reporting.write_text(out / name, render[name]()) for name in names]
    written += [
        reporting.write_text(out / "recovery.json", reporting.recovery_to_json(summary)),
        reporting.write_text(out / "recovery.txt", reporting.recovery_to_text(summary)),
    ]
    for path in written:
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser(config: dict[str, object] | None = None) -> argparse.ArgumentParser:
    """The command-line parser; ``config`` values replace the built-in
    defaults of every subcommand, and a flag still wins over them."""
    parser = argparse.ArgumentParser(
        prog="inkfatigue",
        description="Online-handwriting fatigue analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *options, **overrides):
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(f"--{option}", **{**_OPTIONS[option], **overrides.get(option, {})})
        # A command's own usage errors print its own usage line.
        p.set_defaults(func=partial(func, parser=p), **(config or {}))

    add("validate", cmd_validate, "check every task file of a corpus", "corpus", "config")
    add(
        "extract", cmd_extract, "compute the feature table",
        "corpus", "features", "format", "config", "out",
    )
    add(
        "compare", cmd_compare, "build the set-pair comparison matrix",
        "corpus", "alpha", "pairs", "features", "format", "test", "sided", "config", "out",
    )
    add("synth", cmd_synth, "write a synthetic corpus from a profile", "profile", "config", "out")
    add(
        "report", cmd_report, "re-render a saved matrix JSON",
        "matrix", "alpha", "format", "config", "out",
        alpha={"default": None, "help": "re-mask at this level"}, format={"default": "markdown"},
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            try:
                config = read_input(Path(args.config), _parse_config)
            except (InkError, OSError) as exc:  # read_input names the file
                raise argparse.ArgumentTypeError(str(exc))
            parser = build_parser(config)
            args = parser.parse_args(argv)
            for key, value in config.items():
                if getattr(args, key) != value:
                    print(
                        f"note: --{key} on the command line overrides the config file value",
                        file=sys.stderr,
                    )
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (InkError, OSError) as exc:  # OSError names the path it cannot read or write
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
