"""Named source mutants that the fast suite must kill.

Each mutant is one exact replacement, ``old`` by ``new``, in one source file,
and ``old`` must occur in that file exactly once. A run copies the checkout
(``src``, ``tests`` and ``pyproject.toml``) to a temporary directory, applies
one mutant there and runs the mutant's test files with
``-x -q -p no:cacheprovider -m "not slow" --hypothesis-profile=mutants``
(every hypothesis phase but shrinking, registered in ``tests/conftest.py``).
The mutant is killed when pytest reports a failed test (exit code 1); any
other pytest exit code is an error.

    python tests/mutants.py          # run every mutant, one at a time
    python tests/mutants.py --check  # check that each old text matches once; runs no test

The exit status is 0 when every mutant run is killed (with ``--check``, when
every mutant applies), else 1. Standard library only; pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # the test files that must kill it


MODEL, STATS, FEATURES = (f"src/inkfatigue/{m}.py" for m in ("model", "stats", "features"))
TEST_MODEL, TEST_STATS, TEST_FEATURES = (
    f"tests/test_{m}.py" for m in ("model", "stats", "features")
)

MUTANTS = (
    # InkSignal's storage rule: one min/max pair a channel.
    Mutant("one-value-view-for-x-and-y", MODEL,
           "if least == most and name in _CHANNEL_BOUNDS:", "if least == most:",
           (TEST_MODEL,)),
    Mutant("wide-from-x-alone", MODEL,
           "for least, most in extremes[:2])", "for least, most in extremes[:1])",
           (TEST_MODEL,)),
    Mutant("no-value-check-outside-int64-safe", MODEL,
           "            if arr.dtype not in _INT64_SAFE:\n"
           "                _check_range(name, arr, lo, hi)\n",
           "",
           (TEST_MODEL,)),
    Mutant("x-and-y-always-int64", MODEL,
           "wide = not all(lo <= least and most <= hi for least, most in extremes[:2])",
           "wide = True",
           (TEST_MODEL,)),
    # The parser's fast path.
    Mutant("fast-path-takes-a-sign-after-a-digit", MODEL,
           "        or np.logical_or.reduce(token[signs - 1])\n",
           "",
           (TEST_MODEL,)),
    # The task file writer.
    Mutant("writer-keeps-leading-zeros", MODEL,
           "digits *= q > 0", "pass",
           (TEST_MODEL,)),
    Mutant("writer-puts-the-sign-one-column-early", MODEL,
           "cells[negative, first_digit - 1] = ord(\"-\")",
           "cells[negative, first_digit - 2] = ord(\"-\")",
           (TEST_MODEL,)),
    # Features.
    Mutant("stroke-count-misses-the-first-transition", FEATURES,
           "runs = 1 + int(np.count_nonzero(down[1:] != down[:-1]))",
           "runs = 1 + int(np.count_nonzero(down[2:] != down[1:-1]))",
           (TEST_FEATURES,)),
    Mutant("feature-table-keeps-read-order", FEATURES,
           "order = sorted(range(len(keys)), key=keys.__getitem__)",
           "order = list(range(len(keys)))",
           (TEST_FEATURES,)),
    # Statistics.
    Mutant("cell-keeps-pairs-with-one-nan", STATS,
           "keep = ~(np.isnan(a) | np.isnan(b))", "keep = ~np.isnan(a)",
           (TEST_STATS,)),
    Mutant("signed-rank-keeps-zero-differences", STATS,
           "d = d[d != 0]", "d = d[d == d]",
           (TEST_STATS,)),
    Mutant("rank-sum-tie-correction-off-by-one", STATS,
           "tie_term / (n * (n - 1))", "tie_term / (n * (n + 1))",
           (TEST_STATS,)),
    Mutant("exact-p-one-ulp-low", STATS,
           "    return float(min(p, 1.0))\n",
           "    return math.nextafter(float(min(p, 1.0)), 0.0)\n",
           (TEST_STATS,)),
)


def mutated_text(mutant: Mutant, root: Path) -> str:
    """The mutant's file under ``root`` with the replacement made; ValueError
    unless ``old`` occurs there exactly once."""
    text = (root / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> tuple[str, str]:
    """("killed", the first failed test), ("survived", "") or ("error", why)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        (copy / mutant.file).write_text(mutated_text(mutant, ROOT), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", *mutant.tests,
             "-x", "-q", "-p", "no:cacheprovider", "-m", "not slow",
             "--hypothesis-profile=mutants"],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True, text=True,
        )
    if result.returncode == 0:
        return "survived", ""
    if result.returncode != 1:
        return "error", f"pytest exit code {result.returncode}"
    failed = [line[len("FAILED "):].split(" - ")[0]
              for line in result.stdout.splitlines() if line.startswith("FAILED ")]
    return "killed", failed[0] if failed else "(no FAILED line)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="only check that each mutant applies; run no test")
    args = parser.parse_args(argv)
    ok = True
    for mutant in MUTANTS:
        try:
            mutated_text(mutant, ROOT)
            missing = [t for t in mutant.tests if not (ROOT / t).is_file()]
            if missing:
                raise ValueError(f"{mutant.name}: no test file {missing[0]}")
        except ValueError as exc:
            print(f"error: {exc}")
            ok = False
            continue
        if args.check:
            print(f"applies  {mutant.name}")
            continue
        outcome, detail = run(mutant)
        ok = ok and outcome == "killed"
        print(f"{outcome:<8} {mutant.name}  {detail}".rstrip(), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
