"""The three benchmark workloads.

Each workload builds its inputs from a ``SynthProfile`` keyed by the
benchmark seed, and calls inkfatigue only through module attributes
(``synth.generate_task``, ``stats.build_matrix``, ...), so the tracer's
patches see every call. A workload has three phases:

* ``setup(timed)`` builds the inputs, timing each repeat with ``timed``;
  returns the set-up time samples and the set-up time estimate,
* ``unit(i, tracer, mark)`` is one timed unit of work; it calls ``mark()``
  between the stages named in ``stages``, and returns what ``check`` needs,
* ``check(i, result)`` runs untimed and returns ``(ops, failed, checks)``.

A workload may add ``extra(stage_s)``: derived metrics for the result file,
from the median scaled time of each stage.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import statistics
import struct
from pathlib import Path

from inkfatigue import cli, features, model, protocol, reporting, stats, synth

from tracer import CLI_COMMANDS, span

S4_EFFECT = {model.SetId.S4: synth.Perturbation(speed_scale=0.7, air_inflation=1.5)}
ALPHA = 0.05
N_TASKS = len(model.TASK_IDS)


def _p_bytes(matrix) -> bytes:
    return b"".join(
        struct.pack("<d", -1.0 if cell is None else cell.p) for row in matrix.cells for cell in row
    )


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _scalar_cell(corpus, row, pair, test, alternative):
    """The cell recomputed from per-record ``extract_features`` values."""
    task, feature = row
    values = []
    for subject in corpus.subjects:
        a, b = corpus.get(subject, pair[0], task), corpus.get(subject, pair[1], task)
        if a is not None and b is not None:
            values.append(
                (
                    features.extract_features(a, [feature])[feature],
                    features.extract_features(b, [feature])[feature],
                )
            )
    if test == "rank-sum":
        return stats.rank_sum_test([v for v, _ in values], [v for _, v in values], alternative)
    return stats.wilcoxon_signed_rank(values, alternative)


def _sampled_cells_agree(corpus, matrix, rng, k, test="signed-rank", alternative="two-sided"):
    """Checks that ``k`` random cells equal the scalar tests bit for bit."""
    out = []
    for _ in range(k):
        i, j = rng.randrange(len(matrix.rows)), rng.randrange(len(matrix.pairs))
        row, pair = matrix.rows[i], matrix.pairs[j]
        cell = matrix.cells[i][j]
        ref = _scalar_cell(corpus, (row.task, row.feature), pair, test, alternative)
        ok = (
            cell is not None
            and struct.pack("<d", cell.p) == struct.pack("<d", ref.p)
            and cell.n_effective == ref.n_effective
            and cell.method == ref.method
        )
        label = f"task{row.task} {row.feature} {pair[0].value}-{pair[1].value}"
        out.append(_check(f"scalar {test} {alternative}: {label}", ok, f"matrix {cell} scalar p={ref.p!r}"))
    return out


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


class CliPipeline:
    """The README flow ``synth -> validate -> extract -> compare -> report``
    on a 20-subject corpus, run in-process through ``inkfatigue.cli.main``."""

    name = "cli_pipeline"
    stages = CLI_COMMANDS
    trace_units = 1

    def __init__(self, seed: int, work_dir: Path, n_subjects: int = 20):
        self.seed = seed
        self.work = work_dir
        self.n_subjects = n_subjects
        self.profile_path = work_dir / "profile.cfg"
        self.reference = None
        self.hashes: dict[str, str] = {}

    def _reference(self):
        self.profile_path.write_text(
            f"seed = {self.seed}\n"
            f"n_subjects = {self.n_subjects}\n"
            "set.S4.speed_scale = 0.7\n"
            "set.S4.air_inflation = 1.5\n",
            encoding="utf-8",
        )
        corpus = synth.generate_corpus(synth.load_profile(self.profile_path))
        return stats.build_matrix(corpus, stats.default_rows(), protocol.canonical_set_pairs())

    def setup(self, timed):
        """Writes the profile and computes the expected matrix in memory,
        three times (the repeats must agree)."""
        refs, samples = zip(*(timed(self._reference) for _ in range(3)))
        if len({_p_bytes(m) for m in refs}) != 1:
            raise RuntimeError("generate_corpus + build_matrix is not deterministic")
        self.reference = refs[0]
        return list(samples), statistics.median(samples)

    def unit(self, i, tracer, mark):
        run = self.work / f"pass{i}"
        corpus, results, report = run / "corpus", run / "results", run / "report"
        argvs = {
            "synth": ["synth", "--profile", str(self.profile_path), "--out", str(corpus)],
            "validate": ["validate", "--corpus", str(corpus)],
            "extract": ["extract", "--corpus", str(corpus), "--out", str(results)],
            "compare": ["compare", "--corpus", str(corpus), "--out", str(results), "--alpha", str(ALPHA)],
            "report": ["report", "--matrix", str(results / "matrix.json"), "--out", str(report), "--alpha", "0.01"],
        }
        outcome = {}
        for k, command in enumerate(CLI_COMMANDS):
            if k:
                mark()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                with span(tracer, f"cli.{command}"):
                    code = cli.main(argvs[command])
            outcome[command] = (code, stdout.getvalue(), stderr.getvalue())
        return run, outcome

    def check(self, i, result):
        run, outcome = result
        ok = {}
        checks = []
        for command, (code, out, err) in outcome.items():
            ok[command] = code == 0
            checks.append(_check(f"{command} exits 0", ok[command], f"code {code}; stderr {err[-300:]!r}"))
        n_files = self.n_subjects * len(model.ALL_SETS) * N_TASKS
        out = outcome["validate"][1]
        found = f"{n_files} task file(s) valid, {self.n_subjects} subject(s)" in out and "no gaps" in out
        checks.append(_check("validate finds every file and no gaps", found, out[-300:]))
        try:
            saved = json.loads((run / "results" / "matrix.json").read_text(encoding="utf-8"))
            got = [
                None if c is None else (struct.pack("<d", c["p"]), c["n_effective"], c["method"])
                for row in saved["rows"]
                for c in row["cells"]
            ]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            got = repr(exc)
        want = [
            None if c is None else (struct.pack("<d", c.p), c.n_effective, c.method)
            for row in self.reference.cells
            for c in row
        ]
        checks.append(_check("matrix.json p-values equal the in-memory build_matrix", got == want, str(got)[:200]))
        sha = _tree_sha256(run)
        first = self.hashes.setdefault("output_tree", sha)
        checks.append(_check("output tree is byte-identical across passes", sha == first, sha))
        shutil.rmtree(run, ignore_errors=True)
        # A wrong artifact fails the command that wrote it.
        ok["validate"] &= found
        ok["compare"] &= got == want
        ok["synth"] &= sha == first
        return len(CLI_COMMANDS), sum(not v for v in ok.values()), checks


class MontecarloPower:
    """The power gate's loop in memory: per corpus seed, ``generate_task``
    for 20 subjects x {S1, S2, S4} x 9 tasks, then ``build_matrix`` on the
    45 affected rows x {S1-S2, S1-S4}."""

    name = "montecarlo_power"
    stages = ("synth", "matrix")
    trace_units = 12
    sets = (model.SetId.S1, model.SetId.S2, model.SetId.S4)
    rows = [
        (task, feature)
        for task in model.TASK_IDS
        for feature in ("mean_speed", "std_speed", "max_speed", "time_in_air", "normalized_time_up")
    ]
    pairs = [(model.SetId.S1, model.SetId.S2), (model.SetId.S1, model.SetId.S4)]

    def __init__(self, seed: int, work_dir: Path, n_subjects: int = 20):
        self.seed = seed
        self.n_subjects = n_subjects
        self.hashes: dict[str, str] = {}

    def corpus_seed(self, i: int) -> int:
        return self.seed * 100_000 + i

    def _corpus(self, corpus_seed: int, mark=None):
        profile = synth.SynthProfile(seed=corpus_seed, n_subjects=self.n_subjects, perturbations=S4_EFFECT)
        corpus = model.StudyCorpus()
        for subject in profile.subject_ids():
            for set_id in self.sets:
                for task in model.TASK_IDS:
                    corpus.add(synth.generate_task(profile, subject, set_id, task))
        if mark is not None:
            mark()
        return corpus, stats.build_matrix(corpus, self.rows, self.pairs, alpha=ALPHA)

    def setup(self, timed):
        """Three warm-up corpora on seeds outside the timed series."""
        samples = [timed(lambda k=k: self._corpus(self.corpus_seed(99_000 + k)))[1] for k in range(3)]
        return samples, statistics.median(samples)

    def unit(self, i, tracer, mark):
        return self._corpus(self.corpus_seed(i), mark)

    def check(self, i, result):
        corpus, matrix = result
        rng = random.Random(self.corpus_seed(i))
        checks = _sampled_cells_agree(corpus, matrix, rng, 2)
        shape = len(matrix.rows) == len(self.rows) and all(
            len(row) == len(self.pairs) and all(c is not None for c in row) for row in matrix.cells
        )
        checks.append(_check("matrix has 45 x 2 tested cells", shape))
        sha = hashlib.sha256(_p_bytes(matrix)).hexdigest()
        first = self.hashes.setdefault(f"corpus_seed_{self.corpus_seed(i)}", sha)
        checks.append(_check("p-values repeat for the same corpus seed", sha == first, sha))
        return 1, int(not all(c["ok"] for c in checks)), checks


class CohortSensitivity:
    """A 200-subject corpus built in set-up; the timed unit is the full
    24-feature table, three 216-row x 10-pair matrices (signed-rank
    two-sided, signed-rank greater, rank-sum), recovery summaries and
    rendering."""

    name = "cohort_sensitivity"
    stages = ("features", "matrices", "summary_render")
    trace_units = 1
    catalog = features.DEFAULT_CATALOG + features.PENDOWN_CATALOG
    variants = (
        ("signed-rank", "two-sided"),
        ("signed-rank", "greater"),
        ("rank-sum", "two-sided"),
    )
    setup_blocks = 4

    def __init__(self, seed: int, work_dir: Path, n_subjects: int = 200):
        self.profile = synth.SynthProfile(seed=seed, n_subjects=n_subjects, perturbations=S4_EFFECT)
        self.corpus = None
        self.hashes: dict[str, str] = {}

    def setup(self, timed):
        """Generates the corpus in equal subject blocks; the estimate is the
        median block time times the number of blocks."""
        subjects = self.profile.subject_ids()
        size = -(-len(subjects) // self.setup_blocks)
        self.corpus = model.StudyCorpus()

        def block(first):
            for subject in subjects[first : first + size]:
                for set_id in model.ALL_SETS:
                    for task in model.TASK_IDS:
                        self.corpus.add(synth.generate_task(self.profile, subject, set_id, task))

        samples = [timed(lambda b=b: block(b))[1] for b in range(0, len(subjects), size)]
        return samples, statistics.median(samples) * len(samples)

    def unit(self, i, tracer, mark):
        corpus = self.corpus
        rows = stats.default_rows(catalog=self.catalog)
        pairs = protocol.canonical_set_pairs()
        table = features.feature_table(corpus, self.catalog)
        mark()
        matrices = [
            stats.build_matrix(corpus, rows, pairs, alpha=ALPHA, test=test, alternative=alt, table=table)
            for test, alt in self.variants
        ]
        mark()
        rendered = []
        for matrix in matrices:
            summary = protocol.summarize_recovery(matrix, ALPHA)
            rendered += [
                reporting.matrix_to_json(matrix),
                reporting.matrix_to_tsv(matrix),
                reporting.mask_to_tsv(matrix),
                reporting.recovery_to_json(summary),
                reporting.recovery_to_text(summary),
            ]
        return table, matrices, rendered

    def check(self, i, result):
        table, matrices, rendered = result
        corpus = self.corpus
        checks = [_check("feature table covers every record", len(table) == len(corpus), str(len(table)))]
        rng = random.Random(self.profile.seed)
        for matrix, (test, alt) in zip(matrices, self.variants):
            methods = {c.method if c else None for row in matrix.cells for c in row}
            checks.append(
                _check(f"{test} {alt}: every cell uses the normal approximation", methods == {"normal-approx"}, str(methods))
            )
            checks += _sampled_cells_agree(corpus, matrix, rng, 3, test, alt)
        sha = hashlib.sha256("".join(rendered).encode("utf-8")).hexdigest()
        first = self.hashes.setdefault("rendered", sha)
        checks.append(_check("rendered outputs repeat across passes", sha == first, sha))
        ops = 1 + len(self.variants) + 1
        return ops, min(ops, sum(not c["ok"] for c in checks)), checks

    def extra(self, stage_s):
        """Throughputs of the two timed layers."""
        cells = len(self.variants) * N_TASKS * len(self.catalog) * len(protocol.canonical_set_pairs())
        return {
            "records_per_s": len(self.corpus) / stage_s["features"],
            "cells_per_s": cells / stage_s["matrices"],
        }


WORKLOADS = {w.name: w for w in (CliPipeline, MontecarloPower, CohortSensitivity)}
