"""Self-tests of the benchmark, on small inputs.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import run

run.load_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from inkfatigue import stats  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
COUNT_UNITS = {"count", "bytes", "parses/file", "extracts/record"}


@pytest.fixture
def work():
    """A scratch directory inside the benchmark's own work area."""
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def small(name, path, seed=3):
    """A workload instance on a cohort small enough for a unit test."""
    sizes = {"cli_pipeline": 2, "montecarlo_power": 4, "cohort_sensitivity": 40}
    workload = workloads.WORKLOADS[name](seed, path, n_subjects=sizes[name])
    workload.trace_units = min(workload.trace_units, 2)
    return workload


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs of every workload, same seed."""
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR))
    try:
        return {
            name: [run.run(small(name, path), 1.0, trace=True) for _ in range(2)] for name in workloads.WORKLOADS
        }
    finally:
        shutil.rmtree(path, ignore_errors=True)


def test_traced_counts_repeat_exactly(traced_pairs):
    for name, (first, second) in traced_pairs.items():
        counts = [
            {k: v for k, (v, unit) in r["metrics"].items() if unit in COUNT_UNITS} for r in (first, second)
        ]
        assert counts[0] == counts[1], name
        assert first["record"]["failed"] == 0 and first["record"]["attempted"] > 0, name


def test_traced_layers_see_their_calls(traced_pairs):
    metrics = {name: runs[0]["metrics"] for name, runs in traced_pairs.items()}
    cli = metrics["cli_pipeline"]
    assert cli["model.parses_per_file"][0] == 4.0
    assert cli["features.extracts_per_record"][0] == 2.0
    assert cli["model.serialize.calls"][0] == 2 * 45
    assert all(cli[f"cli.{c}.s"][0] > 0 for c in tracer.CLI_COMMANDS)
    assert metrics["montecarlo_power"]["model.parse.calls"][0] == 0
    assert metrics["montecarlo_power"]["synth.generate_task.calls"][0] == 2 * 4 * 27
    cohort = metrics["cohort_sensitivity"]
    assert cohort["stats.exact_cells"][0] == 0
    assert cohort["stats.cells"][0] == 3 * 216 * 10 == cohort["stats.approx_cells"][0]
    assert cohort["stats.rank_sum.calls"][0] == 216 * 10


def test_spans_nest_and_self_times_are_not_negative(work):
    tr = tracer.Tracer()
    tr.install()
    try:
        workload = small("cli_pipeline", work)
        workload.setup(run.timed)
        with tr.unit(0):
            workload.unit(0, tr, lambda: None)
    finally:
        tr.uninstall()
    spans = tr.spans
    assert spans and all(end is not None for *_, end in spans)
    last_child_end = {}
    for index, (name, parent, start, end) in enumerate(spans):
        assert start <= end, name
        if parent >= 0:
            assert parent < index
            _, _, p_start, p_end = spans[parent]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])
            # Siblings follow one another.
            assert start >= last_child_end.get(parent, p_start)
            last_child_end[parent] = end
    assert min(tracer.self_times(spans)) >= 0.0


def test_clock_samples_between_marks_and_excludes_probe_time():
    handler = signal.getsignal(signal.SIGALRM)
    clock = run.Clock()
    t0 = perf_counter()
    clock.start()
    for stage in range(2):
        if stage:
            clock.mark()
        end = perf_counter() + 3 * run.PROBE_INTERVAL_S
        while perf_counter() < end:
            pass
    clock.stop()
    elapsed = perf_counter() - t0
    probe_s = sum(e - s for s, e, _ in clock.probes)
    assert len(clock.probes) >= 6
    assert [stage for *_, stage in clock.probes][0] == 0 and clock.probes[-1][2] == 1
    assert len(clock.stages()) == 2 and min(s for _, s in clock.stages()) > 0
    assert abs(clock.raw - (elapsed - probe_s)) < 0.05
    assert signal.getsignal(signal.SIGALRM) is handler


def test_metric_names_and_units_match_benchmark_json(traced_pairs, work):
    declared = {
        0: [m["name"] for m in BENCHMARK["end_to_end"]],
        1: [m["name"] for m in BENCHMARK["per_layer"]],
    }
    untraced = run.run(small("montecarlo_power", work), 1.0, trace=False)
    assert list(untraced["metrics"]) == declared[0]
    for runs in traced_pairs.values():
        assert list(runs[0]["metrics"]) == declared[1]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name in declared[0] + declared[1]:
        assert NAME_RE.match(name), name
    for name, (value, unit) in list(untraced["metrics"].items()) + list(runs[0]["metrics"].items()):
        assert unit == units[name], name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_wrong_p_values_fail_the_checks(work, monkeypatch):
    compare_sets = stats.compare_sets

    def one_ulp_off(*args, **kwargs):
        result = compare_sets(*args, **kwargs)
        return dataclasses.replace(result, p=float(np.nextafter(result.p, 0.0)))

    monkeypatch.setattr(stats, "compare_sets", one_ulp_off)
    out = run.run(small("montecarlo_power", work), 1.0, trace=False)
    assert out["record"]["failed"] > 0


def test_fails_without_the_program(work):
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    shutil.copytree(run.BENCH_DIR, work / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (work / "perfbench" / "results").exists()
