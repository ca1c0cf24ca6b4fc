"""Benchmark of the inkfatigue pipeline.

    python3 perfbench/run.py --workload cli_pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy. With
``--trace 0`` the run repeats timed units for about ``--seconds`` seconds and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed number of
units untraced and then the same units traced, and reports the per-layer
metrics (fixed work, so counts repeat exactly). Every run writes a result
file under ``perfbench/results/`` and prints one JSON line last.
"""

from __future__ import annotations

import os

# Single-threaded numerics, set before numpy is first imported.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"


def load_program():
    """Put the checkout's ``src/`` first on the path and import inkfatigue
    from there; raises ImportError when the checkout has no program."""
    if not (SRC / "inkfatigue" / "__init__.py").is_file():
        raise ImportError(f"no inkfatigue package under {SRC}")
    sys.path.insert(0, str(SRC))
    import inkfatigue

    if not Path(inkfatigue.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"inkfatigue was imported from {inkfatigue.__file__}, not {SRC}")
    return inkfatigue


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def run_meta(seed: int) -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "thread_env": {var: os.environ[var] for var in THREAD_ENV},
    }


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return {"value_s": sorted(samples)[k], "percentile": 100.0 * (k + 1) / n, "samples": n}


#: Duration of one ``probe()`` at the reference speed.
REF_PROBE_S = 0.010
#: Log-log slope of pipeline time against probe time as the machine's speed
#: drifts: 1.18-1.25 for synth, parsing and matrix plumbing, measured by
#: alternating probes with pipeline calls for 200 s on a 2-core x86-64 VM.
SENSITIVITY = 1.2
#: Seconds between probes while a Clock samples.
PROBE_INTERVAL_S = 0.25
_PROBE_TEXT = "812 1040 655 210 55\n" * 600


def probe() -> float:
    """Times fixed CPU work that does not touch inkfatigue and mixes what the
    pipeline does: integer text parsing, a dict-heavy interpreter loop and
    small numpy array operations."""
    import numpy as np

    t0 = perf_counter()
    rows = [tuple(int(f) for f in line.split()) for line in _PROBE_TEXT.splitlines()]
    acc, table = len(rows), {}
    for i in range(20_000):
        acc += i * i % 7
        table[i % 101] = acc
    a = np.arange(1000.0)
    for _ in range(150):
        a = np.cos(np.cumsum(a) * 1e-3)[::-1] + 1.0
    return perf_counter() - t0


class Clock:
    """Times work between calibration probes and scales it to reference speed.

    On a shared VM the speed of the CPU drifts by tens of percent within
    seconds to minutes. A Clock probes at ``start``, at each
    ``mark`` (a stage boundary), at ``stop`` and, when sampling, every
    ``PROBE_INTERVAL_S`` from a SIGALRM handler in between. Time spent in
    probes is excluded. Each stretch of work between two probes counts
    ``raw * (REF_PROBE_S / mean(the two probe durations)) ** SENSITIVITY``
    scaled seconds.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.probes: list[tuple[float, float, int]] = []  # (start, end, stage after)
        self._stage = 0
        self._probing = False
        self._previous_handler = None

    def _probe(self) -> None:
        self._probing = True
        try:
            start = perf_counter()
            probe()
            self.probes.append((start, perf_counter(), self._stage))
        finally:
            self._probing = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._probing:
            self._probe()

    def start(self) -> None:
        self._probe()
        if self.sampling:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def mark(self) -> None:
        self._stage += 1
        self._probe()

    def stop(self) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self._probe()

    def stages(self) -> list[tuple[float, float]]:
        """(raw s, scaled s) per stage, in mark order."""
        out = [(0.0, 0.0) for _ in range(self._stage + 1)]
        for (s0, e0, stage), (s1, e1, _) in zip(self.probes, self.probes[1:]):
            raw = s1 - e0
            raw_sum, scaled_sum = out[stage]
            speed = REF_PROBE_S / ((e0 - s0 + e1 - s1) / 2)
            out[stage] = (raw_sum + raw, scaled_sum + raw * speed**SENSITIVITY)
        return out

    @property
    def raw(self) -> float:
        return sum(r for r, _ in self.stages())

    @property
    def scaled(self) -> float:
        return sum(s for _, s in self.stages())


def timed(fn):
    """``(fn(), scaled seconds)``."""
    clock = Clock()
    clock.start()
    try:
        result = fn()
    finally:
        clock.stop()
    return result, clock.scaled


def _timed_unit(workload, i, tracer, ledger, sampling=True):
    """Runs unit ``i`` (traced when ``tracer`` is given), then its untimed
    checks; returns the unit's Clock, or None when it raised."""
    gc.collect()
    clock = Clock(sampling)
    clock.start()
    try:
        if tracer is None:
            result = workload.unit(i, None, clock.mark)
        else:
            with tracer.unit(i):
                result = workload.unit(i, tracer, clock.mark)
    except Exception:
        traceback.print_exc()
        ledger["attempted"] += 1
        ledger["failed"] += 1
        ledger["checks"].append({"name": f"unit {i} raised", "ok": False, "detail": ""})
        return None
    finally:
        clock.stop()
    ops, failed, checks = workload.check(i, result)
    ledger["attempted"] += ops
    ledger["failed"] += failed
    ledger["checks"] += checks
    return clock


def run(workload, seconds: float, trace: bool) -> dict:
    """Set-up, then the timed part; returns metrics and the run record."""
    import tracer as tracing  # imports inkfatigue: only after load_program()

    ledger = {"attempted": 0, "failed": 0, "checks": []}
    probe()  # first call pays numpy's lazy initialisation
    gc.collect()
    setup_samples, setup_s = workload.setup(timed)
    record = {"setup_samples_s": setup_samples}
    if not trace:
        # Stop before a unit that would likely end after the deadline.
        clocks = []
        start = perf_counter()
        for i in itertools.count():
            t0 = perf_counter()
            clock = _timed_unit(workload, i, None, ledger)
            if clock is not None:
                clocks.append(clock)
            now = perf_counter()
            if (now - start) + (now - t0) > seconds:
                break
        units = [c.scaled for c in clocks]
        record["unit_samples_s"] = units
        record["unit_raw_samples_s"] = [c.raw for c in clocks]
        record["probe_samples_s"] = [[end - start for start, end, _ in c.probes] for c in clocks]
        record["workload_metrics"] = {"unit_tail": tail(units)}
        if clocks:
            stage_s = {
                stage: statistics.median(c.stages()[k][1] for c in clocks) for k, stage in enumerate(workload.stages)
            }
            record["workload_metrics"].update({f"{stage}_s": v for stage, v in stage_s.items()})
            if hasattr(workload, "extra"):
                record["workload_metrics"].update(workload.extra(stage_s))
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(units), "s") if units else (float("nan"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        # Fixed work, each unit untraced then traced, probed only at stage
        # boundaries: probes inside traced units would land in span self time.
        tr = tracing.Tracer()
        tr.install()
        untraced, traced = [], []
        try:
            for i in range(workload.trace_units):
                untraced.append(_timed_unit(workload, i, None, ledger, sampling=False))
                traced.append(_timed_unit(workload, i, tr, ledger, sampling=False))
        finally:
            tr.uninstall()
        untraced = [c.scaled for c in untraced if c is not None]
        traced = [c.scaled for c in traced if c is not None]
        overhead = sum(traced) - sum(untraced)
        metrics = tracing.layer_metrics(tr, overhead)
        record["untraced_unit_samples_s"] = untraced
        record["traced_unit_samples_s"] = traced
        record["spans"] = [[name, parent, start - tr.spans[0][2], end - tr.spans[0][2]] for name, parent, start, end in tr.spans]
    record.update(ledger)
    record["artifact_sha256"] = workload.hashes
    return {"metrics": metrics, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads  # imports inkfatigue: only after load_program()

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    meta = run_meta(args.seed)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        out = run(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, record = out["metrics"], out["record"]
    correct = record["failed"] == 0 and all(c["ok"] for c in record["checks"]) and record["attempted"] > 0
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    spans = record.pop("spans", None)
    path.write_text(
        json.dumps({"workload": args.workload, "meta": meta, "result": result, **record}, indent=1) + "\n",
        encoding="utf-8",
    )
    if spans is not None:
        # One span per line: [name, parent index, start s, end s] from the first span.
        lines = ",\n".join(json.dumps(s) for s in spans)
        path.with_name(path.stem + "_spans.json").write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"FAILED check: {check['name']}: {check['detail']}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
