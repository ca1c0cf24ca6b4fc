"""In-memory span tracer that wraps inkfatigue's public functions from outside.

The program has no tracing of its own, so the benchmark patches each public
function at every module attribute through which callers look it up (for
example ``inkfatigue.cli`` holds its own imported ``parse_task_file``). Spans
and counters stay in memory; ``layer_metrics`` turns them into the per-layer
metrics once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

from inkfatigue.errors import TooShortError

#: CLI subcommands, in pipeline order; each gets a ``cli.<command>`` span.
CLI_COMMANDS = ("synth", "validate", "extract", "compare", "report")

_RENDERERS = (
    "matrix_to_tsv",
    "mask_to_tsv",
    "matrix_to_markdown",
    "matrix_to_json",
    "features_to_tsv",
    "features_to_json",
    "features_to_markdown",
    "recovery_to_json",
    "recovery_to_text",
)


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _on_parse(tracer, args, record):
    tracer.counts["model.parse.samples"] += len(record.signal)
    tracer.counts["model.bytes_read"] += _text_bytes(args[0])
    tracer.keys["model.parse"].add((tracer.unit_index, record.key))


def _on_serialize(tracer, args, text):
    tracer.counts["model.serialize.samples"] += len(args[0].signal)
    tracer.counts["model.bytes_written"] += _text_bytes(text)


def _on_generate(tracer, args, record):
    tracer.counts["synth.samples_generated"] += len(record.signal)


def _on_extract(tracer, args, vector):
    tracer.keys["features.extract"].add((tracer.unit_index, args[0].key))


def _on_build_matrix(tracer, args, matrix):
    for row in matrix.cells:
        for cell in row:
            tracer.counts["stats.cells"] += 1
            if cell is None:
                tracer.counts["stats.na_cells"] += 1
            elif cell.method == "exact":
                tracer.counts["stats.exact_cells"] += 1
            else:
                tracer.counts["stats.approx_cells"] += 1


def _on_render(tracer, args, text):
    tracer.counts["reporting.bytes_rendered"] += _text_bytes(text)


# (span name, defining module, function, other modules that bind it, hook)
_SITES = [
    ("model.parse", "model", "parse_task_file", ("cli",), _on_parse),
    ("model.serialize", "model", "serialize_task", (), _on_serialize),
    ("model.write_corpus", "model", "write_corpus", ("cli",), None),
    ("model.load_corpus", "model", "load_corpus", ("cli",), None),
    ("synth.generate_task", "synth", "generate_task", (), _on_generate),
    ("synth.generate_corpus", "synth", "generate_corpus", ("cli",), None),
    ("features.extract", "features", "extract_features", (), _on_extract),
    ("features.feature_table", "features", "feature_table", ("stats",), None),
    ("stats.build_matrix", "stats", "build_matrix", ("cli",), _on_build_matrix),
    ("stats.signed_rank", "stats", "wilcoxon_signed_rank", (), None),
    ("stats.rank_sum", "stats", "rank_sum_test", (), None),
    ("protocol.summarize_recovery", "protocol", "summarize_recovery", ("cli",), None),
    ("reporting.write_text", "reporting", "write_text", (), None),
    ("reporting.matrix_from_json", "reporting", "matrix_from_json", (), None),
] + [("reporting.render", "reporting", name, (), _on_render) for name in _RENDERERS]


class Tracer:
    """Spans ``[name, parent index, start, end]`` plus exact counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        self.active = False
        self.unit_index = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def unit(self, index: int):
        """Traces one benchmark unit; wrapped calls outside units pass through."""
        self.active, self.unit_index = True, index
        try:
            with self.span("bench.unit"):
                yield
        finally:
            self.active = False

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except TooShortError:
                self.counts[f"{name}.too_short"] += 1
                raise
            finally:
                self._close(index)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every lookup site; ``uninstall`` restores the originals."""
        for name, home, attr, others, hook in _SITES:
            modules = [importlib.import_module(f"inkfatigue.{m}") for m in (home, *others)]
            original = getattr(modules[0], attr)
            traced = self.wrap(original, name, hook)
            for module in modules:
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{module.__name__}.{attr} is not inkfatigue.{home}.{attr}")
                self._patches.append((module, attr, original))
                setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op context when tracing is off."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``; absent layers read 0."""
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    for (name, parent, start, end), s in zip(spans, own):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += s
    # Feature extraction that build_matrix does itself is not matrix work.
    matrix_s = total["stats.build_matrix"] - sum(
        end - start
        for name, parent, start, end in spans
        if name == "features.feature_table" and parent >= 0 and spans[parent][0] == "stats.build_matrix"
    )
    c = tracer.counts
    m = {
        "model.parse.calls": (calls["model.parse"], "count"),
        "model.parse.self_s": (self_s["model.parse"], "s"),
        "model.parse_samples_per_s": (_ratio(c["model.parse.samples"], total["model.parse"]), "samples/s"),
        "model.parses_per_file": (_ratio(calls["model.parse"], len(tracer.keys["model.parse"])), "parses/file"),
        "model.bytes_read": (c["model.bytes_read"], "bytes"),
        "model.serialize.calls": (calls["model.serialize"], "count"),
        "model.serialize.self_s": (self_s["model.serialize"], "s"),
        "model.serialize_samples_per_s": (
            _ratio(c["model.serialize.samples"], total["model.serialize"]),
            "samples/s",
        ),
        "model.write_corpus.s": (total["model.write_corpus"], "s"),
        "model.bytes_written": (c["model.bytes_written"], "bytes"),
        "synth.generate_task.calls": (calls["synth.generate_task"], "count"),
        "synth.generate_task.self_s": (self_s["synth.generate_task"], "s"),
        "synth.records_per_s": (_ratio(calls["synth.generate_task"], total["synth.generate_task"]), "records/s"),
        "synth.samples_generated": (c["synth.samples_generated"], "count"),
        "features.extract.calls": (calls["features.extract"], "count"),
        "features.extract.self_s": (self_s["features.extract"], "s"),
        "features.records_per_s": (_ratio(calls["features.extract"], total["features.extract"]), "records/s"),
        "features.extracts_per_record": (
            _ratio(calls["features.extract"], len(tracer.keys["features.extract"])),
            "extracts/record",
        ),
        "features.too_short": (c["features.extract.too_short"], "count"),
        "stats.build_matrix.self_s": (self_s["stats.build_matrix"], "s"),
        "stats.cells": (c["stats.cells"], "count"),
        "stats.cells_per_s": (_ratio(c["stats.cells"], matrix_s), "cells/s"),
        "stats.exact_cells": (c["stats.exact_cells"], "count"),
        "stats.approx_cells": (c["stats.approx_cells"], "count"),
        "stats.na_cells": (c["stats.na_cells"], "count"),
        "stats.signed_rank.calls": (calls["stats.signed_rank"], "count"),
        "stats.signed_rank.self_s": (self_s["stats.signed_rank"], "s"),
        "stats.rank_sum.calls": (calls["stats.rank_sum"], "count"),
        "stats.rank_sum.self_s": (self_s["stats.rank_sum"], "s"),
        "protocol.summarize_recovery.self_s": (self_s["protocol.summarize_recovery"], "s"),
        "reporting.render.self_s": (self_s["reporting.render"], "s"),
        "reporting.bytes_rendered": (c["reporting.bytes_rendered"], "bytes"),
        "reporting.write_text.s": (total["reporting.write_text"], "s"),
        "reporting.matrix_from_json.s": (total["reporting.matrix_from_json"], "s"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = (total[f"cli.{command}"], "s")
        m[f"cli.{command}.self_s"] = (self_s[f"cli.{command}"], "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
