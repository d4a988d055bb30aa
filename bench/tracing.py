"""Per-layer tracing from the benchmark's side of the library boundary.

The tracer replaces module attributes that library callers look up at
call time (for example `progress_lab.classify.check_matrix`) with thin
wrappers.  A span wrapper records (name, start, end, parent) for every
call; a count wrapper only counts, for functions called millions of
times.  Spans stay in memory until `dump` writes them out.  Nothing in
`src/` is edited: restoring the original attributes undoes the tracing.

Self time of a span is its duration minus the time covered by its child
spans.  Calls run on one thread, so children never overlap and that
cover is the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def _observe_synth(tracer, args, result, duration):
    stats = result.stats
    tracer.add("synth.candidates", stats.candidates)
    tracer.add("synth.duplicates", stats.duplicates)
    tracer.add("synth.unique", stats.unique)
    for reason, count in stats.rejected.items():
        tracer.add(f"synth.rejected.{reason}", count)


def _observe_matrix(tracer, args, result, duration):
    tracer.add("oracle.fail_verdicts", sum(not v.passed for v in result.values()))


def _observe_monitored(tracer, args, result, duration):
    tracer.add("lts.monitored_states", len(result.states))
    tracer.add("lts.monitored_transitions", len(result.transitions))


def _observe_plain(tracer, args, result, duration):
    tracer.add("lts.plain_states", len(result.states))


def _observe_scc(tracer, args, result, duration):
    tracer.add("lts.sccs_nontrivial", sum(1 for scc in result if scc.nontrivial))


def _observe_emit(tracer, args, result, duration):
    tracer.add("emit.bytes", len(result.source))


def _observe_simulate(tracer, args, result, duration):
    tracer.add("schedsim.steps", result.steps_used)
    tracer.add("schedsim.proved_loops", int(result.nontermination_proved))
    tracer.add(
        "schedsim.budget_exhausted",
        int(not result.terminated and not result.nontermination_proved),
    )
    threads = args[0].num_threads
    size = "small" if threads <= 8 else "large" if threads >= 128 else None
    if size is not None:
        tracer.add(f"schedsim.steps.{size}", result.steps_used)
        tracer.add(f"schedsim.seconds.{size}", duration)


# (module, attribute, span name, observer).  Several call sites may share
# one span name: each entry is the attribute one caller looks up.
SPAN_TARGETS = (
    ("progress_lab.synth", "synthesize", "synth.synthesize", _observe_synth),
    ("progress_lab.synth", "serialize_body", "litmus_io.serialize_body", None),
    ("progress_lab.synth", "parse_litmus", "litmus_io.parse_litmus", None),
    ("progress_lab.suiteio", "parse_litmus", "litmus_io.parse_litmus", None),
    ("progress_lab.cli", "load_suite", "suiteio.load_suite", None),
    ("progress_lab.cli", "classify_suite", "classify.classify_suite", None),
    ("progress_lab.cli", "write_report", "classify.write_report", None),
    ("progress_lab.classify", "check_matrix", "oracle.check_matrix", _observe_matrix),
    ("progress_lab.oracle", "check_matrix", "oracle.check_matrix", _observe_matrix),
    ("progress_lab.oracle", "build_monitored_lts", "lts.build_monitored_lts", _observe_monitored),
    ("progress_lab.oracle", "build_plain_lts", "lts.build_plain_lts", _observe_plain),
    ("progress_lab.oracle", "scc_decompose", "lts.scc_decompose", _observe_scc),
    ("progress_lab.emit", "emit_kernel", "emit.emit_kernel", _observe_emit),
    ("progress_lab.emit", "expand_layout", "emit.expand_layout", None),
    ("progress_lab.emit", "load_harness", "emit.load_harness", None),
    ("progress_lab.schedsim", "simulate", "schedsim.simulate", _observe_simulate),
)

# (module, attribute, counter name): counted only, no span.
COUNT_TARGETS = (
    ("progress_lab.lts", "fair_set", "models.fair_set.calls"),
    ("progress_lab.lts", "step", "axb.step.calls.lts"),
    ("progress_lab.schedsim", "step", "axb.step.calls.sim"),
)


class Tracer:
    """Spans and counters for one traced run; install, run, restore."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.totals: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float) -> None:
        self.totals[name] += amount

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own phases."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        self.spans[idx][2] = end
        self._stack.pop()
        return end - self.spans[idx][1]

    def _lookup(self, module_name: str, attr: str):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None and f"{module_name}.{attr}" not in self.absent:
            self.absent.append(f"{module_name}.{attr}")
        return module, original

    def install(self) -> None:
        for module_name, attr, name, observe in SPAN_TARGETS:
            module, original = self._lookup(module_name, attr)
            if original is not None:
                self._patch(module, attr, self._span_wrapper(original, name, observe))
        for module_name, attr, name in COUNT_TARGETS:
            module, original = self._lookup(module_name, attr)
            if original is not None:
                self._patch(module, attr, self._count_wrapper(original, name))

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _span_wrapper(self, fn, name: str, observe):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(idx)
            if observe is not None:
                observe(self, args, result, duration)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        totals = self.totals

        def wrapper(*args, **kwargs):
            totals[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per span name."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child_cover[idx]
        return out

    def dump(self, path) -> None:
        doc = {
            "absent": self.absent,
            "totals": dict(self.totals),
            "spans": [[n, round(s, 7), round(e, 7), p] for n, s, e, p in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def layer_metrics(tracer: Tracer, reject_reasons) -> dict[str, float]:
    """Every per-layer metric; layers a workload never calls read 0."""
    self_s = tracer.self_seconds()
    totals = tracer.totals
    out: dict[str, float] = {"synth.synthesize.self_s": self_s.get("synth.synthesize", 0.0)}
    out["synth.candidates"] = totals["synth.candidates"]
    for reason in reject_reasons:
        out[f"synth.rejected.{reason}"] = totals[f"synth.rejected.{reason}"]
    out["synth.duplicates"] = totals["synth.duplicates"]
    out["synth.unique"] = totals["synth.unique"]
    out["synth.accept_ratio"] = _ratio(totals["synth.unique"], totals["synth.candidates"])

    for name in (
        "litmus_io.serialize_body",
        "litmus_io.parse_litmus",
        "oracle.check_matrix",
        "lts.build_monitored_lts",
        "lts.build_plain_lts",
        "lts.scc_decompose",
        "emit.emit_kernel",
        "schedsim.simulate",
    ):
        out[f"{name}.calls"] = tracer.calls(name)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in (
        "suiteio.load_suite",
        "classify.classify_suite",
        "classify.write_report",
        "emit.expand_layout",
        "emit.load_harness",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)

    matrix_s = tracer.durations("oracle.check_matrix")
    out["oracle.check_matrix.p50_ms"] = _percentile_ms(matrix_s, 50)
    out["oracle.check_matrix.p99_ms"] = _percentile_ms(matrix_s, 99)
    out["oracle.fail_verdicts"] = totals["oracle.fail_verdicts"]

    out["lts.monitored_states"] = totals["lts.monitored_states"]
    out["lts.monitored_transitions"] = totals["lts.monitored_transitions"]
    out["lts.monitored_builds_per_test"] = _ratio(
        out["lts.build_monitored_lts.calls"], out["oracle.check_matrix.calls"]
    )
    out["lts.plain_states"] = totals["lts.plain_states"]
    out["lts.sccs_nontrivial"] = totals["lts.sccs_nontrivial"]

    for name in ("models.fair_set.calls", "axb.step.calls.lts", "axb.step.calls.sim"):
        out[name] = totals[name]

    out["emit.bytes"] = totals["emit.bytes"]

    out["schedsim.steps"] = totals["schedsim.steps"]
    for size in ("small", "large"):
        out[f"schedsim.steps_per_s.{size}"] = _ratio(
            totals[f"schedsim.steps.{size}"], totals[f"schedsim.seconds.{size}"]
        )
    out["schedsim.proved_loops"] = totals["schedsim.proved_loops"]
    out["schedsim.budget_exhausted"] = totals["schedsim.budget_exhausted"]
    return out
