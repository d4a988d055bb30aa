"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python -m pytest -q bench
"""

from __future__ import annotations

import json

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_workloads_match_the_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_correct_and_complete(name, trace, tmp_path):
    metrics, gate, record = run.run_workload(name, 3, 0.0, trace, workloads.SMOKE, tmp_path)
    assert gate.failed == 0, gate.notes
    assert gate.attempted > 0
    declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert set(declared) <= set(metrics)
    assert record["inputs"]
    if trace:
        assert record["absent"] == []
        assert metrics["failed_frac"] == 0
    else:
        assert all(metrics[m] > 0 for m in declared)


def test_traced_classify_builds_five_monitored_lts_per_test(tmp_path):
    metrics, gate, _ = run.run_workload("classify-3x4", 0, 0.0, True, workloads.SMOKE, tmp_path)
    assert gate.failed == 0, gate.notes
    assert metrics["oracle.check_matrix.calls"] == 20
    assert metrics["lts.monitored_builds_per_test"] == 5.0
    assert metrics["synth.candidates"] == 324


def test_traced_layouts_cover_emit_and_schedsim(tmp_path):
    metrics, _, _ = run.run_workload("layouts-idioms", 0, 0.0, True, workloads.SMOKE, tmp_path)
    assert metrics["emit.emit_kernel.calls"] > 0
    assert metrics["emit.load_harness.self_s"] > 0
    assert metrics["schedsim.simulate.calls"] > 0
    assert metrics["axb.step.calls.sim"] >= metrics["schedsim.steps"] > 0
    assert metrics["synth.candidates"] == 0


def test_count_drift_marks_the_run_invalid(tmp_path, monkeypatch):
    bounds = workloads.SMOKE.synth_bounds
    monkeypatch.setitem(workloads.conftest.SUITE_UNIQUE, bounds, workloads.conftest.SUITE_UNIQUE[bounds] + 1)
    metrics, gate, record = run.run_workload("synth-3x4", 0, 0.0, False, workloads.SMOKE, tmp_path)
    assert gate.failed >= 1
    assert metrics["failed_frac"] > 0
    assert any("unique" in note for note in record["failures"])


def test_verdict_drift_marks_the_run_invalid(tmp_path, monkeypatch):
    passes = dict(workloads.conftest.IDIOM_PASSES)
    passes["mutex"] = passes["mutex"] - {"weak-obe"}
    monkeypatch.setattr(workloads.conftest, "IDIOM_PASSES", passes)
    _, gate, record = run.run_workload("layouts-idioms", 0, 0.0, False, workloads.SMOKE, tmp_path)
    assert gate.failed >= 1
    assert any("mutex" in note for note in record["failures"])


def test_tracer_restores_the_library_and_reports_absent_names(monkeypatch):
    from progress_lab import oracle

    from tracing import Tracer

    original = oracle.check_matrix
    monkeypatch.delattr(oracle, "scc_decompose")
    tracer = Tracer()
    tracer.install()
    assert oracle.check_matrix is not original
    tracer.restore()
    assert oracle.check_matrix is original
    assert "progress_lab.oracle.scc_decompose" in tracer.absent


def test_self_time_subtracts_child_spans():
    from tracing import Tracer

    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0], ["inner", 6.0, 7.0, 0]]
    assert tracer.self_seconds() == {"outer": 6.0, "inner": 4.0}
