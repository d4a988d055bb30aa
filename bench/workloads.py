"""The benchmark's workloads: set-up, one timed pass, and correctness gates.

Each workload drives `progress_lab` through its public entry points and
checks every output against a known answer: the frozen counts and idiom
verdicts of `tests/conftest.py` (imported, never copied) and the
independent reference oracles of `tests/naive.py`.

- synth-3x4: bounded synthesis at (3 threads, 4 instructions) on one
  worker, the enumeration that dominates the test suite.
- classify-3x4: the `classify` command on the capped (3,4) suite, many
  tiny state spaces where per-test overhead dominates.
- layouts-idioms: the six idioms in multi-instance layouts: kernel
  emission, verdicts of a few large state spaces, and scheduler
  simulation with up to 512 threads.

Library functions are called through their modules (`synth.synthesize`,
not a bare imported name) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shutil
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import conftest  # noqa: E402  frozen counts and idiom verdicts
import naive  # noqa: E402  independent reference oracles
from progress_lab import cli, emit, litmus_io, oracle, schedsim, suiteio, synth  # noqa: E402
from progress_lab.emit import Backend, EmitConfig, Variant  # noqa: E402
from progress_lab.models import ProgressModel, all_model_variants, variant_token  # noqa: E402
from progress_lab.schedsim import SchedulerKind, SchedulerSpec  # noqa: E402

MODELS = tuple(m.value for m in ProgressModel if m is not ProgressModel.UNFAIR)
VARIANTS = (Variant.CHUNKED, Variant.ROUND_ROBIN)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads; FULL is the benchmark, SMOKE its test."""

    synth_bounds: tuple[int, int]
    warmup_bounds: tuple[int, int]
    naive_sample: int
    emit_instances: tuple[int, ...]
    harness_auto: bool
    check_instances: tuple[int, ...]
    check_extra: tuple[tuple[str, Variant, int], ...]
    sim_runs: tuple[tuple[int, int], ...]  # (instances, iterations)


FULL = Sizes(
    synth_bounds=(3, 4),
    warmup_bounds=(3, 3),
    naive_sample=100,
    emit_instances=(4, 16, 64, 256),
    harness_auto=True,
    check_instances=(2, 3),
    # Eight threads and thousands of monitored states: the one layout
    # where per-state cost of the oracle dominates.
    check_extra=(("mutex", Variant.CHUNKED, 4),),
    # Two-thread runs end within a few steps, so they repeat more to give
    # the small-layout step rate a base; one 512-thread run takes ~0.1 s.
    sim_runs=((1, 20), (4, 20), (256, 1)),
)

SMOKE = Sizes(
    synth_bounds=(2, 2),
    warmup_bounds=(2, 2),
    naive_sample=5,
    emit_instances=(2,),
    harness_auto=False,
    check_instances=(2,),
    check_extra=(),
    sim_runs=((1, 2), (2, 2)),
)

SIM_BUDGET = 50_000
SIM_SPECS = (
    SchedulerSpec(SchedulerKind.FAIR_ROUND_ROBIN, step_budget=SIM_BUDGET),
    SchedulerSpec(SchedulerKind.UNFAIR_RANDOM, step_budget=SIM_BUDGET),
    SchedulerSpec(SchedulerKind.HSA_PRIORITY, step_budget=SIM_BUDGET),
    *(
        SchedulerSpec(kind, slots=slots, step_budget=SIM_BUDGET)
        for kind in (SchedulerKind.OBE_NONPREEMPTIVE, SchedulerKind.LOBE_NONPREEMPTIVE)
        for slots in (1, 2, 4)
    ),
)


class Gate:
    """Operations checked against a known answer, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.record(1, 0 if ok else 1, what)


def _check_synth_counts(gate: Gate, result, bounds) -> None:
    stats = result.stats
    frozen = conftest.SUITE_CANDIDATES[bounds]
    gate.check(stats.candidates == frozen, f"{bounds}: {stats.candidates} candidates, frozen {frozen}")
    frozen = conftest.SUITE_UNIQUE[bounds]
    gate.check(len(result.tests) == frozen, f"{bounds}: {len(result.tests)} unique, frozen {frozen}")
    capped = len(conftest.capped_tests(result, bounds))
    frozen = conftest.SUITE_CAPPED[bounds]
    gate.check(capped == frozen, f"{bounds}: {capped} capped, frozen {frozen}")
    accounted = sum(stats.rejected.values()) + stats.duplicates + stats.unique
    gate.check(accounted == stats.candidates, f"{bounds}: {accounted} candidates accounted for")


class SynthWorkload:
    """Enumerate (3,4) with one worker; the result stays in memory."""

    name = "synth-3x4"
    setup_repeats = 5

    def __init__(self, sizes: Sizes, work_dir: Path):
        self.sizes = sizes

    def setup(self, seed: int, jobs: int, gate: Gate) -> dict:
        # Warm-up on the same three-thread code path at a small bound,
        # gated like the timed run.
        bounds = self.sizes.warmup_bounds
        _check_synth_counts(gate, synth.synthesize(synth.SynthConfig(*bounds)), bounds)
        self.config = synth.SynthConfig(*self.sizes.synth_bounds, jobs=1)
        return {"candidates": conftest.SUITE_CANDIDATES[self.sizes.synth_bounds]}

    def run(self, seed: int, jobs: int):
        return synth.synthesize(self.config)

    def check(self, result, seed: int, gate: Gate) -> None:
        _check_synth_counts(gate, result, self.sizes.synth_bounds)
        rng = random.Random(seed)
        for test in rng.sample(result.tests, min(self.sizes.naive_sample, len(result.tests))):
            gate.check(naive.naive_constraints_ok(test), f"{test.name} fails the naive filter")

    def rates(self, result, seconds: float) -> dict:
        return {"synth_candidates_per_s": result.stats.candidates / seconds}


def _naive_row(test, columns) -> list[str]:
    out = []
    for column in columns:
        if column == "unfair":
            fails = naive.naive_unfair_fails(test)
        else:
            flavor, model = column.split("-", 1)
            check = naive.naive_weak_fails if flavor == "weak" else naive.naive_strong_fails
            fails = check(test, model)
        out.append("fail" if fails else "pass")
    return out


class ClassifyWorkload:
    """`progress-lab classify` in-process on the capped (3,4) suite."""

    name = "classify-3x4"
    # The set-up is a whole (3,4) synthesis; repeating it would double
    # the run for no better figure than the median over runs gives.
    setup_repeats = 1

    def __init__(self, sizes: Sizes, work_dir: Path):
        self.sizes = sizes
        self.suite_dir = work_dir / "suite"
        self.out_dir = work_dir / "report"

    def setup(self, seed: int, jobs: int, gate: Gate) -> dict:
        bounds = self.sizes.synth_bounds
        result = synth.synthesize(synth.SynthConfig(*bounds, jobs=jobs))
        _check_synth_counts(gate, result, bounds)
        self.tests = conftest.capped_tests(result, bounds)
        shutil.rmtree(self.suite_dir, ignore_errors=True)
        suiteio.save_suite(self.tests, self.suite_dir)
        return {"unique": len(result.tests), "tests": len(self.tests)}

    def run(self, seed: int, jobs: int) -> int:
        argv = ["--jobs", str(jobs), "classify", "--suite", str(self.suite_dir), "--out", str(self.out_dir)]
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, code: int, seed: int, gate: Gate) -> None:
        gate.check(code == 0, f"classify exited with {code}")
        if code != 0:
            return
        with open(self.out_dir / "matrix.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        columns = header[1:]
        expected = [variant_token(v) for v in all_model_variants(True)]
        gate.check(columns == expected, f"matrix columns {columns}")
        gate.check(len(rows) == len(self.tests), f"{len(rows)} rows for {len(self.tests)} tests")
        parts = json.loads((self.out_dir / "partitions.json").read_text(encoding="utf-8"))
        for key in ("errors", "unclassified", "anomalies"):
            gate.check(not parts[key], f"{len(parts[key])} {key}")
        for row in rows:
            verdict = dict(zip(columns, row[1:]))
            ok = all(
                verdict.get(f"weak-{m}") != "pass" or verdict.get(f"strong-{m}") == "pass"
                for m in MODELS
            )
            gate.check(ok, f"{row[0]}: a weak pass without the strong pass")
        by_name = {t.name: t for t in self.tests}
        rng = random.Random(seed)
        for row in rng.sample(rows, min(self.sizes.naive_sample, len(rows))):
            test = by_name.get(row[0])
            ok = test is not None and row[1:] == _naive_row(test, columns)
            gate.check(ok, f"{row[0]}: matrix row differs from the naive oracles")

    def rates(self, code: int, seconds: float) -> dict:
        return {"classify_tests_per_s": len(self.tests) / seconds}


class LayoutsWorkload:
    """Idioms in chunked and round-robin layouts: emit, check, simulate."""

    name = "layouts-idioms"
    setup_repeats = 5

    def __init__(self, sizes: Sizes, work_dir: Path):
        self.sizes = sizes

    def setup(self, seed: int, jobs: int, gate: Gate) -> dict:
        sizes = self.sizes
        idioms = {}
        for path in sorted(conftest.IDIOM_DIR.glob("*.litmus")):
            test = litmus_io.parse_litmus(path.read_text(encoding="utf-8"))
            idioms[test.name] = test
        gate.check(set(idioms) == set(conftest.IDIOM_PASSES), f"idioms {sorted(idioms)}")
        self.idioms = idioms

        # (test, config, expected load_harness result or None)
        self.kernels = []
        for test in idioms.values():
            for variant in VARIANTS:
                for m in sizes.emit_instances:
                    for backend in Backend:
                        expected = None
                        if backend is Backend.HARNESS:
                            expected = emit.expand_layout(test, variant, m)
                        self.kernels.append((test, EmitConfig(backend, variant, m), expected))
        if sizes.harness_auto:
            # 32,767 instances, a 20 MB artifact: one is enough to show
            # the cost of emitting and loading at the workgroup limit.
            mutex = idioms["mutex"]
            m = emit.resolve_instances(Variant.CHUNKED, mutex.num_threads)
            expected = emit.expand_layout(mutex, Variant.CHUNKED, m)
            self.kernels.append((mutex, EmitConfig(Backend.HARNESS, Variant.CHUNKED), expected))

        self.check_layouts = [
            (name, emit.expand_layout(test, variant, m))
            for m in sizes.check_instances
            for name, test in idioms.items()
            for variant in VARIANTS
        ]
        self.check_layouts += [
            (name, emit.expand_layout(idioms[name], variant, m))
            for name, variant, m in sizes.check_extra
        ]

        # layout name -> (idiom, variant, instances)
        self.sim_meta = {}
        # (layouts, iterations) per campaign
        self.sim_groups = []
        for m, iterations in sizes.sim_runs:
            layouts = []
            for name, test in idioms.items():
                for variant in VARIANTS:
                    layout = emit.expand_layout(test, variant, m)
                    self.sim_meta[layout.name] = (name, variant, m)
                    layouts.append(layout)
            self.sim_groups.append((layouts, iterations))
        return {
            "kernels": len(self.kernels),
            "check_layouts": len(self.check_layouts),
            "sim_runs": sum(len(ls) * it for ls, it in self.sim_groups) * len(SIM_SPECS),
        }

    def run(self, seed: int, jobs: int) -> dict:
        t0 = time.perf_counter()
        kernels = []
        for test, config, expected in self.kernels:
            artifact = emit.emit_kernel(test, config)
            loaded = None if expected is None else emit.load_harness(artifact.source)
            kernels.append((artifact.workgroups, artifact.instances, len(artifact.source), loaded))
        t1 = time.perf_counter()
        verdicts = []
        for name, layout in self.check_layouts:
            matrix = oracle.check_matrix(layout)
            verdicts.append((name, layout.name, {tok for tok, v in matrix.items() if v.passed}))
        t2 = time.perf_counter()
        steps = 0
        summaries = []
        for layouts, iterations in self.sim_groups:
            rows, group = schedsim.campaign(layouts, SIM_SPECS, iterations=iterations, base_seed=seed)
            steps += sum(row["steps_used"] for row in rows)
            summaries += group
        t3 = time.perf_counter()
        return {
            "kernels": kernels,
            "verdicts": verdicts,
            "summaries": summaries,
            "steps": steps,
            "phase_s": (t1 - t0, t2 - t1, t3 - t2),
        }

    def check(self, out: dict, seed: int, gate: Gate) -> None:
        for (test, config, expected), (workgroups, instances, size, loaded) in zip(
            self.kernels, out["kernels"]
        ):
            what = f"{test.name} {config.backend.value} {config.variant.value} x{instances}"
            gate.check(workgroups == test.num_threads * instances and size > 0, f"{what}: kernel shape")
            if expected is not None:
                # load_harness keeps the base name; expand_layout adds
                # -<variant>-x<m>, so names are not compared.
                same = (
                    loaded.threads == expected.threads
                    and loaded.num_locations == expected.num_locations
                    and loaded.value_domain == expected.value_domain
                )
                gate.check(same, f"{what}: harness round trip")
        golden = (conftest.GOLDEN_DIR / "mutex.comp").read_text(encoding="utf-8")
        shader = emit.emit_kernel(self.idioms["mutex"], EmitConfig(Backend.GLSL)).source
        gate.check(shader == golden, "mutex shader differs from the golden file")

        for name, layout_name, passing in out["verdicts"]:
            gate.check(passing == conftest.IDIOM_PASSES[name], f"{layout_name}: verdicts {sorted(passing)}")

        for s in out["summaries"]:
            gate.record(s["runs"], self._sim_failures(s), f"{s['test']} {s['scheduler']} slots={s['slots']}")

    def _sim_failures(self, s: dict) -> int:
        """Runs of one (layout, scheduler) pair that break a check-8 invariant."""
        name, variant, m = self.sim_meta[s["test"]]
        passes = conftest.IDIOM_PASSES[name]
        kind = SchedulerKind(s["scheduler"])
        if kind is SchedulerKind.FAIR_ROUND_ROBIN and "weak-fair" in passes:
            return s["runs"] - s["terminated"]
        if kind is SchedulerKind.LOBE_NONPREEMPTIVE:
            if "weak-lobe" in passes:
                return s["runs"] - s["terminated"]
            if name == "prodcons-decreasing" and variant is Variant.CHUNKED and s["slots"] < m:
                return s["runs"] - s["proved_nonterminating"]
        return 0

    def rates(self, out: dict, seconds: float) -> dict:
        emit_s, check_s, sim_s = out["phase_s"]
        return {
            "emit_kernels_per_s": len(out["kernels"]) / emit_s,
            "layout_check_s": check_s,
            "sim_steps_per_s": out["steps"] / sim_s,
        }


WORKLOADS = {w.name: w for w in (SynthWorkload, ClassifyWorkload, LayoutsWorkload)}
