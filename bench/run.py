"""Benchmark of the progress-lab pipeline: synthesize, classify, emit, simulate.

Run from the root of a checkout:

    python3 bench/run.py --workload synth-3x4 --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in BENCHMARK.json.  An untraced run
(`--trace 0`) sets the workload up several times (`setup_s` is the
median), then repeats the timed pass until `--seconds` of passes have
run (`pass_s` is the median pass).  A traced run (`--trace 1`) sets up
once and makes one untraced and one traced pass, both on one worker
process so that no span is lost in a worker; it reports the per-layer
metrics and the tracing overhead.  Every output is checked against a
known answer outside the timed passes; a check that fails counts in
`failed` and makes the run incorrect.

The last line of standard output is the result as one JSON object; the
line before it is a record of the run (commit, interpreter, processor
count, seed, input counts, every sample and the workload's own rates),
which is also written under `.bench-work/records/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench-work"


def git_sha() -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            sha, _, refname = line.partition(" ")
            if refname == name:
                return sha
    return None


def src_digest() -> str:
    """Digest of the package sources, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


def _median_rates(samples: list[dict]) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes, work_dir: Path):
    """Run one workload; returns (result metrics, gate, record)."""
    import workloads
    from tracing import Tracer, layer_metrics

    nproc = len(os.sched_getaffinity(0))
    jobs = 1 if trace else nproc
    gate = workloads.Gate()
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](sizes, work_dir)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "nproc": nproc,
        "jobs": jobs,
        "python": platform.python_version(),
    }

    if not trace:
        setup_s = []
        for _ in range(workload.setup_repeats):
            t0 = time.perf_counter()
            record["inputs"] = workload.setup(seed, jobs, gate)
            setup_s.append(time.perf_counter() - t0)
        pass_s = []
        rates = []
        while not pass_s or sum(pass_s) < seconds:
            t0 = time.perf_counter()
            out = workload.run(seed, jobs)
            pass_s.append(time.perf_counter() - t0)
            rates.append(workload.rates(out, pass_s[-1]))
            workload.check(out, seed, gate)
            del out
        metrics = {
            "setup_s": statistics.median(setup_s),
            "pass_s": statistics.median(pass_s),
            "peak_rss_mb": peak_rss_mb(),
        }
        record.update(setup_s=setup_s, pass_s=pass_s, rates=_median_rates(rates))
    else:
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                record["inputs"] = workload.setup(seed, jobs, gate)
        finally:
            tracer.restore()
        t0 = time.perf_counter()
        out = workload.run(seed, jobs)
        plain_s = time.perf_counter() - t0
        workload.check(out, seed, gate)
        del out
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.span("bench.pass"):
                out = workload.run(seed, jobs)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.restore()
        workload.check(out, seed, gate)
        del out
        metrics = layer_metrics(tracer, workloads.synth.REJECT_REASONS)
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1
        record.update(pass_s=[plain_s], traced_pass_s=traced_s, absent=tracer.absent)
        tracer.dump(work_dir / f"spans-seed{seed}.json")

    metrics["failed_frac"] = gate.failed / gate.attempted
    record.update(attempted=gate.attempted, failed=gate.failed, failures=gate.notes)
    return metrics, gate, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "progress_lab").is_dir() or not (ROOT / "tests" / "conftest.py").is_file():
        print("error: run from a progress-lab checkout with src/ and tests/", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    import workloads

    metrics, gate, record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL,
        WORK / args.workload,
    )
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    if record.get("absent"):
        print(f"warning: not traced, absent from the library: {record['absent']}", file=sys.stderr)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    record["metrics"] = metrics
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
