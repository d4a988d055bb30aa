"""Command-line entry point tying the toolkit together.

Exit codes: 0 success, 1 verdict mismatch against --expect, 2 usage or
input errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

from .classify import (
    classify_suite,
    load_partitions,
    summary_from_partitions,
    summary_text,
    write_report,
)
from .emit import Backend, EmitConfig, Variant, emit_suite, expand_layout, resolve_instances
from .lts import (
    DEFAULT_MAX_STATES,
    ExplorationLimitError,
    build_monitored_lts,
    build_plain_lts,
)
from .models import Fairness, ProgressModel, all_model_variants, default_hierarchy, variant_token
from .oracle import check_matrix, format_witness
from .schedsim import DEFAULT_STEP_BUDGET, SchedulerKind, SchedulerSpec, campaign
from .suiteio import load_suite, load_test, save_suite
from .synth import SynthConfig, synthesize

MODEL_TOKENS = tuple(dict.fromkeys(model.value for model, _ in all_model_variants()))


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("PROGRESS_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise SystemExit(f"error: PROGRESS_LAB_SEED is not an integer: {env!r}") from exc
    return 0


def _cmd_synth(args) -> int:
    config = SynthConfig(
        num_threads=args.threads,
        total_instructions=args.instrs,
        num_locations=args.locations,
        value_domain=args.values,
        max_states=args.max_states,
        max_actions=args.max_actions,
        symmetry_reduction=args.symmetry,
        jobs=args.jobs,
    )
    result = synthesize(config)
    out = Path(args.out)
    save_suite(result.tests, out, result.lts_sizes)
    stats = {
        "config": {
            "threads": config.num_threads,
            "instructions": config.total_instructions,
            "locations": config.num_locations,
            "values": config.value_domain,
            "max_states": config.max_states,
            "max_actions": config.max_actions,
            "symmetry_reduction": config.symmetry_reduction,
        },
        **result.stats.to_json_dict(),
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")
    print(f"{len(result.tests)} tests written to {out}")
    return 0


def _cmd_check(args, parser) -> int:
    if args.model == "unfair" and args.fairness is not None:
        parser.error("--fairness does not apply to the unfair model")
    if args.model != "unfair" and args.fairness is None:
        parser.error(f"--fairness is required for model {args.model!r}")
    flavor = None if args.fairness is None else Fairness(args.fairness)
    column = variant_token((ProgressModel(args.model), flavor))
    mismatches = 0
    for path in args.files:
        test = load_test(path)
        verdict = check_matrix(test, args.max_states)[column]
        label = verdict.token
        if len(args.files) == 1:
            print(label)
        else:
            print(f"{test.name}: {label}")
        if args.witness and verdict.witness is not None:
            print(format_witness(verdict.witness), end="")
        if args.expect is not None and args.expect != label:
            mismatches += 1
    return 1 if mismatches else 0


def _cmd_lts_dump(args, parser) -> int:
    test = load_test(args.file)
    model = None if args.model in (None, "unfair") else ProgressModel(args.model)
    lts = build_plain_lts(test, args.max_states)
    if model is not None:
        lts = build_monitored_lts(lts, args.max_states)
    text = lts.to_dot(model) if args.format == "dot" else lts.to_json(model)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_classify(args) -> int:
    tests = load_suite(args.suite)
    hierarchy = default_hierarchy(include_hsa_obe=args.hsa_obe_in_hierarchy)
    report = classify_suite(tests, hierarchy, max_states=args.max_states)
    write_report(report, args.out)
    print(summary_text(report), end="")
    return 0


def _cmd_emit(args, parser) -> int:
    tests = load_suite(args.suite)
    if args.instances == "auto":
        instances = None
    else:
        try:
            instances = int(args.instances)
        except ValueError:
            parser.error("--instances takes a positive integer or 'auto'")
    config = EmitConfig(
        backend=Backend(args.backend),
        variant=Variant(args.variant),
        instances=instances,
        workgroup_size=args.workgroup_size,
    )
    manifest = emit_suite(tests, [config], args.out)
    print(
        f"emitted {len(manifest['entries'])} artifacts to {args.out}"
        + (f" ({len(manifest['errors'])} errors)" if manifest["errors"] else "")
    )
    return 0


def _cmd_simulate(args, parser) -> int:
    tests = load_suite(args.suite)
    variant = Variant(args.variant)
    if variant is not Variant.PLAIN:
        if args.instances is None:
            parser.error("--instances is required for non-plain layouts")
        tests = [
            expand_layout(t, variant, resolve_instances(variant, t.num_threads, args.instances))
            for t in tests
        ]
    spec = SchedulerSpec(
        kind=SchedulerKind(args.scheduler),
        slots=args.slots,
        step_budget=args.budget,
        priority_prob=args.priority_prob,
    )
    rows, summaries = campaign(
        tests, [spec], iterations=args.iterations, base_seed=_resolve_seed(args.seed)
    )
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else [])
            writer.writeheader()
            writer.writerows(rows)
    for s in summaries:
        flag = "deterministic" if s["deterministic"] else "mixed"
        print(
            f"{s['test']} {s['scheduler']} slots={s['slots']}: "
            f"{s['terminated']}/{s['runs']} terminated, "
            f"{s['budget_exhausted']} exhausted ({flag})"
        )
    return 0


def _cmd_report(args) -> int:
    path = Path(args.report_dir) / "partitions.json"
    if not path.is_file():
        print("no data")
        return 0
    print(summary_from_partitions(load_partitions(path)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="progress-lab",
        description="Synthesize, check, classify, emit, and simulate progress litmus tests.",
    )
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--seed", type=int, default=None,
                        help="falls back to PROGRESS_LAB_SEED, then 0")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="enumerate litmus tests within bounds")
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--instrs", type=int, required=True,
                   help="total instructions across all threads")
    p.add_argument("--locations", type=int, default=2)
    p.add_argument("--values", type=int, default=2)
    p.add_argument("--max-states", type=int, default=None)
    p.add_argument("--max-actions", type=int, default=None)
    p.add_argument("--symmetry", action="store_true",
                   help="deduplicate location-permuted twins")
    p.add_argument("--out", required=True)

    p = sub.add_parser("check", help="verdict for litmus files under one model")
    p.add_argument("files", nargs="+")
    p.add_argument("--model", required=True, choices=MODEL_TOKENS)
    p.add_argument("--fairness", choices=["weak", "strong"])
    p.add_argument("--witness", action="store_true")
    p.add_argument("--expect", choices=["pass", "fail"])
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)

    p = sub.add_parser("lts-dump", help="dump the plain or monitored state space")
    p.add_argument("file")
    p.add_argument("--model", choices=MODEL_TOKENS, default=None,
                   help="omit (or 'unfair') for the plain state space")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out")
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)

    p = sub.add_parser("classify", help="verdict matrix and partitions for a suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hsa-obe-in-hierarchy", action="store_true")
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)

    p = sub.add_parser("emit", help="generate GPU kernels for a suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--backend", required=True, choices=[b.value for b in Backend])
    p.add_argument("--variant", default="plain", choices=[v.value for v in Variant])
    p.add_argument("--instances", default="auto")
    p.add_argument("--workgroup-size", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="run a suite under software schedulers")
    p.add_argument("--suite", required=True)
    p.add_argument("--scheduler", required=True,
                   choices=[k.value for k in SchedulerKind])
    p.add_argument("--slots", type=int, default=1)
    p.add_argument("--variant", default="plain", choices=[v.value for v in Variant])
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--budget", type=int, default=DEFAULT_STEP_BUDGET)
    p.add_argument("--priority-prob", type=float, default=0.25)
    p.add_argument("--out", help="per-run outcomes CSV")

    p = sub.add_parser("report", help="render a saved classification report")
    p.add_argument("report_dir")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "check":
            return _cmd_check(args, parser)
        if args.command == "lts-dump":
            return _cmd_lts_dump(args, parser)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "emit":
            return _cmd_emit(args, parser)
        if args.command == "simulate":
            return _cmd_simulate(args, parser)
        return _cmd_report(args)
    except (OSError, ValueError, ExplorationLimitError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
