"""Suite partitioning: conformance and distinguishing sets per model.

A test is *weak* when it always terminates under full weak fairness and
*strong* when only the strong check passes.  Conformance sets are
flavor-restricted to match that split: the weak variant of a model is
scored on weak tests, the strong variant on strong tests.  A test
distinguishes a variant when that variant is the least element of the
set of variants the test conforms to: it conforms to the variant and to
no other variant that is not strictly fairer.  Distinguishing sets are
therefore pairwise disjoint.  A test conforming to two incomparable
variants (weak HSA and weak OBE, say) and to nothing below both has no
least model and falls into no distinguishing set; the capped (2,3)
suite has 22 such weak tests.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .lts import DEFAULT_MAX_STATES
from .models import (
    Fairness,
    Hierarchy,
    ModelVariant,
    ProgressModel,
    all_model_variants,
    default_hierarchy,
    variant_token,
)
from .oracle import check_matrix

WEAK_FAIR = variant_token((ProgressModel.FAIR, Fairness.WEAK))
STRONG_FAIR = variant_token((ProgressModel.FAIR, Fairness.STRONG))


@dataclass(frozen=True, slots=True)
class SuiteReport:
    names: tuple[str, ...]
    matrix: dict[str, dict[str, bool]]
    weak_tests: tuple[str, ...]
    strong_tests: tuple[str, ...]
    unclassified: tuple[str, ...]  # fail even strong full fairness
    conformance: dict[str, tuple[str, ...]]
    distinguishing: dict[str, tuple[str, ...]]
    anomalies: tuple[str, ...]
    errors: dict[str, str]
    hierarchy_tokens: tuple[str, ...]

    @property
    def weak_fraction(self) -> float:
        classified = len(self.weak_tests) + len(self.strong_tests) + len(self.unclassified)
        return len(self.weak_tests) / classified if classified else 0.0


def classify_suite(
    tests,
    hierarchy: Hierarchy | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> SuiteReport:
    """Verdict matrix plus partitions for a whole suite.

    The matrix always carries all verdict-producing variants; the
    hierarchy (default: without the HSA/OBE combination) decides which
    variants get conformance and distinguishing sets.  A test lands in
    the distinguishing set of the least variant it conforms to, and in
    none if it conforms to two incomparable variants but to nothing
    below both.  Rows are keyed by test name, so a name shared by two
    tests raises ValueError.
    """
    if hierarchy is None:
        hierarchy = default_hierarchy()
    tests = list(tests)
    names = [test.name for test in tests]
    duplicates = sorted(name for name, count in Counter(names).items() if count > 1)
    if duplicates:
        raise ValueError(f"duplicate test names: {', '.join(duplicates)}")
    matrix: dict[str, dict[str, bool]] = {}
    errors: dict[str, str] = {}
    for test in tests:
        try:
            verdicts = check_matrix(test, max_states=max_states)
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            errors[test.name] = f"{type(exc).__name__}: {exc}"
            continue
        matrix[test.name] = {tok: v.passed for tok, v in verdicts.items()}

    classified = [n for n in names if n in matrix]
    weak = tuple(n for n in classified if matrix[n][WEAK_FAIR])
    strong = tuple(
        n for n in classified if matrix[n][STRONG_FAIR] and not matrix[n][WEAK_FAIR]
    )
    unclassified = tuple(n for n in classified if not matrix[n][STRONG_FAIR])

    def pool(variant: ModelVariant) -> tuple[str, ...]:
        if variant[1] is Fairness.WEAK:
            return weak
        if variant[1] is Fairness.STRONG:
            return strong
        return tuple(classified)

    conformance: dict[str, tuple[str, ...]] = {}
    for variant in hierarchy.variants:
        tok = variant_token(variant)
        conformance[tok] = tuple(n for n in pool(variant) if matrix[n][tok])

    distinguishing: dict[str, tuple[str, ...]] = {}
    for variant in hierarchy.variants:
        tok = variant_token(variant)
        rivals: set[str] = set()
        for q in hierarchy.variants:
            if q != variant and not hierarchy.less_fair(variant, q):
                rivals.update(conformance[variant_token(q)])
        distinguishing[tok] = tuple(
            n for n in conformance[tok] if n not in rivals
        )

    below = [
        (variant_token(low), variant_token(high))
        for high in hierarchy.variants
        for low in hierarchy.strictly_below(high)
    ]
    anomalies = [
        f"{name}: passes {lo} but fails {hi}"
        for name in classified
        for lo, hi in below
        if matrix[name][lo] and not matrix[name][hi]
    ]

    return SuiteReport(
        names=tuple(names),
        matrix=matrix,
        weak_tests=weak,
        strong_tests=strong,
        unclassified=unclassified,
        conformance=conformance,
        distinguishing=distinguishing,
        anomalies=tuple(anomalies),
        errors=errors,
        hierarchy_tokens=tuple(variant_token(v) for v in hierarchy.variants),
    )


def matrix_csv(report: SuiteReport) -> str:
    columns = [variant_token(v) for v in all_model_variants()]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["test"] + columns)
    for name in sorted(report.matrix):
        row = report.matrix[name]
        writer.writerow([name] + ["pass" if row[c] else "fail" for c in columns])
    return buf.getvalue()


def partitions_json_dict(report: SuiteReport) -> dict:
    return {
        "weak_tests": list(report.weak_tests),
        "strong_tests": list(report.strong_tests),
        "unclassified": list(report.unclassified),
        "weak_fraction": report.weak_fraction,
        "conformance": {k: list(v) for k, v in report.conformance.items()},
        "distinguishing": {k: list(v) for k, v in report.distinguishing.items()},
        "anomalies": list(report.anomalies),
        "errors": dict(report.errors),
        "hierarchy": list(report.hierarchy_tokens),
    }


def summary_text(report: SuiteReport) -> str:
    lines = [summary_from_partitions(partitions_json_dict(report)).rstrip("\n")]
    if report.unclassified:
        lines.append("")
        lines.append(
            f"tests failing even strong full fairness: {len(report.unclassified)}"
        )
    if report.anomalies:
        lines.append("")
        lines.append("hierarchy anomalies:")
        lines.extend(f"  {a}" for a in report.anomalies)
    if report.errors:
        lines.append("")
        lines.append("errors:")
        lines.extend(f"  {n}: {msg}" for n, msg in sorted(report.errors.items()))
    return "\n".join(lines) + "\n"


def summary_from_partitions(data: dict) -> str:
    """Re-render the grid from a saved partitions document."""
    weak = data.get("weak_tests", [])
    strong = data.get("strong_tests", [])
    unclassified = data.get("unclassified", [])
    total = len(weak) + len(strong) + len(unclassified)
    lines = [
        f"tests classified: {total}",
        f"weak tests: {len(weak)}",
        f"strong tests: {len(strong)}",
        f"weak fraction: {data.get('weak_fraction', 0.0):.3f}",
        "",
    ]
    weak_models = [t[len("weak-") :] for t in data.get("hierarchy", []) if t.startswith("weak-")]
    lines.append(f"{'model':<10}{'weak D':>8}{'weak C':>8}{'strong D':>10}{'strong C':>10}")
    # One row per model in hierarchy order, full fairness last; "-" marks a missing set.
    for model in [m for m in dict.fromkeys(weak_models) if m != "fair"] + ["fair"]:
        wd, wc, sd, sc = (
            str(len(sets[tok])) if tok in sets else "-"
            for tok in (f"weak-{model}", f"strong-{model}")
            for sets in (data.get("distinguishing", {}), data.get("conformance", {}))
        )
        label = "full" if model == "fair" else model
        lines.append(f"{label:<10}{wd:>8}{wc:>8}{sd:>10}{sc:>10}")
    return "\n".join(lines) + "\n"


def load_partitions(path: str | Path) -> dict:
    """Read a saved partitions document, checking the shape that
    `summary_from_partitions` reads; any of its keys may be missing."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    ok = isinstance(doc, dict) and (
        all(
            isinstance(doc.get(k, []), list)
            for k in ("weak_tests", "strong_tests", "unclassified", "hierarchy")
        )
        and all(isinstance(t, str) for t in doc.get("hierarchy", []))
        and isinstance(doc.get("weak_fraction", 0.0), (int, float))
        and all(
            isinstance(sets, dict) and all(isinstance(v, list) for v in sets.values())
            for sets in (doc.get("conformance", {}), doc.get("distinguishing", {}))
        )
    )
    if not ok:
        raise ValueError(
            f"{path}: expected an object with lists 'weak_tests', 'strong_tests', "
            "'unclassified' and 'hierarchy' (of strings), a number 'weak_fraction', "
            "and objects of lists 'conformance' and 'distinguishing'"
        )
    return doc


def write_report(report: SuiteReport, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "matrix": out / "matrix.csv",
        "partitions": out / "partitions.json",
        "summary": out / "summary.txt",
    }
    paths["matrix"].write_text(matrix_csv(report), encoding="utf-8")
    paths["partitions"].write_text(
        json.dumps(partitions_json_dict(report), indent=2) + "\n", encoding="utf-8"
    )
    paths["summary"].write_text(summary_text(report), encoding="utf-8")
    return paths
