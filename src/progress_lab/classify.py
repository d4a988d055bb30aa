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

Rows are shared at two levels.  The first is the location orbit: tests
equal up to a renaming of memory locations.  Renaming maps a test's
plain and monitored LTS onto isomorphic ones, state for state.  Memory
starts all zero, so every renaming fixes the initial state, and fair
sets depend only on which threads stepped or terminated, never on
memory.  Locations are thus a scalarset in the sense of Ip & Dill
("Better verification through symmetry", FMSD 1996), and every test of
an orbit gets the same verdict in every column.  Synthesis without
symmetry reduction keeps both location twins, so on its suites the
orbit key halves the plain explorations, and it costs less than one.

The second is the state space.  `check_matrix` reads a test only
through its plain LTS, and its verdicts are a function of the thread
count and the plain successor lists alone (see `oracle`).  Two tests
that agree on these two get the same row, whatever their instructions
and memory.  So each new orbit's plain LTS is built once, and
`check_matrix` runs, on that LTS, only for a state space not seen
before: Ip & Dill's one member per class of equivalent state spaces.
The 2,313 location orbits of the capped (3,4) suite have 867 distinct
plain LTSs.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .lts import DEFAULT_MAX_STATES, Lts, build_plain_lts
from .models import (
    Fairness,
    ModelVariant,
    ProgressModel,
    all_model_variants,
    less_fair,
    variant_token,
)
from .oracle import check_matrix
from .synth import canonicalize

WEAK_FAIR = variant_token((ProgressModel.FAIR, Fairness.WEAK))
STRONG_FAIR = variant_token((ProgressModel.FAIR, Fairness.STRONG))

log = logging.getLogger(__name__)


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
    hierarchy: tuple[ModelVariant, ...] | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> SuiteReport:
    """Verdict matrix plus partitions for a whole suite.

    The matrix always carries all verdict-producing variants; the
    hierarchy, a tuple of variants in report column order (default:
    `all_model_variants` without the HSA/OBE combination), decides which
    variants get conformance and distinguishing sets, ordered by
    `models.less_fair`.  A test lands in the distinguishing set of the
    least variant it conforms to, and in none if it conforms to two
    incomparable variants but to nothing below both.  Anomalies are
    listed by test, then by the fairer variant in column order, then by
    the less fair variant in column order.  Rows are keyed by test name,
    so a name shared by two tests raises ValueError.

    Rows are shared twice over (see the module docstring).  The first
    test of a location orbit, keyed by `synth.canonicalize`, gets its
    plain LTS built; `check_matrix` runs on it only when no earlier test
    had the same state space, and every later test of the orbit or the
    state space gets its own copy of that row.  A test whose check
    raises is recorded in `errors` and shares nothing, so each later
    member of its orbit or state space is checked itself and an error
    names its own test.
    """
    started = time.perf_counter()
    if hierarchy is None:
        hierarchy = all_model_variants(include_hsa_obe=False)
    tests = list(tests)
    names = [test.name for test in tests]
    duplicates = sorted(name for name, count in Counter(names).items() if count > 1)
    if duplicates:
        raise ValueError(f"duplicate test names: {', '.join(duplicates)}")
    matrix: dict[str, dict[str, bool]] = {}
    errors: dict[str, str] = {}
    orbits: dict[str, str] = {}  # orbit key -> name of the test whose row it shares
    spaces: dict[tuple, str] = {}  # state-space key -> name of the test checked
    for test in tests:
        orbit = canonicalize(test)
        source = orbits.get(orbit)
        if source is None:
            try:
                plain = build_plain_lts(test, max_states)
                space = _space_key(plain)
                source = spaces.get(space)
                if source is None:
                    verdicts = check_matrix(test, max_states, plain)
                    matrix[test.name] = {tok: v.passed for tok, v in verdicts.items()}
                    source = spaces[space] = test.name
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                errors[test.name] = f"{type(exc).__name__}: {exc}"
                continue
            orbits[orbit] = source
        if source != test.name:
            matrix[test.name] = dict(matrix[source])

    classified = [n for n in names if n in matrix]
    weak = tuple(n for n in classified if matrix[n][WEAK_FAIR])
    strong = tuple(
        n for n in classified if matrix[n][STRONG_FAIR] and not matrix[n][WEAK_FAIR]
    )
    unclassified = tuple(n for n in classified if not matrix[n][STRONG_FAIR])

    pools = {Fairness.WEAK: weak, Fairness.STRONG: strong, None: tuple(classified)}
    conformance: dict[str, tuple[str, ...]] = {}
    for variant in hierarchy:
        tok = variant_token(variant)
        conformance[tok] = tuple(n for n in pools[variant[1]] if matrix[n][tok])

    distinguishing: dict[str, tuple[str, ...]] = {}
    for variant in hierarchy:
        tok = variant_token(variant)
        rivals: set[str] = set()
        for q in hierarchy:
            if q != variant and not less_fair(variant, q):
                rivals.update(conformance[variant_token(q)])
        distinguishing[tok] = tuple(
            n for n in conformance[tok] if n not in rivals
        )

    below = [
        (variant_token(low), variant_token(high))
        for high in hierarchy
        for low in hierarchy
        if less_fair(low, high)
    ]
    anomalies = [
        f"{name}: passes {lo} but fails {hi}"
        for name in classified
        for lo, hi in below
        if matrix[name][lo] and not matrix[name][hi]
    ]

    log.info(
        "classified %d tests: %d location orbits, %d distinct LTSs checked, %d errors, %.2f s",
        len(names),
        len(orbits),
        len(spaces),
        len(errors),
        time.perf_counter() - started,
    )
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
        hierarchy_tokens=tuple(variant_token(v) for v in hierarchy),
    )


def _space_key(plain: Lts) -> tuple:
    """What every verdict of `plain`'s test depends on: the thread count
    and the successor lists."""
    return plain.test.num_threads, tuple(map(tuple, plain.out))


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


def summary_from_partitions(data: dict) -> str:
    """The summary `classify` prints and writes as `summary.txt`, rendered
    from a partitions document alone: the counts and the grid, then the
    unclassified count, the hierarchy anomalies and the errors."""
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
    if unclassified:
        lines += ["", f"tests failing even strong full fairness: {len(unclassified)}"]
    if data.get("anomalies"):
        lines += ["", "hierarchy anomalies:", *(f"  {a}" for a in data["anomalies"])]
    if data.get("errors"):
        lines += ["", "errors:", *(f"  {n}: {m}" for n, m in sorted(data["errors"].items()))]
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
            for k in ("weak_tests", "strong_tests", "unclassified", "hierarchy", "anomalies")
        )
        and all(isinstance(t, str) for k in ("hierarchy", "anomalies") for t in doc.get(k, []))
        and isinstance(doc.get("errors", {}), dict)
        and all(isinstance(m, str) for m in doc.get("errors", {}).values())
        and isinstance(doc.get("weak_fraction", 0.0), (int, float))
        and all(
            isinstance(sets, dict) and all(isinstance(v, list) for v in sets.values())
            for sets in (doc.get("conformance", {}), doc.get("distinguishing", {}))
        )
    )
    if not ok:
        raise ValueError(
            f"{path}: expected an object with lists 'weak_tests', 'strong_tests', "
            "'unclassified', 'hierarchy' and 'anomalies' (the last two of strings), "
            "a number 'weak_fraction', objects of lists 'conformance' and "
            "'distinguishing', and an object of strings 'errors'"
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
    partitions = partitions_json_dict(report)
    paths["matrix"].write_text(matrix_csv(report), encoding="utf-8")
    paths["partitions"].write_text(json.dumps(partitions, indent=2) + "\n", encoding="utf-8")
    paths["summary"].write_text(summary_from_partitions(partitions), encoding="utf-8")
    return paths
