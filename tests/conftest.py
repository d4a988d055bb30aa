"""Shared fixtures: idiom corpus, synthesized suites, frozen snapshot facts."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from progress_lab.classify import classify_suite
from progress_lab.litmus_io import parse_litmus
from progress_lab.synth import SynthConfig, synthesize

IDIOM_DIR = Path(__file__).resolve().parent.parent / "docs" / "idioms"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Which model/flavor combinations each idiom passes.  Everything else in
# the eleven-column matrix fails.  Derived once by hand from the machine
# semantics and locked in; the oracle must reproduce these exactly.
IDIOM_PASSES = {
    "mutex": {
        "weak-obe", "weak-hsa+obe", "weak-lobe", "weak-fair",
        "strong-obe", "strong-hsa+obe", "strong-lobe", "strong-fair",
    },
    "simplified-mutex": {
        "weak-obe", "weak-hsa+obe", "weak-lobe", "weak-fair",
        "strong-obe", "strong-hsa+obe", "strong-lobe", "strong-fair",
    },
    "prodcons-increasing": {
        "weak-hsa", "weak-hsa+obe", "weak-lobe", "weak-fair",
        "strong-hsa", "strong-hsa+obe", "strong-lobe", "strong-fair",
    },
    "prodcons-decreasing": {"weak-fair", "strong-fair"},
    "bidirectional": {"weak-fair", "strong-fair"},
    "dining": {
        "strong-hsa", "strong-obe", "strong-hsa+obe", "strong-lobe", "strong-fair",
    },
}

# Plain state space sizes (states, actions) for the idioms.
IDIOM_LTS_SIZES = {
    "mutex": (8, 10),
    "simplified-mutex": (6, 7),
    "prodcons-increasing": (3, 3),
    "prodcons-decreasing": (3, 3),
    "bidirectional": (5, 7),
    "dining": (8, 8),
}

# Candidate-space sizes and accepted-test counts per bounds, frozen from
# the first verified enumeration runs.  The enumerator must stay exact.
SUITE_CANDIDATES = {
    (2, 2): 324,
    (2, 3): 32_400,
    (2, 4): 3_477_168,
    (3, 3): 5_832,
    (3, 4): 874_800,
}
SUITE_UNIQUE = {
    (2, 2): 20,
    (2, 3): 1_012,
    (2, 4): 49_704,
    (3, 3): 426,
    (3, 4): 34_734,
}

# Size ceilings per bounds as (max_states, max_actions), and the suite
# sizes after applying them.
SUITE_CAPS = {
    (2, 2): (8, 8),
    (2, 3): (12, 14),
    (2, 4): (24, 16),
    (3, 3): (24, 16),
    (3, 4): (24, 16),
}
SUITE_CAPPED = {
    (2, 2): 20,
    (2, 3): 928,
    (2, 4): 19_030,
    (3, 3): 192,
    (3, 4): 4_626,
}
ALL_BOUNDS = tuple(SUITE_CAPPED)


@pytest.fixture(scope="session")
def idioms():
    out = {}
    for path in sorted(IDIOM_DIR.glob("*.litmus")):
        test = parse_litmus(path.read_text(encoding="utf-8"))
        out[test.name] = test
    assert set(out) == set(IDIOM_PASSES)
    return out


@pytest.fixture(scope="session")
def suites():
    """Lazy shared access to synthesized suites: suites(threads, instrs)."""
    cache = {}

    def get(num_threads: int, total_instructions: int):
        key = (num_threads, total_instructions)
        if key not in cache:
            cache[key] = synthesize(
                SynthConfig(num_threads=key[0], total_instructions=key[1])
            )
        return cache[key]

    return get


def capped_tests(result, bounds):
    """Tests of a synthesis result surviving the size ceilings for `bounds`."""
    smax, amax = SUITE_CAPS[bounds]
    return [
        t
        for t, (states, actions) in zip(result.tests, result.lts_sizes)
        if states <= smax and actions <= amax
    ]


@pytest.fixture(scope="session")
def all_bounds_report(suites):
    """`classify_suite` over the capped tests of every fixture bound, each
    name prefixed by its bounds (`b23-t0001`), computed once per session."""
    tests = [
        replace(t, name=f"b{bounds[0]}{bounds[1]}-{t.name}")
        for bounds in ALL_BOUNDS
        for t in capped_tests(suites(*bounds), bounds)
    ]
    return classify_suite(tests)
