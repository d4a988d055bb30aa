"""Scheduler playback: termination, proven loops, and seeded campaigns."""

import hashlib
import json
from dataclasses import replace
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naive import explore_plain, naive_simulate
from progress_lab import schedsim
from progress_lab.axb import AxbInstruction, LitmusTest
from progress_lab.emit import Variant, expand_layout
from progress_lab.litmus_io import parse_litmus
from progress_lab.schedsim import (
    DEFAULT_STEP_BUDGET,
    RunOutcome,
    SchedulerKind,
    SchedulerSpec,
    campaign,
    derive_seed,
    simulate,
)
from strategies import litmus_tests

GOLDEN = Path(__file__).parent / "golden"
IDIOM_DIR = Path(__file__).parent.parent / "docs" / "idioms"

SPIN = LitmusTest(
    name="spin",
    num_locations=1,
    value_domain=2,
    threads=((AxbInstruction(0, 0, 0, None),),),
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SchedulerSpec(kind=SchedulerKind.FAIR_ROUND_ROBIN, step_budget=0)
    with pytest.raises(ValueError):
        SchedulerSpec(kind=SchedulerKind.LOBE_NONPREEMPTIVE, slots=0)
    with pytest.raises(ValueError):
        SchedulerSpec(kind=SchedulerKind.HSA_PRIORITY, priority_prob=1.5)


def test_outcome_checks_step_accounting():
    with pytest.raises(AssertionError):
        RunOutcome(terminated=True, steps_used=3, per_thread_steps=(1, 1))


def test_round_robin_terminates_idioms(idioms):
    spec = SchedulerSpec(kind=SchedulerKind.FAIR_ROUND_ROBIN, step_budget=10_000)
    for test in idioms.values():
        outcome = simulate(test, spec)
        assert outcome.terminated, test.name
        assert outcome.steps_used == sum(outcome.per_thread_steps)
        assert outcome.steps_used < 100


def test_round_robin_is_reproducible(idioms):
    spec = SchedulerSpec(kind=SchedulerKind.FAIR_ROUND_ROBIN)
    assert simulate(idioms["mutex"], spec) == simulate(idioms["mutex"], spec)
    # Seed is irrelevant for the deterministic kinds.
    other = SchedulerSpec(kind=SchedulerKind.FAIR_ROUND_ROBIN, seed=99)
    assert simulate(idioms["mutex"], other) == simulate(idioms["mutex"], spec)


def test_deterministic_kinds_seed_no_generator(idioms, monkeypatch):
    def no_rng(*args):
        raise AssertionError("seeded a random.Random")

    monkeypatch.setattr(schedsim.random, "Random", no_rng)
    for kind in (SchedulerKind.FAIR_ROUND_ROBIN, SchedulerKind.LOBE_NONPREEMPTIVE):
        for test in idioms.values():
            simulate(test, SchedulerSpec(kind=kind, step_budget=1_000))


def test_lobe_single_slot_splits_producer_consumer(idioms):
    spec = SchedulerSpec(kind=SchedulerKind.LOBE_NONPREEMPTIVE, slots=1)
    # Producer first in id order: runs alone, hands off, consumer drains.
    assert simulate(idioms["prodcons-increasing"], spec).terminated
    # Consumer first: occupies the only slot and spins forever.
    outcome = simulate(idioms["prodcons-decreasing"], spec)
    assert not outcome.terminated
    assert outcome.nontermination_proved
    assert outcome.steps_used < 10  # loop found, budget untouched


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_lobe_chunked_layout_starves(idioms, slots):
    # Chunked puts every instance's spinner ahead of every producer.
    big = expand_layout(idioms["prodcons-decreasing"], Variant.CHUNKED, 4)
    spec = SchedulerSpec(kind=SchedulerKind.LOBE_NONPREEMPTIVE, slots=slots)
    outcome = simulate(big, spec)
    assert not outcome.terminated
    assert outcome.nontermination_proved


def test_lobe_chunked_layout_recovers_with_enough_slots(idioms):
    big = expand_layout(idioms["prodcons-decreasing"], Variant.CHUNKED, 4)
    spec = SchedulerSpec(kind=SchedulerKind.LOBE_NONPREEMPTIVE, slots=5)
    assert simulate(big, spec).terminated


def test_obe_admission_order_depends_on_seed(idioms):
    test = idioms["prodcons-decreasing"]
    outcomes = set()
    for seed in range(20):
        spec = SchedulerSpec(kind=SchedulerKind.OBE_NONPREEMPTIVE, slots=1, seed=seed)
        outcome = simulate(test, spec)
        assert outcome == simulate(test, spec)  # fixed seed, fixed run
        outcomes.add(outcome.terminated)
        if not outcome.terminated:
            assert outcome.nontermination_proved
    assert outcomes == {True, False}


def test_unfair_random_exhausts_budget():
    spec = SchedulerSpec(kind=SchedulerKind.UNFAIR_RANDOM, step_budget=500)
    outcome = simulate(SPIN, spec)
    assert not outcome.terminated
    assert not outcome.nontermination_proved  # random kinds never prove loops
    assert outcome.steps_used == 500
    assert outcome.per_thread_steps == (500,)


def test_unfair_random_can_finish(idioms):
    spec = SchedulerSpec(kind=SchedulerKind.UNFAIR_RANDOM, seed=1, step_budget=10_000)
    assert simulate(idioms["mutex"], spec).terminated


def test_hsa_priority_extremes(idioms):
    always_lowest = SchedulerSpec(
        kind=SchedulerKind.HSA_PRIORITY, priority_prob=1.0, step_budget=2_000
    )
    assert simulate(idioms["prodcons-increasing"], always_lowest).terminated
    outcome = simulate(idioms["prodcons-decreasing"], always_lowest)
    assert not outcome.terminated
    assert outcome.steps_used == 2_000


@settings(max_examples=100, deadline=None)
@given(litmus_tests(), st.integers(0, 2**32 - 1))
def test_simulate_matches_naive_reference(test, seed):
    for kind in SchedulerKind:
        for slots in (1, 2, 3):
            spec = SchedulerSpec(kind, slots=slots, seed=seed, step_budget=200)
            assert simulate(test, spec) == RunOutcome(*naive_simulate(test, spec)), spec


@pytest.mark.parametrize(
    "spec",
    [
        SchedulerSpec(SchedulerKind.FAIR_ROUND_ROBIN, step_budget=5_000),
        SchedulerSpec(SchedulerKind.LOBE_NONPREEMPTIVE, slots=2, step_budget=5_000),
    ],
    ids=["round-robin", "lobe-2"],
)
def test_simulate_calls_step_once_per_step(idioms, monkeypatch, spec):
    # The benchmark counts calls to `schedsim.step` as simulated steps.
    calls = 0
    original = schedsim.step

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(schedsim, "step", counting)
    for test in idioms.values():
        for variant in (Variant.CHUNKED, Variant.ROUND_ROBIN):
            calls = 0
            outcome = simulate(expand_layout(test, variant, 4), spec)
            assert calls == outcome.steps_used > 0


def test_derive_seed_is_stable_and_spread():
    spec = SchedulerSpec(kind=SchedulerKind.UNFAIR_RANDOM)
    a = derive_seed(0, "mutex", spec, 0)
    assert a == derive_seed(0, "mutex", spec, 0)
    seen = {
        derive_seed(base, name, spec, it)
        for base in (0, 1)
        for name in ("mutex", "dining")
        for it in range(5)
    }
    assert len(seen) == 20


def test_campaign_shapes_and_determinism_flag(idioms):
    tests = [idioms["prodcons-increasing"], idioms["prodcons-decreasing"]]
    specs = [
        SchedulerSpec(kind=SchedulerKind.FAIR_ROUND_ROBIN, step_budget=5_000),
        SchedulerSpec(kind=SchedulerKind.LOBE_NONPREEMPTIVE, slots=1, step_budget=5_000),
    ]
    rows, summaries = campaign(tests, specs, iterations=4, base_seed=7)
    assert len(rows) == 2 * 2 * 4
    assert len(summaries) == 4
    for row in rows:
        assert set(row) == {
            "test", "scheduler", "slots", "iteration", "seed",
            "terminated", "steps_used", "nontermination_proved",
        }
    for summary in summaries:
        assert summary["runs"] == 4
        assert summary["terminated"] + summary["budget_exhausted"] == 4
        assert summary["deterministic"]  # both kinds fix their choices up front
    by_key = {(s["test"], s["scheduler"]): s for s in summaries}
    hang = by_key[("prodcons-decreasing", "lobe-nonpreemptive")]
    assert hang["budget_exhausted"] == 4
    assert hang["proved_nonterminating"] == 4
    assert by_key[("prodcons-decreasing", "fair-round-robin")]["terminated"] == 4


@pytest.mark.parametrize("iterations", [0, -1])
def test_campaign_rejects_nonpositive_iterations(idioms, iterations):
    spec = SchedulerSpec(kind=SchedulerKind.FAIR_ROUND_ROBIN)
    with pytest.raises(ValueError, match="iterations must be positive"):
        campaign([idioms["mutex"]], [spec], iterations=iterations)


def test_campaign_default_budget_in_spec():
    assert SchedulerSpec(kind=SchedulerKind.UNFAIR_RANDOM).step_budget == DEFAULT_STEP_BUDGET


# The nine scheduler settings of the benchmark's layouts workload.
PINNED_BUDGET = 50_000
PINNED_SPECS = (
    SchedulerSpec(SchedulerKind.FAIR_ROUND_ROBIN, step_budget=PINNED_BUDGET),
    SchedulerSpec(SchedulerKind.UNFAIR_RANDOM, step_budget=PINNED_BUDGET),
    SchedulerSpec(SchedulerKind.HSA_PRIORITY, step_budget=PINNED_BUDGET),
    *(
        SchedulerSpec(kind, slots=slots, step_budget=PINNED_BUDGET)
        for kind in (SchedulerKind.OBE_NONPREEMPTIVE, SchedulerKind.LOBE_NONPREEMPTIVE)
        for slots in (1, 2, 4)
    ),
)


def test_simulate_outcomes_are_pinned(idioms):
    """Every outcome of the benchmark's layout runs, against a committed digest.

    A change to the simulator that alters any run (which thread steps,
    when a loop is proved, when the budget runs out) changes the digest.
    """
    rows = []
    for instances, iterations in ((1, 20), (4, 20), (64, 1)):
        for test in idioms.values():
            for variant in (Variant.CHUNKED, Variant.ROUND_ROBIN):
                layout = expand_layout(test, variant, instances)
                for spec in PINNED_SPECS:
                    for it in range(iterations):
                        seeded = replace(spec, seed=derive_seed(0, layout.name, spec, it))
                        o = simulate(layout, seeded)
                        rows.append(
                            [
                                layout.name, spec.kind.value, spec.slots, it,
                                o.terminated, o.steps_used, list(o.per_thread_steps),
                                o.nontermination_proved,
                            ]
                        )
    text = json.dumps(rows, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert len(rows) == 4428
    assert digest == GOLDEN.joinpath("simulate_outcomes.sha256").read_text().strip()


def _assert_layouts_match_naive(idioms, instances, specs, iterations):
    """Every idiom in both layouts under `specs`; returns the proved loops."""
    proved = 0
    for test in idioms.values():
        for variant in (Variant.CHUNKED, Variant.ROUND_ROBIN):
            layout = expand_layout(test, variant, instances)
            for spec in specs:
                for it in range(iterations):
                    seeded = replace(spec, seed=derive_seed(0, layout.name, spec, it))
                    outcome = simulate(layout, seeded)
                    assert outcome == RunOutcome(*naive_simulate(layout, seeded)), (
                        layout.name,
                        seeded,
                    )
                    proved += outcome.nontermination_proved
    return proved


@pytest.mark.parametrize("instances", [1, 4, 16])
def test_pinned_layouts_match_naive_reference(idioms, instances):
    assert _assert_layouts_match_naive(idioms, instances, PINNED_SPECS, iterations=3) > 0


def _pinned(kind, slots=1):
    [spec] = [s for s in PINNED_SPECS if (s.kind, s.slots) == (kind, slots)]
    return spec


LARGE_RUNS = [
    *(
        (name, _pinned(kind, slots))
        for name in ("mutex", "prodcons-decreasing")
        for kind, slots in (
            (SchedulerKind.FAIR_ROUND_ROBIN, 1),
            (SchedulerKind.LOBE_NONPREEMPTIVE, 1),
            (SchedulerKind.LOBE_NONPREEMPTIVE, 2),
            (SchedulerKind.OBE_NONPREEMPTIVE, 1),
        )
    ),
    ("dining", _pinned(SchedulerKind.OBE_NONPREEMPTIVE, 2)),  # the loop closes after 621 steps
]


@pytest.mark.parametrize(
    "name, spec", LARGE_RUNS, ids=[f"{n}-{s.kind.value}-{s.slots}" for n, s in LARGE_RUNS]
)
def test_large_chunked_layouts_match_naive_reference(idioms, name, spec):
    layout = expand_layout(idioms[name], Variant.CHUNKED, 256)
    seeded = replace(spec, seed=derive_seed(0, layout.name, spec, 0))
    assert simulate(layout, seeded) == RunOutcome(*naive_simulate(layout, seeded))


IDIOM_LAYOUTS = [
    expand_layout(parse_litmus(path.read_text(encoding="utf-8")), variant, 4)
    for path in sorted(IDIOM_DIR.glob("*.litmus"))
    for variant in (Variant.CHUNKED, Variant.ROUND_ROBIN)
]


@settings(max_examples=100, deadline=None)
@given(litmus_tests())
def test_state_numbers_are_exact(test):
    # A loop is proved by a repeated state number alone, so the
    # numbering must be injective on every reachable (memory, pcs).
    pc_weight, value_weight = schedsim._place_values(test)

    def number(memory, pcs):
        return sum(map(mul, pcs, pc_weight)) + sum(map(mul, memory, value_weight))

    initial = test.initial_state()
    assert number(initial.memory, initial.pcs) == 0
    states, _, _ = explore_plain(test)
    assert len({number(memory, pcs) for memory, pcs in states}) == len(states)


for _layout in IDIOM_LAYOUTS:
    test_state_numbers_are_exact = example(_layout)(test_state_numbers_are_exact)
