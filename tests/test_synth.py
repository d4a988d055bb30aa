"""Bounded enumeration: constraints, dedup, determinism, and counts."""

import itertools

import pytest

import naive
from conftest import IDIOM_LTS_SIZES, SUITE_CANDIDATES, SUITE_CAPS, SUITE_UNIQUE
from progress_lab.axb import AxbInstruction, LitmusTest
from progress_lab.litmus_io import serialize_body
from progress_lab.lts import build_plain_lts
from progress_lab.models import UNFAIR_VARIANT, Fairness, ProgressModel, variant_token
from progress_lab.oracle import check_matrix
from progress_lab.synth import (
    SynthConfig,
    _check_candidate,
    _orbit_size,
    _representatives,
    _tables,
    _thread_orders,
    canonicalize,
    compositions,
    synthesize,
)

I = AxbInstruction


def test_compositions():
    assert compositions(2, 2) == [(1, 1)]
    assert compositions(4, 2) == [(1, 3), (2, 2), (3, 1)]
    assert compositions(3, 3) == [(1, 1, 1)]
    assert compositions(3, 1) == [(3,)]


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(num_threads=0, total_instructions=2)
    with pytest.raises(ValueError):
        SynthConfig(num_threads=3, total_instructions=2)  # someone gets nothing
    with pytest.raises(ValueError):
        SynthConfig(num_threads=2, total_instructions=2, num_locations=0)
    with pytest.raises(ValueError):
        SynthConfig(num_threads=2, total_instructions=2, jobs=0)


@pytest.fixture(scope="module")
def small(suites):
    return suites(2, 2)


def test_candidate_count_and_accounting(small):
    stats = small.stats
    assert stats.candidates == SUITE_CANDIDATES[(2, 2)]
    assert stats.unique == SUITE_UNIQUE[(2, 2)] == len(small.tests)
    assert stats.candidates == sum(stats.rejected.values()) + stats.unique + stats.duplicates
    assert stats.elapsed_seconds >= 0


def test_known_unique_counts(suites):
    assert suites(2, 3).stats.unique == SUITE_UNIQUE[(2, 3)]
    assert suites(3, 3).stats.unique == SUITE_UNIQUE[(3, 3)]


def test_lts_sizes_accompany_tests(suites):
    # (2,3) mixes thread lengths (1,2) and (2,1), so each pc multiplier
    # of the packed states is exercised
    for bounds in ((2, 2), (2, 3)):
        result = suites(*bounds)
        assert len(result.lts_sizes) == len(result.tests) == SUITE_UNIQUE[bounds]
        for t, (states, actions) in zip(result.tests, result.lts_sizes):
            lts = build_plain_lts(t)
            assert (len(lts.states), len(lts.transitions)) == (states, actions)


def test_names_follow_sorted_bodies(small):
    names = [t.name for t in small.tests]
    assert names == sorted(names)
    assert names[0] == "t000"
    bodies = [serialize_body(t.threads, t.num_locations, t.value_domain) for t in small.tests]
    assert bodies == sorted(bodies)


def test_every_output_satisfies_naive_constraints(small):
    for t in small.tests:
        assert naive.naive_constraints_ok(t), t.name


def test_outputs_are_progress_tests(suites):
    # the defining property: would terminate under strong fairness, might
    # not without any guarantee
    for t in suites(2, 3).tests:
        matrix = check_matrix(t)
        assert matrix[variant_token((ProgressModel.FAIR, Fairness.STRONG))].passed
        assert not matrix[variant_token(UNFAIR_VARIANT)].passed


def test_syntactic_fallthrough_restriction(suites):
    for t in suites(2, 3).tests:
        for prog in t.threads:
            for idx, ins in enumerate(prog):
                if ins.jump == idx + 1:
                    assert ins.cmp == 0


def test_recall_of_known_idioms(small, idioms):
    bodies = {serialize_body(t.threads, 2, 2) for t in small.tests}
    for name in ("prodcons-increasing", "prodcons-decreasing", "dining"):
        assert serialize_body(idioms[name].threads, 2, 2) in bodies, name


def test_determinism(small):
    again = synthesize(SynthConfig(num_threads=2, total_instructions=2))
    assert [t.threads for t in again.tests] == [t.threads for t in small.tests]
    assert again.lts_sizes == small.lts_sizes


def test_parallel_equals_serial(suites):
    # (3,3) is the first bound with three equal-length threads, so an
    # orbit representative's nondecreasing program indices span slices.
    for bounds in ((2, 2), (2, 3), (3, 3)):
        serial = suites(*bounds)
        par = synthesize(SynthConfig(*bounds, jobs=2))
        assert [t.threads for t in par.tests] == [t.threads for t in serial.tests]
        assert par.lts_sizes == serial.lts_sizes
        counters = [r.stats.to_json_dict() for r in (par, serial)]
        for c in counters:
            del c["elapsed_seconds"]
        assert counters[0] == counters[1]
        assert 0 < serial.stats.explored < serial.stats.candidates


def test_size_caps_reject_and_match_filtering(small):
    capped = synthesize(
        SynthConfig(num_threads=2, total_instructions=2, max_states=3, max_actions=3)
    )
    assert capped.stats.rejected["lts_bounds_exceeded"] > 0
    expected = {
        t.threads
        for t, (s, a) in zip(small.tests, small.lts_sizes)
        if s <= 3 and a <= 3
    }
    assert {t.threads for t in capped.tests} == expected


def test_symmetry_reduction_halves_single_location_suite(small):
    reduced = synthesize(
        SynthConfig(num_threads=2, total_instructions=2, symmetry_reduction=True)
    )
    # every (2,2) survivor lives on one location, so its twin collapses
    assert len(reduced.tests) == len(small.tests) // 2
    canon = {canonicalize(t) for t in small.tests}
    bodies = {serialize_body(t.threads, t.num_locations, t.value_domain) for t in reduced.tests}
    assert bodies == canon


def test_canonicalize_maps_twins_together():
    a = LitmusTest("a", 2, 2, ((I(0, 0, 1, 1),), (I(0, 0, 0, None),)))
    b = LitmusTest("b", 2, 2, ((I(1, 0, 1, 1),), (I(1, 0, 0, None),)))
    assert serialize_body(a.threads, 2, 2) != serialize_body(b.threads, 2, 2)
    assert canonicalize(a) == canonicalize(b)
    # names never matter
    assert canonicalize(a) == canonicalize(LitmusTest("other", 2, 2, b.threads))


def _production_check(test):
    """`_check_candidate` on `test`, with its input built by `_tables`."""
    comp = tuple(len(p) for p in test.threads)
    vl, lanes, positions = _tables(comp, test.num_locations, test.value_domain)
    cand = tuple(
        next(e for e in entries if e[0] == prog)
        for entries, prog in zip(positions, test.threads)
    )
    return _check_candidate(cand, vl, lanes, None, None)


APART = LitmusTest(
    "apart", 2, 2,
    ((I(0, 0, 0, 1), I(0, 1, 0, 0)), (I(1, 0, 0, 1), I(1, 1, 0, 0))),
)


def test_checker_on_idioms(idioms):
    for name, t in idioms.items():
        assert _production_check(t) == (None, *IDIOM_LTS_SIZES[name]), name
    # no thread influences the other, so neither can ever finish
    assert _production_check(APART) == ("end_unreachable", 9, 18)


def test_influence_examples(idioms):
    assert naive.naive_influence(idioms["mutex"])
    assert naive.naive_influence(idioms["prodcons-increasing"])
    assert not naive.naive_influence(APART)


def test_brute_force_equivalence_3_3(suites):
    got = {t.threads for t in suites(3, 3).tests}
    want, candidates = naive.naive_synthesize(
        3, 3, lambda combo, L, V: LitmusTest("x", L, V, tuple(combo)), AxbInstruction
    )
    assert candidates == SUITE_CANDIDATES[(3, 3)]
    assert got == want


def test_checker_agrees_with_naive_on_whole_spaces():
    # Every candidate of the (2,2) and (3,3) spaces, built as _span_worker
    # builds it but without the syntactic prefilter, so the semantic
    # checker alone must reproduce the naive acceptance filter.
    checked = 0
    for threads, instrs in ((2, 2), (3, 3)):
        for comp in compositions(instrs, threads):
            vl, lanes, positions = _tables(comp, 2, 2)
            for cand in itertools.product(*positions):
                checked += 1
                t = LitmusTest("x", 2, 2, tuple(c[0] for c in cand))
                accepted = _check_candidate(cand, vl, lanes, None, None)[0] is None
                assert accepted == naive.naive_constraints_ok(t), t.threads
                # Why the checker needs no semantic influence pass: an
                # end and a cycle together imply influence.
                _, _, ends = naive.explore_plain(t)
                if ends and naive.naive_unfair_fails(t):
                    assert naive.naive_influence(t), t.threads
    assert checked == SUITE_CANDIDATES[(2, 2)] + SUITE_CANDIDATES[(3, 3)]


def test_thread_permutations_share_verdicts():
    # Permuting a candidate's threads permutes the pc lanes of its plain
    # LTS, so every candidate of the whole (2,3) and (3,3) spaces, built
    # as _span_worker builds it, must get the verdict and LTS size of its
    # permutation into the sorted composition.
    checked = 0
    for bounds in ((2, 3), (3, 3)):
        comps = compositions(bounds[1], bounds[0])
        tables = {comp: _tables(comp, 2, 2) for comp in comps}

        def verdict(comp, idx):
            vl, lanes, positions = tables[comp]
            cand = tuple(positions[k][i] for k, i in enumerate(idx))
            return _check_candidate(cand, vl, lanes, *SUITE_CAPS[bounds])

        sorted_verdicts = {}
        for comp in comps:
            for idx in itertools.product(*(range(len(p)) for p in tables[comp][2])):
                checked += 1
                key = tuple(sorted(zip(comp, idx)))
                if key not in sorted_verdicts:
                    sorted_verdicts[key] = verdict(*zip(*key))
                assert verdict(comp, idx) == sorted_verdicts[key], (comp, idx)
    assert checked == SUITE_CANDIDATES[(2, 3)] + SUITE_CANDIDATES[(3, 3)]


def test_representatives_cover_every_candidate_once():
    # Expanding each orbit representative into its distinct thread
    # permutations gives the whole candidate space, each candidate once.
    for bounds in ((2, 2), (2, 3), (3, 3)):
        comps = compositions(bounds[1], bounds[0])
        counts = {comp: [len(p) for p in _tables(comp, 2, 2)[2]] for comp in comps}
        space = [
            tuple(zip(comp, idx))
            for comp in comps
            for idx in itertools.product(*map(range, counts[comp]))
        ]
        expanded = []
        orbits = 0
        for comp in comps:
            if list(comp) != sorted(comp, reverse=True):
                continue
            for idx in _representatives(comp, counts[comp], 0, counts[comp][0]):
                keys = tuple(zip(comp, idx))
                orders = _thread_orders(comp, idx)
                assert len(orders) == _orbit_size(comp, idx), keys
                orbits += len(orders)
                expanded += [tuple(keys[k] for k in order) for order in orders]
        assert sorted(expanded) == sorted(space)
        assert orbits == len(space) == SUITE_CANDIDATES[bounds]
