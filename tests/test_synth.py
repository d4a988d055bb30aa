"""Bounded enumeration: constraints, dedup, determinism, and counts."""

import itertools

import pytest

import naive
from conftest import IDIOM_LTS_SIZES, SUITE_CANDIDATES, SUITE_CAPS, SUITE_UNIQUE
from progress_lab.axb import AxbInstruction, LitmusTest, relabel_locations
from progress_lab.litmus_io import serialize_body
from progress_lab.lts import build_plain_lts
from progress_lab.models import UNFAIR_VARIANT, Fairness, ProgressModel, variant_token
from progress_lab.oracle import check_matrix
from progress_lab.synth import (
    SynthConfig,
    _check_candidate,
    _orbit_members,
    _orbit_representatives,
    _tables,
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
    assert compositions(5, 3) == [
        (1, 1, 3), (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1),
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(num_threads=0, total_instructions=2)
    with pytest.raises(ValueError):
        SynthConfig(num_threads=3, total_instructions=2)  # someone gets nothing
    with pytest.raises(ValueError):
        SynthConfig(num_threads=2, total_instructions=2, num_locations=0)
    with pytest.raises(ValueError):
        SynthConfig(num_threads=2, total_instructions=2, jobs=0)


@pytest.mark.parametrize("bound", ["max_states", "max_actions"])
def test_pruning_bounds_must_be_positive(bound):
    with pytest.raises(ValueError, match="^pruning bounds must be positive$"):
        SynthConfig(2, 2, **{bound: 0})


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
    # Every member of an orbit comes from its representative's slice; with
    # symmetry reduction, members sharing a canonical body are duplicates.
    runs = [
        (suites(*bounds), SynthConfig(*bounds, jobs=2))
        for bounds in ((2, 2), (2, 3), (3, 3))
    ]
    for bounds in ((2, 3), (3, 3)):
        serial = synthesize(SynthConfig(*bounds, symmetry_reduction=True))
        runs.append((serial, SynthConfig(*bounds, symmetry_reduction=True, jobs=2)))
    # At three locations a representative's location images start with
    # first-thread programs of other slices.
    serial = synthesize(SynthConfig(3, 3, num_locations=3))
    runs.append((serial, SynthConfig(3, 3, num_locations=3, jobs=2)))
    for serial, config in runs:
        par = synthesize(config)
        assert [t.threads for t in par.tests] == [t.threads for t in serial.tests]
        assert par.lts_sizes == serial.lts_sizes
        counters = [r.stats.to_json_dict() for r in (par, serial)]
        for c in counters:
            del c["elapsed_seconds"]
        assert counters[0] == counters[1]
        assert 0 < serial.stats.explored < serial.stats.candidates
        if config.symmetry_reduction:
            assert serial.stats.duplicates > 0


def test_every_candidate_is_rejected_kept_or_a_duplicate(suites):
    runs = [suites(*bounds) for bounds in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))]
    runs += [
        synthesize(SynthConfig(*bounds, symmetry_reduction=True)) for bounds in ((2, 3), (3, 3))
    ]
    for result in runs:
        stats = result.stats
        assert stats.candidates - sum(stats.rejected.values()) == stats.unique + stats.duplicates


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


def test_symmetry_reduction_keeps_one_test_per_location_orbit(suites):
    # With one or two jobs, a reduced run keeps exactly the canonical
    # bodies of the full suite, each with its orbit's LTS size, and counts
    # the same candidates, checks and rejections as the full run.
    for bounds, nl in (((2, 3), 2), ((2, 3), 3), ((3, 3), 2), ((3, 3), 3), ((2, 3), 5)):
        full = suites(*bounds) if nl == 2 else synthesize(SynthConfig(*bounds, num_locations=nl))
        sizes = {}
        for t, size in zip(full.tests, full.lts_sizes):
            assert sizes.setdefault(canonicalize(t), size) == size, t.name
        for jobs in (1, 2):
            config = SynthConfig(*bounds, num_locations=nl, symmetry_reduction=True, jobs=jobs)
            reduced = synthesize(config)
            bodies = [serialize_body(t.threads, nl, 2) for t in reduced.tests]
            assert bodies == sorted(sizes), config
            assert list(reduced.lts_sizes) == [sizes[b] for b in bodies], config
            for key in ("candidates", "explored", "rejected"):
                assert getattr(reduced.stats, key) == getattr(full.stats, key), (config, key)


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


def _prefilter_reason(cand):
    """The syntactic prefilter `_span_worker` applies before checking, from
    each program's `_program_props`: its rejection reason, or None."""
    props = [c[2] for c in cand]
    if not any(p[0] for p in props):
        return "no_nontermination_cycle"
    written = twice = 0
    for p in props:
        twice |= written & p[2]
        written |= p[2]
    if any(p[1] & (twice | (written & ~p[2])) for p in props):
        return None
    return "no_cross_thread_influence"


def test_location_relabelings_share_verdicts():
    # Memory starts all zero, so renaming locations maps a candidate's
    # plain LTS onto an isomorphic one.  Every candidate of the whole
    # (2,3) and (3,3) spaces, at 2 and at 3 locations, built as
    # _span_worker builds it, must get the prefilter outcome, verdict and
    # LTS size of each of its location relabelings.
    checked = 0
    for bounds in ((2, 3), (3, 3)):
        for nl in (2, 3):
            for comp in compositions(bounds[1], bounds[0]):
                vl, lanes, positions = _tables(comp, nl, 2)
                index = [{e[0]: i for i, e in enumerate(p)} for p in positions]
                # relabeled[perm][k][i]: the index of program i of thread k
                # with its locations renamed by perm
                relabeled = [
                    [
                        [index[k][relabel_locations((e[0],), perm)[0]] for e in p]
                        for k, p in enumerate(positions)
                    ]
                    for perm in itertools.permutations(range(nl))
                ]
                verdicts = {}
                for idx in itertools.product(*(range(len(p)) for p in positions)):
                    cand = tuple(p[i] for p, i in zip(positions, idx))
                    verdicts[idx] = (
                        _prefilter_reason(cand),
                        _check_candidate(cand, vl, lanes, *SUITE_CAPS[bounds]),
                    )
                for idx, verdict in verdicts.items():
                    checked += 1
                    for tables in relabeled:
                        image = tuple(t[i] for t, i in zip(tables, idx))
                        assert verdicts[image] == verdict, (nl, comp, idx, image)
    # 2 locations: the frozen spaces; 3 locations: 109,350 and 19,683
    assert checked == SUITE_CANDIDATES[(2, 3)] + SUITE_CANDIDATES[(3, 3)] + 109_350 + 19_683


def test_representatives_cover_every_candidate_once():
    # Expanding each orbit representative into its members gives the
    # whole candidate space, each candidate once, starting with the
    # representative, and the orbit size _span_worker credits is the
    # member count.
    for nl in (2, 3):
        for bounds in ((2, 2), (2, 3), (3, 3)):
            comps = compositions(bounds[1], bounds[0])
            counts = {comp: [len(p) for p in _tables(comp, nl, 2)[2]] for comp in comps}
            space = [
                tuple(zip(comp, idx))
                for comp in comps
                for idx in itertools.product(*map(range, counts[comp]))
            ]
            expanded = []
            credited = 0
            for comp in comps:
                if list(comp) != sorted(comp, reverse=True):
                    continue
                for idx, size in _orbit_representatives(comp, nl, 2, 0, counts[comp][0]):
                    members = [
                        tuple((comp[k], i) for k, i in m)
                        for m in _orbit_members(comp, idx, nl, 2)
                    ]
                    assert members[0] == tuple(zip(comp, idx)), (comp, idx)
                    assert len(members) == size, (comp, idx)
                    credited += size
                    expanded += members
            assert sorted(expanded) == sorted(space), (nl, bounds)
            assert credited == len(space)
            if nl == 2:
                assert credited == SUITE_CANDIDATES[bounds]
