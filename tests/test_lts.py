"""State-space construction and component decomposition."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings

import naive
from progress_lab.axb import AxbInstruction, LitmusTest, step
from progress_lab.lts import (
    ExplorationLimitError,
    build_monitored_lts,
    build_plain_lts,
    scc_decompose,
)
from progress_lab.models import ProgressModel, fair_set, thread_ids
from strategies import litmus_tests

I = AxbInstruction

SPIN_FOREVER = LitmusTest("spin", 1, 1, ((I(0, 0, 0),),))


def test_mutex_plain_shape(idioms):
    lts = build_plain_lts(idioms["mutex"])
    assert len(lts.states) == 8
    assert len(lts.transitions) == 10
    assert len(lts.end_states) == 1
    self_loop_states = {tr.src for tr in lts.transitions if tr.src == tr.dst}
    assert len(self_loop_states) == 2


def test_idiom_sizes(idioms):
    from conftest import IDIOM_LTS_SIZES

    for name, (states, actions) in IDIOM_LTS_SIZES.items():
        lts = build_plain_lts(idioms[name])
        assert (len(lts.states), len(lts.transitions)) == (states, actions), name


def test_initial_state_is_index_zero(idioms):
    lts = build_plain_lts(idioms["mutex"])
    assert lts.initial == 0
    assert lts.states[0] == idioms["mutex"].initial_state()


def test_transition_labels_replay(idioms):
    from progress_lab.axb import step

    lts = build_plain_lts(idioms["bidirectional"])
    for tr in lts.transitions:
        assert step(idioms["bidirectional"], lts.states[tr.src], tr.tid) == lts.states[tr.dst]


def test_plain_has_no_fairness_info(idioms):
    lts = build_plain_lts(idioms["mutex"])
    assert lts.facts is None
    with pytest.raises(ValueError):
        lts.fair_sets(ProgressModel.OBE)


def test_monitored_tracks_stepped_and_fair(idioms):
    test = idioms["mutex"]
    lts = build_monitored_lts(build_plain_lts(test))
    assert lts.facts is not None
    assert lts.facts[lts.initial] == (0, 0)
    fair = lts.fair_sets(ProgressModel.OBE)
    for tr in lts.transitions:
        stepped, terminated = lts.facts[tr.src]
        assert fair[tr.src] == fair_set(ProgressModel.OBE, stepped, terminated, test.num_threads)
        assert lts.facts[tr.dst][0] == stepped | 1 << tr.tid


def test_monitored_merges_on_machine_and_stepped(idioms):
    # prodcons-increasing: after both threads stepped once each in either
    # order, machine and stepped coincide, so the states merge
    lts = build_monitored_lts(build_plain_lts(idioms["prodcons-increasing"]))
    keys = {(lts.states[i], lts.facts[i][0]) for i in range(len(lts.states))}
    assert len(keys) == len(lts.states)


def test_monitored_is_larger_than_plain(idioms):
    t = idioms["dining"]
    assert len(build_monitored_lts(build_plain_lts(t)).states) > len(
        build_plain_lts(t).states
    )


def test_exploration_limit():
    toggle = LitmusTest("toggle", 1, 2, ((I(0, 0, 0, exch=1),), (I(0, 1, 0, exch=0),)))
    with pytest.raises(ExplorationLimitError):
        build_plain_lts(toggle, max_states=1)
    # a space that fits the cap exactly is fine; the limit counts states,
    # not transitions
    lts = build_plain_lts(SPIN_FOREVER, max_states=1)
    assert len(lts.states) == 1
    assert len(lts.transitions) == 1
    # the monitored LTS counts its own states against the cap
    plain = build_plain_lts(toggle)
    mon = build_monitored_lts(plain)
    assert len(mon) > len(plain)
    with pytest.raises(ExplorationLimitError, match="monitored"):
        build_monitored_lts(plain, max_states=len(mon) - 1)
    assert len(build_monitored_lts(plain, max_states=len(mon))) == len(mon)


def both_kinds(test):
    plain = build_plain_lts(test)
    return {"plain": plain, "monitored": build_monitored_lts(plain)}


def test_out_lists_successors_in_thread_order(idioms):
    """Each state's successors are `(dst, tid)` pairs in ascending thread
    id, each the state thread `tid`'s step reaches, and `transitions`
    lays them out flat by source state, for every idiom and both LTS
    kinds."""
    for name, test in idioms.items():
        for kind, lts in both_kinds(test).items():
            assert len(lts.out) == len(lts)
            flat = [(si, dst, tid) for si, edges in enumerate(lts.out) for dst, tid in edges]
            assert [(tr.src, tr.dst, tr.tid) for tr in lts.transitions] == flat, (name, kind)
            for si, edges in enumerate(lts.out):
                tids = [tid for _, tid in edges]
                assert tids == sorted(set(tids)), (name, kind, si)
                for dst, tid in edges:
                    assert lts.states[dst] == step(test, lts.states[si], tid), (name, kind, si)


def test_end_states_are_the_states_without_out_edges(idioms):
    for name, test in idioms.items():
        for kind, lts in both_kinds(test).items():
            sources = {tr.src for tr in lts.transitions}
            assert lts.end_states == [s for s in range(len(lts)) if s not in sources], (name, kind)
            lengths = [len(p) for p in test.threads]
            for s in lts.end_states:
                assert all(pc >= n for pc, n in zip(lts.states[s].pcs, lengths)), (name, kind)


def test_state_budget_exact_fit_and_message(idioms):
    for name, test in idioms.items():
        lts = both_kinds(test)
        build = {
            "plain": lambda cap: build_plain_lts(test, max_states=cap),
            "monitored": lambda cap: build_monitored_lts(lts["plain"], max_states=cap),
        }
        for kind, full in lts.items():
            assert len(build[kind](len(full))) == len(full)
            with pytest.raises(ExplorationLimitError) as err:
                build[kind](len(full) - 1)
            assert str(err.value) == f"{kind} LTS of {name!r} exceeds {len(full) - 1} states"


def test_fair_set_constant_within_scc(idioms):
    for t in idioms.values():
        lts = build_monitored_lts(build_plain_lts(t))
        for model in (ProgressModel.HSA, ProgressModel.OBE, ProgressModel.LOBE,
                      ProgressModel.FAIR):
            fair = lts.fair_sets(model)
            for scc in scc_decompose(lts):
                fairs = {fair[i] for i in scc.members}
                assert len(fairs) == 1


def test_scc_partition_and_labels(idioms):
    lts = build_monitored_lts(build_plain_lts(idioms["mutex"]))
    sccs = scc_decompose(lts)
    seen = sorted(i for c in sccs for i in c.members)
    assert seen == list(range(len(lts.states)))
    for c in sccs:
        members = set(c.members)
        internal = [tr for tr in lts.transitions if tr.src in members and tr.dst in members]
        assert thread_ids(c.stepping) == sorted({tr.tid for tr in internal})
        assert c.nontrivial == bool(internal)
    # deterministic presentation: ascending by smallest member
    assert [min(c.members) for c in sccs] == sorted(min(c.members) for c in sccs)


@settings(max_examples=80, deadline=None)
@given(litmus_tests())
def test_scc_decompose_matches_mutual_reachability(t):
    """Components are the classes of mutual reachability, each ascending
    and ordered by smallest member; `stepping` and `nontrivial` read the
    edges with both ends inside, for both LTS kinds."""
    for kind, lts in both_kinds(t).items():
        reach = []
        for s in range(len(lts)):
            seen, stack = {s}, [s]
            while stack:
                for dst, _ in lts.out[stack.pop()]:
                    if dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
            reach.append(seen)
        classes = [
            tuple(r for r in sorted(reach[s]) if s in reach[r]) for s in range(len(lts))
        ]
        sccs = scc_decompose(lts)
        assert [c.members for c in sccs] == [c for s, c in enumerate(classes) if c[0] == s], kind
        for c in sccs:
            members = set(c.members)
            tids = {tr.tid for tr in lts.transitions if tr.src in members and tr.dst in members}
            assert thread_ids(c.stepping) == sorted(tids), kind
            assert c.nontrivial == bool(tids), kind


def test_self_loop_scc_is_nontrivial():
    lts = build_plain_lts(SPIN_FOREVER)
    sccs = scc_decompose(lts)
    assert len(sccs) == 1 and sccs[0].nontrivial


def test_two_state_cycle_is_one_scc():
    toggle = LitmusTest("toggle", 1, 2, ((I(0, 0, 0, exch=1), ), (I(0, 1, 0, exch=0),)))
    lts = build_plain_lts(toggle)
    nontrivial = [c for c in scc_decompose(lts) if c.nontrivial]
    assert len(nontrivial) == 1
    assert len(nontrivial[0].members) >= 2


def test_build_is_deterministic(idioms):
    a = build_monitored_lts(build_plain_lts(idioms["dining"]))
    b = build_monitored_lts(build_plain_lts(idioms["dining"]))
    assert a.states == b.states
    assert a.transitions == b.transitions
    assert a.end_states == b.end_states


def test_dot_and_json_renderings(idioms):
    plain = build_plain_lts(idioms["mutex"])
    dot = plain.to_dot()
    assert dot.startswith("digraph") and "s0" in dot and dot.count("->") == 10

    mon = build_monitored_lts(build_plain_lts(idioms["mutex"]))
    data = json.loads(mon.to_json(ProgressModel.HSA))
    assert data == mon.to_json_dict(ProgressModel.HSA)
    assert data["model"] == "hsa"
    assert len(data["states"]) == len(mon.states)
    assert len(data["transitions"]) == len(mon.transitions)
    assert data["initial"] == 0
    assert set(data["end_states"]) == set(mon.end_states)


def assert_monitored_matches_naive(test):
    """States, edge multiset, end states and terminated sets agree with the
    independent exploration in `naive.explore_monitored`, and every state's
    facts have terminated within stepped within the test's threads."""
    lts = build_monitored_lts(build_plain_lts(test))
    everyone = (1 << test.num_threads) - 1
    for stepped, terminated in lts.facts:
        assert terminated & ~stepped == 0 and stepped & ~everyone == 0
    keys = [
        (lts.states[i].memory, lts.states[i].pcs, frozenset(thread_ids(lts.facts[i][0])))
        for i in range(len(lts))
    ]
    nodes, adj, _ = naive.explore_monitored(test, "fair")
    assert len(set(keys)) == len(keys)
    assert set(keys) == nodes
    edges = Counter((keys[tr.src], keys[tr.dst], tr.tid) for tr in lts.transitions)
    assert edges == Counter((src, dst, t) for src, out in adj.items() for dst, t in out)
    lengths = [len(p) for p in test.threads]
    for i, (_, pcs, _) in enumerate(keys):
        done = frozenset(t for t, n in enumerate(lengths) if pcs[t] >= n)
        assert frozenset(thread_ids(lts.facts[i][1])) == done
    assert {keys[i] for i in lts.end_states} == {k for k in nodes if not adj[k]}


def test_monitored_agrees_with_naive_on_idioms_and_suites(idioms, suites):
    from conftest import capped_tests

    for test in idioms.values():
        assert_monitored_matches_naive(test)
    for bounds in ((2, 3), (3, 3)):
        for test in capped_tests(suites(*bounds), bounds):
            assert_monitored_matches_naive(test)


@settings(max_examples=80, deadline=None)
@given(litmus_tests())
def test_monitored_agrees_with_naive_on_random_tests(t):
    assert_monitored_matches_naive(t)
