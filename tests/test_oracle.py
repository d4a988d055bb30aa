"""Verdicts, witnesses, and agreement with the naive reference oracles."""

import dataclasses
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from conftest import IDIOM_PASSES
from progress_lab import classify, oracle
from progress_lab.axb import AxbInstruction, LitmusTest, MachineState, relabel_locations
from progress_lab.lts import ExplorationLimitError, build_monitored_lts, build_plain_lts
from progress_lab.models import (
    UNFAIR_VARIANT,
    Fairness,
    ProgressModel,
    all_model_variants,
    variant_token,
)
from progress_lab.oracle import (
    Verdict,
    Witness,
    WitnessKind,
    WitnessStep,
    check_matrix,
    format_witness,
    verify_witness,
)
from strategies import litmus_tests

I = AxbInstruction
WEAK, STRONG = Fairness.WEAK, Fairness.STRONG

MONITORED_MODELS = (
    ProgressModel.HSA,
    ProgressModel.OBE,
    ProgressModel.HSA_OBE,
    ProgressModel.LOBE,
    ProgressModel.FAIR,
)

ALWAYS_DONE = LitmusTest("done", 1, 2, ((I(0, 0, 1, exch=1),), (I(0, 1, 1),)))


def test_idiom_matrices_exact(idioms):
    for name, test in idioms.items():
        matrix = check_matrix(test)
        got = {tok for tok, v in matrix.items() if v.passed}
        assert got == IDIOM_PASSES[name], name


def test_matrix_column_order(idioms):
    matrix = check_matrix(idioms["mutex"])
    assert list(matrix) == [variant_token(v) for v in all_model_variants()]


def test_acyclic_test_passes_everything():
    matrix = check_matrix(ALWAYS_DONE)
    assert all(v.passed for v in matrix.values())


def test_matrix_column_read(idioms):
    matrix = check_matrix(idioms["prodcons-increasing"])
    assert matrix[variant_token(UNFAIR_VARIANT)].token == "fail"
    assert matrix[variant_token((ProgressModel.OBE, WEAK))].token == "fail"
    assert matrix[variant_token((ProgressModel.HSA, STRONG))].token == "pass"


def test_fail_verdict_requires_witness():
    with pytest.raises(ValueError):
        Verdict(False)
    assert Verdict(True).witness is None


def _count_witness_builds(monkeypatch):
    calls = []
    original = oracle._replay

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(oracle, "_replay", counting)
    return calls


def test_classify_builds_no_witness(idioms, suites, monkeypatch):
    from conftest import capped_tests

    calls = _count_witness_builds(monkeypatch)
    classify.classify_suite(idioms.values())
    classify.classify_suite(capped_tests(suites(2, 3), (2, 3)))
    assert calls == []


def test_witness_is_built_once_on_first_read(idioms, monkeypatch):
    calls = _count_witness_builds(monkeypatch)
    verdict = check_matrix(idioms["mutex"])[variant_token((ProgressModel.HSA, WEAK))]
    assert not verdict.passed and verdict.token == "fail"
    assert calls == []
    first = verdict.witness
    built = len(calls)
    assert built > 0  # a cycle witness formats its path and its cycle
    assert verdict.witness is first
    assert len(calls) == built


def test_verdict_with_a_builder_behaves_as_one_with_its_witness(idioms):
    fields = tuple(f.name for f in dataclasses.fields(Verdict))
    assert fields == ("passed", "witness")
    for tok, lazy in check_matrix(idioms["prodcons-decreasing"]).items():
        if lazy.passed:
            continue
        # Each comparison starts from a verdict whose witness is unbuilt.
        twin = check_matrix(idioms["prodcons-decreasing"])[tok]
        eager = Verdict(False, twin.witness)
        assert repr(lazy) == repr(eager)
        lazy = check_matrix(idioms["prodcons-decreasing"])[tok]
        assert lazy == eager and hash(lazy) == hash(eager)
        lazy = check_matrix(idioms["prodcons-decreasing"])[tok]
        assert dataclasses.asdict(lazy) == dataclasses.asdict(eager)
        lazy = check_matrix(idioms["prodcons-decreasing"])[tok]
        assert replace(lazy, passed=False) == eager
    with pytest.raises(dataclasses.FrozenInstanceError):
        eager.witness = None


MODEL_OF = {variant_token(v): v[0] for v in all_model_variants()}


class _Unreadable(list):
    """A state list whose length is all that may be read."""

    def __getitem__(self, index):
        raise AssertionError("read a monitored MachineState")

    def __iter__(self):
        raise AssertionError("iterated monitored MachineStates")


def test_oracle_reads_no_monitored_machine_state(idioms, suites, monkeypatch):
    from conftest import capped_tests

    build = oracle.build_monitored_lts

    def sealed(*args):
        lts = build(*args)
        lts.states = _Unreadable(lts.states)
        return lts

    monkeypatch.setattr(oracle, "build_monitored_lts", sealed)
    tests = list(idioms.values()) + capped_tests(suites(2, 3), (2, 3))
    fails = 0
    for test in tests:
        for tok, verdict in check_matrix(test).items():
            if not verdict.passed:
                verify_witness(test, MODEL_OF[tok], verdict.witness)
                fails += 1
    assert len(tests) == 934 and fails == 5517


def test_every_idiom_failure_verifies(idioms):
    fails = 0
    for test in idioms.values():
        for tok, verdict in check_matrix(test).items():
            if not verdict.passed:
                verify_witness(test, MODEL_OF[tok], verdict.witness)
                fails += 1
    assert fails == 66 - sum(len(passes) for passes in IDIOM_PASSES.values())


# Thread 0 spins on location 0 until thread 1 writes it and exits.
WAITER = LitmusTest("waiter", 1, 2, ((I(0, 0, 0),), (I(0, 1, 1, exch=1),)))


def _spin_step(fair):
    return WitnessStep(0, 0, WAITER.threads[0][0], frozenset(fair))


def test_verify_witness_checks_cycles_against_the_model():
    # Thread 0 alone spinning is an unfair run, but it starves thread 1
    # under full fairness.
    spin = Witness(WitnessKind.CYCLE, (), (_spin_step(()),))
    verify_witness(WAITER, ProgressModel.UNFAIR, spin)
    with pytest.raises(ValueError, match="fair set differs"):
        verify_witness(WAITER, ProgressModel.FAIR, spin)
    starving = Witness(WitnessKind.CYCLE, (), (_spin_step({0, 1}),))
    with pytest.raises(ValueError, match="skips a thread of its fair set"):
        verify_witness(WAITER, ProgressModel.FAIR, starving)
    # Under HSA only thread 0 is owed a step, and it takes it.
    verify_witness(WAITER, ProgressModel.HSA, Witness(WitnessKind.CYCLE, (), (_spin_step({0}),)))


def test_verify_witness_checks_stuck_states():
    start = WAITER.initial_state()
    # HSA owes only thread 0, which spins forever: stuck.
    verify_witness(WAITER, ProgressModel.HSA, Witness(WitnessKind.STUCK, (), (), start, frozenset({0})))
    # Full fairness owes thread 1 too, whose step lets thread 0 exit.
    with pytest.raises(ValueError, match="reaches an end"):
        verify_witness(
            WAITER, ProgressModel.FAIR, Witness(WitnessKind.STUCK, (), (), start, frozenset({0, 1}))
        )
    with pytest.raises(ValueError, match="reaches an end"):
        verify_witness(WAITER, ProgressModel.UNFAIR, Witness(WitnessKind.STUCK, (), (), start, frozenset()))


def _mutations(witness):
    """Hand-broken copies of `witness`, each of which must be rejected."""
    out = []
    field = "path" if witness.path else "cycle"
    steps = getattr(witness, field)
    if steps:
        first = steps[0]
        for bad in (
            replace(first, pc=first.pc + 1),
            replace(first, tid=first.tid + 1),
            replace(first, instr=replace(first.instr, cmp=1 - first.instr.cmp)),
            replace(first, fair_before=first.fair_before ^ {0}),
        ):
            out.append(replace(witness, **{field: (bad,) + steps[1:]}))
    if witness.path:
        out.append(replace(witness, path=witness.path[1:]))
    if witness.kind is WitnessKind.CYCLE:
        out.append(replace(witness, cycle=witness.cycle[:-1]))
        out.append(replace(witness, cycle=()))
    else:
        machine = witness.stuck_machine
        memory = (1 - machine.memory[0],) + machine.memory[1:]
        out.append(replace(witness, stuck_machine=replace(machine, memory=memory)))
        out.append(replace(witness, stuck_fair=witness.stuck_fair ^ {0}))
        out.append(replace(witness, kind=WitnessKind.CYCLE))
    return out


@pytest.mark.parametrize(
    "name, variant",
    [
        ("mutex", (ProgressModel.HSA, WEAK)),
        ("dining", (ProgressModel.FAIR, WEAK)),
        ("mutex", UNFAIR_VARIANT),
        ("prodcons-decreasing", (ProgressModel.HSA, STRONG)),
        ("prodcons-decreasing", (ProgressModel.OBE, STRONG)),
    ],
)
def test_verify_witness_rejects_mutated_witnesses(idioms, name, variant):
    test = idioms[name]
    witness = check_matrix(test)[variant_token(variant)].witness
    verify_witness(test, variant[0], witness)
    for bad in _mutations(witness):
        with pytest.raises(ValueError):
            verify_witness(test, variant[0], bad)


def test_every_idiom_failure_replays(idioms):
    for name, test in idioms.items():
        for tok, verdict in check_matrix(test).items():
            if verdict.passed:
                continue
            w = verdict.witness
            assert w is not None, (name, tok)
            if w.kind is WitnessKind.CYCLE:
                assert w.cycle, (name, tok)
            else:
                assert w.stuck_machine is not None
            naive.replay_witness(test, w)


def test_cycle_witness_covers_fair_set(idioms):
    w = check_matrix(idioms["mutex"])[variant_token((ProgressModel.HSA, WEAK))].witness
    assert w.kind is WitnessKind.CYCLE
    stepping = {s.tid for s in w.cycle}
    assert stepping >= w.cycle[0].fair_before
    # mutex under the lowest-id rule: the spinner it protects never exits
    assert w.cycle[0].fair_before == frozenset({0})


def test_stuck_witness_shape(idioms):
    v = check_matrix(idioms["prodcons-decreasing"])[variant_token((ProgressModel.HSA, STRONG))]
    assert not v.passed
    w = v.witness
    assert w.kind is WitnessKind.STUCK
    assert w.cycle == ()
    assert w.stuck_fair == frozenset({0})
    naive.replay_witness(idioms["prodcons-decreasing"], w)


def test_format_witness_rendering(idioms):
    cyc = check_matrix(idioms["dining"])[variant_token((ProgressModel.FAIR, WEAK))].witness
    text = format_witness(cyc)
    assert text.startswith("# path")
    assert "# cycle" in text
    assert "T0 pc=0 F={0,1}" in text or "T1 pc=0 F={0,1}" in text

    matrix = check_matrix(idioms["prodcons-decreasing"])
    stuck = matrix[variant_token((ProgressModel.OBE, STRONG))].witness
    text = format_witness(stuck)
    assert "# stuck state:" in text and "mem=" in text


def test_check_matrix_needs_the_tests_own_plain_lts(idioms):
    mutex = idioms["mutex"]
    for plain in (
        build_plain_lts(idioms["dining"]),
        build_monitored_lts(build_plain_lts(mutex)),
    ):
        with pytest.raises(ValueError, match="^check_matrix of 'mutex' needs that test's"):
            check_matrix(mutex, plain=plain)


def test_max_states_limit_propagates(idioms):
    with pytest.raises(ExplorationLimitError):
        check_matrix(idioms["mutex"], max_states=2)


def test_matrix_is_deterministic(idioms):
    t = idioms["bidirectional"]
    a = {k: v.token for k, v in check_matrix(t).items()}
    b = {k: v.token for k, v in check_matrix(t).items()}
    assert a == b


@settings(max_examples=60, deadline=None)
@given(litmus_tests(max_threads=2, max_instructions=2))
def test_weak_pass_implies_strong_pass(t):
    matrix = check_matrix(t)
    for model in MONITORED_MODELS:
        if matrix[variant_token((model, WEAK))].passed:
            assert matrix[variant_token((model, STRONG))].passed, model.value


@settings(max_examples=60, deadline=None)
@given(litmus_tests(max_threads=2, max_instructions=2))
def test_monotone_along_model_chain(t):
    matrix = check_matrix(t)
    weak = {m: matrix[variant_token((m, WEAK))].passed for m in MONITORED_MODELS}
    strong = {m: matrix[variant_token((m, STRONG))].passed for m in MONITORED_MODELS}
    unfair = matrix[variant_token(UNFAIR_VARIANT)].passed
    # containment along unfair < hsa/obe < hsa+obe < lobe < fair, per flavor
    for table in (weak, strong):
        if unfair:
            assert table[ProgressModel.HSA] and table[ProgressModel.OBE]
        for low in (ProgressModel.HSA, ProgressModel.OBE):
            if table[low]:
                assert table[ProgressModel.HSA_OBE]
                assert table[ProgressModel.LOBE]
        if table[ProgressModel.HSA_OBE]:
            assert table[ProgressModel.LOBE]
        if table[ProgressModel.LOBE]:
            assert table[ProgressModel.FAIR]


@settings(max_examples=40, deadline=None)
@given(litmus_tests(max_threads=2, max_instructions=2))
def test_agreement_with_naive_oracles(t):
    matrix = check_matrix(t)
    assert matrix[variant_token(UNFAIR_VARIANT)].passed == (not naive.naive_unfair_fails(t))
    for model in MONITORED_MODELS:
        assert matrix[variant_token((model, WEAK))].passed == (
            not naive.naive_weak_fails(t, model.value)
        ), ("weak", model.value)
        assert matrix[variant_token((model, STRONG))].passed == (
            not naive.naive_strong_fails(t, model.value)
        ), ("strong", model.value)


@settings(max_examples=40, deadline=None)
@given(litmus_tests(max_threads=3, max_instructions=2), st.sampled_from(MONITORED_MODELS))
def test_random_failures_replay(t, model):
    matrix = check_matrix(t)
    for verdict in (matrix[variant_token((model, f))] for f in (WEAK, STRONG)):
        if not verdict.passed:
            naive.replay_witness(t, verdict.witness)


def _naive_fails(test):
    """The naive reference's verdict of every matrix column, True on fail,
    keyed by variant token; the weak and strong checks of a model share
    one exploration."""
    fails = {variant_token(UNFAIR_VARIANT): naive.naive_unfair_fails(test)}
    for model in MONITORED_MODELS:
        explored = naive.explore_monitored(test, model.value)
        fails[variant_token((model, WEAK))] = naive.naive_weak_fails(test, model.value, explored)
        fails[variant_token((model, STRONG))] = naive.naive_strong_fails(
            test, model.value, explored
        )
    return fails


def test_matrix_agrees_with_naive_on_capped_suites(suites):
    from conftest import capped_tests

    tokens = [variant_token(v) for v in all_model_variants()]
    for bounds in ((2, 2), (2, 3), (3, 3)):
        for test in capped_tests(suites(*bounds), bounds):
            matrix = check_matrix(test)
            fails = _naive_fails(test)
            for token in tokens:
                assert matrix[token].passed == (not fails[token]), (bounds, test.name, token)
                if bounds == (3, 3) and fails[token]:
                    naive.replay_witness(test, matrix[token].witness)


def test_all_bounds_rows_agree_with_naive_on_larger_suites(suites, all_bounds_report):
    """Every column of the session classification's row for each (3,4)
    and (2,4) location-orbit representative (the first capped test of its
    `canonicalize` key in suite order) equals the naive checks."""
    from conftest import capped_tests
    from progress_lab.synth import canonicalize

    tokens = [variant_token(v) for v in all_model_variants()]
    checked = 0
    for bounds in ((3, 4), (2, 4)):
        seen = set()
        for test in capped_tests(suites(*bounds), bounds):
            key = canonicalize(test)
            if key in seen:
                continue
            seen.add(key)
            row = all_bounds_report.matrix[f"b{bounds[0]}{bounds[1]}-{test.name}"]
            assert len(row) == len(tokens)
            fails = _naive_fails(test)
            for token in tokens:
                assert row[token] == (not fails[token]), (bounds, test.name, token)
            checked += 1
    assert checked == 11_828  # 2,313 at (3,4) and 9,515 at (2,4)


def _relabeled_witness(witness, perm):
    """`witness` as its test's location relabeling `perm` reports it:
    every step's instruction location and the stuck memory permuted."""

    def step(s):
        return replace(s, instr=replace(s.instr, loc=perm[s.instr.loc]))

    stuck = witness.stuck_machine
    if stuck is not None:
        memory = [0] * len(stuck.memory)
        for loc, value in enumerate(stuck.memory):
            memory[perm[loc]] = value
        stuck = MachineState(tuple(memory), stuck.pcs)
    return replace(
        witness,
        path=tuple(map(step, witness.path)),
        cycle=tuple(map(step, witness.cycle)),
        stuck_machine=stuck,
    )


def test_location_twins_get_the_same_verdicts_and_witnesses(suites):
    """Relabeling locations maps the plain and monitored LTS onto
    isomorphic ones with the same state numbering: memory starts all
    zero and fair sets depend only on threads.  So every column matches,
    and each fail witness maps through the relabeling."""
    from conftest import capped_tests

    pairs = 0
    for bounds in ((2, 3), (3, 3)):
        for test in capped_tests(suites(*bounds), bounds):
            perm = tuple(reversed(range(test.num_locations)))
            twin = replace(test, threads=relabel_locations(test.threads, perm))
            expected = {
                tok: v if v.passed else replace(v, witness=_relabeled_witness(v.witness, perm))
                for tok, v in check_matrix(test).items()
            }
            assert check_matrix(twin) == expected, (bounds, test.name)
            pairs += 1
    assert pairs == 928 + 192


def test_one_monitored_exploration_per_check(idioms, monkeypatch):
    from progress_lab import oracle

    calls = {"build_monitored_lts": 0, "scc_decompose": 0}

    def counting(name):
        original = getattr(oracle, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counting(name))
    tests = list(idioms.values())
    for test in tests:
        check_matrix(test)
    assert calls == {"build_monitored_lts": len(tests), "scc_decompose": 2 * len(tests)}


def test_one_fair_set_per_monitored_state_and_model(idioms, monkeypatch):
    # The benchmark's tracer counts fair sets by wrapping
    # `progress_lab.lts.fair_set`, so `Lts.fair_sets` must look it up
    # there once per state; an inlined rule would read 0 there.
    from progress_lab import lts

    calls = 0
    original = lts.fair_set

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(lts, "fair_set", counting)
    for name, test in idioms.items():
        states = len(build_monitored_lts(build_plain_lts(test)))
        calls = 0
        check_matrix(test)
        assert calls == len(MONITORED_MODELS) * states, name


def _naive_graph(test, model):
    """The naive reference's graph for `model`'s column as its root and
    `{node: [(dst, tid), ...]}`: plain (mem, pcs) nodes for unfair, whose
    verdict is decided on the plain LTS, and (mem, pcs, stepped) nodes
    for a monitored model."""
    if model is ProgressModel.UNFAIR:
        nodes, edges, _ = naive.explore_plain(test)
        adj = {node: [] for node in nodes}
        for src, dst, tid, *_ in edges:
            adj[src].append((dst, tid))
        root = ((0,) * test.num_locations, (0,) * test.num_threads)
    else:
        _, adj, _ = naive.explore_monitored(test, model.value)
        root = ((0,) * test.num_locations, (0,) * test.num_threads, frozenset())
    return root, adj


def _replay_nodes(test, steps, node):
    """The naive nodes a run of witness steps visits after `node`."""
    visited = []
    for s in steps:
        assert node[1][s.tid] == s.pc
        mem, pcs, _ = naive.naive_step(test.threads, node[0], node[1], s.tid)
        node = (mem, pcs) if len(node) == 2 else (mem, pcs, node[2] | {s.tid})
        visited.append(node)
    return visited


def _reach(adj, start):
    seen, stack = {start}, [start]
    while stack:
        for dst, _ in adj[stack.pop()]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


@settings(max_examples=100, deadline=None)
@given(litmus_tests(max_threads=3, max_instructions=2))
def test_witness_paths_are_shortest(t):
    """A stuck witness's path is as long as the distance to its stuck
    node; a cycle witness's path is as long as the least distance to any
    node of its entry's strongly connected component, and its cycle stays
    inside that component.  Distances are breadth-first in the naive
    reference's graph."""
    matrix = check_matrix(t)
    for model, flavor in all_model_variants():
        witness = matrix[variant_token((model, flavor))].witness
        if witness is None:
            continue
        verify_witness(t, model, witness)
        root, adj = _naive_graph(t, model)
        dist = {root: 0}
        queue = [root]
        for node in queue:
            for dst, _ in adj[node]:
                if dst not in dist:
                    dist[dst] = dist[node] + 1
                    queue.append(dst)
        end = ([root] + _replay_nodes(t, witness.path, root))[-1]
        if witness.kind is WitnessKind.STUCK:
            assert len(witness.path) == dist[end], (model, flavor)
            continue
        component = {v for v in _reach(adj, end) if end in _reach(adj, v)}
        assert len(witness.path) == min(dist[v] for v in component), (model, flavor)
        cycle = _replay_nodes(t, witness.cycle, end)
        assert cycle[-1] == end and set(cycle) <= component, (model, flavor)
