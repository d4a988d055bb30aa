"""Deliberately naive re-implementations used as independent oracles.

Nothing here imports algorithmic code from the package; only the plain
data carriers (instructions, tests) are shared. Everything is transcribed
from the model definitions a second time, in the most literal style, so
agreement between this module and the package is meaningful evidence.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

INIT_TAG = "init"


# ---------------------------------------------------------------- semantics


def naive_step(threads, mem, pcs, tid):
    """One step of thread `tid`; returns (mem', pcs', taken)."""
    ins = threads[tid][pcs[tid]]
    taken = mem[ins.loc] == ins.cmp
    pcs = list(pcs)
    pcs[tid] = ins.jump if taken else pcs[tid] + 1
    mem = list(mem)
    if ins.exch is not None:
        mem[ins.loc] = ins.exch
    return tuple(mem), tuple(pcs), taken


def alive_threads(threads, pcs):
    return [t for t in range(len(threads)) if pcs[t] < len(threads[t])]


def explore_plain(test):
    """All reachable (mem, pcs) nodes and labeled edges, breadth first."""
    threads = test.threads
    init = ((0,) * test.num_locations, tuple(0 for _ in threads))
    nodes = {init}
    edges = []  # (src, dst, tid, idx, taken)
    queue = deque([init])
    while queue:
        mem, pcs = queue.popleft()
        for t in alive_threads(threads, pcs):
            idx = pcs[t]
            mem2, pcs2, taken = naive_step(threads, mem, pcs, t)
            dst = (mem2, pcs2)
            edges.append(((mem, pcs), dst, t, idx, taken))
            if dst not in nodes:
                nodes.add(dst)
                queue.append(dst)
    ends = {n for n in nodes if not alive_threads(threads, n[1])}
    return nodes, edges, ends


# ------------------------------------------------------------- fairness sets


def naive_fair(model, stepped, terminated, num_threads):
    alive = [t for t in range(num_threads) if t not in terminated]
    if model == "unfair":
        return frozenset()
    if model == "fair":
        return frozenset(alive)
    if model == "obe":
        return frozenset(t for t in stepped if t not in terminated)
    if model == "hsa":
        return frozenset([min(alive)]) if alive else frozenset()
    if model == "lobe":
        return frozenset(t for t in alive if any(t <= s for s in stepped))
    if model == "hsa+obe":
        return naive_fair("hsa", stepped, terminated, num_threads) | naive_fair(
            "obe", stepped, terminated, num_threads
        )
    raise ValueError(model)


def explore_monitored(test, model):
    """Nodes (mem, pcs, stepped) with per-node fair sets and labeled edges."""
    threads = test.threads
    n = len(threads)
    init = ((0,) * test.num_locations, tuple(0 for _ in threads), frozenset())
    nodes = {init}
    adj = {init: []}
    queue = deque([init])
    while queue:
        node = queue.popleft()
        mem, pcs, stepped = node
        for t in alive_threads(threads, pcs):
            mem2, pcs2, _ = naive_step(threads, mem, pcs, t)
            dst = (mem2, pcs2, stepped | {t})
            adj[node].append((dst, t))
            if dst not in nodes:
                nodes.add(dst)
                adj[dst] = []
                queue.append(dst)
    fair = {}
    for node in nodes:
        _, pcs, stepped = node
        terminated = frozenset(t for t in range(n) if pcs[t] >= len(threads[t]))
        fair[node] = naive_fair(model, stepped, terminated, n)
    return nodes, adj, fair


# ------------------------------------------------------------------ verdicts


def naive_unfair_fails(test):
    """Any reachable cycle at all means the unfair model cannot promise an end."""
    nodes, edges, _ = explore_plain(test)
    succ = {n: [] for n in nodes}
    for src, dst, *_ in edges:
        succ[src].append(dst)
    color = dict.fromkeys(nodes, 0)  # 0 new, 1 on stack, 2 done
    for root in nodes:
        if color[root]:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return True
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def naive_weak_fails(test, model, explored=None):
    """Search for a closed walk on which every guaranteed thread steps.

    For each node s with fair set F, walk the product (node, subset of F
    stepped so far); reaching (s, F) again after at least one step is a
    schedule that honors weak fairness yet never terminates.  `explored`
    may hand in `explore_monitored(test, model)`'s result.
    """
    _, adj, fair = explored or explore_monitored(test, model)
    for start, target in fair.items():
        seen = set()
        queue = deque()
        for dst, tid in adj[start]:
            item = (dst, frozenset({tid}) & target)
            if item not in seen:
                seen.add(item)
                queue.append(item)
        while queue:
            node, covered = queue.popleft()
            if node == start and covered == target:
                return True
            for dst, tid in adj[node]:
                item = (dst, covered | (frozenset({tid}) & target))
                if item not in seen:
                    seen.add(item)
                    queue.append(item)
    return False


def naive_strong_fails(test, model, explored=None):
    """A run is doomed if some reachable node cannot reach an end (or a
    moment where nothing is guaranteed) moving only along guaranteed
    threads.  Checked by a literal forward search from every node.
    `explored` may hand in `explore_monitored(test, model)`'s result."""
    nodes, adj, fair = explored or explore_monitored(test, model)
    threads = test.threads

    def is_end(node):
        return not alive_threads(threads, node[1])

    def escapes(node):
        if is_end(node):
            return True
        return fair[node] == frozenset() and bool(adj[node])

    for start in nodes:
        seen = {start}
        queue = deque([start])
        ok = False
        while queue and not ok:
            node = queue.popleft()
            if escapes(node):
                ok = True
                break
            for dst, tid in adj[node]:
                if tid in fair[node] and dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        if not ok:
            return True
    return False


# ------------------------------------------------------------ witness replay


def replay_witness(test, witness):
    """Re-execute a witness with the naive interpreter, checking every step.

    Returns the final (mem, pcs).  For cycle witnesses the walk must
    return to the machine state it started from and must step every
    thread of the fair set recorded on its first step.
    """
    mem = (0,) * test.num_locations
    pcs = tuple(0 for _ in test.threads)

    def run(steps):
        nonlocal mem, pcs
        for s in steps:
            assert pcs[s.tid] == s.pc, "witness desynchronized from machine"
            assert test.threads[s.tid][s.pc] == s.instr
            mem, pcs, _ = naive_step(test.threads, mem, pcs, s.tid)

    run(witness.path)
    loop_entry = (mem, pcs)
    run(witness.cycle)
    if witness.cycle:
        assert (mem, pcs) == loop_entry, "cycle does not close"
        fair = witness.cycle[0].fair_before
        assert {s.tid for s in witness.cycle} >= fair, "cycle skips a fair thread"
    if witness.stuck_machine is not None:
        assert mem == witness.stuck_machine.memory
        assert pcs == witness.stuck_machine.pcs
    return mem, pcs


# ------------------------------------------------------- scheduler replay


def naive_simulate(test, spec):
    """Replay `test` under the scheduler `spec` describes.

    Returns (terminated, steps, per-thread steps, nontermination proved).
    The alive threads are rescanned before every step.  Round-robin,
    OBE and LOBE fix their choices up front, so a repeated (memory, pcs,
    scheduler state) before a pick proves the run never ends.
    """
    threads = test.threads
    n = len(threads)
    kind = spec.kind.value
    rng = random.Random(spec.seed)
    queue = list(range(n))  # admission order of the non-preemptive kinds
    if kind == "obe-nonpreemptive":
        rng.shuffle(queue)
    next_tid = 0  # round-robin
    admitted, rr, qpos = [], 0, 0  # non-preemptive
    mem = (0,) * test.num_locations
    pcs = tuple(0 for _ in threads)
    counts = [0] * n
    seen = set()
    steps = 0
    while steps < spec.step_budget:
        alive = alive_threads(threads, pcs)
        if not alive:
            return True, steps, tuple(counts), False
        if kind == "fair-round-robin":
            key = (mem, pcs, next_tid)
        elif kind.endswith("-nonpreemptive"):
            key = (mem, pcs, tuple(admitted), rr, qpos)
        else:
            key = None
        if key is not None:
            if key in seen:
                return False, steps, tuple(counts), True
            seen.add(key)

        if kind == "fair-round-robin":
            later = [t for t in alive if t >= next_tid]
            tid = later[0] if later else alive[0]
            next_tid = (tid + 1) % n
        elif kind == "unfair-random":
            tid = rng.choice(alive)
        elif kind == "hsa-priority":
            tid = alive[0] if rng.random() < spec.priority_prob else rng.choice(alive)
        else:
            alive_set = set(alive)
            admitted = [t for t in admitted if t in alive_set]
            while qpos < n and len(admitted) < spec.slots:
                if queue[qpos] in alive_set:
                    admitted.append(queue[qpos])
                qpos += 1
            rr %= len(admitted)
            tid = admitted[rr]
            rr += 1
        mem, pcs, _ = naive_step(threads, mem, pcs, tid)
        counts[tid] += 1
        steps += 1
    return not alive_threads(threads, pcs), steps, tuple(counts), False


# ------------------------------------------------------- brute-force search


def syntactic_instructions(num_locations, value_domain, program_len):
    """Every instruction a thread of the given length may contain."""
    out = []
    for loc, cmp_, jump in itertools.product(
        range(num_locations), range(value_domain), range(program_len + 1)
    ):
        for exch in (None, *range(value_domain)):
            out.append((loc, cmp_, jump, exch))
    return out


def all_programs(length, num_locations, value_domain, meaningful, instruction):
    choices = []
    for idx in range(length):
        opts = []
        for loc, cmp_, jump, exch in syntactic_instructions(
            num_locations, value_domain, length
        ):
            if meaningful and jump == idx + 1 and cmp_ != 0:
                continue
            opts.append(instruction(loc, cmp_, jump, exch))
        choices.append(opts)
    return [tuple(p) for p in itertools.product(*choices)]


def splits(total, parts):
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(1, total - parts + 2):
        for rest in splits(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def naive_constraints_ok(test):
    """The full acceptance filter, checked in the most literal way."""
    nodes, edges, ends = explore_plain(test)
    if not ends:
        return False
    # every node can still finish
    pred = {n: [] for n in nodes}
    for src, dst, *_ in edges:
        pred[dst].append(src)
    seen = set(ends)
    queue = deque(ends)
    while queue:
        for p in pred[queue.popleft()]:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    if seen != nodes:
        return False
    if not naive_unfair_fails(test):
        return False
    # real branches must exercise both outcomes
    outcomes = {}
    for _, _, tid, idx, taken in edges:
        ins = test.threads[tid][idx]
        if ins.jump != idx + 1:
            outcomes.setdefault((tid, idx), set()).add(taken)
    for tid, prog in enumerate(test.threads):
        for idx, ins in enumerate(prog):
            if ins.jump != idx + 1 and outcomes.get((tid, idx)) != {True, False}:
                return False
    return naive_influence(test)


def naive_influence(test):
    """Some thread's branch must read a value another thread wrote last."""
    threads = test.threads
    init = (
        (0,) * test.num_locations,
        (INIT_TAG,) * test.num_locations,
        tuple(0 for _ in threads),
    )
    nodes = {init}
    queue = deque([init])
    evidence = {}  # (tid, idx) -> [outcomes seen, cross-writer seen]
    while queue:
        mem, tags, pcs = queue.popleft()
        for t in alive_threads(threads, pcs):
            idx = pcs[t]
            ins = threads[t][idx]
            mem2, pcs2, taken = naive_step(threads, mem, pcs, t)
            if ins.jump != idx + 1:
                rec = evidence.setdefault((t, idx), [set(), False])
                rec[0].add(taken)
                if tags[ins.loc] not in (INIT_TAG, t):
                    rec[1] = True
            tags2 = list(tags)
            if ins.exch is not None:
                tags2[ins.loc] = t
            dst = (mem2, tuple(tags2), pcs2)
            if dst not in nodes:
                nodes.add(dst)
                queue.append(dst)
    return any(outs == {True, False} and cross for outs, cross in evidence.values())


def naive_synthesize(num_threads, total_instructions, make_test, instruction,
                     num_locations=2, value_domain=2):
    """Accepted thread tuples for the given bounds, deduplicated exactly."""
    accepted = set()
    candidates = 0
    for split in splits(total_instructions, num_threads):
        per_thread = [
            all_programs(n, num_locations, value_domain, True, instruction)
            for n in split
        ]
        for combo in itertools.product(*per_thread):
            candidates += 1
            test = make_test(combo, num_locations, value_domain)
            if naive_constraints_ok(test):
                accepted.add(combo)
    return accepted, candidates
