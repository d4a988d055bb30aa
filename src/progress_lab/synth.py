"""Bounded exhaustive enumeration of progress litmus tests.

A candidate assigns every thread a program within the instruction
budget; the budget is the total across threads and every composition
with at least one instruction per thread is explored.  A candidate is
kept when termination is reachable from every state, at least one
nontermination cycle exists, every branch can go both ways, and some
branch decision depends on a value written by another thread.
Comparisons guarded to fall through either way are fixed to compare
against 0, which prunes the space syntactically before any state
exploration happens.

Influence is pruned syntactically (some thread must branch on a
location another thread writes) and is otherwise implied semantically:
a candidate with a reachable end and a cycle always has it, as
`_check_candidate` shows, so no state exploration tracks writers.

The checker works on integer-packed states (memory digits plus one
program counter per thread) and steps them by table lookup; the tables
are derived from the AXB rule (`axb.execute`) once per composition.
On one core of a 2-core host (Python 3.11), (3,4) with 874,800
candidates takes about 5 s and (2,4) with 3,477,168 about 20 s.

Dedup keys are canonical body text.  `_tables` renders each program's
instruction lines once (`litmus_io.serialize_program`), and the key of
an accepted thread order joins those texts (`litmus_io.join_body`), the
same serializer `serialize_body` uses, so no candidate test is built.
Only symmetry reduction, which keeps the least text over location
relabelings, goes through `canonicalize`.  Each unique body is parsed
once at the end to build its test.

Only one candidate per thread-permutation orbit is checked (thread
symmetry reduction, as in Emerson & Sistla and Ip & Dill, FMSD 1996).
A thread's program options depend only on its length and the
instruction index, so every permutation of a candidate is a candidate.
Permuting threads permutes the pc lanes of the plain LTS and nothing
else, so the LTS stays isomorphic: the state and action counts, end
reachability, the cycle and the branch outcomes covered are all the
same, and so are both syntactic prefilters.  The representative has a
nonincreasing composition and nondecreasing program indices within each
run of equal thread lengths; its verdict counts once per permutation,
and an accepted one is expanded into every distinct permutation before
dedup.  Each permutation gives one body, so no worker counts duplicates:
they are the candidates left over after the rejections and the unique
tests.  Putting the longest thread first gives `jobs > 1` the most
first-thread programs to slice, and when that length is unique in the
composition every slice holds equally many orbits.  The suite stays
thread-distinct, since thread ids decide the OBE, LOBE and HSA verdicts;
only the checking work shrinks.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .axb import AxbInstruction, LitmusTest, execute
from .litmus_io import join_body, parse_litmus, serialize_body, serialize_program

# Rejection counters, in the order the checks run.
REJECT_REASONS = (
    "no_nontermination_cycle",
    "no_cross_thread_influence",
    "end_unreachable",
    "branch_outcome_missing",
    "end_not_reachable_everywhere",
    "lts_bounds_exceeded",
)


@dataclass(frozen=True, slots=True)
class SynthConfig:
    num_threads: int
    total_instructions: int
    num_locations: int = 2
    value_domain: int = 2
    max_states: int | None = None
    max_actions: int | None = None
    symmetry_reduction: bool = False
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.num_threads < 2:
            raise ValueError("need at least 2 threads")
        if self.total_instructions < self.num_threads:
            raise ValueError("need at least one instruction per thread")
        if self.num_locations < 1 or self.value_domain < 1:
            raise ValueError("need at least one location and one value")
        for cap in (self.max_states, self.max_actions):
            if cap is not None and cap < 1:
                raise ValueError("pruning bounds must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")


@dataclass(frozen=True, slots=True)
class SynthStats:
    candidates: int
    explored: int  # candidates run through `_check_candidate`
    rejected: dict[str, int]
    duplicates: int
    unique: int
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "candidates": self.candidates,
            "explored": self.explored,
            "rejected": {k: self.rejected.get(k, 0) for k in REJECT_REASONS},
            "duplicates": self.duplicates,
            "unique": self.unique,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


@dataclass(frozen=True, slots=True)
class SynthResult:
    tests: tuple[LitmusTest, ...]
    lts_sizes: tuple[tuple[int, int], ...]  # (states, actions) per test
    stats: SynthStats


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All ordered splits of `total` into `parts` positive summands, in
    lexicographic order (that of their cut points)."""
    return [
        tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))
        for cuts in itertools.combinations(range(1, total), parts - 1)
    ]


def _instruction_options(
    thread_len: int, idx: int, num_locations: int, value_domain: int
) -> tuple[AxbInstruction, ...]:
    # Fall-through jumps force cmp 0.
    opts = []
    for loc in range(num_locations):
        for jump in range(thread_len + 1):
            cmps = (0,) if jump == idx + 1 else range(value_domain)
            for cmp_ in cmps:
                for exch in (None, *range(value_domain)):
                    opts.append(AxbInstruction(loc, cmp_, jump, exch))
    return tuple(opts)


def _program_props(program, shift: int) -> tuple[bool, int, int, int]:
    """(can ever revisit a pc, branch-location mask, write-location mask,
    both outcome bits of every real branch, shifted as the table rows are)."""
    has_back = False
    branch_locs = 0
    write_locs = 0
    branch_bits = 0
    for i, ins in enumerate(program):
        if ins.jump <= i:
            has_back = True
        if ins.jump != i + 1:
            branch_locs |= 1 << ins.loc
            branch_bits |= 3 << (shift + 2 * i)
        if ins.exch is not None:
            write_locs |= 1 << ins.loc
    return has_back, branch_locs, write_locs, branch_bits


def _row(ins, idx, mult, shift, num_locations, value_domain):
    """Table row of `ins` at `idx`, indexed by packed memory: the packed
    state delta, and the outcome bit if `ins` is a real branch."""
    pw = value_domain**ins.loc
    row = []
    for mem in range(value_domain**num_locations):
        value = mem // pw % value_domain
        next_pc, left = execute(ins, idx, value)
        bit = 0
        if ins.jump != idx + 1:
            bit = (1 if next_pc == ins.jump else 2) << shift
        row.append(((left - value) * pw + (next_pc - idx) * mult, bit))
    return tuple(row)


@functools.lru_cache(maxsize=1)
def _tables(comp, num_locations: int, value_domain: int):
    """Packing and per-position programs for one composition.

    A packed state is the memory digits plus, per thread, its pc times the
    thread's multiplier.  Returns (memory radix, (multiplier, pc radix) per
    thread, programs per thread); each program comes as (instructions,
    table row per pc with None for the terminated pc, `_program_props`,
    its `serialize_program` text).
    Rows are built once per (index, option) and shared by all programs.
    The last result is kept, all tuples so callers cannot change it:
    tasks are queued in composition order, so a worker process mostly
    gets several slices of one composition in a row.
    """
    vl = value_domain**num_locations
    lanes = []
    positions = []
    mult = vl
    shift = 0
    for length in comp:
        per_idx = [
            _instruction_options(length, i, num_locations, value_domain)
            for i in range(length)
        ]
        per_idx_rows = [
            [_row(ins, i, mult, shift + 2 * i, num_locations, value_domain) for ins in opts]
            for i, opts in enumerate(per_idx)
        ]
        positions.append(
            tuple(
                (prog, rows + (None,), _program_props(prog, shift), serialize_program(prog))
                for prog, rows in zip(
                    itertools.product(*per_idx), itertools.product(*per_idx_rows)
                )
            )
        )
        lanes.append((mult, length + 1))
        mult *= length + 1
        shift += 2 * length
    return vl, tuple(lanes), tuple(positions)


def _check_candidate(
    cand, vl: int, lanes, max_states: int | None, max_actions: int | None
) -> tuple[str | None, int, int]:
    """Full semantic check of one candidate from `_tables` entries.

    Returns (rejection reason or None, plain-LTS states, plain-LTS actions).
    Both backward passes run over one reverse adjacency: co-reachability
    of the ends, then a peel from the ends that removes a state once all
    its out-edges lead to removed states.  A state left over has a
    successor left over, so the graph has a cycle exactly when the peel
    leaves a state.

    No influence search is needed here.  Suppose no real branch ever
    reads a value last written by another thread.  Then every branch
    reads the initial value or the thread's own last write, so each
    thread's pc sequence is a function of its own history, whatever the
    interleaving.  A reachable cycle lets some thread step forever, so
    that thread terminates in no run and no end state is reachable.
    Hence an end being reachable together with a cycle existing implies
    influence; `_span_worker` only prunes it syntactically beforehand.
    """
    threads = [(mult, radix, c[1]) for (mult, radix), c in zip(lanes, cand)]
    required = 0
    for c in cand:
        required |= c[2][3]
    covered = 0
    seen = {0}
    stack = [0]
    edges: list[tuple[int, int]] = []
    ends = []
    while stack:
        s = stack.pop()
        mem = s % vl
        done = True
        for mult, radix, rows in threads:
            row = rows[s // mult % radix]
            if row is None:
                continue
            done = False
            d, bit = row[mem]
            ns = s + d
            covered |= bit
            edges.append((s, ns))
            if ns not in seen:
                seen.add(ns)
                stack.append(ns)
        if done:
            ends.append(s)
    n_states = len(seen)
    n_actions = len(edges)

    if not ends:
        return "end_unreachable", n_states, n_actions
    if covered != required:
        return "branch_outcome_missing", n_states, n_actions

    rev: dict[int, list[int]] = {}
    for src, dst in edges:
        rev.setdefault(dst, []).append(src)
    reach = set(ends)
    bq = list(ends)
    while bq:
        x = bq.pop()
        for p in rev.get(x, ()):
            if p not in reach:
                reach.add(p)
                bq.append(p)
    if len(reach) != n_states:
        return "end_not_reachable_everywhere", n_states, n_actions

    outdeg = collections.Counter(map(operator.itemgetter(0), edges))
    peel = ends
    removed = 0
    while peel:
        x = peel.pop()
        removed += 1
        for p in rev.get(x, ()):
            outdeg[p] -= 1
            if outdeg[p] == 0:
                peel.append(p)
    if removed == n_states:
        return "no_nontermination_cycle", n_states, n_actions

    if max_states is not None and n_states > max_states:
        return "lts_bounds_exceeded", n_states, n_actions
    if max_actions is not None and n_actions > max_actions:
        return "lts_bounds_exceeded", n_states, n_actions
    return None, n_states, n_actions


def _relabel_locations(threads, perm) -> tuple[tuple[AxbInstruction, ...], ...]:
    return tuple(
        tuple(
            AxbInstruction(perm[ins.loc], ins.cmp, ins.jump, ins.exch)
            for ins in thread
        )
        for thread in threads
    )


def canonicalize(test: LitmusTest) -> str:
    """The least body text over all location relabelings, so
    location-swapped twins collapse; the name never participates."""
    nl, vd = test.num_locations, test.value_domain
    return min(
        serialize_body(_relabel_locations(test.threads, perm), nl, vd)
        for perm in itertools.permutations(range(nl))
    )


def _representatives(comp, counts, lo, hi):
    """Program-index tuples of a nonincreasing composition, one per
    thread-permutation orbit: the first index lies in [lo, hi), and
    within each run of equal thread lengths the indices never decrease.
    `counts` gives the number of programs per thread."""
    runs = [len(list(g)) for _, g in itertools.groupby(comp)]
    starts = list(itertools.accumulate(runs[:-1], initial=0))
    later = [
        list(itertools.combinations_with_replacement(range(counts[k]), r))
        for k, r in zip(starts[1:], runs[1:])
    ]
    for first in range(lo, hi):
        # The pool is copied per call, so a lone first thread skips it.
        heads = [()]
        if runs[0] > 1:
            heads = itertools.combinations_with_replacement(range(first, counts[0]), runs[0] - 1)
        for parts in itertools.product(heads, *later):
            yield (first, *itertools.chain.from_iterable(parts))


def _orbit_size(comp, idx) -> int:
    """Number of distinct thread permutations of a representative: n!
    over the factorial of each run of equal (length, program index),
    which sit next to each other in a representative."""
    size = math.factorial(len(comp))
    run = 1
    for k in range(1, len(comp)):
        run = run + 1 if comp[k] == comp[k - 1] and idx[k] == idx[k - 1] else 1
        size //= run
    return size


def _thread_orders(comp, idx):
    """One thread order per distinct permutation of a representative."""
    keys = tuple(zip(comp, idx))
    orders = {tuple(keys[k] for k in p): p for p in itertools.permutations(range(len(keys)))}
    return orders.values()


def _span_worker(args):
    """Check every orbit whose representative's first-thread program
    falls in a slice, crediting its verdict to the whole orbit.

    Returns (candidate count, rejection counters, {canonical body:
    (states, actions)}, `_check_candidate` calls).  Duplicates are not
    counted here: `synthesize` derives them from the counters.
    """
    config, comp, lo, hi = args
    nl, vd = config.num_locations, config.value_domain
    vl, lanes, positions = _tables(comp, nl, vd)

    rejected = dict.fromkeys(REJECT_REASONS, 0)
    accepted: dict[str, tuple[int, int]] = {}
    candidates = 0
    explored = 0
    # Only threads of equal length can hold the same program, so without
    # a run of equal lengths every orbit has n! members.
    n = len(comp)
    has_run = len(set(comp)) < n
    full_orbit = math.factorial(n)

    for idx in _representatives(comp, [len(p) for p in positions], lo, hi):
        orbit = _orbit_size(comp, idx) if has_run else full_orbit
        candidates += orbit
        cand = tuple(map(operator.getitem, positions, idx))
        # A cycle needs a thread that can revisit a pc.  Influence needs a
        # branch on a location another thread writes: one written by two
        # threads, or by one thread besides the brancher.
        has_back = False
        written = twice = 0
        for c in cand:
            pr = c[2]
            has_back = has_back or pr[0]
            twice |= written & pr[2]
            written |= pr[2]
        if not has_back:
            rejected["no_nontermination_cycle"] += orbit
            continue
        for c in cand:
            pr = c[2]
            if pr[1] & (twice | (written & ~pr[2])):
                break
        else:
            rejected["no_cross_thread_influence"] += orbit
            continue
        explored += 1
        reason, n_states, n_actions = _check_candidate(
            cand, vl, lanes, config.max_states, config.max_actions
        )
        if reason is not None:
            rejected[reason] += orbit
            continue
        for order in _thread_orders(comp, idx):
            if config.symmetry_reduction:
                test = LitmusTest("candidate", nl, vd, tuple(cand[k][0] for k in order))
                body = canonicalize(test)
            else:
                body = join_body([cand[k][3] for k in order], nl, vd)
            accepted.setdefault(body, (n_states, n_actions))
    return candidates, rejected, accepted, explored


def synthesize(config: SynthConfig) -> SynthResult:
    """Enumerate, filter, and deduplicate the whole bounded space."""
    t0 = time.perf_counter()
    # One composition per thread-length multiset; `_span_worker` covers
    # the others through the orbits of its representatives.
    comps = [
        comp
        for comp in compositions(config.total_instructions, config.num_threads)
        if list(comp) == sorted(comp, reverse=True)
    ]

    tasks = []
    for comp in comps:
        total_first = math.prod(
            len(_instruction_options(comp[0], i, config.num_locations, config.value_domain))
            for i in range(comp[0])
        )
        span = total_first if config.jobs == 1 else -(-total_first // (4 * config.jobs))
        for lo in range(0, total_first, span):
            tasks.append((config, comp, lo, min(lo + span, total_first)))

    if config.jobs == 1:
        outcomes = [_span_worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(_span_worker, tasks))

    candidates = 0
    explored = 0
    rejected = dict.fromkeys(REJECT_REASONS, 0)
    merged: dict[str, tuple[int, int]] = {}
    for cand, rej, accepted, checked in outcomes:
        candidates += cand
        explored += checked
        for k, c in rej.items():
            rejected[k] += c
        for body, size in accepted.items():
            merged.setdefault(body, size)

    bodies = sorted(merged)
    width = max(3, len(str(max(len(bodies) - 1, 0))))
    tests = []
    sizes = []
    for i, body in enumerate(bodies):
        tests.append(parse_litmus(f"test t{i:0{width}d}\n{body}"))
        sizes.append(merged[body])
    stats = SynthStats(
        candidates=candidates,
        explored=explored,
        rejected=rejected,
        # Every accepted candidate is one thread order of its orbit, so
        # it gave one body: a unique test or a duplicate.
        duplicates=candidates - sum(rejected.values()) - len(tests),
        unique=len(tests),
        elapsed_seconds=time.perf_counter() - t0,
    )
    return SynthResult(tuple(tests), tuple(sizes), stats)
