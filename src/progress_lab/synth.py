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
On one core of a 2-core host (Python 3.11.7), (3,4) with 874,800
candidates takes about 1.3 s and (2,4) with 3,477,168 about 7 s.

Dedup keys are body text.  `_tables` renders each program's
instruction lines once (`litmus_io.serialize_program`), and the key of
an accepted candidate joins those texts (`litmus_io.join_body`), the
same serializer `serialize_body` uses, so no candidate test is built.
At the end each unique body, in sorted order, is parsed into its test.
`parse_litmus` takes most thread blocks from its block cache, so tests
that spell the same block share its program tuple: the (3,4) suite
parses in about 7 us a test, 0.24 s of its 1.3 s.

Only one candidate per orbit under thread permutations and location
relabelings is checked (symmetry reduction over two scalarsets, as in
Emerson & Sistla and Ip & Dill, FMSD 1996).  A thread's program options
depend only on its length and the instruction index, and every location
has the same options, so every permutation or relabeling of a candidate
is a candidate.  Permuting threads permutes the pc lanes of the plain
LTS; since memory starts all zero, renaming locations permutes its
memory digits and keeps the initial state.  Either way the LTS stays
isomorphic: the state and action counts, end reachability, the cycle
and the branch outcomes covered are all the same, and so are both
syntactic prefilters.

An orbit's representative has a nonincreasing composition and
nondecreasing program indices within each run of equal thread lengths,
and it is the least of its location images, each re-sorted within those
runs (`_orbit_representatives`).  `_instruction_options` puts the
location in the most significant digit of an option, so the least image
uses its locations in order of first use, thread 0's instructions
first: swapping the first out-of-order label with the expected one
leaves every earlier instruction alone and makes the program holding
the swapped instruction strictly smaller, and re-sorting only lowers a
tuple further.  A tuple out of first-use order is dropped by table
lookup, and one in order is compared only with its images under the
permutations of the `u` locations it uses, read from per-permutation
index tables (`_location_tables`); the work per representative grows
with `u!`, never with `num_locations!`.  Its verdict counts once per
member of its orbit: each distinct thread order of each distinct
location image, of which there are `num_locations! / (num_locations -
u)!` over the used location permutations that map it onto itself.  An
accepted one is expanded into its members (`_orbit_members`) before
dedup.  Symmetry reduction keeps only the members whose locations are
in first-use order, which use locations 0..u-1, so only the `u!`
renamings onto those are expanded: those bodies are exactly the
`canonicalize` texts of the orbit, since a member's canonical form is
itself a member.
`classify` keys its location orbits by the same text.  An accepted
member gives at most one body, so no worker counts duplicates: they are
the candidates left over after the rejections and the unique tests.
Putting the longest thread first gives `jobs > 1` the most first-thread
programs to slice.  Without symmetry reduction the suite stays thread-
and location-distinct, since thread ids decide the OBE, LOBE and HSA
verdicts and locations name the output; only the checking work shrinks.
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

from .axb import AxbInstruction, LitmusTest, execute, relabel_locations
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
    explored: int  # orbit representatives checked
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


def canonicalize(test: LitmusTest) -> str:
    """Body text with locations renamed in order of first use, thread 0's
    instructions first; the name never participates.

    Two tests share it exactly when one is a location relabeling of the
    other; unused locations stay unused, and `num_locations` and
    `value_domain` remain part of the text.  While every location label
    is one digit (up to 10 locations) it is also the least body text over
    all relabelings, since the texts differ only in those digits.
    """
    perm: dict[int, int] = {}
    for thread in test.threads:
        for ins in thread:
            perm.setdefault(ins.loc, len(perm))
    return serialize_body(
        relabel_locations(test.threads, perm), test.num_locations, test.value_domain
    )


def _relabel_index(index: int, digits, f) -> int:
    """Program `index` with each location `loc` renamed `f[loc]`.  `digits`
    holds (options, options per location) per instruction, last first: an
    option's location is its most significant digit."""
    out = 0
    weight = 1
    for radix, per_loc in digits:
        index, opt = divmod(index, radix)
        loc, rest = divmod(opt, per_loc)
        out += (f[loc] * per_loc + rest) * weight
        weight *= radix
    return out


@functools.lru_cache(maxsize=1)
def _location_tables(comp, num_locations: int, value_domain: int):
    """Integer tables for the location orbits of one composition.

    With `m` the most locations a candidate can use, returns:
    - `first_use[k][i][u]`: given that the threads before `k` use exactly
      locations 0..u-1, how many thread `k`'s program `i` brings the count
      to, or `m + 1` if it first uses a location above the next one
      (`m + 1` stays `m + 1`);
    - `images[u0][u]`: per permutation of locations u0..u-1 other than
      the identity, the image index of every program of every thread; all
      empty when no two threads have equal lengths, since no re-sort can
      then make an image of a first-use ordered candidate smaller;
    - `digits[k]`: thread `k`'s program digits for `_relabel_index`;
    - `runs`: (start, end) of each run of equal thread lengths.
    """
    m = min(num_locations, sum(comp))
    fail = m + 1

    def count_after(locs, u):
        for loc in locs:
            if u == fail or loc > u:
                return fail
            u += loc == u
        return u

    per_length = {}
    for length in set(comp):
        opts = [
            _instruction_options(length, i, num_locations, value_domain) for i in range(length)
        ]
        rows = {
            locs: tuple(count_after(locs, u) for u in range(fail + 1))
            for locs in itertools.product(range(num_locations), repeat=length)
        }
        first_use = tuple(
            map(rows.__getitem__, itertools.product(*([o.loc for o in opt] for opt in opts)))
        )
        digits = tuple((len(opt), len(opt) // num_locations) for opt in reversed(opts))
        per_length[length] = first_use, digits

    ends = list(itertools.accumulate(len(list(g)) for _, g in itertools.groupby(comp)))
    runs = tuple(zip((0, *ends), ends))
    images = [[() for _ in range(m + 1)] for _ in range(m + 1)]
    if len(runs) < len(comp):
        tables = {}
        for u0, u in itertools.combinations(range(m + 1), 2):
            perms = []
            # every permutation but the identity, which comes first
            for perm in itertools.islice(itertools.permutations(range(u0, u)), 1, None):
                f = (*range(u0), *perm, *range(u, num_locations))
                for length in set(comp):
                    if (length, f) not in tables:
                        first_use, digits = per_length[length]
                        tables[length, f] = tuple(
                            _relabel_index(i, digits, f) for i in range(len(first_use))
                        )
                perms.append(tuple(tables[length, f] for length in comp))
            images[u0][u] = tuple(perms)
    return (
        tuple(per_length[length][0] for length in comp),
        tuple(map(tuple, images)),
        tuple(per_length[length][1] for length in comp),
        runs,
    )


def _orbit_representatives(comp, num_locations: int, value_domain: int, lo: int, hi: int):
    """(program indices, orbit size) per orbit under thread permutations
    and location relabelings whose representative's first index lies in
    [lo, hi).

    A representative never decreases within a run of equal thread lengths
    and is the least of its location images, each re-sorted within those
    runs.  The least image uses locations in first-use order (see the
    module docstring), so failing `first_use` drops a tuple, and a first
    program out of that order drops every tuple it starts.  Only the
    permutations of the used locations remain to compare, and when the
    first thread is alone in its run, only the ones fixing the locations
    it uses: moving one makes the first index larger.  The orbit size is
    the number of distinct thread orders (n! over the factorial of each
    run of equal indices) times the number of distinct location images.
    """
    first_use, images, _, runs = _location_tables(comp, num_locations, value_domain)
    counts = [len(t) for t in first_use]
    fail = len(first_use[0][0]) - 1
    injections = [math.perm(num_locations, u) for u in range(fail)]
    sort_runs = [(s, e) for s, e in runs if e - s > 1]
    head = runs[0][1]
    later = [
        list(itertools.combinations_with_replacement(range(counts[s]), e - s))
        for s, e in runs[1:]
    ]
    all_orders = math.factorial(len(comp))
    for first in range(lo, hi):
        u = first_use[0][first][0]
        if u == fail:
            continue
        perms_by_u = images[u if head == 1 else 0]
        # The pool is copied per call, so a lone first thread skips it.
        heads = [()]
        if head > 1:
            heads = itertools.combinations_with_replacement(range(first, counts[0]), head - 1)
        for parts in itertools.product(heads, *later):
            idx = (first, *itertools.chain.from_iterable(parts))
            u = 0
            for t, i in zip(first_use, idx):
                u = t[i][u]
            if u == fail:
                continue
            stab = 1
            for tables in perms_by_u[u]:
                image = [t[i] for t, i in zip(tables, idx)]
                for s, e in sort_runs:
                    image[s:e] = sorted(image[s:e])
                image = tuple(image)
                if image < idx:
                    break
                stab += image == idx
            else:
                orders = all_orders
                for s, e in sort_runs:
                    run = 1
                    for k in range(s + 1, e):
                        run = run + 1 if idx[k] == idx[k - 1] else 1
                        orders //= run
                yield idx, orders * (injections[u] // stab)


def _orbit_members(
    comp, idx, num_locations: int, value_domain: int, symmetry_reduction: bool = False
):
    """Each member of the orbit of representative `idx` once, as
    (thread position, program index) pairs in the member's thread order;
    `idx` itself comes first.  A position stands for its thread's length:
    it is the first of its run of equal lengths, so equal pairs are equal
    threads.  The distinct location images under every renaming of the
    used locations, each re-sorted within runs, are found first, then
    each one's distinct thread orders.  Under symmetry reduction only the
    members in first-use order are wanted: they use locations 0..u-1, so
    only the renamings onto those are tried."""
    first_use, _, digits, runs = _location_tables(comp, num_locations, value_domain)
    u = 0
    for t, i in zip(first_use, idx):
        u = t[i][u]
    images = {}
    for f in itertools.permutations(range(u if symmetry_reduction else num_locations), u):
        image = [_relabel_index(i, d, f) for d, i in zip(digits, idx)]
        images.setdefault(tuple((s, i) for s, e in runs for i in sorted(image[s:e])), None)
    for image in images:
        for member in dict.fromkeys(itertools.permutations(image)):
            if symmetry_reduction:
                v = 0
                for k, i in member:
                    v = first_use[k][i][v]
                if v != u:
                    continue
            yield member


def _span_worker(args):
    """Check every orbit whose representative's first-thread program
    falls in a slice, crediting its verdict to the whole orbit, and join
    the body of each member of an accepted one.  Under symmetry reduction
    only the members in first-use order give a body: those are the
    `canonicalize` texts of all the members.

    Returns (candidate count, rejection counters, {body: (states,
    actions)}, `_check_candidate` calls).  Duplicates are not
    counted here: `synthesize` derives them from the counters.
    """
    config, comp, lo, hi = args
    nl, vd = config.num_locations, config.value_domain
    vl, lanes, positions = _tables(comp, nl, vd)

    rejected = dict.fromkeys(REJECT_REASONS, 0)
    accepted: dict[str, tuple[int, int]] = {}
    candidates = 0
    explored = 0
    for idx, orbit in _orbit_representatives(comp, nl, vd, lo, hi):
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
        for member in _orbit_members(comp, idx, nl, vd, config.symmetry_reduction):
            body = join_body([positions[k][i][3] for k, i in member], nl, vd)
            accepted.setdefault(body, (n_states, n_actions))
    return candidates, rejected, accepted, explored


def _merge(outcomes):
    """(candidates, representatives checked, rejection counters, {body:
    (states, actions)}) summed over `_span_worker` results in slice
    order, a body keeping the sizes of its first slice.  Each result is
    read as it arrives and dropped once merged."""
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
    return candidates, explored, rejected, merged


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
        # A first program out of first-use order starts no representative,
        # so the slices share out only the others.  An accepted one adds
        # the bodies of all its members to its slice's result; eight
        # slices per job keep a worker's largest result small.
        first_use = _location_tables(comp, config.num_locations, config.value_domain)[0][0]
        starts = [i for i, row in enumerate(first_use) if row[0] < len(row) - 1]
        span = len(starts) if config.jobs == 1 else -(-len(starts) // (8 * config.jobs))
        for k in range(0, len(starts), span):
            tasks.append((config, comp, starts[k], starts[min(k + span, len(starts)) - 1] + 1))

    if config.jobs == 1:
        candidates, explored, rejected, merged = _merge(map(_span_worker, tasks))
    else:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            candidates, explored, rejected, merged = _merge(pool.map(_span_worker, tasks))

    # Popping each body as its test is built frees the texts as the
    # tests grow, so the two are never all alive together.
    bodies = sorted(merged, reverse=True)
    width = max(3, len(str(max(len(bodies) - 1, 0))))
    tests = []
    sizes = []
    while bodies:
        body = bodies.pop()
        tests.append(parse_litmus(f"test t{len(tests):0{width}d}\n{body}"))
        sizes.append(merged.pop(body))
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
