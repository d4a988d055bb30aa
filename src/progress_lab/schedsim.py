"""Software schedulers that act out progress models on litmus tests.

Non-termination is detected by a step budget rather than wall-clock
time, so runs are deterministic given a seed.  Schedulers whose choices
are fixed once the run starts (round-robin and the non-preemptive
kinds, whose randomness is only the admission order drawn up front)
additionally detect an exact repeat of (machine state, scheduler
state), which proves the run can never terminate; the outcome then
reports `nontermination_proved` with the steps actually executed.

A step does constant work outside thread exits.  The pcs and the
memory are lists that `step` updates in place.  For the deterministic
kinds the machine state is numbered exactly, in mixed radix: each
thread's pc is a digit of radix `len(program) + 1` and each location's
value a digit of radix `value_domain`, so the all-zero initial state
is number 0 and a step moves the number by one multiply-add per
changed digit.  Distinct states never share a number, so a repeated
(number, scheduler state) proves a loop without a replay (exact rather
than hashed state storage: Holzmann, "An analysis of bitstate hashing",
FMSD 1998).  The sorted alive list changes only when a thread exits,
so picking a thread is O(log threads) for round-robin, O(slots) for
the non-preemptive kinds and O(1) for the random ones.
"""

from __future__ import annotations

import hashlib
import logging
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum

from . import axb
from .axb import LitmusTest, execute

DEFAULT_STEP_BUDGET = 10**6

# The columns of `campaign`'s per-run rows, in order.
RUN_COLUMNS = (
    "test", "scheduler", "slots", "iteration", "seed",
    "terminated", "steps_used", "nontermination_proved",
)

_log = logging.getLogger(__name__)


class SchedulerKind(str, Enum):
    UNFAIR_RANDOM = "unfair-random"
    FAIR_ROUND_ROBIN = "fair-round-robin"
    OBE_NONPREEMPTIVE = "obe-nonpreemptive"
    LOBE_NONPREEMPTIVE = "lobe-nonpreemptive"
    HSA_PRIORITY = "hsa-priority"


@dataclass(frozen=True, slots=True)
class SchedulerSpec:
    kind: SchedulerKind
    slots: int = 1  # occupancy of the non-preemptive kinds
    seed: int = 0
    step_budget: int = DEFAULT_STEP_BUDGET
    priority_prob: float = 0.25  # chance the priority pick wins (hsa kind)

    def __post_init__(self) -> None:
        if self.step_budget < 1:
            raise ValueError("step budget must be positive")
        if self.slots < 1:
            raise ValueError("need at least one occupancy slot")
        if not 0.0 <= self.priority_prob <= 1.0:
            raise ValueError("priority probability must be within [0, 1]")


@dataclass(frozen=True, slots=True)
class RunOutcome:
    terminated: bool
    steps_used: int
    per_thread_steps: tuple[int, ...]
    nontermination_proved: bool = False

    def __post_init__(self) -> None:
        assert self.steps_used == sum(self.per_thread_steps)


class _RoundRobin:
    deterministic = True

    def __init__(self, num_threads: int):
        self.n = num_threads
        self.next_tid = 0

    def pick(self, alive: list[int]) -> int:
        i = bisect_left(alive, self.next_tid)
        tid = alive[i] if i < len(alive) else alive[0]
        self.next_tid = (tid + 1) % self.n
        return tid

    def state_key(self):
        return self.next_tid


class _Nonpreemptive:
    """Admit up to `slots` threads, round-robin them, backfill on exit."""

    deterministic = True

    def __init__(self, queue: list[int], slots: int, live: list[bool]):
        self.queue = queue
        self.qpos = 0
        self.slots = slots
        self.live = live  # per-thread flags, cleared by `simulate` on exit
        self.admitted: list[int] = []
        self.rr = 0

    def _refill(self) -> None:
        live = self.live
        self.admitted = [t for t in self.admitted if live[t]]
        while self.qpos < len(self.queue) and len(self.admitted) < self.slots:
            tid = self.queue[self.qpos]
            self.qpos += 1
            if live[tid]:
                self.admitted.append(tid)

    def pick(self, alive: list[int]) -> int:
        self._refill()
        self.rr %= len(self.admitted)
        tid = self.admitted[self.rr]
        self.rr += 1
        return tid

    def state_key(self):
        return (tuple(self.admitted), self.rr, self.qpos)


class _UnfairRandom:
    deterministic = False

    def __init__(self, rng: random.Random):
        self.rng = rng

    def pick(self, alive: list[int]) -> int:
        return self.rng.choice(alive)


class _HsaPriority:
    deterministic = False

    def __init__(self, rng: random.Random, priority_prob: float):
        self.rng = rng
        self.p = priority_prob

    def pick(self, alive: list[int]) -> int:
        if self.rng.random() < self.p:
            return alive[0]
        return self.rng.choice(alive)


def _make_scheduler(spec: SchedulerSpec, live: list[bool]):
    num_threads = len(live)
    if spec.kind is SchedulerKind.FAIR_ROUND_ROBIN:
        return _RoundRobin(num_threads)
    if spec.kind is SchedulerKind.LOBE_NONPREEMPTIVE:
        return _Nonpreemptive(list(range(num_threads)), spec.slots, live)
    # Only the remaining kinds draw, so only they seed a generator.
    rng = random.Random(spec.seed)
    if spec.kind is SchedulerKind.OBE_NONPREEMPTIVE:
        order = list(range(num_threads))
        rng.shuffle(order)
        return _Nonpreemptive(order, spec.slots, live)
    if spec.kind is SchedulerKind.UNFAIR_RANDOM:
        return _UnfairRandom(rng)
    return _HsaPriority(rng, spec.priority_prob)


def _place_values(test: LitmusTest) -> tuple[list[int], list[int]]:
    """The weight of each thread's pc and of each location's value in a state number."""
    pc_weight = []
    weight = 1
    for program in test.threads:
        pc_weight.append(weight)
        weight *= len(program) + 1
    value_weight = []
    for _ in range(test.num_locations):
        value_weight.append(weight)
        weight *= test.value_domain
    return pc_weight, value_weight


def step(test: LitmusTest, pcs: list[int], memory: list[int], tid: int) -> tuple[int, int, int]:
    """Execute thread `tid`'s next instruction in place on `pcs` and `memory`.

    `tid` must not have terminated.  Returns (old pc, location, value
    read), which with the new pc and value is all the step changed.
    """
    pc = pcs[tid]
    ins = test.threads[tid][pc]
    loc = ins.loc
    value = memory[loc]
    pcs[tid], memory[loc] = execute(ins, pc, value)
    return pc, loc, value


def simulate(test: LitmusTest, spec: SchedulerSpec) -> RunOutcome:
    """Run to termination, budget exhaustion, or a proven loop.

    Calls `step` once per simulated step.  For the deterministic kinds,
    the run keeps a set of (state number, scheduler state) pairs, one
    per state before a pick; reaching a pair again proves a loop.
    """
    initial = test.initial_state()
    pcs = list(initial.pcs)
    memory = list(initial.memory)
    ends = [len(program) for program in test.threads]
    counts = [0] * test.num_threads
    steps = 0
    # Sorted; a thread leaves it only when its own step ends its program.
    alive = list(axb.enabled_threads(test, initial))
    live = [False] * test.num_threads
    for tid in alive:
        live[tid] = True
    sched = _make_scheduler(spec, live)
    numbered = sched.deterministic
    if numbered:
        pc_weight, value_weight = _place_values(test)
        number = 0  # the initial state's
        seen: set[tuple[int, object]] = set()
    while steps < spec.step_budget:
        if not alive:
            return RunOutcome(True, steps, tuple(counts))
        if numbered:
            at = (number, sched.state_key())
            if at in seen:
                return RunOutcome(False, steps, tuple(counts), True)
            seen.add(at)
        tid = sched.pick(alive)
        old_pc, loc, value = step(test, pcs, memory, tid)
        counts[tid] += 1
        steps += 1
        if numbered:
            number += (pcs[tid] - old_pc) * pc_weight[tid]
            number += (memory[loc] - value) * value_weight[loc]
        if pcs[tid] == ends[tid]:
            alive.remove(tid)
            live[tid] = False
    return RunOutcome(not alive, steps, tuple(counts))


def derive_seed(base_seed: int, test_name: str, spec: SchedulerSpec, iteration: int) -> int:
    text = (
        f"{base_seed}:{test_name}:{spec.kind.value}:{spec.slots}"
        f":{spec.step_budget}:{spec.priority_prob}:{iteration}"
    )
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def campaign(
    tests,
    specs,
    iterations: int = 20,
    base_seed: int = 0,
) -> tuple[list[dict], list[dict]]:
    """Seeded repeated runs; returns (per-run rows, per-pair summaries).

    Each summary notes whether the observed termination behavior was
    deterministic across the iterations.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    logged = _log.isEnabledFor(logging.INFO)
    started = time.perf_counter()
    rows = []
    summaries = []
    for test in tests:
        for spec in specs:
            outcomes = []
            for it in range(iterations):
                seeded = replace(
                    spec, seed=derive_seed(base_seed, test.name, spec, it)
                )
                outcome = simulate(test, seeded)
                outcomes.append(outcome)
                rows.append(
                    dict(
                        zip(
                            RUN_COLUMNS,
                            (
                                test.name, spec.kind.value, spec.slots, it, seeded.seed,
                                outcome.terminated, outcome.steps_used,
                                outcome.nontermination_proved,
                            ),
                        )
                    )
                )
            hangs = sum(1 for o in outcomes if not o.terminated)
            summaries.append(
                {
                    "test": test.name,
                    "scheduler": spec.kind.value,
                    "slots": spec.slots,
                    "runs": iterations,
                    "terminated": iterations - hangs,
                    "budget_exhausted": hangs,
                    "proved_nonterminating": sum(
                        1 for o in outcomes if o.nontermination_proved
                    ),
                    "deterministic": hangs in (0, iterations),
                }
            )
    if logged:
        proved = sum(row["nontermination_proved"] for row in rows)
        _log.info(
            "simulated %d runs: %d steps, %d proved loops, %d out of budget, %.2f s",
            len(rows),
            sum(row["steps_used"] for row in rows),
            proved,
            sum(not row["terminated"] for row in rows) - proved,
            time.perf_counter() - started,
        )
    return rows, summaries
