"""Software schedulers that act out progress models on litmus tests.

Non-termination is detected by a step budget rather than wall-clock
time, so runs are deterministic given a seed.  Schedulers whose choices
are fixed once the run starts (round-robin and the non-preemptive
kinds, whose randomness is only the admission order drawn up front)
additionally detect an exact repeat of (machine state, scheduler
state), which proves the run can never terminate; the outcome then
reports `nontermination_proved` with the steps actually executed.

Per step, the cost that grows with the thread count is the new machine
state (`axb.step` copies the pc tuple, and the memory tuple on a write)
and, for the deterministic kinds, hashing the full state for the repeat
check.  The sorted alive list changes only when a thread exits, so
picking a thread is O(log threads) for round-robin, O(slots) for the
non-preemptive kinds and O(1) for the random ones.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum

from .axb import LitmusTest, MachineState, enabled_threads, step

DEFAULT_STEP_BUDGET = 10**6


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
    rng = random.Random(spec.seed)
    num_threads = len(live)
    if spec.kind is SchedulerKind.FAIR_ROUND_ROBIN:
        return _RoundRobin(num_threads)
    if spec.kind is SchedulerKind.LOBE_NONPREEMPTIVE:
        return _Nonpreemptive(list(range(num_threads)), spec.slots, live)
    if spec.kind is SchedulerKind.OBE_NONPREEMPTIVE:
        order = list(range(num_threads))
        rng.shuffle(order)
        return _Nonpreemptive(order, spec.slots, live)
    if spec.kind is SchedulerKind.UNFAIR_RANDOM:
        return _UnfairRandom(rng)
    return _HsaPriority(rng, spec.priority_prob)


def simulate(test: LitmusTest, spec: SchedulerSpec) -> RunOutcome:
    """Run to termination, budget exhaustion, or a proven loop."""
    machine = test.initial_state()
    counts = [0] * test.num_threads
    steps = 0
    seen: set[tuple[MachineState, object]] = set()
    # Sorted; a thread leaves it only when its own step ends its program.
    alive = list(enabled_threads(test, machine))
    live = [False] * test.num_threads
    for tid in alive:
        live[tid] = True
    sched = _make_scheduler(spec, live)
    while steps < spec.step_budget:
        if not alive:
            return RunOutcome(True, steps, tuple(counts))
        if sched.deterministic:
            # One hash per step: a repeat leaves the set's size unchanged.
            size = len(seen)
            seen.add((machine, sched.state_key()))
            if len(seen) == size:
                return RunOutcome(False, steps, tuple(counts), True)
        tid = sched.pick(alive)
        machine = step(test, machine, tid)
        counts[tid] += 1
        steps += 1
        if machine.pcs[tid] == len(test.threads[tid]):
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
                    {
                        "test": test.name,
                        "scheduler": spec.kind.value,
                        "slots": spec.slots,
                        "iteration": it,
                        "seed": seeded.seed,
                        "terminated": outcome.terminated,
                        "steps_used": outcome.steps_used,
                        "nontermination_proved": outcome.nontermination_proved,
                    }
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
    return rows, summaries
