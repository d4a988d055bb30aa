"""Termination verdicts for litmus tests under progress models.

`check_matrix` is the one verdict entry point: it answers every model
variant of a test from one exploration.  One SCC decomposition of the
monitored LTS and one list of the `(src, tid)` edges into each of its
states serve every model.  The weak and strong checks read a model's
fair sets off the monitored LTS, whose `facts` list holds the stepped
and terminated thread masks of each state.  Every pass walks the LTS's
per-state `(dst, tid)` successor lists; a witness is a breadth-first
path of `(src, dst, tid)` steps whose thread ids are replayed with
`axb.step` from the initial state only at the end, which gives each
step's pc and instruction and where the path ends.  Thread sets stay
int bitmasks throughout (bit t for thread t); only witnesses turn them
into frozensets.

The weak check asks whether a scheduler obeying the model's guarantees
can still run forever: it fails exactly when some reachable nontrivial
SCC of the monitored LTS has a stepping-thread set covering the fair
set in force there.  Fair sets are constant within an SCC (facts only
grow along transitions), and any covering edge multiset inside one SCC
can be arranged into a single closed walk, so the SCC condition is
equivalent to the existence of a cycle in which every guaranteed
thread steps.  An empty fair set is treated as vacuously covered.

The strong check asks whether from every reachable state the
guaranteed threads alone can finish the test: a state is good when it
is an end state, when its fair set is empty (some thread will still be
scheduled, but none is owed fairness, so the obligation discharges),
or when a fair step leads to a good state.  It passes when every
reachable state is good.  Good states spread backwards over the
transitions into each state, keeping those whose thread is in their
source's fair set.  A weak pass implies a strong pass.

The unfair model has a single collapsed verdict: with no guarantees at
all, only an acyclic state space terminates.  It is decided on the
plain LTS, which is also the input of the monitored LTS (its product
with the stepped-set monitor), so each check explores the test's
machine once.  A caller that has built the plain LTS already hands it
to `check_matrix`.  Every verdict is thus a function of the thread
count and the plain LTS's successor lists alone.  The monitored LTS is
built from them (a plain state's terminated threads are those with no
out-edge), the fair sets read the monitored facts and the thread count,
and every check walks the successor lists.

A fail verdict builds its witness on demand: `check_matrix` hands it a
builder, and the first read of `Verdict.witness` runs the breadth-first
searches.  Reading `passed` builds nothing, so a caller that keeps only
booleans, as `classify` does, pays for no witness.  `verify_witness`
replays a witness with `axb.step` and checks that it proves its
verdict; `check` runs it on every fail it reports.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import partial

from .axb import AxbInstruction, LitmusTest, MachineState, step
from .lts import DEFAULT_MAX_STATES, Lts, Scc, build_monitored_lts, build_plain_lts, scc_decompose
from .models import (
    UNFAIR_VARIANT,
    Fairness,
    ProgressModel,
    all_model_variants,
    fair_set,
    thread_ids,
    variant_token,
)

log = logging.getLogger(__name__)


class WitnessKind(str, Enum):
    CYCLE = "starvation-or-livelock-cycle"
    STUCK = "stuck-state"


@dataclass(frozen=True, slots=True)
class WitnessStep:
    """One replayable transition: thread `tid` ran the instruction at `pc`."""

    tid: int
    pc: int
    instr: AxbInstruction
    fair_before: frozenset[int]


@dataclass(frozen=True, slots=True)
class Witness:
    """Counterexample evidence for a failed verdict.

    For CYCLE: `path` leads from the initial state to the cycle's entry
    and `cycle` is a closed walk from there in which every thread of the
    violated fair set steps.  For STUCK: `path` leads to a state from
    which no fair path reaches termination; `cycle` is empty.
    """

    kind: WitnessKind
    path: tuple[WitnessStep, ...]
    cycle: tuple[WitnessStep, ...] = ()
    stuck_machine: MachineState | None = None
    stuck_fair: frozenset[int] | None = None


class _OnDemand:
    """The `witness` field of `Verdict`.  It stores a `Witness`, None, or
    a zero-argument builder, which the first read calls and replaces by
    the witness it returns."""

    def __get__(self, verdict, owner=None):
        if verdict is None:
            return None  # the field's default
        value = verdict._witness
        if callable(value):
            value = value()
            object.__setattr__(verdict, "_witness", value)
        return value

    def __set__(self, verdict, value) -> None:
        object.__setattr__(verdict, "_witness", value)


@dataclass(frozen=True)
class Verdict:
    """A pass, or a fail with the witness that proves it.

    A fail verdict may be given a zero-argument builder in place of its
    witness, as `check_matrix` does: the first read of `witness` builds
    it and keeps it, and reading `passed` never does.  Equality, `repr`,
    `dataclasses.asdict` and `dataclasses.replace` read the witness, so
    they build it and see the same fields either way.
    """

    passed: bool
    witness: Witness | None = _OnDemand()

    def __post_init__(self) -> None:
        if not self.passed and self._witness is None:
            raise ValueError("a fail verdict must carry a witness")

    @property
    def token(self) -> str:
        return "pass" if self.passed else "fail"


def _replay(
    test: LitmusTest, steps: list[tuple[int, int, int]], fair: list[int]
) -> tuple[tuple[WitnessStep, ...], MachineState]:
    """Run the threads of `steps`, `(src, dst, tid)` edges from the initial
    state, with `axb.step`; return their `WitnessStep`s and the state
    they end in."""
    state = test.initial_state()
    out = []
    for src, _, tid in steps:
        pc = state.pcs[tid]
        out.append(WitnessStep(tid, pc, test.threads[tid][pc], frozenset(thread_ids(fair[src]))))
        state = step(test, state, tid)
    return tuple(out), state


def _bfs(
    lts: Lts,
    start: int,
    goal: Callable[[int, int], bool],
    inside: set[int] | None = None,
) -> list[tuple[int, int, int]]:
    """Shortest path of `(src, dst, tid)` steps from `start` whose last
    step `(dst, tid)` passes `goal`.

    Given `inside`, a set of states, only edges into it are followed.
    Each node's out-edges are tested against `goal` before any is
    expanded, so the path ends at the first goal edge of the nearest
    node that has one.
    """
    back: dict[int, tuple[int, int, int] | None] = {start: None}
    queue = [start]
    for node in queue:
        out = lts.out[node] if inside is None else [e for e in lts.out[node] if e[0] in inside]
        for dst, tid in out:
            if goal(dst, tid):
                path = [(node, dst, tid)]
                while (step := back[node]) is not None:
                    path.append(step)
                    node = step[0]
                path.reverse()
                return path
        for dst, tid in out:
            if dst not in back:
                back[dst] = (node, dst, tid)
                queue.append(dst)
    raise ValueError("no path reaches the goal")


def _cycle_witness(lts: Lts, scc: Scc, fair: list[int]) -> Witness:
    """Shortest path to the SCC, then a closed walk stepping every F-thread.

    From a member, the edges into the SCC are exactly its internal edges,
    so the walk follows only edges into `members`.
    """
    members = set(scc.members)
    path = []
    if lts.initial not in members:
        path = _bfs(lts, lts.initial, lambda dst, _: dst in members)
    entry = path[-1][1] if path else lts.initial

    cycle = []
    cur = entry
    for t in thread_ids(fair[entry]):
        cycle += _bfs(lts, cur, lambda _, tid: tid == t, members)
        cur = cycle[-1][1]
    if not cycle:
        # Empty fair set: any nonempty closed walk witnesses the loop.
        cycle.append(next((entry, dst, tid) for dst, tid in lts.out[entry] if dst in members))
        cur = cycle[0][1]
    if cur != entry:
        cycle += _bfs(lts, cur, lambda dst, _: dst == entry, members)
    steps, _ = _replay(lts.test, path + cycle, fair)
    return Witness(WitnessKind.CYCLE, steps[: len(path)], steps[len(path) :])


def _stuck_witness(lts: Lts, stuck: int, fair: list[int]) -> Witness:
    """Shortest path to state `stuck`, from which no fair path ends."""
    path = []
    if stuck != lts.initial:
        path = _bfs(lts, lts.initial, lambda dst, _: dst == stuck)
    steps, machine = _replay(lts.test, path, fair)
    return Witness(WitnessKind.STUCK, steps, (), machine, frozenset(thread_ids(fair[stuck])))


def _weak(lts: Lts, sccs: list[Scc], fair: list[int]) -> Verdict:
    for scc in sccs:
        if scc.nontrivial and not fair[scc.members[0]] & ~scc.stepping:
            return Verdict(False, partial(_cycle_witness, lts, scc, fair))
    return Verdict(True)


def _strong(lts: Lts, into: list[list[tuple[int, int]]], fair: list[int]) -> Verdict:
    # End states owe nothing (every thread has terminated), and a state
    # about to take a step owed to nobody discharges the obligation
    # outright, even though the run continues.  `into[s]` holds the
    # `(src, tid)` of each transition entering state s.
    good = [not f for f in fair]
    worklist = [s for s, ok in enumerate(good) if ok]
    for node in worklist:
        for src, tid in into[node]:
            if not good[src] and fair[src] >> tid & 1:
                good[src] = True
                worklist.append(src)
    if all(good):
        return Verdict(True)
    return Verdict(False, partial(_stuck_witness, lts, good.index(False), fair))


def check_matrix(
    test: LitmusTest, max_states: int = DEFAULT_MAX_STATES, plain: Lts | None = None
) -> dict[str, Verdict]:
    """The verdict of every model variant, keyed by `variant_token`.

    Keys follow `all_model_variants()`, the report column order.  The
    plain LTS gives the unfair verdict, the weak check with every fair
    set empty, and is the input of the monitored LTS.  One monitored
    LTS, one SCC decomposition of it and one list of the transitions
    into each of its states serve the weak and strong checks of every
    model; only the fair sets, derived from the monitored LTS's `facts`,
    differ.  `plain`, when given, is `build_plain_lts(test, max_states)`
    built by the caller, and is not explored again.  Fail verdicts build
    their witnesses on first read.
    """
    variants = all_model_variants()
    if plain is None:
        plain = build_plain_lts(test, max_states)
    elif plain.test is not test or plain.facts is not None:
        raise ValueError(f"check_matrix of {test.name!r} needs that test's plain LTS")
    verdicts = {UNFAIR_VARIANT: _weak(plain, scc_decompose(plain), [0] * len(plain))}
    lts = build_monitored_lts(plain, max_states)
    sccs = scc_decompose(lts)
    into: list[list[tuple[int, int]]] = [[] for _ in lts.out]
    for src, edges in enumerate(lts.out):
        for dst, tid in edges:
            into[dst].append((src, tid))
    for model, flavor in variants:
        if flavor is Fairness.WEAK:
            fair = lts.fair_sets(model)
            verdicts[model, Fairness.WEAK] = _weak(lts, sccs, fair)
            verdicts[model, Fairness.STRONG] = _strong(lts, into, fair)
    matrix = {variant_token(v): verdicts[v] for v in variants}
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "checked %s: %d plain states, %d monitored states, %d nontrivial SCCs, failing %s",
            test.name,
            len(plain),
            len(lts),
            sum(scc.nontrivial for scc in sccs),
            " ".join(tok for tok, v in matrix.items() if not v.passed) or "none",
        )
    return matrix


def verify_witness(test: LitmusTest, model: ProgressModel, witness: Witness) -> None:
    """Replay `witness` with `axb.step`; raise ValueError unless it
    proves a fail of `model`: of its weak check (or the unfair verdict)
    for a cycle, of its strong check for a stuck state.

    Every step must run the instruction at its thread's pc and record
    the fair set that `model` gives its source state, from the threads
    stepped so far and those terminated there.  A cycle must be
    nonempty, come back to the machine state and fair set it left, and
    step every thread of that fair set, so repeating it forever is a
    run that the model allows.  A stuck state must be where the path
    ends and record its fair set, and no path of fair steps from it may
    reach a state with an empty fair set; an end state has one.
    """
    n = test.num_threads
    lengths = [len(program) for program in test.threads]

    def fair(state: MachineState, stepped: int) -> int:
        terminated = sum(1 << t for t in range(n) if state.pcs[t] >= lengths[t])
        return fair_set(model, stepped, terminated, n)

    state, stepped = test.initial_state(), 0

    def replay(steps: tuple[WitnessStep, ...], part: str) -> None:
        nonlocal state, stepped
        for i, s in enumerate(steps):
            where = f"{part} step {i} (T{s.tid} pc={s.pc})"
            if not (0 <= s.tid < n and s.pc == state.pcs[s.tid] < lengths[s.tid]):
                raise ValueError(f"witness {where}: thread is not at that pc")
            if s.instr != test.threads[s.tid][s.pc]:
                raise ValueError(f"witness {where}: instruction differs from the test's")
            if s.fair_before != frozenset(thread_ids(fair(state, stepped))):
                raise ValueError(f"witness {where}: fair set differs from the model's")
            state = step(test, state, s.tid)
            stepped |= 1 << s.tid

    replay(witness.path, "path")
    owed = fair(state, stepped)
    if witness.kind is WitnessKind.CYCLE:
        entry = state
        replay(witness.cycle, "cycle")
        if not witness.cycle or state != entry or fair(state, stepped) != owed:
            raise ValueError("witness cycle does not close")
        if owed & ~sum(1 << t for t in {s.tid for s in witness.cycle}):
            raise ValueError("witness cycle skips a thread of its fair set")
        return
    if witness.cycle or state != witness.stuck_machine:
        raise ValueError("witness path does not end at its stuck state")
    if witness.stuck_fair != frozenset(thread_ids(owed)):
        raise ValueError("witness stuck state's fair set differs from the model's")
    queue = [(state, stepped)]
    seen = set(queue)
    for machine, mask in queue:
        owed = fair(machine, mask)
        if not owed:
            raise ValueError("a fair path from the witness's stuck state reaches an end")
        for t in thread_ids(owed):
            nxt = (step(test, machine, t), mask | 1 << t)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def format_witness(witness: Witness) -> str:
    """Render a witness one transition per line: `T<tid> pc=<i> F={...}`."""

    def fmt(step: WitnessStep) -> str:
        fair = ",".join(map(str, sorted(step.fair_before)))
        return f"T{step.tid} pc={step.pc} F={{{fair}}}"

    lines = ["# path"]
    lines.extend(fmt(s) for s in witness.path)
    if witness.kind is WitnessKind.CYCLE:
        lines.append("# cycle")
        lines.extend(fmt(s) for s in witness.cycle)
    else:
        m = witness.stuck_machine
        fair = ",".join(map(str, sorted(witness.stuck_fair or frozenset())))
        lines.append(
            f"# stuck state: mem={','.join(map(str, m.memory))} "
            f"pc={','.join(map(str, m.pcs))} F={{{fair}}}"
        )
    return "\n".join(lines) + "\n"
