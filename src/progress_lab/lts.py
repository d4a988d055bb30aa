"""Labeled transition systems over litmus tests.

Two constructions share one representation and one breadth-first
explorer, `_explore`, which numbers states, enforces the state budget
and lists each state's successors, so `Lts.out[s]` is state s's list of
`(dst, tid)` pairs; a state without successors is an end state.  An
edge is `(src, dst, tid)`: the instruction it runs is the one at thread
`tid`'s pc in state `src`.  `Lts.transitions` lays the edges out flat
for output and is rebuilt on every access.  The constructions differ
only in their successor function.  The plain LTS explores machine states
only; it is the one exploration that runs `axb.step`.  The monitored LTS
is its product with the stepped-set monitor: each plain state paired
with the set of threads that have stepped, plus the threads that have
terminated there: those with no out-edge, since every instruction can
execute.  Thread sets are int bitmasks, bit t standing for thread t, as
in `models`.
Both kinds hold machine states in `Lts.states`; a monitored LTS also
holds each state's `(stepped, terminated)` mask pair in `Lts.facts`,
which is None for a plain one.  The monitored LTS does not depend on any
progress model: only the fair set of a state does, so one monitored LTS
and one `scc_decompose` of it serve every model, and `Lts.fair_sets`
derives the fair sets of one model from the facts.  A transition's fair
label is the fair set of its *source* state, i.e. the guarantee in
force before the step.
Termination is folded into the completing step (the target state's
facts already record it), so there are no separate termination
transitions; cycles therefore never contain one, and the oracle treats
terminations as freely available along escape paths.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .axb import LitmusTest, MachineState, enabled_threads, step
from .models import ProgressModel, fair_set, thread_ids

DEFAULT_MAX_STATES = 10**6


def _csv(ids) -> str:
    return ",".join(map(str, ids))


class ExplorationLimitError(RuntimeError):
    """Raised when exploration exceeds the configured state budget."""


class Transition(NamedTuple):
    """One step: thread `tid` runs its instruction at its pc in state
    `src`, moving to state `dst`."""

    src: int
    dst: int
    tid: int


class Lts:
    """Reachable states (index 0 = initial) plus labeled transitions.

    `states[i]` is the machine state of state i.  `facts[i]` is its
    `(stepped, terminated)` thread masks in a monitored LTS; `facts` is
    None in a plain one.  `out[i]` is state i's successors as `(dst, tid)`
    pairs, in ascending thread id.  State numbering is breadth-first
    discovery order with threads explored in ascending id, so it is
    deterministic.
    """

    def __init__(
        self,
        test: LitmusTest,
        states: list[MachineState],
        out: list[list[tuple[int, int]]],
        facts: list[tuple[int, int]] | None = None,
    ):
        self.test = test
        self.states = states
        self.facts = facts
        self.out = out
        self.end_states = [s for s, edges in enumerate(out) if not edges]
        self.initial = 0

    @property
    def transitions(self) -> list[Transition]:
        """Every edge, by source state and then thread id, for output;
        built anew on each access."""
        return [Transition(src, dst, tid) for src, succ in enumerate(self.out) for dst, tid in succ]

    def fair_sets(self, model: ProgressModel) -> list[int]:
        """The fair-set mask of every state under `model`, indexed by state id."""
        if self.facts is None:
            raise ValueError("a plain LTS carries no scheduler facts")
        n = self.test.num_threads
        return [fair_set(model, stepped, terminated, n) for stepped, terminated in self.facts]

    def __len__(self) -> int:
        return len(self.states)

    def to_dot(self, model: ProgressModel | None = None) -> str:
        """Graphviz rendering of `to_json_dict(model)`; edges carry
        `model`'s fair sets when given."""
        doc = self.to_json_dict(model)
        ends = set(doc["end_states"])
        lines = ["digraph lts {", "  rankdir=LR;"]
        for idx, state in enumerate(doc["states"]):
            label = f"s{idx}\\nmem={_csv(state['memory'])}\\npc={_csv(state['pcs'])}"
            if "stepped" in state:
                label += f"\\nstepped={{{_csv(state['stepped'])}}}"
            shape = "doublecircle" if idx in ends else "circle"
            lines.append(f'  s{idx} [shape={shape}, label="{label}"];')
        for tr in doc["transitions"]:
            label = f"T{tr['tid']}"
            if tr["fair"] is not None:
                label += f":{{{_csv(tr['fair'])}}}"
            lines.append(f'  s{tr["src"]} -> s{tr["dst"]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self, model: ProgressModel | None = None) -> dict:
        fair = None if model is None else self.fair_sets(model)
        states = []
        for idx, m in enumerate(self.states):
            entry: dict = {"memory": list(m.memory), "pcs": list(m.pcs)}
            if self.facts is not None:
                stepped, terminated = self.facts[idx]
                entry["stepped"] = thread_ids(stepped)
                entry["terminated"] = thread_ids(terminated)
            states.append(entry)
        transitions = [
            {
                "src": tr.src,
                "dst": tr.dst,
                "tid": tr.tid,
                "instr": asdict(self.test.threads[tr.tid][self.states[tr.src].pcs[tr.tid]]),
                "fair": None if fair is None else thread_ids(fair[tr.src]),
            }
            for tr in self.transitions
        ]
        return {
            "test": self.test.name,
            "model": None if model is None else model.value,
            "initial": self.initial,
            "states": states,
            "transitions": transitions,
            "end_states": list(self.end_states),
        }

    def to_json(self, model: ProgressModel | None = None) -> str:
        return json.dumps(self.to_json_dict(model), indent=2, sort_keys=True) + "\n"


def _explore(test: LitmusTest, kind: str, root, successors, max_states: int):
    """Breadth-first closure of `successors` from `root`.

    `successors(key)` yields `(key', tid)` in ascending thread id.
    Returns the keys in discovery order and each key's `(dst, tid)`
    successor list.
    """
    index = {root: 0}
    keys = [root]
    out: list[list[tuple[int, int]]] = []
    for key in keys:
        edges = []
        for succ, tid in successors(key):
            dst = index.get(succ)
            if dst is None:
                if len(keys) >= max_states:
                    raise ExplorationLimitError(
                        f"{kind} LTS of {test.name!r} exceeds {max_states} states"
                    )
                dst = index[succ] = len(keys)
                keys.append(succ)
            edges.append((dst, tid))
        out.append(edges)
    return keys, out


def build_plain_lts(test: LitmusTest, max_states: int = DEFAULT_MAX_STATES) -> Lts:
    """Breadth-first closure of `step` over all enabled threads.

    Always-enabled semantics: only full termination disables a test.
    """

    def successors(state: MachineState):
        for tid in enabled_threads(test, state):
            yield step(test, state, tid), tid

    states, out = _explore(test, "plain", test.initial_state(), successors, max_states)
    return Lts(test, states, out)


def build_monitored_lts(plain: Lts, max_states: int = DEFAULT_MAX_STATES) -> Lts:
    """The product of `plain` with the stepped-set monitor.

    A product state pairs a plain state with the mask of threads that
    have stepped so far; each plain transition by thread t moves the pair
    (p, stepped) to (dst, stepped | 1 << t).  The stepped mask is part of
    the state because the fair set must be a function of the state, and
    two histories reaching one machine state with different stepped sets
    carry different guarantees under some model.  Every AXB instruction
    can execute, so the threads that have terminated in a plain state are
    those with no out-edge from it.  Each product state reuses its plain
    state's `MachineState` and records its `(stepped, terminated)` masks
    in the parallel `facts` list.  Successors follow the plain LTS's order
    (ascending thread id), so numbering is deterministic.  A pair over a
    plain end state has no successors, which makes it an end state.
    """
    test = plain.test
    everyone = (1 << test.num_threads) - 1
    terminated = [everyone - sum(1 << tid for _, tid in edges) for edges in plain.out]

    def successors(pair: tuple[int, int]):
        p, stepped = pair
        return (((dst, stepped | 1 << tid), tid) for dst, tid in plain.out[p])

    pairs, out = _explore(test, "monitored", (0, 0), successors, max_states)
    states = [plain.states[p] for p, _ in pairs]
    facts = [(stepped, terminated[p]) for p, stepped in pairs]
    return Lts(test, states, out, facts)


@dataclass(frozen=True, slots=True)
class Scc:
    """One strongly connected component of an LTS.

    `members` are its state ids, ascending.  `stepping` is the mask of
    thread ids on the transitions with both endpoints in the component.
    A component is nontrivial when it can be looped in: two or more
    states, or a single state with a self-loop; either way it has such a
    transition.
    """

    members: tuple[int, ...]
    stepping: int
    nontrivial: bool


def scc_decompose(lts: Lts) -> list[Scc]:
    """Tarjan's algorithm, iterative to cope with deep spin chains.

    Each frame of the depth-first stack keeps its state's out-edge
    iterator.  A visited state whose component is not yet assigned is
    still on Tarjan's stack.  Components are returned sorted by smallest
    member id, so the order is deterministic and independent of
    traversal details.
    """
    n = len(lts.states)
    index_of = [-1] * n
    low = [0] * n
    comp_of = [-1] * n
    stack: list[int] = []
    comp_count = 0
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(lts.out[root]))]
        while work:
            node, edges = work[-1]
            for succ, _ in edges:
                if index_of[succ] == -1:
                    index_of[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    work.append((succ, iter(lts.out[succ])))
                    break
                if comp_of[succ] == -1:
                    low[node] = min(low[node], index_of[succ])
            else:
                work.pop()
                if low[node] == index_of[node]:
                    while True:
                        member = stack.pop()
                        comp_of[member] = comp_count
                        if member == node:
                            break
                    comp_count += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

    # Filled in ascending state id, so each member list is ascending and
    # the components come in order of their smallest member.
    members: dict[int, list[int]] = {}
    for node, c in enumerate(comp_of):
        members.setdefault(c, []).append(node)
    stepping = [0] * comp_count
    for c, edges in zip(comp_of, lts.out):
        for dst, tid in edges:
            if comp_of[dst] == c:
                stepping[c] |= 1 << tid
    return [Scc(tuple(m), stepping[c], stepping[c] != 0) for c, m in members.items()]
