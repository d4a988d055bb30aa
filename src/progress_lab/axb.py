"""Core language: litmus tests, machine states, and single-step semantics.

A test is a fixed set of threads, each a short program of atomic
exchange-branch instructions over a small shared memory of single-word
locations.  Memory starts all-zero.  The only thread-local state is the
program counter; a thread has terminated once its counter equals its
program length.  There is no other control flow and no local storage,
which keeps the reachable state space tiny and fully explorable.
"""

from __future__ import annotations

from dataclasses import dataclass

# Locations and values are small non-negative ints, bounded per test by
# `num_locations` and `value_domain`.
LocationId = int
Value = int


@dataclass(frozen=True, slots=True)
class AxbInstruction:
    """One atomic compare-branch with an optional exchange write.

    Executed atomically:

        pc <- jump          if memory[loc] == cmp
        pc <- pc + 1        otherwise
        memory[loc] <- exch if exch is not None

    The branch always reads the pre-exchange value.  A `jump` equal to
    the owning thread's program length branches to termination.  With
    ``jump == index + 1`` both outcomes coincide, so the instruction
    acts as a plain store (or, with ``exch=None``, a read that is
    discarded).
    """

    loc: LocationId
    cmp: Value
    jump: int
    exch: Value | None = None


@dataclass(frozen=True, slots=True)
class MachineState:
    """Immutable snapshot: one word per location, one pc per thread."""

    memory: tuple[Value, ...]
    pcs: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class LitmusTest:
    """A named multi-threaded program plus its location/value bounds."""

    name: str
    num_locations: int
    value_domain: int
    threads: tuple[tuple[AxbInstruction, ...], ...]

    def __post_init__(self) -> None:
        # Suites and emitted kernels are files named after the test.
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise ValueError(f"test name {self.name!r} is not a single path component")
        # Litmus text holds the name as the one word before any comment.
        if "#" in self.name or self.name.split() != [self.name]:
            raise ValueError(
                f"test name {self.name!r} has whitespace or '#', which litmus text cannot carry"
            )
        if self.num_locations < 1:
            raise ValueError("a test needs at least one memory location")
        if self.value_domain < 1:
            raise ValueError("value domain must contain at least one value")
        if not self.threads:
            raise ValueError("a test needs at least one thread")
        nl, vd = self.num_locations, self.value_domain
        for tid, program in enumerate(self.threads):
            if not program:
                raise ValueError(f"thread {tid} has no instructions")
            # jump == len(program) is the explicit branch to "done".
            n = len(program)
            for idx, ins in enumerate(program):
                exch = ins.exch
                if not (
                    0 <= ins.loc < nl
                    and 0 <= ins.cmp < vd
                    and (exch is None or 0 <= exch < vd)
                    and 0 <= ins.jump <= n
                ):
                    self._reject(tid, idx, ins)

    def _reject(self, tid: int, idx: int, ins: AxbInstruction) -> None:
        """Raise the error for the first bound that `ins` breaks."""
        where = f"thread {tid}, instruction {idx}"
        if not 0 <= ins.loc < self.num_locations:
            raise ValueError(f"{where}: location {ins.loc} out of range")
        if not 0 <= ins.cmp < self.value_domain:
            raise ValueError(f"{where}: compare value {ins.cmp} out of range")
        if ins.exch is not None and not 0 <= ins.exch < self.value_domain:
            raise ValueError(f"{where}: exchange value {ins.exch} out of range")
        raise ValueError(f"{where}: jump target {ins.jump} out of range")

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def initial_state(self) -> MachineState:
        return MachineState((0,) * self.num_locations, (0,) * self.num_threads)


def relabel_locations(threads, perm) -> tuple[tuple[AxbInstruction, ...], ...]:
    """`threads` with each instruction's location `loc` renamed `perm[loc]`.

    `perm` (a sequence or a dict) must map every location the threads use.
    """
    return tuple(
        tuple(AxbInstruction(perm[ins.loc], ins.cmp, ins.jump, ins.exch) for ins in thread)
        for thread in threads
    )


def enabled_threads(test: LitmusTest, state: MachineState) -> tuple[int, ...]:
    """Threads that may step: exactly the non-terminated ones.

    An AXB instruction is always executable (it cannot block), so
    enabledness never depends on memory contents.
    """
    return tuple(
        tid for tid, prog in enumerate(test.threads) if state.pcs[tid] < len(prog)
    )


def execute(ins: AxbInstruction, pc: int, value: Value) -> tuple[int, Value]:
    """The AXB rule: (next pc, value left at `ins.loc`) from the value read.

    The branch reads the pre-exchange value, then the exchange writes.
    """
    next_pc = ins.jump if value == ins.cmp else pc + 1
    return next_pc, value if ins.exch is None else ins.exch


def step(test: LitmusTest, state: MachineState, tid: int) -> MachineState:
    """Execute one instruction of `tid` atomically, returning the new state."""
    if not 0 <= tid < test.num_threads:
        raise ValueError(f"no thread {tid} in test {test.name!r}")
    program = test.threads[tid]
    pc = state.pcs[tid]
    if pc >= len(program):
        raise ValueError(f"thread {tid} of test {test.name!r} has terminated")
    ins = program[pc]
    value = state.memory[ins.loc]
    new_pc, left = execute(ins, pc, value)
    pcs = state.pcs[:tid] + (new_pc,) + state.pcs[tid + 1 :]
    memory = state.memory
    if left != value:
        memory = memory[: ins.loc] + (left,) + memory[ins.loc + 1 :]
    return MachineState(memory, pcs)
