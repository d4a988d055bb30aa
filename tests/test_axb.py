"""Single-step semantics of the exchange-branch machine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from progress_lab.axb import (
    AxbInstruction,
    LitmusTest,
    MachineState,
    enabled_threads,
    step,
)
from strategies import litmus_tests

I = AxbInstruction


def single(ins, num_locations=2, value_domain=2):
    return LitmusTest("t", num_locations, value_domain, ((ins,),))


def test_branch_taken_on_match():
    t = single(I(loc=0, cmp=0, jump=0))
    after = step(t, t.initial_state(), 0)
    assert after.pcs == (0,)
    assert after.memory == (0, 0)


def test_branch_falls_through_on_mismatch():
    t = single(I(loc=0, cmp=1, jump=0))
    after = step(t, t.initial_state(), 0)
    assert after.pcs == (1,)


def test_branch_reads_value_before_exchange():
    # cmp equals the value the exchange itself writes; must not self-match
    t = single(I(loc=0, cmp=1, jump=0, exch=1))
    after = step(t, t.initial_state(), 0)
    assert after.pcs == (1,)
    assert after.memory == (1, 0)


def test_exchange_applies_on_both_outcomes():
    t = single(I(0, 0, 0, exch=1))
    taken = step(t, t.initial_state(), 0)
    assert taken.memory == (1, 0) and taken.pcs == (0,)
    t2 = single(I(0, 1, 0, exch=1))
    fell = step(t2, t2.initial_state(), 0)
    assert fell.memory == (1, 0) and fell.pcs == (1,)


def test_jump_to_program_length_terminates():
    t = single(I(0, 0, 1))
    after = step(t, t.initial_state(), 0)
    # the only thread's pc is past its program: it and the test are done
    assert after.pcs == (len(t.threads[0]),)


def test_enabled_threads_excludes_terminated():
    t = LitmusTest("t", 1, 1, ((I(0, 0, 1),), (I(0, 0, 0),)))
    s = MachineState((0,), (1, 0))
    assert enabled_threads(t, s) == (1,)


def test_step_rejects_bad_thread_and_terminated():
    t = single(I(0, 0, 1))
    with pytest.raises(ValueError):
        step(t, t.initial_state(), 1)
    done = MachineState((0, 0), (1,))
    with pytest.raises(ValueError):
        step(t, done, 0)


@pytest.mark.parametrize(
    "bad",
    [
        dict(num_locations=0, value_domain=2, threads=((I(0, 0, 0),),)),
        dict(num_locations=1, value_domain=0, threads=((I(0, 0, 0),),)),
        dict(num_locations=1, value_domain=2, threads=()),
        dict(num_locations=1, value_domain=2, threads=((),)),
        dict(num_locations=1, value_domain=2, threads=((I(1, 0, 0),),)),
        dict(num_locations=1, value_domain=2, threads=((I(0, 2, 0),),)),
        dict(num_locations=1, value_domain=2, threads=((I(0, 0, 2),),)),
        dict(num_locations=1, value_domain=2, threads=((I(0, 0, 0, exch=2),),)),
    ],
)
def test_validation_rejects(bad):
    with pytest.raises(ValueError):
        LitmusTest("t", **bad)


@pytest.mark.parametrize(
    "threads, message",
    [
        (((I(0, 0, 1), I(1, 0, 2)),), "thread 0, instruction 1: location 1 out of range"),
        (((I(0, 0, 1),), (I(0, 2, 1),)), "thread 1, instruction 0: compare value 2 out of range"),
        (((I(0, 0, 1, exch=2),),), "thread 0, instruction 0: exchange value 2 out of range"),
        (((I(0, 0, 2),),), "thread 0, instruction 0: jump target 2 out of range"),
        (((I(0, 0, -1),),), "thread 0, instruction 0: jump target -1 out of range"),
        (((I(0, 0, 1),), ()), "thread 1 has no instructions"),
        # An instruction breaking several bounds reports the first of
        # location, compare value, exchange value, jump target.
        (((I(1, 2, 5, exch=2),),), "thread 0, instruction 0: location 1 out of range"),
        (((I(0, 2, 5, exch=2),),), "thread 0, instruction 0: compare value 2 out of range"),
        (((I(0, 0, 5, exch=2),),), "thread 0, instruction 0: exchange value 2 out of range"),
    ],
)
def test_validation_messages_are_exact(threads, message):
    with pytest.raises(ValueError) as err:
        LitmusTest("t", 1, 2, threads)
    assert str(err.value) == message


def test_counts_and_initial_state():
    t = LitmusTest("t", 2, 2, ((I(0, 0, 1),), (I(1, 0, 0), I(1, 1, 2))))
    assert t.num_threads == 2
    assert t.initial_state() == MachineState((0, 0), (0, 0))


@given(litmus_tests(), st.data())
def test_step_stays_in_bounds(t, data):
    state = t.initial_state()
    for _ in range(20):
        enabled = enabled_threads(t, state)
        if not enabled:
            assert all(pc == len(prog) for pc, prog in zip(state.pcs, t.threads))
            break
        tid = data.draw(st.sampled_from(enabled))
        state = step(t, state, tid)
        assert all(0 <= v < t.value_domain for v in state.memory)
        assert all(
            0 <= pc <= len(prog) for pc, prog in zip(state.pcs, t.threads)
        )
        # only the stepped thread moved
        assert len(state.pcs) == t.num_threads


@given(litmus_tests())
def test_step_is_deterministic(t):
    a = step(t, t.initial_state(), 0)
    b = step(t, t.initial_state(), 0)
    assert a == b


@given(litmus_tests(), st.data())
def test_step_only_touches_own_pc_and_loc(t, data):
    state = t.initial_state()
    enabled = enabled_threads(t, state)
    tid = data.draw(st.sampled_from(enabled))
    ins = t.threads[tid][state.pcs[tid]]
    after = step(t, state, tid)
    for other in range(t.num_threads):
        if other != tid:
            assert after.pcs[other] == state.pcs[other]
    for loc in range(t.num_locations):
        if loc != ins.loc:
            assert after.memory[loc] == state.memory[loc]
