import gc
import os
import re
import threading

import pytest

from adtape import (
    BANDWIDTH,
    DAG,
    DCG,
    FLAT,
    LVALUE,
    SeedError,
    SlotCollisionError,
    Tape,
    TapeError,
    adjoint_slot_count,
    gradient_check,
    propagate,
    propagate_bandwidth,
    propagate_flat,
    propagate_lvalue,
    record_problem,
)
from adtape.blockstore import BlockStoreError
from adtape.problems import IntroExample

from helpers import STORES, RandomProgram

INTRO_GRAD = 0.4823553972640679


@pytest.fixture
def intro_dag():
    return record_problem(IntroExample(), [1.0], mode=DAG)


@pytest.fixture
def intro_dcg():
    return record_problem(IntroExample(), [1.0], mode=DCG)


def trace(propagator, tape):
    states = []
    grad = propagator(tape, [1.0], on_step=lambda v: states.append(v))
    return grad, states


def rounded(state):
    return [round(x, 2) for x in state]


def test_intro_slot_counts(intro_dag, intro_dcg):
    assert adjoint_slot_count(intro_dag.stats(), FLAT) == 7
    assert adjoint_slot_count(intro_dag.stats(), BANDWIDTH) == 6
    assert adjoint_slot_count(intro_dcg.stats(), LVALUE) == 5


def test_flat_trace_and_gradient(intro_dag):
    grad, states = trace(propagate_flat, intro_dag)
    assert grad == pytest.approx([INTRO_GRAD], abs=1e-15)
    assert len(states) == 6
    # after the first reverse step the output adjoint has moved to its preds
    assert states[0] == [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    assert rounded(states[1]) == [1.0, 0.0, 0.0, 0.0, 1.98, 0.0, 0.0]


def test_bandwidth_trace_and_gradient(intro_dag):
    grad, states = trace(propagate_bandwidth, intro_dag)
    assert grad == pytest.approx([INTRO_GRAD], abs=1e-15)
    assert all(len(v) == 6 for v in states)
    assert states[0] == [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    assert rounded(states[1]) == [1.0, 0.0, 0.0, 0.0, 1.98, 0.0]


def test_lvalue_trace_and_gradient(intro_dcg):
    grad, states = trace(propagate_lvalue, intro_dcg)
    assert grad == pytest.approx([INTRO_GRAD], abs=1e-15)
    assert all(len(v) == 5 for v in states)
    assert states[0] == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert states[1] == [1.0, 0.0, 0.0, 0.0, 1.0]


def test_strategies_agree_exactly(intro_dag, intro_dcg):
    flat = propagate_flat(intro_dag, [1.0])
    band = propagate_bandwidth(intro_dag, [1.0])
    lval = propagate_lvalue(intro_dcg, [1.0])
    assert flat == band  # same tape, same arithmetic order
    assert lval == pytest.approx(flat, rel=1e-12)


def test_product_rule():
    t = Tape(DAG)
    x, y = t.register_input(), t.register_input()
    r = t.record([(x, 5.0), (y, 3.0)])  # z = x * y at (3, 5)
    t.register_output(r)
    t.finalize()
    assert propagate_flat(t, [1.0]) == [5.0, 3.0]
    assert propagate_bandwidth(t, [1.0]) == [5.0, 3.0]


def test_pure_copy_tape_slot_count():
    t = Tape(DCG)
    x = t.register_input()
    y = t.declare_lvalue()
    t.record([(x, 1.0)], result=y)
    t.register_output(y)
    t.finalize()
    assert adjoint_slot_count(t.stats(), LVALUE) == 2
    assert propagate_lvalue(t, [3.0]) == [3.0]


def test_seed_length_checked(intro_dag, intro_dcg):
    for prop, tape in ((propagate_flat, intro_dag),
                       (propagate_bandwidth, intro_dag),
                       (propagate_lvalue, intro_dcg)):
        with pytest.raises(SeedError, match="1 outputs"):
            prop(tape, [1.0, 2.0])


def test_strategy_mode_mismatch(intro_dag, intro_dcg):
    with pytest.raises(TapeError, match="DAG"):
        propagate_flat(intro_dcg, [1.0])
    with pytest.raises(TapeError, match="DAG"):
        propagate_bandwidth(intro_dcg, [1.0])
    with pytest.raises(TapeError, match="DCG"):
        propagate_lvalue(intro_dag, [1.0])
    with pytest.raises(ValueError, match="nope"):
        propagate(intro_dag, [1.0], "nope")
    with pytest.raises(ValueError, match="nope"):
        adjoint_slot_count(intro_dag.stats(), "nope")


def test_seed_collision_on_two_outputs():
    t = Tape(DAG)
    x = t.register_input()
    a = t.record([(x, 1.0)])
    b = t.record([(a, 1.0)])
    c = t.record([(b, 1.0)])
    t.register_output(a)
    t.register_output(c)
    t.finalize()
    # width is max(beta, n, m) = 2, so outputs 1 and 3 share slot 1
    with pytest.raises(SlotCollisionError, match="both seed slot"):
        propagate_bandwidth(t, [1.0, 1.0])


def test_result_clobbering_live_output_detected():
    t = Tape(DAG)
    x = t.register_input()
    ids = [x]
    for _ in range(4):
        ids.append(t.record([(ids[-1], 1.0)]))
    t.register_output(ids[1])
    t.register_output(ids[4])
    t.finalize()
    # width 2: vertex 3 lands in slot 1 while seeded output 1 still waits
    with pytest.raises(SlotCollisionError, match="clobbers live seeded"):
        propagate_bandwidth(t, [1.0, 1.0])


def test_lvalue_outputs_read_and_reassigned():
    # y = 2x; z = 3y; z = 5x: y is read after its last assignment and z is
    # assigned twice, and neither is a slot collision
    t = Tape(DCG)
    x = t.register_input()
    y, z = t.declare_lvalue(), t.declare_lvalue()
    t.record([(x, 2.0)], result=y)
    t.record([(y, 3.0)], result=z)
    t.record([(x, 5.0)], result=z)
    t.register_output(y)
    t.register_output(z)
    t.finalize()
    assert propagate_lvalue(t, [1.0, 1.0]) == [7.0]


def test_seed_linearity(intro_dag, intro_dcg):
    for prop, tape in ((propagate_flat, intro_dag),
                       (propagate_bandwidth, intro_dag),
                       (propagate_lvalue, intro_dcg)):
        one = prop(tape, [1.0])
        two = prop(tape, [2.0])
        zero = prop(tape, [0.0])
        assert two == pytest.approx([2.0 * g for g in one], rel=1e-15)
        assert zero == [0.0]


def test_slots_cleared_after_sweep(intro_dag, intro_dcg):
    grad, slots = propagate_flat(intro_dag, [1.0], return_slots=True)
    assert slots[intro_dag.n:] == [0.0] * (len(slots) - intro_dag.n)
    assert slots[:intro_dag.n] == grad
    grad, slots = propagate_lvalue(intro_dcg, [1.0], return_slots=True)
    assert slots[intro_dcg.n:] == [0.0] * (len(slots) - intro_dcg.n)


def test_sweep_is_repeatable(intro_dag):
    assert propagate_flat(intro_dag, [1.0]) == propagate_flat(intro_dag, [1.0])


def test_gradient_check_intro():
    assert gradient_check(IntroExample(), fd_step=1e-6) < 1e-9
    assert gradient_check(IntroExample(), strategy=LVALUE) < 1e-9


def test_gradient_check_reuses_supplied_tape(intro_dag):
    err = gradient_check(IntroExample(), x=[1.0], tape=intro_dag)
    assert err < 1e-9


def spilled_chain(tmp_path, length, prefetch, outputs=(-1,), edge=None):
    """x -> v1 -> ... -> v_length on a DAG tape of 4-entry blocks with one
    resident, so nearly every block of both streams is on disk; ``edge``
    ``(u, v)`` makes vertex ``v`` read vertex ``u`` too."""
    t = Tape(DAG, block_entries=4, budget_blocks=1, spill_dir=str(tmp_path),
             prefetch=prefetch)
    ids = [t.register_input()]
    for k in range(length):
        preds = [(ids[-1], 1.0 + k / 64)]
        if edge is not None and edge[1] == len(ids):
            preds.append((ids[edge[0]], 0.5))
        ids.append(t.record(preds))
    for k in outputs:
        t.register_output(ids[k])
    t.finalize()
    return t


@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize("stream", ["s", "d"])
def test_sweep_reports_corrupt_block(tmp_path, stream, prefetch):
    tape = spilled_chain(tmp_path, 20, prefetch)
    (victim,) = tmp_path.glob(f"adtape-{stream}-*.blk")
    blob = victim.read_bytes()
    victim.write_bytes(b"garbage!" + blob[8:])
    with pytest.raises(BlockStoreError,
                       match=re.escape(f"{stream}: corrupt block 0 at {victim}")):
        propagate_flat(tape, [1.0])


@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize("stream", ["s", "d"])
def test_sweep_reports_missing_block(tmp_path, stream, prefetch):
    tape = spilled_chain(tmp_path, 20, prefetch)
    store = tape._s if stream == "s" else tape._d
    spilled = store.bytes_spilled // (8 * store.block_entries)
    record_bytes = 16 + 8 * store.block_entries
    (victim,) = tmp_path.glob(f"adtape-{stream}-*.blk")
    os.truncate(victim, (spilled - 1) * record_bytes)
    with pytest.raises(BlockStoreError,
                       match=re.escape(
                           f"{stream}: truncated block {spilled - 1} at {victim}")):
        propagate_flat(tape, [1.0])


@pytest.mark.parametrize("prefetch", [False, True])
def test_on_step_sees_one_copy_per_elemental_on_tiny_blocks(tmp_path, prefetch):
    prog = RandomProgram(7)
    x = prog.default_point()
    tiny = record_problem(prog, x, mode=DCG, spill_dir=str(tmp_path),
                          prefetch=prefetch, **STORES["tiny"])
    plain = record_problem(prog, x, mode=DCG)
    assert tiny.store_stats()["d"]["bytes_spilled"] > 0
    seen, expected = [], []
    grad, slots = propagate_lvalue(tiny, [1.0], on_step=seen.append,
                                   return_slots=True)
    assert propagate_lvalue(plain, [1.0], on_step=expected.append) == grad
    assert len(seen) == tiny.q
    assert seen == expected
    assert seen[-1] == slots and seen[-1] is not slots
    assert len({id(state) for state in seen}) == tiny.q


@pytest.mark.parametrize("prefetch", [False, True])
def test_collision_mid_sweep_leaves_no_reader_behind(tmp_path, prefetch):
    # the edge 1 -> 22 makes the width max(beta, n, m) = 21, so vertex 22
    # takes the slot of seeded output 1 halfway down the chain, while older
    # blocks are still on disk
    tape = spilled_chain(tmp_path, 42, prefetch, outputs=(1, -1), edge=(1, 22))
    threads = set(threading.enumerate())
    with pytest.raises(SlotCollisionError, match="vertex 22 clobbers"):
        propagate_bandwidth(tape, [1.0, 1.0])
    assert tape._s.blocks_read < tape._s.blocks_written
    for thread in set(threading.enumerate()) - threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    del tape
    gc.collect()
    assert list(tmp_path.iterdir()) == []
