import gc
import hashlib
import inspect
import math
import os
import re
import threading
import traceback
from array import array
from itertools import islice

import pytest

from adtape import (
    BANDWIDTH,
    DAG,
    DCG,
    FLAT,
    LVALUE,
    Recorder,
    SeedError,
    STRATEGIES,
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
from adtape import interpret
from adtape import scalar as ops
from adtape.blockstore import BlockStoreError
from adtape.interpret import STRATEGY_MODE, max_rel_err
from adtape.problems import (BlackScholesFD, Burgers, IntroExample, LiborMC,
                             record_evolution)
from adtape.rng import Xorshift
from adtape.tapefile import _derive_stats

from helpers import (RECORD_LOOPS, STORES, RandomProgram, bits, run_child,
                     zero_arity_tape)

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
    with pytest.raises(SlotCollisionError) as exc:
        propagate_bandwidth(t, [1.0, 1.0])
    assert str(exc.value) == ("result vertex 3 clobbers live seeded output 1 "
                              "in slot 1")


def test_intro_dag_outputs_collide_under_bandwidth():
    t = Tape(DAG)
    IntroExample().run(Recorder(t), [1.0])
    t.register_output(t.inputs[0])
    t.finalize()
    # width max(beta, n, m) = 6: the result 6 and the input 0 share slot 0
    assert t.outputs == [6, 0]
    with pytest.raises(SlotCollisionError) as exc:
        propagate_bandwidth(t, [1.0, 1.0])
    assert str(exc.value) == "outputs 6 and 0 both seed slot 0"
    assert propagate_flat(t, [0.0, 1.0]) == [1.0]


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


def test_gradient_check_unknown_strategy():
    """The error ``propagate`` raises, before any recording."""
    with pytest.raises(ValueError, match="unknown strategy 'nope'"):
        gradient_check(IntroExample(), strategy="nope")


def test_gradient_check_reuses_supplied_tape(intro_dag):
    err = gradient_check(IntroExample(), x=[1.0], tape=intro_dag)
    assert err < 1e-9


@pytest.mark.parametrize("grad, reference", [([math.nan], [1.0]),
                                             ([math.inf], [1.0]),
                                             ([1.0], [math.nan])])
def test_max_rel_err_fails_non_finite_components(grad, reference):
    assert max_rel_err(grad, reference) == math.inf
    assert max_rel_err([0.5, *grad], [0.5, *reference]) == math.inf


def test_max_rel_err_refuses_vectors_of_different_lengths():
    with pytest.raises(ValueError, match="zip"):
        max_rel_err([1.0, 2.0], [1.0])
    # a Burgers tape has 6 inputs, the intro example 1
    burgers = Burgers(nx=6, nt=8)
    tape = record_problem(burgers, burgers.default_point(), mode=DAG)
    with pytest.raises(ValueError, match="zip"):
        gradient_check(IntroExample(), tape=tape)


def test_max_rel_err_fails_an_overflowed_gradient():
    # every partial is finite, their product is not
    t = Tape(DAG)
    x = t.register_input()
    y = t.record([(x, 1e308)])
    t.register_output(t.record([(y, 1e308)]))
    t.finalize()
    grad = propagate_flat(t, [1.0])
    assert grad == [math.inf]
    assert max_rel_err(grad, grad) == math.inf


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


@pytest.mark.parametrize("strategy", [FLAT, BANDWIDTH, LVALUE])
@pytest.mark.parametrize("prefetch", [False, True])
def test_on_step_sees_one_copy_per_elemental_on_tiny_blocks(tmp_path, prefetch,
                                                            strategy):
    prog = RandomProgram(7)
    x = prog.default_point()
    mode = STRATEGY_MODE[strategy]
    tiny = record_problem(prog, x, mode=mode, spill_dir=str(tmp_path),
                          prefetch=prefetch, **STORES["tiny"])
    plain = record_problem(prog, x, mode=mode)
    assert tiny.store_stats()["d"]["bytes_spilled"] > 0
    seen, expected = [], []
    grad, slots = propagate(tiny, [1.0], strategy, on_step=seen.append,
                            return_slots=True)
    assert propagate(plain, [1.0], strategy, on_step=expected.append) == grad
    assert len(seen) == tiny.q
    assert seen == expected
    assert seen[-1] == slots and seen[-1] is not slots
    assert len({id(state) for state in seen}) == tiny.q


@pytest.mark.parametrize("strategy", [FLAT, BANDWIDTH, LVALUE])
def test_on_step_error_leaves_no_reader_behind(tmp_path, strategy):
    prog = RandomProgram(7)
    tape = record_problem(prog, prog.default_point(),
                          mode=STRATEGY_MODE[strategy],
                          spill_dir=str(tmp_path), **STORES["tiny"])
    assert tape.q > 3
    calls = []

    def third_fails(state):
        calls.append(state)
        if len(calls) == 3:
            raise ValueError("third step")

    with pytest.raises(ValueError, match="third step"):
        propagate(tape, [1.0], strategy, on_step=third_fails)
    assert len(calls) == 3
    del tape
    gc.collect()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("prefetch", [False, True])
def test_collision_mid_sweep_leaves_no_reader_behind(tmp_path, prefetch):
    # the edge 1 -> 22 makes the width max(beta, n, m) = 21, so vertex 22
    # takes the slot of seeded output 1 halfway down the chain, while older
    # blocks are still on disk
    tape = spilled_chain(tmp_path, 42, prefetch, outputs=(1, -1), edge=(1, 22))
    threads = set(threading.enumerate())
    read = tape._s.blocks_read, tape._d.blocks_read
    steps = []
    with pytest.raises(SlotCollisionError, match="vertex 22 clobbers"):
        propagate_bandwidth(tape, [1.0, 1.0], on_step=steps.append)
    assert tape._s.blocks_read < tape._s.blocks_written
    # the collision is decided before the sweep reads a block or a record
    assert (tape._s.blocks_read, tape._d.blocks_read) == read
    assert steps == []
    for thread in set(threading.enumerate()) - threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    del tape
    gc.collect()
    assert list(tmp_path.iterdir()) == []


class PassiveAssign:
    """An L-value set to x * y, overwritten with a constant (a zero-arity
    record on a DCG tape), then set to sin(x) + y."""

    def run(self, ctx, x):
        u, v = ctx.input(x[0]), ctx.input(x[1])
        a = ctx.lvalue()
        a = ctx.assign(a, u * v)
        a = ctx.assign(a, 1.5)
        a = ctx.assign(a, ops.sin(u) + v)
        ctx.output(a)


#: tapes holding zero-arity, unary, binary and n-ary records between them
LOCKSTEP_TAPES = {
    "dcg-passive-assign": lambda cfg: record_problem(
        PassiveAssign(), [0.5, 2.0], mode=DCG, **cfg),
    "dcg-hand": lambda cfg: zero_arity_tape(DCG, **cfg),
    "dag-hand": lambda cfg: zero_arity_tape(DAG, **cfg),
    "dag-intro": lambda cfg: record_problem(IntroExample(4), [1.0], mode=DAG,
                                            **cfg),
    "dag-evolution": lambda cfg: record_evolution(
        [0.3, 0.7, 1.1], [[0.5, -0.2, 0.1], [0.3, 0.4, -0.6],
                          [-0.1, 0.2, 0.9]], 4, **cfg),
}


@pytest.mark.parametrize("store", [{}, {"block_entries": 4, "budget_blocks": 1}],
                         ids=["inmem", "spilled"])
@pytest.mark.parametrize("name", list(LOCKSTEP_TAPES))
def test_reverse_passes_leave_exactly_the_inputs(tmp_path, monkeypatch, name,
                                                 store):
    """Every reverse pass reads the two streams in lockstep: once it has
    read the last record, ``s`` holds exactly the input ids, newest first,
    and ``d`` nothing, so no pass pulls one pair too many."""
    tape = LOCKSTEP_TAPES[name](dict(store, spill_dir=str(tmp_path)))
    handed = []
    real = Tape.reverse_streams

    def keep(self, *args, **kwargs):
        streams = real(self, *args, **kwargs)
        handed.append(streams)
        return streams

    monkeypatch.setattr(Tape, "reverse_streams", keep)
    strategies = [s for s in STRATEGIES if STRATEGY_MODE[s] == tape.mode]
    for strategy in strategies:
        propagate(tape, [1.0] * tape.m, strategy)
    assert sum(1 for _ in tape.reverse_elementals()) == tape.q
    assert len(handed) == len(strategies) + 1
    for s, d in handed:
        assert list(s) == list(reversed(tape.inputs))
        assert list(d) == []


@pytest.mark.parametrize("parse", [propagate, *RECORD_LOOPS.values(),
                                   Tape.reverse_elementals, _derive_stats],
                         ids=lambda fn: fn.__qualname__)
def test_reverse_parses_hold_no_closure_cells(parse):
    # A local that a nested function reads, or (before Python 3.12, which
    # inlines comprehensions) a comprehension, becomes a cell, and each read
    # of it in the record loop then goes through the cell.  On CPython 3.11
    # the three cells a trailing comprehension gave propagate cost 1.5-3%
    # of a Burgers(16, 200) sweep (min of 80 alternating in-process runs).
    # propagate holds no record loop; it calls one of the compiled loops
    assert parse.__code__.co_cellvars == ()
    assert parse.__code__.co_freevars == ()


def all_outputs_tape():
    """x and y = 2x, both outputs: W = max(beta, n, m) = 2 = |V|."""
    tape = Tape(DAG)
    x = tape.register_input()
    y = tape._record_unary(x, 2.0)
    tape.register_output(x)
    tape.register_output(y)
    tape.finalize()
    return tape


@pytest.mark.parametrize("mode, strategy, loops", [
    pytest.param(DAG, FLAT, ["identity"], id="dag-flat-identity"),
    pytest.param(DAG, BANDWIDTH, ["modulo", "identity"],
                 id="dag-bandwidth-modulo"),
    pytest.param(DCG, LVALUE, ["split"], id="dcg-lvalue-split"),
    pytest.param("all outputs", BANDWIDTH, ["identity"],
                 id="all outputs-bandwidth-identity")])
def test_sweep_loop_follows_the_slot_map(monkeypatch, mode, strategy, loops):
    """p_L > 0 takes the split loop.  p_L = 0 takes the modulo loop over
    the newest |V| - W records, when W < |V|, and then the identity loop
    over the rest, whatever the strategy."""
    called = []
    for name, fn in RECORD_LOOPS.items():
        def spy(records, *args, name=name, fn=fn):
            called.append([name, 0])
            return fn(counted(records, called[-1]), *args)
        monkeypatch.setattr(interpret, f"_sweep_{name}", spy)
    if mode == "all outputs":
        tape = all_outputs_tape()
        assert propagate(tape, [1.0, 1.0], strategy) == [3.0]
    else:
        problem = Burgers(nx=6, nt=8)
        tape = record_problem(problem, problem.default_point(), mode=mode)
        propagate(tape, [1.0] * tape.m, strategy)
    stats = tape.stats()
    wraps = stats.num_vertices - stats.beta if loops[0] == "modulo" else 0
    assert 0 < wraps < tape.q or loops[0] != "modulo"
    counts = [wraps, tape.q - wraps] if wraps else [tape.q]
    assert called == [list(call) for call in zip(loops, counts)]


def counted(records, call):
    """``records``, counting each in ``call[1]``; a list would read ahead
    of the operands, which share the structure stream."""
    for record in records:
        call[1] += 1
        yield record


def split_tape(q, wraps, **cfg):
    """A DAG tape of one input and ``q`` records whose bandwidth sweep runs
    the modulo loop over exactly its newest ``wraps`` records.  Each record
    reads the one before it, and most also read a vertex at most W back, with random partials, so that slots add up several terms.  With
    ``wraps`` > 0 the newest record reads vertex ``wraps - 1`` as well,
    which makes beta = W = |V| - wraps; with ``wraps`` = 0 every vertex is
    an output, so W = m = |V|."""
    rng = Xorshift(q + 7 * wraps)
    tape = Tape(DAG, **cfg)
    tape.register_input()
    width = q + 1 - wraps if wraps else q + 1
    for r in range(1, q + 1):
        preds = {r - 1: 2.0 * rng.uniform() - 1.0}
        if rng.next_u64() % 4:
            preds[r - 1 - rng.next_u64() % min(width, r)] = \
                2.0 * rng.uniform() - 1.0
        if r == q and wraps:
            preds[wraps - 1] = 2.0 * rng.uniform() - 1.0
        tape.record(list(preds.items()))
    for v in range(q + 1) if not wraps else [q]:
        tape.register_output(v)
    tape.finalize()
    return tape


def blocks_read(tape):
    return tape._s.blocks_read, tape._d.blocks_read


def digest(slots):
    """A digest of the bits of ``slots``: a LIBOR sweep's q snapshots of
    all W slots would take 290 MB."""
    return hashlib.sha256(bits(slots)).digest()


def one_modulo_sweep(tape, seed):
    """The bandwidth sweep as one modulo loop over every record: the
    gradient, the final slots, a digest of the slots after each record and
    the blocks the sweep read."""
    _, width = interpret._slot_map(tape.stats(), BANDWIDTH)
    vbar = [0.0] * width
    for ybar, j in zip(seed, tape.outputs):
        vbar[j % width] = ybar
    snapshots, before = [], blocks_read(tape)
    s, d = tape.reverse_streams()
    records = interpret._stepped(islice(zip(s, s), tape.q), vbar,
                                 lambda v: snapshots.append(digest(v)))
    interpret._sweep_modulo(records, zip(s, d), vbar, 0, width)
    grad = [vbar[i % width] for i in tape.inputs]
    return grad, vbar, snapshots, tuple(
        a - b for a, b in zip(blocks_read(tape), before))


SPLIT_TAPES = {
    "wraps-0": lambda cfg: split_tape(60, 0, **cfg),
    "wraps-1": lambda cfg: split_tape(60, 1, **cfg),
    "wraps-q-1": lambda cfg: split_tape(60, 59, **cfg),
    "wraps-q": lambda cfg: split_tape(60, 60, **cfg),
    "libor": lambda cfg: record_problem(
        LiborMC(rates=10, paths=12), LiborMC(rates=10, paths=12)
        .default_point(), mode=DAG, **cfg),
}


@pytest.mark.parametrize("store", ["inmem", "spilled"])
@pytest.mark.parametrize("name", SPLIT_TAPES)
def test_bandwidth_sweep_splits_exactly_where_results_fall_below_w(
        tmp_path, name, store):
    """A bandwidth sweep that hands over from the modulo loop to the
    identity loop equals one modulo loop over every record bitwise: the
    gradient, the final slots and the slots after each of the q records;
    it reads the same blocks."""
    cfg = dict(STORES[store], spill_dir=str(tmp_path)) if STORES[store] else {}
    tape = SPLIT_TAPES[name](cfg)
    stats = tape.stats()
    wraps = stats.num_vertices - interpret._slot_map(stats, BANDWIDTH)[1]
    if name.startswith("wraps-"):
        assert wraps == {"0": 0, "1": 1, "q-1": tape.q - 1,
                         "q": tape.q}[name[6:]]
    else:
        assert 0 < wraps < tape.q
    seed = [1.0 + 0.25 * k for k in range(tape.m)]
    grad, slots, snapshots, read = one_modulo_sweep(tape, seed)
    steps, before = [], blocks_read(tape)
    got, got_slots = propagate(tape, seed, BANDWIDTH, return_slots=True,
                               on_step=lambda v: steps.append(digest(v)))
    assert tuple(a - b for a, b in zip(blocks_read(tape), before)) == read
    assert len(steps) == len(snapshots) == tape.q
    assert bits(got) == bits(grad)
    assert bits(got_slots) == bits(slots)
    assert steps == snapshots
    if store == "spilled":
        assert read[0] > 1


def test_record_loops_show_their_source():
    """The compiled loops' lines reach ``inspect`` and tracebacks."""
    assert ("vbar[p_l + i % width if i >= 0 else ~i] += w * p"
            in inspect.getsource(interpret._sweep_split))
    assert "vbar[i % width] += w * p" in inspect.getsource(interpret._sweep_modulo)
    assert "vbar[i] += w * p" in inspect.getsource(interpret._sweep_identity)
    tape = record_problem(IntroExample(), [1.0], mode=DCG)

    def stop(_):
        raise KeyError("stop")

    with pytest.raises(KeyError) as info:
        propagate(tape, [1.0], LVALUE, on_step=stop)
    frames = {f.filename: f.line for f in traceback.extract_tb(info.tb)}
    assert frames["<adtape.interpret._sweep_split>"] == \
        "for result, count in records:"


SWEEP_RSS_CHILD = """
import sys
from array import array
from adtape import DCG, LVALUE, propagate, record_problem
from adtape.problems import BlackScholesFD

nt, tmp = int(sys.argv[1]), sys.argv[2]
problem = BlackScholesFD(ns=30, nt=nt)
tape = record_problem(problem, problem.default_point(), mode=DCG,
                      block_entries=1024, budget_blocks=1, spill_dir=tmp)
grad = propagate(tape, [1.0], LVALUE)
print(tape.s_len * 8, tape.d_len * 8, array("d", grad).tobytes().hex())
"""


def test_spilled_sweep_stays_out_of_core(tmp_path):
    """Record a BlackScholesFD DCG tape under one resident block and sweep
    it, in a child process, at two lengths, the second 4x the first.

    Peak RSS grows by less than half the longer tape's d-stream bytes, so
    far below its stream bytes: a tape held in memory grows by 3/4 of its
    streams, and one stream that stops pushing or spilling its full blocks
    by 3/4 of that stream.  The shorter tape's gradient equals the
    in-memory one bitwise."""
    runs = {}
    for nt in (300, 1200):
        work = tmp_path / f"nt-{nt}"
        work.mkdir()
        runs[nt] = run_child(SWEEP_RSS_CHILD, nt, work)
    (_, _, grad_hex), small = runs[300]
    (s_bytes, d_bytes, _), large = runs[1200]
    s_bytes, d_bytes = int(s_bytes), int(d_bytes)
    assert d_bytes < s_bytes
    assert large - small < d_bytes / 2, (large - small, d_bytes)
    problem = BlackScholesFD(ns=30, nt=300)
    tape = record_problem(problem, problem.default_point(), mode=DCG)
    grad = propagate(tape, [1.0], LVALUE)
    assert bytes.fromhex(grad_hex) == array("d", grad).tobytes()
