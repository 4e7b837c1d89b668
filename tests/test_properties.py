import math
import operator
import os
import struct
import tempfile
from collections import deque

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adtape import (
    DAG,
    DCG,
    REMAINDER,
    Recorder,
    Tape,
    TapeError,
    gradient_check,
    propagate,
    propagate_bandwidth,
    propagate_flat,
    propagate_lvalue,
    record_problem,
    run_passive,
)
from adtape import scalar as ops
from adtape.blockstore import BlockStore
from adtape.interpret import STRATEGY_MODE, _slot_map, adjoint_slot_count
from adtape.rng import Xorshift
from adtape.tapefile import load, save

from helpers import (SMALL_PROBLEMS, STORES, RandomProgram, random_dag_tape,
                     reference_parse)

RTOL = 1e-12


def close(a, b, rtol=RTOL):
    return all(abs(x - y) <= rtol * max(1.0, abs(x), abs(y))
               for x, y in zip(a, b)) and len(a) == len(b)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_flat_and_bandwidth_agree_on_random_tapes(seed):
    tape = random_dag_tape(Xorshift(seed))
    assert close(propagate_flat(tape, [1.0]), propagate_bandwidth(tape, [1.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_random_programs_agree_across_strategies(seed):
    prog = RandomProgram(seed)
    x = prog.default_point()
    dag = record_problem(prog, x, mode=DAG)
    dcg = record_problem(prog, x, mode=DCG)
    flat = propagate_flat(dag, [1.0])
    band = propagate_bandwidth(dag, [1.0])
    lval = propagate_lvalue(dcg, [1.0])
    assert close(flat, band) and close(flat, lval)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_random_programs_match_finite_differences(seed):
    prog = RandomProgram(seed)
    assert gradient_check(prog, fd_step=1e-6) < 1e-5


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_random_programs_primal_is_mode_independent(seed):
    prog = RandomProgram(seed)
    x = prog.default_point()
    base = run_passive(prog, x)
    assert run_passive(prog, x) == base  # deterministic replays


def spill_to(store, where):
    return dict(store, spill_dir=where) if store else {}


def assert_round_trip(tape, tmp, store):
    """Saved and loaded into ``store``, ``tape`` comes back with the same
    streams, statistics and outputs, and bitwise the same gradient under
    every strategy of its mode."""
    path = os.path.join(tmp, "t.adtp")
    save(tape, path)
    back = load(path, **spill_to(store, os.path.join(tmp, "loaded")))
    assert back.dump() == tape.dump()
    assert back.stats() == tape.stats()
    assert back.outputs == tape.outputs
    seed = [1.0 + 0.25 * i for i in range(tape.m)]
    for strategy, mode in STRATEGY_MODE.items():
        if mode == tape.mode:
            assert (bits(propagate(back, seed, strategy))
                    == bits(propagate(tape, seed, strategy)))


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(sorted(STORES)))
def test_random_tapes_round_trip_through_file(seed, store):
    with tempfile.TemporaryDirectory() as tmp:
        tape = random_dag_tape(Xorshift(seed), **spill_to(STORES[store], tmp))
        assert_round_trip(tape, tmp, STORES[store])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(sorted(STORES)))
def test_random_dcg_programs_round_trip_through_file(seed, store):
    prog = RandomProgram(seed)
    with tempfile.TemporaryDirectory() as tmp:
        tape = record_problem(prog, prog.default_point(), mode=DCG,
                              **spill_to(STORES[store], tmp))
        assert_round_trip(tape, tmp, STORES[store])


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("mode", [DAG, DCG])
@pytest.mark.parametrize("name", sorted(SMALL_PROBLEMS))
def test_problem_tapes_round_trip_through_file(name, mode, store, tmp_path):
    problem = SMALL_PROBLEMS[name]()
    tape = record_problem(problem, problem.default_point(), mode=mode,
                          **spill_to(STORES[store], str(tmp_path)))
    assert_round_trip(tape, str(tmp_path), STORES[store])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.floats(min_value=-8.0, max_value=8.0))
def test_seed_scaling_on_random_tapes(seed, scale):
    tape = random_dag_tape(Xorshift(seed))
    base = propagate_flat(tape, [1.0])
    scaled = propagate_flat(tape, [scale])
    assert scaled == pytest.approx([scale * g for g in base], rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-2 ** 62, max_value=2 ** 62), max_size=200),
       st.integers(min_value=1, max_value=16),
       st.integers(min_value=1, max_value=3))
def test_blockstore_reverse_is_reversal(data, block_entries, budget):
    with tempfile.TemporaryDirectory() as tmp:
        store = BlockStore("q", name="s", block_entries=block_entries,
                           budget_blocks=budget, spill_dir=tmp)
        store.append(data)
        store.seal()
        assert list(store.reverse_iter()) == data[::-1]
        assert store.tolist() == data


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=40), max_size=30),
       st.integers(min_value=1, max_value=16),
       st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
       st.booleans())
# the peak stands just before the append that fills a block and spills one
@example(chunks=[4, 3, 3], block_entries=4, budget=1, prefetch=False)
def test_blockstore_counts_match_census(chunks, block_entries, budget, prefetch):
    def resident_census():
        return (sum(len(b) for b in store._blocks if b is not None)
                + len(store._current))

    with tempfile.TemporaryDirectory() as tmp:
        store = BlockStore("q", name="s", block_entries=block_entries,
                           budget_blocks=budget, spill_dir=tmp)
        total = peak = 0
        for size in chunks:
            # odd sizes arrive as a generator, even ones as a list
            store.append(iter(range(size)) if size % 2 else list(range(size)))
            total += size
            assert len(store) == total
            assert store.resident_entries() == resident_census()
            peak = max(peak, resident_census())
        store.seal()
        assert store.resident_entries() == resident_census()
        # noted per pushed block and at seal, the peak is still the
        # maximum over every append
        assert store.peak_resident_bytes == 8 * peak
        assert sum(1 for _ in store.reverse_iter(prefetch=prefetch)) == total
        assert len(store) == total
        assert store.resident_entries() == resident_census()


def replay_through_record(tape, **cfg):
    """A fresh tape with the inputs and declared L-values of ``tape`` and
    every elemental of ``tape.parse()`` recorded through ``Tape.record``."""
    fresh = Tape(tape.mode, **cfg)
    for _ in tape.inputs:
        fresh.register_input()
    for _ in range(tape.p_l - tape.n if tape.mode == DCG else 0):
        fresh.declare_lvalue()
    for elem in tape.parse()[1]:
        result = elem.result if elem.result < 0 else REMAINDER
        assert fresh.record(elem.preds, result=result) == elem.result
    for vid in tape.outputs:
        fresh.register_output(vid)
    fresh.finalize()
    return fresh


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from([DAG, DCG]),
       st.sampled_from(sorted(STORES)))
def test_overloading_and_generic_record_write_one_tape(seed, mode, store):
    """The arity-1/2 records of overloading and the generic ``record``
    share one append core, so they lay out the same bytes."""
    prog = RandomProgram(seed)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = spill_to(STORES[store], tmp)
        tape = record_problem(prog, prog.default_point(), mode=mode, **cfg)
        fresh = replay_through_record(tape, **cfg)
        (s, d), (fs, fd) = tape.dump(), fresh.dump()
        assert fs == s and bits(fd) == bits(d)
        assert fresh.stats() == tape.stats()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_spilled_sweep_is_bitwise_identical(seed):
    prog = RandomProgram(seed)
    x = prog.default_point()
    plain = record_problem(prog, x, mode=DAG)
    with tempfile.TemporaryDirectory() as tmp:
        tight = record_problem(prog, x, mode=DAG, block_entries=8,
                               budget_blocks=1, spill_dir=tmp)
        assert propagate_flat(tight, [1.0]) == propagate_flat(plain, [1.0])


def reference_sweep(tape, seed, strategy):
    """(gradient, final slots) of ``strategy`` computed from
    ``reference_parse`` of the dumped streams: the slot map and the order of
    the slot arithmetic of ``propagate``, none of its stream reading."""
    p_l, width = _slot_map(tape.stats(), strategy)

    def slot(v):
        return p_l + v % width if v >= 0 else -v - 1

    inputs, records = reference_parse(*tape.dump(), tape.n, tape.q)
    vbar = [0.0] * adjoint_slot_count(tape.stats(), strategy)
    for ybar, j in zip(seed, tape.outputs):
        vbar[slot(j)] = ybar
    for preds, partials, result in reversed(records):
        w = vbar[slot(result)]
        vbar[slot(result)] = 0.0
        for v, d in zip(reversed(preds), reversed(partials)):
            vbar[slot(v)] += w * d
    return [vbar[slot(i)] for i in inputs], vbar


def swept_blocks(store, head_entries=0):
    """Blocks of ``store`` a sweep reads: all of them, except blocks at the
    head of ``s`` that hold input ids only, since no record reaches them."""
    be = store.block_entries
    return -(-len(store) // be) - head_entries // be


def assert_sweep_matches_reference(make_tape):
    """Every strategy of the tape's mode sweeps ``make_tape()`` bitwise
    like ``reference_sweep``; each sweep reads every block holding a record
    once, and notes the same peak as plain drains of an identical tape."""
    tape, twin = make_tape(), make_tape()
    for store in (twin._s, twin._d):
        deque(store.reverse_iter(twin.prefetch), maxlen=0)
    rng = Xorshift(tape.q)
    seed = [2.0 * rng.uniform() - 1.0 for _ in range(tape.m)]
    swept = {}
    for strategy, mode in STRATEGY_MODE.items():
        if mode != tape.mode:
            continue
        before = tape._s.blocks_read, tape._d.blocks_read
        swept[strategy] = propagate(tape, seed, strategy, return_slots=True)
        assert tape._s.blocks_read - before[0] == swept_blocks(tape._s, tape.n)
        assert tape._d.blocks_read - before[1] == swept_blocks(tape._d)
        for mine, plain in ((tape._s, twin._s), (tape._d, twin._d)):
            assert mine.peak_resident_bytes == plain.peak_resident_bytes
    for strategy, (grad, slots) in swept.items():
        ref_grad, ref_slots = reference_sweep(tape, seed, strategy)
        assert bits(grad) == bits(ref_grad)
        assert bits(slots) == bits(ref_slots)


@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("source", ["random_dag", "program_dag", "program_dcg"])
@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_sweep_matches_reference(source, store, prefetch, seed):
    """``random_dag`` tapes hold records of arity 1 to 3 (the n-ary loop);
    ``tiny`` blocks cut records across blocks in both streams."""
    cfg = dict(STORES[store], prefetch=prefetch)
    if source == "random_dag":
        assert_sweep_matches_reference(
            lambda: random_dag_tape(Xorshift(seed), **cfg))
    else:
        prog = RandomProgram(seed)
        mode = DAG if source == "program_dag" else DCG
        assert_sweep_matches_reference(
            lambda: record_problem(prog, prog.default_point(), mode=mode, **cfg))


def zero_arity_tape(mode, **cfg):
    """Two inputs, a zero-arity record and a ternary one; on a DCG tape the
    zero-arity record overwrites an L-value that was read before."""
    tape = Tape(mode, **cfg)
    x, y = tape.register_input(), tape.register_input()
    if mode == DCG:
        a, b = tape.declare_lvalue(), tape.declare_lvalue()
        tape.record([(x, 2.0), (y, -0.5)], result=a)
        tape.record([(a, 3.0)], result=b)
        tape.record([], result=a)
        t = tape.record([(x, 0.7), (a, 1.1), (y, -2.0)])
        tape.record([(t, 1.5), (b, 0.25)], result=b)
        outputs = [a, b]
    else:
        c = tape.record([])
        t = tape.record([(x, 2.0), (c, 1.5), (y, 1.0)])
        outputs = [tape.record([(t, 0.5), (x, -1.0)])]
    for v in outputs:
        tape.register_output(v)
    tape.finalize()
    return tape


@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("mode", [DAG, DCG])
def test_zero_arity_sweep_matches_reference(mode, store, prefetch):
    assert_sweep_matches_reference(
        lambda: zero_arity_tape(mode, **STORES[store], prefetch=prefetch))


DOUBLES = st.floats(allow_nan=False, allow_infinity=False)
BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "truediv": operator.truediv}
#: name -> (the overloaded elemental, the plain float operation)
UNARY = {"sin": (ops.sin, math.sin), "cos": (ops.cos, math.cos),
         "exp": (ops.exp, math.exp), "ln": (ops.ln, math.log),
         "sqrt": (ops.sqrt, math.sqrt)}


def records_as_passive(fn, plain, args, active):
    """Run ``fn`` on ``args``, the ones flagged in ``active`` as tape
    inputs.  Wherever ``plain`` gives a finite float, recording gives the
    same value (with finite partials: ``Tape.record`` raises ``TapeError``
    on any other), or raises the ``ValueError`` that ``fn`` raises on the
    same argument without a tape (a domain error, such as ``sqrt(0)``).
    No bare arithmetic exception escapes."""
    try:
        expected = plain(*args)
    except (ArithmeticError, ValueError):
        expected = None
    assume(isinstance(expected, float) and math.isfinite(expected))
    ctx = Recorder(Tape(DAG))
    operands = [ctx.input(a) if on else a for a, on in zip(args, active)]
    try:
        result = fn(*operands)
    except TapeError as exc:
        assert "non-finite partial" in str(exc)
        return
    except ValueError:
        with pytest.raises(ValueError):
            fn(*args)
        return
    assert ctx.tape.q == 1
    assert repr(float(result)) == repr(expected)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BINARY)), DOUBLES, DOUBLES,
       st.sampled_from([(True, True), (True, False), (False, True)]))
@example("truediv", 1e-200, 1e-170, (True, False))  # b * b underflows
def test_binary_elementals_record_where_passive_succeeds(name, a, b, active):
    # (False, True) runs the reflected operator of a passive left operand
    records_as_passive(BINARY[name], BINARY[name], (a, b), active)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(UNARY)), DOUBLES)
def test_unary_elementals_record_where_passive_succeeds(name, x):
    records_as_passive(*UNARY[name], (x,), (True,))


@settings(max_examples=300, deadline=None)
@given(DOUBLES, st.one_of(st.floats(min_value=-8.0, max_value=8.0),
                          st.integers(min_value=-8, max_value=8).map(float)))
@example(1e-200, -1.0)  # v ** (c - 1) overflows, the partial is inf
@example(0.0, 0.0)
def test_pow_const_records_where_passive_succeeds(x, c):
    records_as_passive(lambda v: ops.pow_const(v, c), lambda v: v ** c,
                       (x,), (True,))
