import math
import operator
import os
import random
import struct
import tempfile
from collections import deque

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adtape import (
    BANDWIDTH,
    DAG,
    DCG,
    FLAT,
    LVALUE,
    REMAINDER,
    Recorder,
    SlotCollisionError,
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

from helpers import (SMALL_PROBLEMS, STORES, OlderTemporaryProgram,
                     RandomProgram, bits, random_dag_tape, random_dcg_tape,
                     reference_bandwidth, reference_parse, zero_arity_tape)

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


def unbounded_sweep(tape, seed):
    """The gradient of a sweep with one adjoint per vertex id, L-values
    included, kept in a dict: no slot is ever shared."""
    inputs, records = reference_parse(*tape.dump(), tape.n, tape.q)
    adjoints = dict(zip(tape.outputs, seed))
    for preds, partials, result in reversed(records):
        w = adjoints.pop(result, 0.0)
        for v, d in zip(reversed(preds), reversed(partials)):
            adjoints[v] = adjoints.get(v, 0.0) + w * d
    return [adjoints.get(i, 0.0) for i in inputs]


def assert_lvalue_width_holds(tape, tmp):
    """beta_R of DCG ``tape`` is the reference width, the lvalue sweep
    equals the unbounded one bitwise, and a copy loaded in memory or into
    3-entry blocks with one resident derives the same statistics."""
    stats = tape.stats()
    assert stats.beta_r == reference_bandwidth(
        *tape.dump(), stats.num_inputs, stats.num_elementals,
        remainder_only=True)
    seed = [1.0 + 0.5 * k for k in range(tape.m)]
    assert bits(propagate_lvalue(tape, seed)) == bits(unbounded_sweep(tape, seed))
    path = os.path.join(tmp, "t.adtp")
    save(tape, path)
    assert load(path).stats() == stats
    assert load(path, **spill_to(STORES["tiny"], tmp)).stats() == stats


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
@example(seed=3)
def test_lvalue_sweeps_programs_that_copy_older_temporaries(seed):
    """Copies of temporaries recorded many records earlier into L-values
    widen beta_R, so the lvalue sweep still agrees with flat."""
    prog = OlderTemporaryProgram(seed)
    x = prog.default_point()
    dcg = record_problem(prog, x, mode=DCG)
    assert close(propagate_lvalue(dcg, [1.0]),
                 propagate_flat(record_problem(prog, x, mode=DAG), [1.0]))
    with tempfile.TemporaryDirectory() as tmp:
        assert_lvalue_width_holds(dcg, tmp)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_lvalue_sweeps_random_dcg_tapes(seed):
    """Zero-arity and n-ary records through ``Tape.record``, a third of
    them overwriting an L-value with operands of any age, and on half the
    tapes a run of copies and overwrites after the last remainder
    record."""
    with tempfile.TemporaryDirectory() as tmp:
        assert_lvalue_width_holds(random_dcg_tape(Xorshift(seed)), tmp)


def spill_to(store, where):
    return dict(store, spill_dir=where) if store else {}


def assert_round_trip(tape, tmp, store, prefetch=False):
    """Saved and loaded into ``store``, ``tape`` comes back with the same
    streams, statistics and outputs, and bitwise the same gradient under
    every strategy of its mode, swept with ``prefetch`` or without."""
    path = os.path.join(tmp, "t.adtp")
    save(tape, path)
    back = load(path, prefetch=prefetch,
                **spill_to(store, os.path.join(tmp, "loaded")))
    assert back.prefetch is prefetch
    assert back.dump() == tape.dump()
    assert back.stats() == tape.stats()
    assert back.outputs == tape.outputs
    seed = [1.0 + 0.25 * i for i in range(tape.m)]
    for strategy, mode in STRATEGY_MODE.items():
        if mode == tape.mode:
            assert (bits(propagate(back, seed, strategy))
                    == bits(propagate(tape, seed, strategy)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(sorted(STORES)),
       st.booleans())
@example(seed=5, store="tiny", prefetch=True)
def test_random_tapes_round_trip_through_file(seed, store, prefetch):
    with tempfile.TemporaryDirectory() as tmp:
        tape = random_dag_tape(Xorshift(seed), **spill_to(STORES[store], tmp))
        assert_round_trip(tape, tmp, STORES[store], prefetch)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(sorted(STORES)),
       st.integers(min_value=0, max_value=3))
@example(seed=7, store="inmem", unused=2)
def test_random_dcg_programs_round_trip_through_file(seed, store, unused):
    """Also with ``unused`` L-values declared after the program ran, which
    no record writes or reads."""
    prog = RandomProgram(seed)
    with tempfile.TemporaryDirectory() as tmp:
        tape = Tape(DCG, **spill_to(STORES[store], tmp))
        prog.run(Recorder(tape), prog.default_point())
        for _ in range(unused):
            tape.declare_lvalue()
        tape.finalize()
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
        # a drain holds at most one block read back from disk (always a
        # full one) on top of the resident ones; a resident block adds none
        spilled = block_entries if store.bytes_spilled else 0
        assert store.peak_resident_bytes == 8 * max(peak, resident_census() + spilled)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([DAG, DCG]), st.integers(min_value=1, max_value=3),
       # (arity, seed) per record; arity 0 is a zero-arity record and one
       # above block_entries - 2 is a record longer than a block
       st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                          st.integers(min_value=0, max_value=2 ** 32)), max_size=30),
       st.integers(min_value=1, max_value=16),
       st.one_of(st.none(), st.integers(min_value=1, max_value=2)))
@example(mode=DAG, ninputs=3, records=[(2, 0), (3, 1), (20, 2)] * 4,
         block_entries=4, budget=1)
def test_record_path_matches_a_census_through_append(mode, ninputs, records,
                                                     block_entries, budget):
    """Records written straight into the open blocks leave each stream
    exactly as writing the same entries through ``BlockStore.append`` does,
    and the peak each stream notes is the maximum of its resident census."""
    def resident_census(store):
        return (sum(len(b) for b in store._blocks if b is not None)
                + len(store._current))

    def note_census():
        for name, store in stores.items():
            peaks[name] = max(peaks[name], resident_census(store))

    with tempfile.TemporaryDirectory() as tmp:
        cfg = {"block_entries": block_entries, "budget_blocks": budget,
               "spill_dir": tmp}
        tape = Tape(mode, **cfg)
        stores = {"s": tape._s, "d": tape._d}
        ref = {"s": BlockStore("q", name="s", **cfg),
               "d": BlockStore("d", name="d", **cfg)}
        peaks = {"s": 0, "d": 0}
        ids = []
        for _ in range(ninputs):
            ids.append(tape.register_input())
            ref["s"].append([ids[-1]])
            note_census()
        for arity, seed in records:
            rng = random.Random(seed)
            ops = rng.sample(ids, min(arity, len(ids)))
            parts = [rng.uniform(-2.0, 2.0) for _ in ops]
            if mode == DCG and seed % 3 == 0:  # overwrite an input L-value
                rid = tape.record(list(zip(ops, parts)), result=-1 - seed % ninputs)
            elif len(ops) == 1:
                rid = tape._record_unary(ops[0], parts[0])
            elif len(ops) == 2:
                rid = tape._record_binary(ops[0], parts[0], ops[1], parts[1])
            else:
                rid = tape.record(list(zip(ops, parts)))
            ref["s"].append([*ops, len(ops), rid])
            ref["d"].append(parts)
            if rid not in ids:
                ids.append(rid)
            note_census()
            assert [len(stores[k]) for k in ref] == [len(ref[k]) for k in ref]
        tape.register_output(ids[-1] if mode == DAG else -1)
        tape.finalize()
        for name, store in ref.items():
            store.seal()
            assert len(stores[name]) == len(store)
            assert stores[name].stats() == store.stats()
            assert stores[name].peak_resident_bytes == 8 * peaks[name]
        s, d = tape.dump()
        assert s == ref["s"].tolist() and bits(d) == bits(ref["d"].tolist())
        assert tape.store_stats() == {k: store.stats() for k, store in ref.items()}


def replay_through_record(tape, outputs=None, **cfg):
    """A fresh tape with the inputs and declared L-values of ``tape`` and
    every elemental of ``tape.parse()`` recorded through ``Tape.record``;
    its outputs are ``outputs``, those of ``tape`` when None."""
    fresh = Tape(tape.mode, **cfg)
    for _ in tape.inputs:
        fresh.register_input()
    for _ in range(tape.p_l - tape.n if tape.mode == DCG else 0):
        fresh.declare_lvalue()
    for elem in tape.parse()[1]:
        result = elem.result if elem.result < 0 else REMAINDER
        assert fresh.record(elem.preds, result=result) == elem.result
    for vid in tape.outputs if outputs is None else outputs:
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


def sweep_outcome(tape, strategy):
    """The gradient bytes of a unit-seeded sweep, or the error it raised."""
    try:
        return bits(propagate(tape, [1.0] * tape.m, strategy))
    except TapeError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from([DAG, DCG]),
       st.integers(min_value=0),
       st.one_of(st.integers(min_value=-40, max_value=40),
                 st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)))
def test_corrupted_tape_file_fails_cleanly(seed, mode, where, value):
    """With one ``s`` entry of a saved tape overwritten by any i64, ``load``
    raises ``TapeError`` or returns a tape that sweeps bitwise as the tape
    recorded from its streams does, never another exception.  Loaded into
    a spilling 3-entry store, whose records cross block boundaries, the
    file gives the same error or the same tape."""
    if mode == DAG:
        tape = random_dag_tape(Xorshift(seed))
    else:
        prog = RandomProgram(seed)
        tape = record_problem(prog, prog.default_point(), mode=DCG)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.adtp")
        save(tape, path)
        s_start = os.path.getsize(path) - (tape.s_len + tape.d_len) * 8
        with open(path, "r+b") as fh:
            fh.seek(s_start + where % tape.s_len * 8)
            fh.write(struct.pack("<q", value))
        try:
            spilled = load(path, spill_dir=tmp, **STORES["tiny"])
        except TapeError as exc:
            spilled = str(exc)
        try:
            back = load(path)
        except TapeError as exc:
            assert str(exc) == spilled
            return
        assert not isinstance(spilled, str), spilled
        assert spilled.dump() == back.dump()
        assert spilled.stats() == back.stats()
    rebuilt = replay_through_record(back)
    (s, d), (rs, rd) = back.dump(), rebuilt.dump()
    assert rs == s and bits(rd) == bits(d)
    assert rebuilt.stats() == back.stats()
    for strategy, strategy_mode in STRATEGY_MODE.items():
        if strategy_mode == mode:
            assert sweep_outcome(back, strategy) == sweep_outcome(rebuilt, strategy)


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
    """(gradient, final slots, slots after each record) of ``strategy``
    computed from ``reference_parse`` of the dumped streams: the slot map
    and the order of the slot arithmetic of ``propagate``, none of its
    stream reading."""
    p_l, width = _slot_map(tape.stats(), strategy)

    def slot(v):
        return p_l + v % width if v >= 0 else -v - 1

    inputs, records = reference_parse(*tape.dump(), tape.n, tape.q)
    vbar = [0.0] * adjoint_slot_count(tape.stats(), strategy)
    for ybar, j in zip(seed, tape.outputs):
        vbar[slot(j)] = ybar
    states = []
    for preds, partials, result in reversed(records):
        w = vbar[slot(result)]
        vbar[slot(result)] = 0.0
        for v, d in zip(reversed(preds), reversed(partials)):
            vbar[slot(v)] += w * d
        states.append(list(vbar))
    return [vbar[slot(i)] for i in inputs], vbar, states


def swept_blocks(store, head_entries=0):
    """Blocks of ``store`` a sweep reads: all of them, except blocks at the
    head of ``s`` that hold input ids only, since no record reaches them."""
    be = store.block_entries
    return -(-len(store) // be) - head_entries // be


def assert_sweep_matches_reference(make_tape):
    """``reverse_elementals`` parses ``make_tape()`` like ``reference_parse``
    and every strategy of the tape's mode sweeps it bitwise like
    ``reference_sweep``, in each ``on_step`` snapshot too; the parse and
    each sweep read every block holding a record once, and note the same
    peak as plain drains of an identical tape."""
    tape, twin = make_tape(), make_tape()
    for store in (twin._s, twin._d):
        deque(store.reverse_iter(twin.prefetch), maxlen=0)
    before = tape._s.blocks_read, tape._d.blocks_read
    parsed = list(tape.reverse_elementals())
    assert tape._s.blocks_read - before[0] == swept_blocks(tape._s, tape.n)
    assert tape._d.blocks_read - before[1] == swept_blocks(tape._d)
    _, records = reference_parse(*tape.dump(), tape.n, tape.q)
    expected = [(result, tuple(zip(preds[::-1], partials[::-1])))
                for preds, partials, result in reversed(records)]
    assert parsed == expected
    assert bits([x for _, preds in parsed for _, x in preds]) == \
        bits([x for _, preds in expected for _, x in preds])
    rng = Xorshift(tape.q)
    seed = [2.0 * rng.uniform() - 1.0 for _ in range(tape.m)]
    swept = {}
    for strategy, mode in STRATEGY_MODE.items():
        if mode != tape.mode:
            continue
        before = tape._s.blocks_read, tape._d.blocks_read
        states = []
        grad, slots = propagate(tape, seed, strategy, on_step=states.append,
                                return_slots=True)
        swept[strategy] = grad, slots, states
        assert tape._s.blocks_read - before[0] == swept_blocks(tape._s, tape.n)
        assert tape._d.blocks_read - before[1] == swept_blocks(tape._d)
        for mine, plain in ((tape._s, twin._s), (tape._d, twin._d)):
            assert mine.peak_resident_bytes == plain.peak_resident_bytes
    for strategy, (grad, slots, states) in swept.items():
        ref_grad, ref_slots, ref_states = reference_sweep(tape, seed, strategy)
        assert bits(grad) == bits(ref_grad)
        assert bits(slots) == bits(ref_slots)
        assert len(states) == len(ref_states) == tape.q
        for state, ref_state in zip(states, ref_states):
            assert bits(state) == bits(ref_state)


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


@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("mode", [DAG, DCG])
def test_zero_arity_sweep_matches_reference(mode, store, prefetch):
    assert_sweep_matches_reference(
        lambda: zero_arity_tape(mode, **STORES[store], prefetch=prefetch))


@pytest.mark.parametrize("strategy", [FLAT, BANDWIDTH])
def test_dag_sweep_slots_match_reference(strategy):
    """A DAG tape (p_L = 0) takes the record loop of ``propagate`` that maps
    vertex v to slot v % W with no sign test: a zero-arity and a
    hand-recorded ternary record, and random n-ary records cut across
    ``tiny`` blocks, leave the slots of ``reference_sweep``."""
    tapes = [zero_arity_tape(DAG)]
    tapes += [random_dag_tape(Xorshift(seed), **STORES["tiny"])
              for seed in range(1, 21)]
    for tape in tapes:
        assert tape.stats().p_l == 0
        seed = [0.5 + k for k in range(tape.m)]
        _, slots = propagate(tape, seed, strategy, return_slots=True)
        assert bits(slots) == bits(reference_sweep(tape, seed, strategy)[1])


def reference_collision(tape, strategy):
    """The message of the SlotCollisionError a sweep of ``tape`` raises, or
    None, by the per-record rule: a map of seeded slots, each live until the
    sweep reaches its output's result, and every result of
    ``reference_parse``, newest first, tested against it."""
    p_l, width = _slot_map(tape.stats(), strategy)

    def slot(v):
        return p_l + v % width if v >= 0 else -v - 1

    live = {}
    for j in tape.outputs:
        if slot(j) in live:
            return f"outputs {live[slot(j)]} and {j} both seed slot {slot(j)}"
        live[slot(j)] = j
    _, records = reference_parse(*tape.dump(), tape.n, tape.q)
    for _, _, result in reversed(records):
        owner = live.get(slot(result))
        if owner == result:
            del live[slot(result)]
        elif owner is not None:
            return (f"result vertex {result} clobbers live seeded output "
                    f"{owner} in slot {slot(result)}")
    return None


def assert_sweep_matches_collision_rule(tape, strategy):
    """``propagate`` refuses the tape with ``reference_collision``'s
    message when there is one, and otherwise sweeps it bitwise like
    ``reference_sweep``."""
    rng = Xorshift(tape.q + tape.m)
    seed = [2.0 * rng.uniform() - 1.0 for _ in range(tape.m)]
    expected = reference_collision(tape, strategy)
    try:
        grad = propagate(tape, seed, strategy)
    except SlotCollisionError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    assert bits(grad) == bits(reference_sweep(tape, seed, strategy)[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.lists(st.integers(min_value=0), min_size=1, max_size=8),
       st.sampled_from([FLAT, BANDWIDTH]))
def test_dag_collisions_match_the_per_record_rule(seed, picks, strategy):
    """Outputs drawn from every vertex, inputs and early results included:
    the collisions ``propagate`` decides before its sweep are those the
    per-record rule meets during it, with the same message."""
    base = random_dag_tape(Xorshift(seed), max_elementals=12)
    vertices = base.stats().num_vertices
    outputs = list(dict.fromkeys(k % vertices for k in picks))
    assert_sweep_matches_collision_rule(
        replay_through_record(base, outputs), strategy)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.lists(st.integers(min_value=0), min_size=1, max_size=6))
def test_lvalue_sweeps_never_collide(seed, picks):
    """Any set of L-values, reassigned ones included, seeds dedicated slots
    that no other result reaches."""
    prog = RandomProgram(seed)
    base = record_problem(prog, prog.default_point(), mode=DCG)
    outputs = list(dict.fromkeys(-1 - k % base.p_l for k in picks))
    tape = replay_through_record(base, outputs)
    assert reference_collision(tape, LVALUE) is None
    assert_sweep_matches_collision_rule(tape, LVALUE)


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
