import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adtape import (
    DAG,
    DCG,
    gradient_check,
    propagate_bandwidth,
    propagate_flat,
    propagate_lvalue,
    record_problem,
    run_passive,
)
from adtape.blockstore import BlockStore
from adtape.rng import Xorshift
from adtape.tapefile import load, save

from helpers import RandomProgram, random_dag_tape

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


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_random_tapes_round_trip_through_file(seed):
    tape = random_dag_tape(Xorshift(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.adtp")
        save(tape, path)
        back = load(path)
    assert back.dump() == tape.dump()
    assert back.stats() == tape.stats()


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
def test_blockstore_counts_match_census(chunks, block_entries, budget, prefetch):
    def resident_census():
        return (sum(len(b) for b in store._blocks if b is not None)
                + len(store._current))

    with tempfile.TemporaryDirectory() as tmp:
        store = BlockStore("q", name="s", block_entries=block_entries,
                           budget_blocks=budget, spill_dir=tmp)
        total = 0
        for size in chunks:
            # odd sizes arrive as a generator, even ones as a list
            store.append(iter(range(size)) if size % 2 else list(range(size)))
            total += size
            assert len(store) == total
            assert store.resident_entries() == resident_census()
        store.seal()
        assert store.resident_entries() == resident_census()
        assert sum(1 for _ in store.reverse_iter(prefetch=prefetch)) == total
        assert len(store) == total
        assert store.resident_entries() == resident_census()


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
