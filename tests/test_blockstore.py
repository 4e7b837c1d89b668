import gc
import tempfile

import pytest

from adtape import DAG, propagate_flat, record_problem
from adtape.blockstore import ENTRY_BYTES, BlockStore, BlockStoreError
from adtape.problems import IntroExample
from adtape.rng import Xorshift


def make_store(tmp_path, **kw):
    kw.setdefault("spill_dir", str(tmp_path))
    return BlockStore("q", name="s", **kw)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 83])
def test_reverse_round_trip(tmp_path, n):
    store = make_store(tmp_path, block_entries=8, budget_blocks=1)
    data = list(range(n))
    store.append(data)
    store.seal()
    assert list(store.reverse_iter()) == data[::-1]
    assert store.tolist() == data


def test_spill_counters(tmp_path):
    store = make_store(tmp_path, block_entries=8, budget_blocks=1)
    store.append(range(21))
    # two full blocks cut; the older one leaves memory, the newer one and
    # the five-entry tail stay resident under the one-block budget
    assert store.blocks_written == 2
    assert store.bytes_spilled == 8 * ENTRY_BYTES
    assert store.resident_entries() == 13
    store.seal()
    assert store.blocks_written == 3
    assert store.bytes_spilled == 16 * ENTRY_BYTES
    assert store.resident_entries() == 5


def test_unlimited_budget_never_spills(tmp_path):
    store = make_store(tmp_path, block_entries=4)
    store.append(range(100))
    store.seal()
    assert store.bytes_spilled == 0
    assert list(store.reverse_iter()) == list(range(100))[::-1]


def test_append_nothing_is_noop(tmp_path):
    store = make_store(tmp_path, block_entries=4)
    store.append([])
    assert len(store) == 0
    assert store.stats()["blocks_written"] == 0


def test_fresh_store_stats_zero(tmp_path):
    stats = make_store(tmp_path).stats()
    assert stats["blocks_written"] == stats["blocks_read"] == 0
    assert stats["bytes_spilled"] == 0


def test_blocks_read_matches_written_after_sweep(tmp_path):
    store = make_store(tmp_path, block_entries=8, budget_blocks=1)
    store.append(range(21))
    store.seal()
    list(store.reverse_iter())
    assert store.blocks_read == store.blocks_written == 3


def test_single_entry_reverse(tmp_path):
    store = make_store(tmp_path, block_entries=8)
    store.append([42])
    store.seal()
    assert list(store.reverse_iter()) == [42]


def test_prefetch_matches_plain_iteration(tmp_path):
    store = make_store(tmp_path, block_entries=16, budget_blocks=1)
    rng = Xorshift(3)
    data = [rng.next_u64() % 1000 for _ in range(1000)]
    store.append(data)
    store.seal()
    assert list(store.reverse_iter(prefetch=True)) == data[::-1]


def test_peak_resident_budget_bound(tmp_path):
    be, budget = 8, 2
    store = make_store(tmp_path, block_entries=be, budget_blocks=budget)
    store.append(range(200))
    store.seal()
    list(store.reverse_iter(prefetch=True))
    assert store.peak_resident_bytes <= (budget + 2) * be * ENTRY_BYTES


def test_read_before_seal_rejected(tmp_path):
    store = make_store(tmp_path)
    store.append([1])
    with pytest.raises(BlockStoreError):
        next(store.reverse_iter())


def test_append_after_seal_rejected(tmp_path):
    store = make_store(tmp_path)
    store.seal()
    with pytest.raises(BlockStoreError):
        store.append([1])


@pytest.mark.parametrize("prefetch,damage", [
    (False, "header"), (True, "header"), (False, "truncated"), (True, "truncated"),
], ids=["False", "True", "truncated-False", "truncated-True"])
def test_corrupt_block_detected(tmp_path, prefetch, damage):
    store = make_store(tmp_path, block_entries=4, budget_blocks=1)
    store.append(range(12))
    store.seal()
    (victim,) = tmp_path.glob("*/s.0.blk")
    blob = victim.read_bytes()
    if damage == "header":
        victim.write_bytes(b"garbage!" + blob[8:])
    else:
        victim.write_bytes(blob[:-ENTRY_BYTES])
    with pytest.raises(BlockStoreError, match="block 0"):
        list(store.reverse_iter(prefetch=prefetch))


@pytest.mark.parametrize("prefetch", [False, True])
def test_missing_block_detected(tmp_path, prefetch):
    store = make_store(tmp_path, block_entries=4, budget_blocks=1)
    store.append(range(12))
    store.seal()
    (victim,) = tmp_path.glob("*/s.1.blk")
    victim.unlink()
    with pytest.raises(BlockStoreError, match="block 1"):
        list(store.reverse_iter(prefetch=prefetch))


def test_tapes_sharing_a_spill_dir_keep_their_own_blocks(tmp_path):
    problem = IntroExample(length=6)
    spill = dict(block_entries=4, budget_blocks=1, spill_dir=str(tmp_path))
    first = record_problem(problem, [0.7], mode=DAG, **spill)
    second = record_problem(problem, [1.3], mode=DAG, **spill)
    assert first.store_stats()["s"]["bytes_spilled"] > 0
    expected = propagate_flat(record_problem(problem, [0.7], mode=DAG), [1.0])
    assert propagate_flat(first, [1.0]) == expected
    assert propagate_flat(second, [1.0]) != expected


@pytest.mark.parametrize("given_dir", [True, False])
def test_dropped_store_removes_its_spill_dir(tmp_path, monkeypatch, given_dir):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spill = tmp_path / "spill"
    store = BlockStore("q", name="s", block_entries=4, budget_blocks=1,
                       spill_dir=str(spill) if given_dir else None)
    store.append(range(12))
    store.seal()
    assert len(list(tmp_path.glob("**/s.0.blk"))) == 1
    del store
    gc.collect()
    if given_dir:
        assert list(tmp_path.iterdir()) == [spill]
        assert list(spill.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == []


def test_float_store_round_trip(tmp_path):
    store = BlockStore("d", name="d", block_entries=8, budget_blocks=1,
                       spill_dir=str(tmp_path))
    data = [0.5403, 1.6829, -0.1368, 1e-300, -1e300]
    store.append(data)
    store.seal()
    assert list(store.reverse_iter()) == data[::-1]
