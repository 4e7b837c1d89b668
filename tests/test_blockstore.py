import pytest

from adtape.blockstore import ENTRY_BYTES, BlockStore, BlockStoreError
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


@pytest.mark.parametrize("prefetch", [False, True])
def test_corrupt_block_detected(tmp_path, prefetch):
    store = make_store(tmp_path, block_entries=4, budget_blocks=1)
    store.append(range(12))
    store.seal()
    victim = tmp_path / "s.0.blk"
    victim.write_bytes(b"garbage!" + victim.read_bytes()[8:])
    with pytest.raises(BlockStoreError, match="block 0"):
        list(store.reverse_iter(prefetch=prefetch))


@pytest.mark.parametrize("prefetch", [False, True])
def test_missing_block_detected(tmp_path, prefetch):
    store = make_store(tmp_path, block_entries=4, budget_blocks=1)
    store.append(range(12))
    store.seal()
    (tmp_path / "s.1.blk").unlink()
    with pytest.raises(BlockStoreError, match="block 1"):
        list(store.reverse_iter(prefetch=prefetch))


def test_float_store_round_trip(tmp_path):
    store = BlockStore("d", name="d", block_entries=8, budget_blocks=1,
                       spill_dir=str(tmp_path))
    data = [0.5403, 1.6829, -0.1368, 1e-300, -1e300]
    store.append(data)
    store.seal()
    assert list(store.reverse_iter()) == data[::-1]
