import array
import gc
import math
import os
import re
import tempfile
import threading
from collections import deque
from itertools import islice

import pytest

from adtape import DAG, blockstore, propagate_flat, record_problem
from adtape.blockstore import (ENTRY_BYTES, BlockStore, BlockStoreError,
                               CorruptBlockError)
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


def test_tolist_counts_as_a_reverse_drain(tmp_path):
    stores = [make_store(tmp_path, block_entries=8, budget_blocks=1)
              for _ in range(2)]
    for store in stores:
        store.append(range(21))
        store.seal()
    assert stores[0].tolist() == list(range(21))
    list(stores[1].reverse_iter())
    assert stores[0].stats() == stores[1].stats()


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


def twin_stores(tmp_path, n, **kw):
    """Two sealed stores holding ``range(n)`` the same way."""
    stores = [make_store(tmp_path, **kw) for _ in range(2)]
    for store in stores:
        store.append(range(n))
        store.seal()
    return stores


def test_prefetching_reads_start_no_thread_and_hold_one_block(tmp_path, monkeypatch):
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    plain, hinted = twin_stores(tmp_path, 30, block_entries=4, budget_blocks=1)
    deque(plain.reverse_iter(), maxlen=0)
    threads = set(threading.enumerate())
    entries = hinted.reverse_iter(prefetch=True)
    head = list(islice(entries, 14))  # part-way through block 4 of 8
    assert set(threading.enumerate()) == threads and started == []
    assert head + list(entries) == list(range(29, -1, -1))
    # the hinted block waits in the page cache, so the peak is the plain one
    assert hinted.peak_resident_bytes == plain.peak_resident_bytes
    assert hinted.stats() == plain.stats()


@pytest.mark.parametrize("budget", [1, 3])
def test_prefetch_hints_each_spilled_block_once(tmp_path, fadvise_calls, budget):
    store = make_store(tmp_path, block_entries=4, budget_blocks=budget)
    store.append(range(30))  # 8 blocks, the newest one partial
    store.seal()
    list(store.reverse_iter())
    assert fadvise_calls == []
    assert list(store.reverse_iter(prefetch=True)) == list(range(29, -1, -1))
    # every spilled block has a newer one, after whose fetch it is hinted;
    # resident blocks are never hinted
    size = record_bytes(store)
    spilled = store.bytes_spilled // (ENTRY_BYTES * store.block_entries)
    assert spilled == 8 - budget
    assert fadvise_calls == [(store._fd, i * size, size, os.POSIX_FADV_WILLNEED)
                             for i in range(spilled - 1, -1, -1)]


def test_prefetch_without_fadvise_reads_plainly(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "posix_fadvise", raising=False)
    # what the import-time check finds on a platform without the call
    monkeypatch.setattr(blockstore, "_HAS_FADVISE", hasattr(os, "posix_fadvise"))
    plain, hinted = twin_stores(tmp_path, 30, block_entries=4, budget_blocks=1)
    assert (list(hinted.reverse_iter(prefetch=True))
            == list(plain.reverse_iter()) == list(range(29, -1, -1)))
    assert hinted.stats() == plain.stats()


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


def test_writes_after_seal_rejected_with_blocks_pushed(tmp_path):
    store = make_store(tmp_path, block_entries=4, budget_blocks=1)
    store.append(range(10))
    store.seal()
    with pytest.raises(BlockStoreError, match="append after seal"):
        store.append([1])
    with pytest.raises(BlockStoreError, match="push after seal"):
        store.push_full(1)
    assert store.tolist() == list(range(10))


def test_open_block_writes_push_like_append(tmp_path):
    # the same entries written straight into the open block, with
    # push_full called when it holds a full block, give the same store
    chunks = [[1, 2, 3], [4, 5, 6, 7, 8, 9, 10, 11, 12], [13], [14, 15]]
    stores = [make_store(tmp_path, block_entries=4, budget_blocks=1)
              for _ in range(2)]
    for chunk in chunks:
        stores[0].append(chunk)
        cur = stores[1].open_block
        cur.fromlist(chunk)
        if len(cur) >= 4:
            stores[1].push_full(len(chunk))
        assert stores[1].open_block is cur
    for store in stores:
        store.seal()
    assert stores[0].stats() == stores[1].stats()
    assert stores[0].tolist() == stores[1].tolist() == list(range(1, 16))


def failing_spill(index):
    raise BlockStoreError(f"s: spill of block {index} failed")


def test_failed_spill_keeps_each_entry_once(tmp_path, monkeypatch):
    store = make_store(tmp_path, block_entries=4, budget_blocks=1)
    store.append(range(4))
    with monkeypatch.context() as patch:
        patch.setattr(store, "_spill", failing_spill)
        # block 1 is cut and pushed; spilling block 0 then fails
        with pytest.raises(BlockStoreError, match="spill of block 0"):
            store.append(range(4, 9))
    assert len(store) == 9 and store.resident_entries() == 9
    store.append(range(9, 13))
    store.seal()
    assert store.tolist() == list(range(13))
    assert list(store.reverse_iter()) == list(range(12, -1, -1))


def test_failed_seal_leaves_the_store_sealed(tmp_path, monkeypatch):
    store = make_store(tmp_path, block_entries=4, budget_blocks=1)
    store.append(range(6))
    monkeypatch.setattr(store, "_spill", failing_spill)
    # the 2-entry tail is pushed; spilling block 0 then fails
    with pytest.raises(BlockStoreError, match="spill of block 0"):
        store.seal()
    with pytest.raises(BlockStoreError, match="append after seal"):
        store.append([6])
    assert store.tolist() == list(range(6))


def record_bytes(store):
    return 16 + store.block_entries * ENTRY_BYTES


@pytest.mark.parametrize("prefetch,damage", [
    (False, "header"), (True, "header"), (False, "truncated"), (True, "truncated"),
], ids=["False", "True", "truncated-False", "truncated-True"])
def test_corrupt_block_detected(tmp_path, prefetch, damage):
    store = make_store(tmp_path, block_entries=4, budget_blocks=1)
    store.append(range(12))
    store.seal()
    (victim,) = tmp_path.glob("adtape-s-*.blk")
    blob = victim.read_bytes()
    if damage == "header":
        victim.write_bytes(b"garbage!" + blob[8:])
        expected = "block 0"
    else:
        # in one file only the last spilled record can be cut short
        victim.write_bytes(blob[:-ENTRY_BYTES])
        expected = "block 1"
    with pytest.raises(BlockStoreError, match=expected):
        list(store.reverse_iter(prefetch=prefetch))


@pytest.mark.parametrize("typecode, name", [("q", "s"), ("d", "d")])
def test_every_flipped_bit_of_a_spilled_record_raises(tmp_path, typecode, name):
    store = BlockStore(typecode, name=name, block_entries=4, budget_blocks=1,
                       spill_dir=str(tmp_path))
    data = list(range(12)) if typecode == "q" else [k / 3 for k in range(12)]
    store.append(data)
    store.seal()
    (victim,) = tmp_path.glob(f"adtape-{name}-*.blk")
    blob = victim.read_bytes()
    size = record_bytes(store)
    assert len(blob) == 2 * size  # blocks 0 and 1 spilled, block 2 resident
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << bit % 8
        victim.write_bytes(flipped)
        expected = re.escape(f"{name}: corrupt block {bit // 8 // size} at {victim}")
        for read in (store.reverse_iter, store.tolist):
            with pytest.raises(BlockStoreError, match=expected):
                list(read())
    victim.write_bytes(blob)
    assert store.tolist() == data


@pytest.mark.parametrize("prefetch", [False, True])
def test_missing_block_detected(tmp_path, prefetch):
    store = make_store(tmp_path, block_entries=4, budget_blocks=1)
    store.append(range(12))
    store.seal()
    (victim,) = tmp_path.glob("adtape-s-*.blk")
    os.truncate(victim, record_bytes(store))
    with pytest.raises(BlockStoreError, match="block 1"):
        list(store.reverse_iter(prefetch=prefetch))


def test_spill_file_holds_one_record_per_spilled_block(tmp_path):
    store = make_store(tmp_path, block_entries=8, budget_blocks=2)
    store.append(range(83))
    store.seal()
    (spill_file,) = tmp_path.glob("adtape-s-*.blk")
    spilled_blocks = store.bytes_spilled // (ENTRY_BYTES * store.block_entries)
    assert spilled_blocks == 9  # 11 blocks, the newest 2 resident
    assert spill_file.stat().st_size == spilled_blocks * record_bytes(store)


def test_interleaved_reverse_iters_share_the_spill_file(tmp_path):
    store = make_store(tmp_path, block_entries=8, budget_blocks=1)
    data = list(range(200))
    store.append(data)
    store.seal()
    pairs = list(zip(store.reverse_iter(), store.reverse_iter(prefetch=True)))
    assert pairs == [(x, x) for x in data[::-1]]


def test_spill_dir_that_is_a_file_raises_blockstore_error(tmp_path):
    not_a_dir = tmp_path / "spill"
    not_a_dir.write_bytes(b"")
    store = make_store(tmp_path, spill_dir=str(not_a_dir), block_entries=4,
                       budget_blocks=1)
    with pytest.raises(BlockStoreError, match=f"s: .*{re.escape(str(not_a_dir))}"):
        store.append(range(12))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open descriptors")
def test_dropped_tapes_close_their_spill_files(tmp_path):
    problem = IntroExample(length=6)
    spill = dict(block_entries=4, budget_blocks=1, spill_dir=str(tmp_path))
    gc.collect()
    before = len(os.listdir("/proc/self/fd"))
    for k in range(50):
        tape = record_problem(problem, [0.5 + k / 100], mode=DAG, **spill)
        assert tape.store_stats()["s"]["bytes_spilled"] > 0
        propagate_flat(tape, [1.0])
        del tape
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == before
    assert list(tmp_path.iterdir()) == []


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
def test_dropped_store_removes_its_spill_file(tmp_path, monkeypatch, given_dir):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spill = tmp_path / "spill"
    store = BlockStore("q", name="s", block_entries=4, budget_blocks=1,
                       spill_dir=str(spill) if given_dir else None)
    store.append(range(12))
    store.seal()
    assert len(list(tmp_path.glob("**/adtape-s-*.blk"))) == 1
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


def section_of(tmp_path, data, block_entries):
    """A file holding ``data`` as the run of records that ``write_records``
    writes from a spilled float store of ``block_entries``-entry blocks."""
    store = BlockStore("d", name="d", block_entries=block_entries,
                       budget_blocks=1, spill_dir=str(tmp_path))
    store.append(data)
    store.seal()
    path = tmp_path / "section"
    with open(path, "wb") as fh:
        store.write_records(fh)
    assert path.stat().st_size == BlockStore.records_bytes(len(data), block_entries)
    return path


def float_bits(values):
    return array.array("d", values).tobytes()


@pytest.mark.parametrize("config, spills", [
    ({"block_entries": 8, "budget_blocks": 1}, False),  # copies the records
    ({"block_entries": 4, "budget_blocks": 1}, True),
    ({"block_entries": 8}, False),
], ids=["same-block-size", "other-block-size", "no-budget"])
def test_read_records_reads_what_write_records_writes(tmp_path, monkeypatch,
                                                      config, spills):
    """A section read into a bare store holds the written entries bitwise,
    and the store's counters, once both are read back, are those of a store
    that appended the same entries."""
    data = [(-1) ** k * math.ldexp(k + 0.1, -k) for k in range(83)] + [-0.0]
    path = section_of(tmp_path, data, block_entries=8)
    appended = BlockStore("d", name="d", spill_dir=str(tmp_path), **config)
    appended.append(data)
    appended.seal()
    spilled = []
    spill = BlockStore._spill
    monkeypatch.setattr(BlockStore, "_spill",
                        lambda store, i: spilled.append(i) or spill(store, i))
    read = BlockStore("d", name="d", spill_dir=str(tmp_path), **config)
    with open(path, "rb") as fh:
        read.read_records(fh, len(data), 8)
        assert fh.tell() == path.stat().st_size
    assert bool(spilled) == spills
    assert float_bits(read.tolist()) == float_bits(appended.tolist()) == float_bits(data)
    assert read.stats() == appended.stats()


def test_read_records_needs_an_empty_store(tmp_path):
    path = section_of(tmp_path, [k / 3 for k in range(20)], block_entries=8)
    used = BlockStore("d", name="d")
    used.append([1.0])
    sealed = BlockStore("d", name="d")
    sealed.seal()
    for store in (used, sealed):
        with open(path, "rb") as fh, pytest.raises(BlockStoreError,
                                                   match="used store"):
            store.read_records(fh, 20, 8)


@pytest.mark.parametrize("config", [{}, {"block_entries": 8, "budget_blocks": 1}])
@pytest.mark.parametrize("cut, block", [(ENTRY_BYTES, 2), (16 + 4 * 8, 2),
                                        (16 + 5 * 8, 1), (16 + 19 * 8, 0)])
def test_short_section_names_the_block(tmp_path, config, cut, block):
    """20 entries in records of 8, the last record holding 4: a section
    that ends early raises ``CorruptBlockError`` naming the first record it
    does not hold whole, whether that record is read or, under a budget,
    copied."""
    path = section_of(tmp_path, [k / 3 for k in range(20)], block_entries=8)
    os.truncate(path, path.stat().st_size - cut)
    store = BlockStore("d", name="d", spill_dir=str(tmp_path), **config)
    with open(path, "rb") as fh, pytest.raises(CorruptBlockError) as excinfo:
        store.read_records(fh, 20, 8)
    assert str(excinfo.value) == f"d: corrupt block {block} at {path} (truncated record)"
    assert excinfo.value.path == str(path)
