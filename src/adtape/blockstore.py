"""Append-only block storage for the sequentially accessed tape streams.

Entries are fixed-width 8-byte values (signed integers for the structure
stream, doubles for the partials stream).  The stream is cut into fixed-size
blocks; once the number of resident full blocks exceeds a configurable
budget, the oldest resident block is written to disk and dropped from
memory.  Only full blocks ever spill: the budget is at least one block and
the newest block stays resident.  During the reverse sweep blocks are loaded
back on demand, newest first, optionally with a read-ahead hint to the kernel
for the next-older block.

Writing has two halves.  A writer puts entries straight into ``open_block``
(an ``array.array`` that stays the same object until seal), and only once it
holds a full block calls ``push_full(added)``, which cuts the full blocks
off its front and pushes them (and maybe spills).  ``append`` does both for
a chunk of any size.  ``peak_resident_bytes`` is noted by ``push_full``,
just before it pushes, and at seal, not on every write: resident entries
only grow between pushes, so those notes give the same maximum as noting
after every write would (until seal, the open block's growth since the last
push is not counted yet).  While reading, each fetched block counts on top
of the resident ones; a hinted block waits in the page cache, not here.

Two block generators carry all read accounting: ``reverse_blocks`` (newest
first, with the optional hint) and ``_sealed_blocks`` (oldest first).
Each counts ``blocks_read`` and notes the peak once per block.  The per-entry
iterators, ``reverse_iter`` and ``iter(store)``, chain over their blocks with
``itertools.chain``, so no Python frame is resumed per entry.

On its first spill a store creates one ``adtape-<stream>-*.blk`` file, under
``spill_dir`` when one is given and under the system temp dir otherwise.
Block ``i`` is the fixed-size record at offset ``i * (16 + 8 * block_entries)``:
a 16-byte header (magic and block index) followed by the little-endian
payload.  The store holds one descriptor on that file, written and read with
positionless ``pwrite``/``pread`` so interleaved iterators can share it, until
the store is freed; then the descriptor is closed and the file removed.
"""

from __future__ import annotations

import array
import os
import struct
import sys
import tempfile
import weakref
from itertools import chain

ENTRY_BYTES = 8
DEFAULT_BLOCK_ENTRIES = 65536

_BLOCK_MAGIC = b"ADTPBLK\x00"
_HEADER = struct.Struct("<8sQ")
_HAS_FADVISE = hasattr(os, "posix_fadvise")


class BlockStoreError(Exception):
    pass


def _discard(fd: int, path: str) -> None:
    os.close(fd)
    try:
        os.unlink(path)
    except FileNotFoundError:  # its directory may already be gone
        pass


class BlockStore:
    """One append-only stream of 8-byte entries with spill-to-disk blocks.

    typecode is 'q' (signed 64-bit int) or 'd' (IEEE-754 double).
    budget_blocks=None keeps everything in memory and never spills.
    """

    def __init__(self, typecode: str, name: str = "stream",
                 block_entries: int = DEFAULT_BLOCK_ENTRIES,
                 budget_blocks: int | None = None,
                 spill_dir: str | None = None):
        if typecode not in ("q", "d"):
            raise BlockStoreError(f"unsupported typecode {typecode!r}")
        if block_entries < 1:
            raise BlockStoreError("block_entries must be >= 1")
        if budget_blocks is not None and budget_blocks < 1:
            raise BlockStoreError("budget_blocks must be >= 1 or None")
        self.typecode = typecode
        self.name = name
        self.block_entries = block_entries
        self.budget_blocks = budget_blocks
        self._spill_dir = spill_dir
        self._record_bytes = _HEADER.size + block_entries * ENTRY_BYTES
        self._fd: int | None = None  # this store's own spill file, made on first spill
        self._path: str | None = None
        self._blocks: list[array.array | None] = []  # None once spilled
        self._current = array.array(typecode)  # the open block
        self._pushed = 0  # entries in pushed blocks, spilled or resident
        self._sealed = False
        self._first_resident = 0  # oldest block still in memory
        self.blocks_written = 0
        self.blocks_read = 0
        self.bytes_spilled = 0
        self.peak_resident_bytes = 0

    def __len__(self) -> int:
        return self._pushed + len(self._current)

    # -- recording side -----------------------------------------------------

    @property
    def open_block(self) -> array.array:
        """The array the next entries go into.  It stays the same object
        until ``seal``, which pushes it as the last block; a writer that
        fills it directly calls ``push_full`` once it holds a full block
        and never writes to it after seal."""
        return self._current

    def append(self, entries) -> None:
        if self._sealed:
            raise BlockStoreError(f"{self.name}: append after seal")
        cur = self._current
        before = len(cur)
        cur.extend(entries)
        if len(cur) >= self.block_entries:
            self.push_full(len(cur) - before)

    def push_full(self, added: int) -> None:
        """Push every full block at the front of the open block, into which
        the last write put ``added`` entries."""
        if self._sealed:
            raise BlockStoreError(f"{self.name}: push after seal")
        # resident entries only grow between pushes, so the state before
        # the last write is the largest since the last push (seal notes the
        # state after the last one)
        self._note_peak(-added)
        cur, be = self._current, self.block_entries
        while len(cur) >= be:
            # cut before pushing: a failed spill must not leave the block in
            # both the pushed list and the open block
            block = cur[:be]
            del cur[:be]
            self._push_block(block)

    def seal(self) -> None:
        if self._sealed:
            return
        # sealed before the push: a failed spill must not leave the pushed
        # last block open for writing
        self._sealed = True
        self._note_peak()
        if len(self._current):
            block, self._current = self._current, array.array(self.typecode)
            self._push_block(block)

    def _push_block(self, block: array.array) -> None:
        self._blocks.append(block)
        self._pushed += len(block)
        self.blocks_written += 1
        # one block came in, so at most the oldest resident one goes out
        if (self.budget_blocks is not None
                and len(self._blocks) - self._first_resident > self.budget_blocks):
            self._spill(self._first_resident)
            self._first_resident += 1

    def _spill(self, index: int) -> None:
        block = self._blocks[index]
        assert block is not None
        if self._fd is None:
            where = self._spill_dir if self._spill_dir is not None else tempfile.gettempdir()
            try:
                os.makedirs(where, exist_ok=True)
                self._fd, self._path = tempfile.mkstemp(
                    prefix=f"adtape-{self.name}-", suffix=".blk", dir=where)
            except OSError as exc:
                raise BlockStoreError(
                    f"{self.name}: cannot create a spill file in {where}: {exc}") from exc
            weakref.finalize(self, _discard, self._fd, self._path)
        record = _HEADER.pack(_BLOCK_MAGIC, index) + self._to_le_bytes(block)
        try:
            written = os.pwrite(self._fd, record, index * self._record_bytes)
        except OSError as exc:
            raise BlockStoreError(
                f"{self.name}: spill of block {index} to {self._path} failed: {exc}") from exc
        if written != len(record):
            raise BlockStoreError(
                f"{self.name}: short write of block {index} to {self._path}")
        self.bytes_spilled += len(block) * ENTRY_BYTES
        self._blocks[index] = None

    # -- reading side -------------------------------------------------------

    def reverse_iter(self, prefetch: bool = False):
        """Iterate every entry exactly once, last to first."""
        return chain.from_iterable(map(reversed, self.reverse_blocks(prefetch)))

    def reverse_blocks(self, prefetch: bool = False):
        """Yield every block, newest first, counting each in ``blocks_read``
        and noting the peak as it is fetched.  With ``prefetch``, each fetch
        is followed by a ``POSIX_FADV_WILLNEED`` hint for the next-older
        block when it is on disk, so the kernel reads it into the page cache
        while this block is consumed; without ``os.posix_fadvise`` (macOS)
        the blocks are read plainly.  Spilled blocks are read with
        ``os.pread``, so spilling needs POSIX."""
        if not self._sealed:
            raise BlockStoreError(f"{self.name}: reverse_iter before seal")
        hint = prefetch and _HAS_FADVISE
        size = self._record_bytes
        for i in range(len(self._blocks) - 1, -1, -1):
            block = self._fetch(i)
            if hint and i > 0 and self._blocks[i - 1] is None:
                os.posix_fadvise(self._fd, (i - 1) * size, size,
                                 os.POSIX_FADV_WILLNEED)
            self._note_peak(self.block_entries)
            yield block

    def __iter__(self):
        return chain.from_iterable(self._sealed_blocks())

    def le_blocks(self):
        """Yield every block, oldest first, as little-endian bytes."""
        for block in self._sealed_blocks():
            yield self._to_le_bytes(block)

    def _sealed_blocks(self):
        if not self._sealed:
            raise BlockStoreError(f"{self.name}: iteration before seal")
        for i in range(len(self._blocks)):
            block = self._fetch(i)
            self._note_peak(self.block_entries)
            yield block

    def tolist(self) -> list:
        return list(self)

    def _fetch(self, index: int) -> array.array:
        self.blocks_read += 1
        block = self._blocks[index]
        if block is not None:
            return block
        return self._load_spilled(index)

    def _load_spilled(self, index: int) -> array.array:
        size = self._record_bytes
        try:
            record = os.pread(self._fd, size, index * size)
        except OSError as exc:
            raise BlockStoreError(
                f"{self.name}: cannot read block {index} at {self._path}: {exc}") from exc
        if len(record) != size:  # only full blocks spill
            raise BlockStoreError(f"{self.name}: truncated block {index} at {self._path}")
        magic, stored = _HEADER.unpack_from(record)
        if magic != _BLOCK_MAGIC or stored != index:
            raise BlockStoreError(f"{self.name}: corrupt block {index} at {self._path}")
        block = array.array(self.typecode)
        block.frombytes(memoryview(record)[_HEADER.size:])
        if sys.byteorder == "big":
            block.byteswap()
        return block

    # -- accounting ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "blocks_written": self.blocks_written,
            "blocks_read": self.blocks_read,
            "bytes_spilled": self.bytes_spilled,
            "peak_resident_bytes": self.peak_resident_bytes,
        }

    def resident_entries(self) -> int:
        return len(self) - self.bytes_spilled // ENTRY_BYTES

    def _note_peak(self, extra_entries: int = 0) -> None:
        nbytes = (self.resident_entries() + extra_entries) * ENTRY_BYTES
        if nbytes > self.peak_resident_bytes:
            self.peak_resident_bytes = nbytes

    @staticmethod
    def _to_le_bytes(block: array.array) -> bytes:
        if sys.byteorder == "big":
            swapped = array.array(block.typecode, block)
            swapped.byteswap()
            return swapped.tobytes()
        return block.tobytes()
