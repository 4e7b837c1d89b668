"""Append-only block storage for the sequentially accessed tape streams.

Entries are fixed-width 8-byte values (signed integers for the structure
stream, doubles for the partials stream).  The stream is cut into fixed-size
blocks; once the number of resident full blocks exceeds a configurable
budget, the oldest resident block is written to disk and dropped from
memory.  Only full blocks ever spill: the budget is at least one block and
the newest block stays resident.  During the reverse sweep blocks are loaded
back on demand, newest first, optionally with a single background prefetch of
the next-older block.

On its first spill a store makes its own fresh ``adtape-<stream>-*``
directory, under ``spill_dir`` when one is given and under the system temp
dir otherwise, and that directory is removed along with the store.
"""

from __future__ import annotations

import array
import os
import shutil
import struct
import sys
import tempfile
import threading
import weakref

ENTRY_BYTES = 8
DEFAULT_BLOCK_ENTRIES = 65536

_BLOCK_MAGIC = b"ADTPBLK\x00"
_HEADER = struct.Struct("<8sQ")


class BlockStoreError(Exception):
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
        self._spill_root = spill_dir
        self._spill_dir: str | None = None  # this store's own, made on first spill
        self._blocks: list[array.array | None] = []  # None once spilled
        self._current = array.array(typecode)
        self._length = 0
        self._sealed = False
        self._first_resident = 0  # oldest block still in memory
        self.blocks_written = 0
        self.blocks_read = 0
        self.bytes_spilled = 0
        self.peak_resident_bytes = 0

    def __len__(self) -> int:
        return self._length

    # -- recording side -----------------------------------------------------

    def append(self, entries) -> None:
        if self._sealed:
            raise BlockStoreError(f"{self.name}: append after seal")
        cur = self._current
        before = len(cur)
        cur.extend(entries)
        self._length += len(cur) - before
        be = self.block_entries
        while len(cur) >= be:
            self._push_block(cur[:be])
            del cur[:be]
        self._note_peak(extra_blocks=0)

    def seal(self) -> None:
        if self._sealed:
            return
        if len(self._current):
            self._push_block(self._current)
            self._current = array.array(self.typecode)
        self._sealed = True

    def _push_block(self, block: array.array) -> None:
        self._blocks.append(block)
        self.blocks_written += 1
        # one block came in, so at most the oldest resident one goes out
        if (self.budget_blocks is not None
                and len(self._blocks) - self._first_resident > self.budget_blocks):
            self._spill(self._first_resident)
            self._first_resident += 1

    def _spill(self, index: int) -> None:
        block = self._blocks[index]
        assert block is not None
        if self._spill_dir is None:
            if self._spill_root is not None:
                os.makedirs(self._spill_root, exist_ok=True)
            self._spill_dir = tempfile.mkdtemp(prefix=f"adtape-{self.name}-",
                                               dir=self._spill_root)
            weakref.finalize(self, shutil.rmtree, self._spill_dir, True)
        path = self._block_path(index)
        payload = self._to_le_bytes(block)
        try:
            with open(path, "wb") as fh:
                fh.write(_HEADER.pack(_BLOCK_MAGIC, index))
                fh.write(payload)
        except OSError as exc:
            raise BlockStoreError(f"{self.name}: spill to {path} failed: {exc}") from exc
        self.bytes_spilled += len(block) * ENTRY_BYTES
        self._blocks[index] = None

    def _block_path(self, index: int) -> str:
        return os.path.join(self._spill_dir, f"{self.name}.{index}.blk")

    # -- reading side -------------------------------------------------------

    def reverse_iter(self, prefetch: bool = False):
        """Yield every entry exactly once, last to first."""
        if not self._sealed:
            raise BlockStoreError(f"{self.name}: reverse_iter before seal")
        nblocks = len(self._blocks)
        pending: dict[int, array.array] = {}
        thread = None
        pending_idx = -1
        for i in range(nblocks - 1, -1, -1):
            if i == pending_idx and thread is not None:
                thread.join()
                block = pending[i]
                self.blocks_read += 1
                if isinstance(block, BlockStoreError):
                    raise block
            else:
                block = self._fetch(i)
            thread = None
            if prefetch and i > 0 and self._blocks[i - 1] is None:
                pending_idx = i - 1
                pending = {}
                thread = threading.Thread(target=self._prefetch,
                                          args=(pending_idx, pending),
                                          daemon=True)
                thread.start()
            self._note_peak(extra_blocks=1 + (1 if thread is not None else 0))
            yield from reversed(block)

    def __iter__(self):
        if not self._sealed:
            raise BlockStoreError(f"{self.name}: iteration before seal")
        for i in range(len(self._blocks)):
            block = self._fetch(i)
            self._note_peak(extra_blocks=1)
            yield from block

    def tolist(self) -> list:
        return list(self)

    def _fetch(self, index: int) -> array.array:
        self.blocks_read += 1
        block = self._blocks[index]
        if block is not None:
            return block
        return self._load_spilled(index)

    def _prefetch(self, index: int, out: dict) -> None:
        """Reader thread: leave the block, or the error that names it, for
        the consuming thread to take."""
        try:
            out[index] = self._load_spilled(index)
        except BlockStoreError as exc:
            out[index] = exc

    def _load_spilled(self, index: int) -> array.array:
        path = self._block_path(index)
        try:
            with open(path, "rb") as fh:
                magic, stored = _HEADER.unpack(fh.read(_HEADER.size))
                payload = fh.read()
        except (OSError, struct.error) as exc:
            raise BlockStoreError(
                f"{self.name}: cannot read block {index}: {exc}") from exc
        if magic != _BLOCK_MAGIC or stored != index:
            raise BlockStoreError(f"{self.name}: corrupt block {index} at {path}")
        if len(payload) != self.block_entries * ENTRY_BYTES:  # only full blocks spill
            raise BlockStoreError(f"{self.name}: truncated block {index} at {path}")
        block = array.array(self.typecode)
        block.frombytes(payload)
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
        return self._length - self.bytes_spilled // ENTRY_BYTES

    def _note_peak(self, extra_blocks: int) -> None:
        resident = self.resident_entries() + extra_blocks * self.block_entries
        nbytes = resident * ENTRY_BYTES
        if nbytes > self.peak_resident_bytes:
            self.peak_resident_bytes = nbytes

    @staticmethod
    def _to_le_bytes(block: array.array) -> bytes:
        if sys.byteorder == "big":
            swapped = array.array(block.typecode, block)
            swapped.byteswap()
            return swapped.tobytes()
        return block.tobytes()
