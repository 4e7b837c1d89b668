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
push is not counted yet).  While reading, a block read back from disk
counts on top of the resident ones, at its own length; a resident block is
already counted, and a hinted block waits in the page cache, not here.

One block generator carries all read accounting: ``reverse_blocks`` (newest
first, with the optional hint) counts ``blocks_read`` once per block and
notes the peak once per block read from disk.  The per-entry iterator
``reverse_iter`` chains over its blocks with ``itertools.chain``, so no
Python frame is resumed per entry, and ``tolist`` drains it and reverses
the list.

On its first spill a store creates one ``adtape-<stream>-*.blk`` file, under
``spill_dir`` when one is given and under the system temp dir otherwise.
Block ``i`` is the fixed-size record at offset ``i * (16 + 8 * block_entries)``:
a 16-byte header ``<4sIQ`` (the magic ``ADTB``, the ``zlib.crc32`` of the
payload and the block index) followed by the little-endian payload.  A block
gets its CRC when it leaves memory and the CRC is checked when it comes back
(``_load_spilled``); a bad magic, index or CRC raises ``CorruptBlockError``,
a ``BlockStoreError`` naming the stream, the block and the path.  A block
that stays in memory is never checksummed.  The store holds one descriptor on
that file, written and read with positionless ``pwrite``/``pread`` so
interleaved iterators can share it, until the store is freed; then the
descriptor is closed and the file removed.

Tape files store each stream as a run of the same records, and the store
is the only module that writes or reads one: ``write_records`` writes a
sealed store's blocks to a tape file, copying the spilled prefix from the
spill file byte for byte, and ``read_records`` fills an empty store from
such a run and seals it.  Under a budget and the file's block size it copies
the records the budget would spill into the store's own spill file unread,
and reads, checks and appends the rest; otherwise it reads, checks and
appends every record.  One decoder (``_checked_payload``) checks a record
from a spill file or a tape file alike, and ``CorruptBlockError.path`` names
the file it came from.  Both copies go through ``copy_bytes``, in bounded
``pread``/``pwrite`` chunks.
"""

from __future__ import annotations

import array
import os
import struct
import sys
import tempfile
import weakref
import zlib
from itertools import chain

ENTRY_BYTES = 8
DEFAULT_BLOCK_ENTRIES = 65536

#: a block record's header: magic, CRC-32 of the payload, block index
RECORD_HEADER = struct.Struct("<4sIQ")
_RECORD_MAGIC = b"ADTB"
#: the most bytes ``copy_bytes`` holds at once
COPY_CHUNK = 256 * 1024
_HAS_FADVISE = hasattr(os, "posix_fadvise")
_BIG_ENDIAN = sys.byteorder == "big"


class BlockStoreError(Exception):
    pass


class CorruptBlockError(BlockStoreError):
    """A record that fails its check, named by stream, block and the file
    it was read from."""

    def __init__(self, stream: str, index: int, path: str, fault: str):
        super().__init__(f"{stream}: corrupt block {index} at {path} ({fault})")
        self.stream, self.index, self.path, self.fault = stream, index, path, fault


def record_header(index: int, payload: bytes) -> bytes:
    """The header of the record of block ``index``, whose little-endian
    entries are ``payload``."""
    return RECORD_HEADER.pack(_RECORD_MAGIC, zlib.crc32(payload), index)


def decode(payload, typecode: str) -> array.array:
    """The entries of a little-endian ``payload``."""
    entries = array.array(typecode)
    entries.frombytes(payload)
    if _BIG_ENDIAN:
        entries.byteswap()
    return entries


def copy_bytes(src_fd: int, src_at: int, dst_fd: int, dst_at: int,
               nbytes: int) -> None:
    """Copy ``nbytes`` from ``src_fd`` at ``src_at`` to ``dst_fd`` at
    ``dst_at`` with positionless ``pread``/``pwrite``, at most
    ``COPY_CHUNK`` bytes at a time; raises ``OSError`` if the source ends
    first."""
    done = 0
    while done < nbytes:
        chunk = os.pread(src_fd, min(COPY_CHUNK, nbytes - done), src_at + done)
        written = os.pwrite(dst_fd, chunk, dst_at + done) if chunk else 0
        if not written:
            raise OSError(f"copy stopped {nbytes - done} bytes short")
        done += written


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
        self._record_bytes = RECORD_HEADER.size + block_entries * ENTRY_BYTES
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

    def _spill_fd(self) -> int:
        """This store's spill file, created on first use."""
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
        return self._fd

    def _spill(self, index: int) -> None:
        block = self._blocks[index]
        assert block is not None
        fd = self._spill_fd()
        payload = self._to_le_bytes(block)
        record = record_header(index, payload) + payload
        try:
            written = os.pwrite(fd, record, index * self._record_bytes)
        except OSError as exc:
            raise BlockStoreError(
                f"{self.name}: spill of block {index} to {self._path} failed: {exc}") from exc
        if written != len(record):
            raise BlockStoreError(
                f"{self.name}: short write of block {index} to {self._path}")
        self.bytes_spilled += len(block) * ENTRY_BYTES
        self._blocks[index] = None

    # -- tape-file sections -------------------------------------------------

    def write_records(self, fh) -> None:
        """Write every block to the binary file ``fh``, oldest first, as
        the run of records the spill file holds: the spilled prefix is
        copied from the spill file byte for byte, and only the resident
        blocks are encoded."""
        if not self._sealed:
            raise BlockStoreError(f"{self.name}: write before seal")
        spilled = self._first_resident
        if spilled:
            fh.flush()
            at = fh.tell()
            nbytes = spilled * self._record_bytes
            try:
                copy_bytes(self._fd, 0, fh.fileno(), at, nbytes)
            except OSError as exc:
                raise BlockStoreError(
                    f"{self.name}: copy of {spilled} blocks from {self._path} "
                    f"failed: {exc}") from exc
            fh.seek(at + nbytes)
        for index in range(spilled, len(self._blocks)):
            payload = self._to_le_bytes(self._blocks[index])
            fh.write(record_header(index, payload))
            fh.write(payload)  # not joined: that would copy a whole block

    def read_records(self, fh, count: int, record_entries: int) -> int:
        """Fill this empty store with the ``count`` entries that the binary
        file ``fh`` holds from its position on, as the run of records of
        ``record_entries`` entries that ``write_records`` writes (the last
        one short), and seal it.  Under a budget, when ``record_entries``
        equal ``block_entries``, the records the budget would spill are
        copied into this store's spill file unread and counted in
        ``blocks_written`` and ``bytes_spilled`` as if each had been pushed
        and spilled; their CRCs are checked when they are fetched.  Every
        other record is read, checked and appended a store block at a time.
        A bad or short record raises ``CorruptBlockError`` naming ``fh``'s
        file.  Returns the number of records copied."""
        if len(self) or self._sealed:
            raise BlockStoreError(f"{self.name}: records read into a used store")
        copied = 0
        if self.budget_blocks is not None and record_entries == self.block_entries:
            copied = max(-(-count // record_entries) - self.budget_blocks, 0)
        if copied:
            at, nbytes = fh.tell(), copied * self._record_bytes
            held = os.fstat(fh.fileno()).st_size - at
            if held < nbytes:
                raise CorruptBlockError(self.name, held // self._record_bytes,
                                        fh.name, "truncated record")
            fd = self._spill_fd()
            try:
                copy_bytes(fh.fileno(), at, fd, 0, nbytes)
            except OSError as exc:
                raise BlockStoreError(
                    f"{self.name}: copy of {copied} blocks to {self._path} "
                    f"failed: {exc}") from exc
            fh.seek(at + nbytes)
            self._blocks = [None] * copied
            self._first_resident = self.blocks_written = copied
            self._pushed = copied * self.block_entries
            self.bytes_spilled = self._pushed * ENTRY_BYTES
        piece = self.block_entries * ENTRY_BYTES
        for index, start in enumerate(range(copied * record_entries, count,
                                            record_entries), copied):
            size = RECORD_HEADER.size + min(record_entries, count - start) * ENTRY_BYTES
            record = fh.read(size)
            if len(record) != size:
                raise CorruptBlockError(self.name, index, fh.name, "truncated record")
            payload = self._checked_payload(record, index, fh.name)
            # a store block at a time: one longer append would cut each
            # block off the front of all the entries behind it
            for at in range(0, len(payload), piece):
                self.append(decode(payload[at:at + piece], self.typecode))
        self.seal()
        return copied

    @staticmethod
    def records_bytes(count: int, record_entries: int) -> int:
        """The bytes of a run of records of ``record_entries`` entries that
        holds ``count`` entries, the last record short."""
        return count * ENTRY_BYTES + RECORD_HEADER.size * -(-count // record_entries)

    # -- reading side -------------------------------------------------------

    def reverse_iter(self, prefetch: bool = False):
        """Iterate every entry exactly once, last to first."""
        return chain.from_iterable(map(reversed, self.reverse_blocks(prefetch)))

    def reverse_blocks(self, prefetch: bool = False):
        """Yield every block, newest first, counting each in ``blocks_read``.
        A block read from disk is held on top of the resident ones, so the
        peak is noted with it at its own length; a resident block adds
        nothing.  With ``prefetch``, each fetch is followed by a
        ``POSIX_FADV_WILLNEED`` hint for the next-older block when it is on
        disk, so the kernel reads it into the page cache while this block is
        consumed; without ``os.posix_fadvise`` (macOS) the blocks are read
        plainly.  Spilled blocks are read with ``os.pread``, so spilling
        needs POSIX."""
        if not self._sealed:
            raise BlockStoreError(f"{self.name}: reverse_iter before seal")
        hint = prefetch and _HAS_FADVISE
        size = self._record_bytes
        for i in range(len(self._blocks) - 1, -1, -1):
            self.blocks_read += 1
            block = self._blocks[i]
            if block is None:
                block = self._load_spilled(i)
                self._note_peak(len(block))
            if hint and i > 0 and self._blocks[i - 1] is None:
                os.posix_fadvise(self._fd, (i - 1) * size, size,
                                 os.POSIX_FADV_WILLNEED)
            yield block

    def tolist(self) -> list:
        """Every entry, first to last."""
        entries = list(self.reverse_iter())
        entries.reverse()
        return entries

    def _load_spilled(self, index: int) -> array.array:
        size = self._record_bytes
        try:
            record = os.pread(self._fd, size, index * size)
        except OSError as exc:
            raise BlockStoreError(
                f"{self.name}: cannot read block {index} at {self._path}: {exc}") from exc
        if len(record) != size:  # only full blocks spill
            raise BlockStoreError(f"{self.name}: truncated block {index} at {self._path}")
        return decode(self._checked_payload(record, index, self._path), self.typecode)

    def _checked_payload(self, record: bytes, index: int, path: str) -> memoryview:
        """The payload of ``record``, checked as the record of block
        ``index`` read from ``path``; a bad header or CRC raises
        ``CorruptBlockError``.  The caller has checked the record's length."""
        magic, crc, stored = RECORD_HEADER.unpack_from(record)
        payload = memoryview(record)[RECORD_HEADER.size:]
        if magic != _RECORD_MAGIC or stored != index:
            raise CorruptBlockError(self.name, index, path, "bad record header")
        if zlib.crc32(payload) != crc:
            raise CorruptBlockError(self.name, index, path, "CRC mismatch")
        return payload

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
        if _BIG_ENDIAN:
            swapped = array.array(block.typecode, block)
            swapped.byteswap()
            return swapped.tobytes()
        return block.tobytes()
