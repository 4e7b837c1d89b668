"""Binary tape files, streamed in both directions.

Little-endian layout (version 3): magic ``ADTP``, version u32, mode u8
(0 = DAG, 1 = DCG), n u64, m u64, q u64, s_len u64, d_len u64, p_L u64 (the
L-value count, inputs included; 0 on a DAG tape), block_entries u64, the
ordered output list (m x i64) and a u32 ``zlib.crc32`` of everything before
it.  Then come the ``s`` section and the ``d`` section, each a run of block
records in the spill-file layout of ``blockstore``: record ``i`` sits at
section offset ``i * (16 + 8 * block_entries)`` and is a 16-byte header
``<4sIQ`` (magic, CRC-32 of the payload, block index) followed by the
block's little-endian payload, i64 entries in ``s`` and f64 entries in
``d``; the last record of a section may be short.  A damaged header, output
list or record raises ``TapeError`` naming the path and the section
(``header``, ``s`` or ``d``), and for a record the block.  Version 3 is the
only format: a file of any other version is refused before the rest of its
header is read, so every byte that ``load`` reads is under a CRC.

``save`` writes each stream one block at a time into a temporary file beside
the target and renames it over the target only once the whole file is
written, so a failed save leaves the old file as it was.  The block stores
own the record: ``BlockStore.write_records`` writes each section, copying a
spilled prefix from its spill file byte for byte, and
``BlockStore.read_records`` reads each section into a new ``Tape``'s store,
never holding a whole stream in memory, so a loaded tape spills under its
budget exactly like a recorded one.  A budgeted load whose ``block_entries``
equal the file's copies the records its stores would spill unread; every
other record is checked and appended.  ``load`` then reads ``d`` once to
check that the partials are finite, which also checks the CRC of every
copied ``d`` record, and the pass below reads ``s``.

Apart from p_L the file carries no graph statistics: one backward pass over
the loaded streams derives the width and the remainder count and checks
every invariant that recording enforces, without replaying a record;
``Tape.register_output`` checks the outputs and ``Tape.stats`` derives the
rest.  The pass checks each record at its remainder position, from which
the writers measured its width; a short scan of the newest records fixes
that position before the pass starts (see ``_derive_stats``).  The pass
checks both modes with one set of rules, because they number vertices the
same way (see ``tape``): L-values are ``-1 .. -p_L`` and the remainder is
numbered densely in recording order.  A DAG tape is the case
p_L = 0, whose inputs are its first remainder ids ``0 .. n-1``; on a DCG
tape the inputs are L-values and the remainder starts at 0.  ``save``
refuses a tape whose file ``load`` would refuse.
"""

from __future__ import annotations

import os
import struct
import zlib
from itertools import islice
from math import isfinite

from .blockstore import BlockStore, CorruptBlockError
from .tape import DAG, DCG, Tape, TapeError

MAGIC = b"ADTP"
VERSION = 3

#: magic, version, mode, n, m, q, s_len, d_len, p_L, block_entries
_HEADER = struct.Struct("<4sIBQQQQQQQ")
#: the magic and the version, which ``load`` checks before the rest
_LEAD = 8
#: one output id
_OUTPUT = struct.Struct("<q")
#: the CRC-32 of header and outputs that ends the header
_CRC = struct.Struct("<I")
#: above every i64 entry of ``s``
_ABOVE_EVERY_ID = 1 << 63
_MODE_BYTE = {DAG: 0, DCG: 1}
_BYTE_MODE = {0: DAG, 1: DCG}


def save(tape: Tape, path: str) -> None:
    if not tape.finalized:
        raise TapeError("only finalized tapes can be saved")
    # load bounds p_L by the deepest L-value in s plus s_len, and the inputs
    # alone reach n, so only a larger p_L needs the scan of s
    if tape.p_l > tape.n + tape.s_len:
        deepest = -min(tape.reverse_streams()[0])
        if tape.p_l > deepest + tape.s_len:
            raise TapeError(f"{path}: p_L {tape.p_l} exceeds the derived p_L "
                            f"{deepest} plus s_len {tape.s_len}, so the file "
                            "would not load")
    head = (_HEADER.pack(MAGIC, VERSION, _MODE_BYTE[tape.mode], tape.n,
                         tape.m, tape.q, tape.s_len, tape.d_len, tape.p_l,
                         tape._s.block_entries)
            + struct.pack(f"<{tape.m}q", *tape.outputs))
    # written beside the target, so that the rename stays on one file
    # system, and renamed over it only once complete.  open() makes the file
    # with the permissions a plain open of the target would give it
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}."
                                              f"{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(head)
            fh.write(_CRC.pack(zlib.crc32(head)))
            tape._s.write_records(fh)
            tape._d.write_records(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load(path: str, prefetch: bool = False, **store_config) -> Tape:
    """Load a finalized tape into ``Tape(mode, prefetch=prefetch,
    **store_config)``, whose stores each read their section of the file
    with ``BlockStore.read_records``, a block at a time.

    One pass over ``d`` then checks that every partial is finite, and
    ``_derive_stats`` derives the width and the remainder count, bounds the
    stored p_L and rejects any stream that recording could not have
    produced; the outputs go through ``Tape.register_output``.  Every error
    about the file, in a record copied unread into a spill file too, is a
    ``TapeError`` naming ``path``, and for a record its section and block.
    A block the load spilled itself and finds damaged raises
    ``CorruptBlockError`` naming its spill file.
    """
    copied = 0
    try:
        with open(path, "rb") as fh:
            (mode, n, q, s_len, d_len, p_l, file_entries,
             outputs) = _read_head(fh, path)
            tape = Tape(mode, prefetch=prefetch, **store_config)
            s, d = tape._s, tape._d
            copied += s.read_records(fh, s_len, file_entries)
            copied += d.read_records(fh, d_len, file_entries)
        for block in d.reverse_blocks():
            _check_partials(block, path)
        stats = _derive_stats(path, mode, n, q, s, d, p_l)
    except CorruptBlockError as exc:
        # a copied record is the file's own; a load that copies nothing
        # spills only blocks it encoded itself
        if exc.path != path and not copied:
            raise
        raise _corrupt(path, exc.stream, exc.index, exc.fault) from None
    tape._adopt(n, p_l, *stats)
    try:
        for v in outputs:
            tape.register_output(v)
    except TapeError as exc:
        raise _bad(path, str(exc)) from None
    tape.finalize()
    return tape


def _read_head(fh, path: str) -> tuple:
    """``(mode, n, q, s_len, d_len, p_l, block_entries, outputs)`` from the
    header, checking the magic and the version before the rest, then the
    file's size and the header's CRC."""
    head = _read_exact(fh, _LEAD, path)
    if head[:4] != MAGIC:
        raise _bad(path, f"not a tape file (header magic {head[:4]!r})")
    version = int.from_bytes(head[4:], "little")
    if version != VERSION:
        raise _bad(path, f"unsupported version {version} in header")
    head += _read_exact(fh, _HEADER.size - _LEAD, path)
    (_, _, mode_byte, n, m, q, s_len, d_len, p_l,
     file_entries) = _HEADER.unpack(head)
    if file_entries < 1:
        raise _bad(path, f"block_entries {file_entries} in header")
    size = os.fstat(fh.fileno()).st_size
    expected = (_HEADER.size + m * _OUTPUT.size + _CRC.size
                + BlockStore.records_bytes(s_len, file_entries)
                + BlockStore.records_bytes(d_len, file_entries))
    if size != expected:
        raise _bad(path, f"size mismatch: the header gives {expected} bytes, "
                         f"the file has {size}")
    outputs = _read_exact(fh, m * _OUTPUT.size, path)
    (crc,) = _CRC.unpack(_read_exact(fh, _CRC.size, path))
    if zlib.crc32(head + outputs) != crc:
        raise _bad(path, "corrupt header (CRC mismatch)")
    if mode_byte not in _BYTE_MODE:
        raise _bad(path, f"unknown mode byte {mode_byte} in header")
    if n < 1 or m < 1:
        raise _bad(path, f"a tape needs inputs and outputs (n={n}, m={m})")
    return (_BYTE_MODE[mode_byte], n, q, s_len, d_len, p_l, file_entries,
            struct.unpack(f"<{m}q", outputs))


def _read_exact(fh, nbytes: int, path: str) -> bytes:
    data = fh.read(nbytes)
    if len(data) != nbytes:  # a short header, or the file shrank under us
        raise _bad(path, "truncated tape file")
    return data


def _check_partials(chunk, path: str) -> None:
    # recording never writes a non-finite partial.  An inf or nan makes the
    # chunk's sum non-finite, so only such a chunk (or one whose finite
    # entries overflow the sum) takes the exact per-entry scan
    if not isfinite(sum(chunk)) and not all(map(isfinite, chunk)):
        bad = next(x for x in chunk if not isfinite(x))
        raise _bad(path, f"non-finite partial {bad!r}")


def _derive_stats(path: str, mode: str, n: int, q: int, s: BlockStore,
                  d: BlockStore, p_l: int) -> tuple[int, int]:
    """``(num_remainder, width)`` of the sealed streams, for
    ``Tape._adopt`` beside the stored ``p_l``; ``load`` checks the outputs
    through ``register_output``.

    Walk the records backwards, as the sweep does, checking them as
    recording numbers them on either mode: each operand count fits the
    streams, the remainder results are the dense ids ``first, first+1,
    ...`` in order, every operand is defined before it is read and appears
    once, and every partial belongs to an elemental; then that the ``n``
    input ids come first, that no L-value lies beyond ``p_l`` and that
    ``p_l`` exceeds the deepest L-value by at most ``len(s)``.  Only the
    values set before the loop tell the modes apart: a DAG tape is the case
    p_L = 0, whose inputs are its first remainder ids, so ``first`` is
    ``n``; on a DCG tape ``first`` is 0.  ``load`` has already checked that
    the partials are finite.

    Each record has one remainder position ``at``, the id from which the
    writers measured its width: its result, or for an L-value result the
    next remainder id.  ``_next_remainder`` fixes ``at`` before the pass
    starts, with a scan of the newest records up to the first remainder
    result, so the pass keeps one rule: a remainder result must be
    ``at - 1`` and becomes ``at``, a remainder operand ``v`` must lie below
    ``at`` and widens the width to ``at - v``, and the pass ends with
    ``at == first``.  So a file with several faults is refused at the first
    one that the pass meets, newest record first.

    As in the sweep's record loop, records are read in pairs from ``body``,
    an ``islice`` that stops where the input ids begin: each record's
    ``(result, count)`` is one ``next()`` of ``zip(body, body)``, and so
    are the two operands of an arity-2 record.  Arity-1 and arity-2
    records take straight-line paths on their lower and higher operand,
    and no local of the record loop is a closure cell."""
    entries = s.reverse_iter()
    body = islice(entries, max(len(s) - n, 0))
    two = zip(body, body)
    d_left = len(d)
    # first: the first remainder id; low: the deepest L-value id read, the
    # inputs included
    if mode == DAG:
        if p_l:
            raise _bad(path, f"p_L is {p_l} on a DAG tape")
        first, low = n, 0
    else:
        first, low = 0, -n
    width = 0
    num_remainder = at = _next_remainder(s, n, q, first)
    try:
        for k in range(q - 1, -1, -1):
            result, count = next(two)
            d_left -= count
            if d_left < 0:  # a negative count fails in _operands
                raise _bad(path, "malformed structure stream")
            if count == 2:
                a, b = next(two)
                if a > b:  # the more common order: a is the later operand
                    lo, hi = b, a
                elif a < b:
                    lo, hi = a, b
                else:
                    raise _bad(path, f"elemental {k} repeats an operand")
            elif count == 1:
                a = lo = hi = next(body)  # an unrecorded a is named, not b
            else:
                ops = _operands(body, count, k, path)
                lo = None  # the operands are checked from ops
            if result >= 0:
                if result != at - 1:
                    raise _bad(path, f"elemental {k} has result {result}, "
                                     f"not {at - 1}")
                at = result
            elif result < low:
                low = result
            # the remainder ids below at precede the record
            if lo is None:
                for v in ops:
                    if v < 0:
                        if v < low:
                            low = v
                    elif v >= at:
                        raise _unrecorded(path, v)
                    elif at - v > width:
                        width = at - v
            elif hi >= at:
                raise _unrecorded(path, a if a >= at else b)
            elif lo >= 0:
                if at - lo > width:
                    width = at - lo
            else:
                if lo < low:
                    low = lo
                if hi >= 0 and at - hi > width:
                    width = at - hi
    except StopIteration:  # the records ran into the input ids
        raise _bad(path, "malformed structure stream") from None
    s_left = len(s) - 2 * q - (len(d) - d_left)
    if s_left != n:
        raise _bad(path, f"structure stream does not start with {n} inputs")
    if d_left:
        raise _bad(path, f"{d_left} partials belong to no elemental")
    inputs = range(n) if mode == DAG else range(-1, -n - 1, -1)
    if list(islice(entries, n)) != list(reversed(inputs)):
        raise _bad(path, f"input ids are not {inputs[0]}..{inputs[-1]}")
    if at != first:
        raise _bad(path, f"remainder ids start at {at}, not {first}")
    if -low > p_l:
        raise _bad(path, f"L-value {low} lies beyond p_L {p_l}")
    # declared L-values that no record touches cost adjoint slots and no
    # stream entry: at most one per entry of s keeps their slots within the
    # file's own structure bytes
    if p_l > len(s) - low:
        raise _bad(path, f"stored p_L {p_l} exceeds the derived p_L {-low} "
                         f"plus s_len {len(s)}")
    return num_remainder, width


def _next_remainder(s: BlockStore, n: int, q: int, first: int) -> int:
    """The remainder position of the newest records of ``s``: the newest
    remainder result plus 1, or ``first`` if no record has one.  Reads each
    record's ``(result, count)`` newest first and skips its operands.  At a
    negative count, or where the records run into the input ids, it stops:
    the pass raises at that record, and the position returned lies above
    every id, so no remainder operand of a newer record fails first."""
    body = islice(s.reverse_iter(), max(len(s) - n, 0))
    two = zip(body, body)
    for _ in range(q):
        # (-1, -1) where the records ran into the input ids
        result, count = next(two, (-1, -1))
        if count < 0:
            return _ABOVE_EVERY_ID
        if result >= 0:
            return result + 1
        next(islice(body, count, count), None)  # skips the operands
    return first


def _bad(path: str, what: str) -> TapeError:
    return TapeError(f"{path}: {what}")


def _corrupt(path: str, section: str, index: int, fault: str) -> TapeError:
    return _bad(path, f"corrupt {section} block {index} ({fault})")


def _unrecorded(path: str, v: int) -> TapeError:
    return _bad(path, f"remainder vertex {v} is read before it is recorded")


def _operands(body, count: int, k: int, path: str) -> list[int]:
    """The ``count`` operands of zero-arity or n-ary elemental ``k``."""
    ops = list(islice(body, max(count, 0)))
    if len(ops) != count:
        raise _bad(path, "malformed structure stream")
    if len(set(ops)) != count:
        raise _bad(path, f"elemental {k} repeats an operand")
    return ops

