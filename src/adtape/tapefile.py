"""Binary tape files, streamed in both directions.

Little-endian layout (version 2): magic ``ADTP``, version u32, mode u8
(0 = DAG, 1 = DCG), n u64, m u64, q u64, s_len u64, d_len u64, p_L u64 (the
L-value count, inputs included; 0 on a DAG tape), the ordered output list
(m x i64), then the s entries (i64 each) and the d entries (f64 each).
A version-1 header ends at d_len; such files still load, with p_L derived
from the streams, which misses an L-value that was declared but never
written or read.

``save`` writes each stream one block at a time, and ``load`` reads it back
in block-sized chunks straight into the new tape's block stores, so neither
holds a whole stream in memory and a loaded tape spills under its budget
exactly like a recorded one.  Apart from p_L the file carries no graph
statistics: ``load`` re-derives them in one backward pass over the loaded
streams, which also checks every invariant that recording enforces, and
never replays a record.

The pass checks both modes with one set of rules, because they number
vertices the same way (see ``tape``): L-values are ``-1 .. -p_L`` and the
remainder is numbered densely in recording order.  A DAG tape is the case
p_L = 0, whose inputs are its first remainder ids ``0 .. n-1``; on a DCG
tape the inputs are L-values and the remainder starts at 0.  ``save``
refuses a tape whose file ``load`` would refuse.
"""

from __future__ import annotations

import array
import os
import struct
import sys
from itertools import islice
from math import isfinite

from .blockstore import ENTRY_BYTES, BlockStore
from .tape import DAG, DCG, Tape, TapeError, TapeStats

MAGIC = b"ADTP"
VERSION = 2

#: the header up to d_len, which every version starts with
_HEADER = struct.Struct("<4sIBQQQQQ")
#: the field version 2 appends to it
_P_L = struct.Struct("<Q")
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
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, _MODE_BYTE[tape.mode],
                              tape.n, tape.m, tape.q, tape.s_len, tape.d_len))
        fh.write(_P_L.pack(tape.p_l))
        fh.write(struct.pack(f"<{tape.m}q", *tape.outputs))
        fh.writelines(tape.stream_bytes())


def load(path: str, prefetch: bool = False, **store_config) -> Tape:
    """Load a finalized tape, streaming each stream into a ``BlockStore``
    built from ``store_config`` one block at a time.

    The statistics (beta, beta_r, the vertex and edge counts, and p_l of
    a version-1 file) are derived from the streams, never read from the
    file, in one backward pass that rejects, with a ``TapeError`` naming
    ``path``, any stream that recording could not have produced.  Under
    ``budget_blocks`` the loaded tape spills as it loads, just as a
    recorded tape does.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise TapeError(f"{path}: truncated tape file")
        magic, version, mode_byte, n, m, q, s_len, d_len = _HEADER.unpack(head)
        if magic != MAGIC:
            raise TapeError(f"{path}: not a tape file")
        if version not in (1, VERSION):
            raise TapeError(f"{path}: unsupported version {version}")
        if mode_byte not in _BYTE_MODE:
            raise TapeError(f"{path}: unknown mode byte {mode_byte}")
        p_l = None  # version 1: derived from the streams
        if version == VERSION:
            field = fh.read(_P_L.size)
            if len(field) != _P_L.size:
                raise TapeError(f"{path}: truncated tape file")
            (p_l,) = _P_L.unpack(field)
        size = os.fstat(fh.fileno()).st_size
        expected = fh.tell() + (m + s_len + d_len) * ENTRY_BYTES
        if size != expected:
            raise TapeError(f"{path}: size mismatch ({size} != {expected})")
        if n < 1 or m < 1:
            raise TapeError(f"{path}: a tape needs inputs and outputs "
                            f"(n={n}, m={m})")
        outputs = _read_array(fh, "q", m, path).tolist()
        s = BlockStore("q", name="s", **store_config)
        d = BlockStore("d", name="d", **store_config)
        _read_stream(fh, s, s_len, path)
        _read_stream(fh, d, d_len, path)
    s.seal()
    d.seal()
    stats = _derive_stats(path, _BYTE_MODE[mode_byte], n, q, s, d, outputs,
                          p_l)
    return Tape._adopt(stats, s, d, outputs, prefetch=prefetch)


def _read_array(fh, typecode: str, count: int, path: str) -> array.array:
    data = fh.read(count * ENTRY_BYTES)
    if len(data) != count * ENTRY_BYTES:  # the file shrank under us
        raise TapeError(f"{path}: truncated tape file")
    entries = array.array(typecode)
    entries.frombytes(data)
    if sys.byteorder == "big":
        entries.byteswap()
    return entries


def _read_stream(fh, store: BlockStore, count: int, path: str) -> None:
    step = store.block_entries
    partials = store.typecode == "d"
    for start in range(0, count, step):
        chunk = _read_array(fh, store.typecode, min(step, count - start), path)
        # recording never writes a non-finite partial.  An inf or nan makes
        # the chunk's sum non-finite, so only such a chunk (or one whose
        # finite entries overflow the sum) takes the exact per-entry scan
        if partials and not isfinite(sum(chunk)) and not all(map(isfinite, chunk)):
            bad = next(x for x in chunk if not isfinite(x))
            raise TapeError(f"{path}: non-finite partial {bad!r}")
        store.append(chunk)


def _derive_stats(path: str, mode: str, n: int, q: int, s: BlockStore,
                  d: BlockStore, outputs: list[int],
                  stored_p_l: int | None) -> TapeStats:
    """Walk the records backwards, as the sweep does, checking them as
    recording numbers them on either mode: each operand count fits the
    streams, the remainder results are the dense ids ``first, first+1,
    ...`` in order, every operand is defined before it is read and appears
    once, and every partial belongs to an elemental; then that the ``n``
    input ids come first, that no L-value lies beyond the bound, that a
    stored p_L exceeds the deepest L-value by at most ``len(s)`` and that
    the outputs are distinct known vertices (L-values on a DCG tape).
    Only the values set before the loop tell the modes apart: a DAG tape
    is the case p_L = 0, whose inputs are its first remainder ids, so
    ``first`` is ``n`` and the L-value bound 0; on a DCG tape ``first`` is
    0 and the bound is ``stored_p_l`` (None for a file that does not store
    p_L).  ``_read_stream`` has already checked that the partials are
    finite, as they arrived.

    As in ``interpret.propagate``, records are read with the builtin
    ``next()`` from ``body``, an ``islice`` that stops where the input ids
    begin; arity-1 and arity-2 records take straight-line paths on their
    lower and higher operand, and no local of the record loop is a closure
    cell."""
    entries = s.reverse_iter()
    body = islice(entries, max(len(s) - n, 0))
    d_left = len(d)
    # first: the first remainder id; low: the deepest L-value id read, -p_L
    # once the walk ends, the inputs included
    if mode == DAG:
        if stored_p_l:
            raise _bad(path, f"p_L is {stored_p_l} on a DAG tape")
        first, bound, low = n, 0, 0
    else:
        first, bound, low = 0, stored_p_l, -n
    width = 0
    youngest = None  # the last remainder result
    trailing = -1    # the highest remainder id read after youngest
    # the oldest remainder result read so far; 0 until youngest is read,
    # which sends every remainder operand to the branch that notes trailing
    oldest = 0
    try:
        for k in range(q - 1, -1, -1):
            result = next(body)
            count = next(body)
            d_left -= count
            if d_left < 0:  # a negative count fails in _operands
                raise _bad(path, "malformed structure stream")
            if count == 2:
                a = next(body)
                b = next(body)
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
                if result != oldest - 1:
                    if youngest is not None:
                        raise _bad(path, f"elemental {k} has result {result}, "
                                         f"not {oldest - 1}")
                    if trailing > result:
                        raise _unrecorded(path, trailing)
                    youngest = result
                oldest = result
            elif result < low:
                low = result
            # remainder ids below oldest precede the record, whatever its
            # result; for a remainder record oldest is its result, and for
            # an L-value result result - v is never a width
            if lo is None:
                for v in ops:
                    if v < 0:
                        if v < low:
                            low = v
                    elif v >= oldest:
                        if youngest is not None:
                            raise _unrecorded(path, v)
                        if v > trailing:
                            trailing = v
                    elif result - v > width:
                        width = result - v
            elif hi >= oldest:
                if youngest is not None:
                    raise _unrecorded(path, a if a >= oldest else b)
                if hi > trailing:
                    trailing = hi
                if lo < low:
                    low = lo
            elif lo >= 0:
                if result - lo > width:
                    width = result - lo
            else:
                if lo < low:
                    low = lo
                if hi >= 0 and result - hi > width:
                    width = result - hi
    except StopIteration:  # the records ran into the input ids
        raise _bad(path, "malformed structure stream") from None
    s_left = len(s) - 2 * q - (len(d) - d_left)
    if s_left != n:
        raise _bad(path, f"structure stream does not start with {n} inputs")
    if d_left:
        raise _bad(path, f"{d_left} partials belong to no elemental")
    dag = mode == DAG
    inputs = range(n) if dag else range(-1, -n - 1, -1)
    if list(islice(entries, n)) != list(reversed(inputs)):
        raise _bad(path, f"input ids are not {inputs[0]}..{inputs[-1]}")
    if youngest is None:
        if trailing >= first:
            raise _unrecorded(path, trailing)
        youngest = first - 1
    elif oldest != first:
        raise _bad(path, f"remainder ids start at {oldest}, not {first}")
    p_l = -low
    if bound is not None:
        if p_l > bound:
            raise _bad(path, f"L-value {low} lies beyond p_L {bound}")
        # declared L-values that no record touches cost adjoint slots and
        # no stream entry: at most one per entry of s keeps their slots
        # within the file's own structure bytes
        if bound > p_l + len(s):
            raise _bad(path, f"stored p_L {bound} exceeds the derived "
                             f"p_L {p_l} plus s_len {len(s)}")
        p_l = bound
    num_remainder = youngest + 1
    num_vertices = p_l + num_remainder
    for v in outputs:
        if not (0 <= v < num_vertices if dag else -p_l <= v < 0):
            raise _bad(path, f"output {v} is not a "
                             f"{'vertex' if dag else 'L-value'} of the tape")
    if len(set(outputs)) != len(outputs):
        raise _bad(path, "an output is registered twice")
    return TapeStats(mode=mode, num_vertices=num_vertices, num_inputs=n,
                     num_outputs=len(outputs), num_edges=len(d),
                     num_elementals=q, beta=width if dag else 0,
                     beta_r=0 if dag else width, p_l=p_l,
                     num_remainder=num_remainder, s_len=len(s), d_len=len(d))


def _bad(path: str, what: str) -> TapeError:
    return TapeError(f"{path}: {what}")


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

