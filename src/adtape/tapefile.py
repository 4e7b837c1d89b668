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
    """Walk the records backwards, as the sweep does, checking that each
    operand count fits the streams, that results are numbered as recording
    numbers them (DAG vertex ``n+k`` for elemental ``k``; DCG remainder
    ids ``0..R-1`` in order, L-value results only on DCG tapes), that every
    operand is defined before it is read and appears once, and that every
    partial belongs to an elemental; then that the ``n`` input ids come
    first, that no L-value lies beyond ``stored_p_l`` (None for a file
    that does not store p_L), that ``stored_p_l`` exceeds the deepest
    L-value by at most ``len(s)`` and that the outputs are distinct known
    vertices (L-values on a DCG tape).  ``_read_stream`` has already
    checked that the partials are finite, as they arrived.

    As in ``interpret.propagate``, records are read with the builtin
    ``next()`` from ``body``, an ``islice`` that stops where the input ids
    begin; arity-1 and arity-2 records take straight-line paths, and no
    local of the record loop is a closure cell."""
    entries = s.reverse_iter()
    body = islice(entries, max(len(s) - n, 0))
    d_left = len(d)
    dag = mode == DAG
    beta = beta_r = 0
    low = -n           # DCG: the deepest L-value id, inputs included, -p_L
    youngest = -1      # DCG: the last remainder result, R - 1
    oldest = None      # DCG: the oldest remainder result seen so far
    trailing = -1      # DCG: the highest remainder id read after youngest
    try:
        for k in range(q - 1, -1, -1):
            result = next(body)
            count = next(body)
            d_left -= count
            if count < 0 or d_left < 0:
                raise _bad(path, "malformed structure stream")
            if count == 2:
                a = next(body)
                b = next(body)
                if a == b:
                    raise _bad(path, f"elemental {k} repeats an operand")
            elif count == 1:
                a = b = next(body)  # every check of b then repeats one of a
            else:
                ops = _operands(body, count, k, path)
                a = None  # the operands are checked from ops
            if dag:
                # a, b: lowest and highest operand, or passing bounds if none
                if a is None:
                    a, b = min(ops, default=n + k), max(ops, default=0)
                elif a > b:
                    a, b = b, a
                if result != n + k:
                    raise _bad_dag_result(path, n, result, k)
                if a < 0 or b >= result:
                    raise _bad(path, f"elemental {k} reads a vertex it does "
                                     "not follow")
                if result - a > beta:
                    beta = result - a
                continue
            if result >= 0:
                if oldest is None:
                    if trailing > result:
                        raise _unrecorded(path, trailing)
                    youngest = result
                elif result != oldest - 1:
                    raise _bad(path, f"elemental {k} has result {result}, "
                                     f"not {oldest - 1}")
                oldest = result
            elif result < low:
                low = result
            # remainder ids below oldest precede the record, whatever its
            # result; for a remainder record oldest is its result
            if a is None:
                for v in ops:
                    if v < 0:
                        if v < low:
                            low = v
                    elif oldest is None:
                        if v > trailing:
                            trailing = v
                    elif v >= oldest:
                        raise _unrecorded(path, v)
                    elif result - v > beta_r:  # never for an L-value result
                        beta_r = result - v
            elif result >= 0:
                if a >= result or b >= result:
                    raise _unrecorded(path, a if a >= result else b)
                if a < 0:
                    if a < low:
                        low = a
                elif result - a > beta_r:
                    beta_r = result - a
                if b < 0:
                    if b < low:
                        low = b
                elif result - b > beta_r:
                    beta_r = result - b
            else:
                if oldest is None:
                    trailing = max(trailing, a, b)
                elif a >= oldest or b >= oldest:
                    raise _unrecorded(path, a if a >= oldest else b)
                if a < low:
                    low = a
                if b < low:
                    low = b
    except StopIteration:  # the records ran into the input ids
        raise _bad(path, "malformed structure stream") from None
    s_left = len(s) - 2 * q - (len(d) - d_left)
    if s_left != n:
        raise _bad(path, f"structure stream does not start with {n} inputs")
    if d_left:
        raise _bad(path, f"{d_left} partials belong to no elemental")
    inputs = range(n) if dag else range(-1, -n - 1, -1)
    if list(islice(entries, n)) != list(reversed(inputs)):
        raise _bad(path, f"input ids are not {inputs[0]}..{inputs[-1]}")
    if dag:
        if stored_p_l:
            raise _bad(path, f"p_L is {stored_p_l} on a DAG tape")
        num_remainder = num_vertices = n + q
        p_l = 0
    else:
        if oldest is None and trailing >= 0:
            raise _unrecorded(path, trailing)
        if oldest is not None and oldest != 0:
            raise _bad(path, f"remainder ids start at {oldest}, not 0")
        p_l = -low
        if stored_p_l is not None:
            if p_l > stored_p_l:
                raise _bad(path, f"L-value {low} lies beyond p_L {stored_p_l}")
            # declared L-values that no record touches cost adjoint slots and
            # no stream entry: at most one per entry of s keeps their slots
            # within the file's own structure bytes
            if stored_p_l > p_l + len(s):
                raise _bad(path, f"stored p_L {stored_p_l} exceeds the derived "
                                 f"p_L {p_l} plus s_len {len(s)}")
            p_l = stored_p_l
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
                     num_elementals=q, beta=beta, beta_r=beta_r, p_l=p_l,
                     num_remainder=num_remainder, s_len=len(s), d_len=len(d))


def _bad(path: str, what: str) -> TapeError:
    return TapeError(f"{path}: {what}")


def _unrecorded(path: str, v: int) -> TapeError:
    return _bad(path, f"remainder vertex {v} is read before it is recorded")


def _operands(body, count: int, k: int, path: str) -> list[int]:
    """The ``count`` operands of zero-arity or n-ary elemental ``k``."""
    ops = list(islice(body, count))
    if len(ops) != count:
        raise _bad(path, "malformed structure stream")
    if len(set(ops)) != count:
        raise _bad(path, f"elemental {k} repeats an operand")
    return ops


def _bad_dag_result(path: str, n: int, result: int, k: int) -> TapeError:
    if result < 0:
        return _bad(path, f"L-value result {result} on a DAG tape")
    return _bad(path, f"elemental {k} has result {result}, not {n + k}")
