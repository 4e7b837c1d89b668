"""Binary tape files, streamed in both directions.

Little-endian layout: magic ``ADTP``, version u32, mode u8 (0 = DAG,
1 = DCG), n u64, m u64, q u64, s_len u64, d_len u64, the ordered output
list (m x i64), then the s entries (i64 each) and the d entries (f64 each).

``save`` writes each stream one block at a time, and ``load`` reads it back
in block-sized chunks straight into the new tape's block stores, so neither
holds a whole stream in memory and a loaded tape spills under its budget
exactly like a recorded one.  The file carries no graph statistics: ``load``
re-derives them in one backward pass over the loaded streams, which also
checks every invariant that recording enforces, and never replays a record.
"""

from __future__ import annotations

import array
import math
import os
import struct
import sys

from .blockstore import ENTRY_BYTES, BlockStore
from .tape import DAG, DCG, Tape, TapeError, TapeStats

MAGIC = b"ADTP"
VERSION = 1

_HEADER = struct.Struct("<4sIBQQQQQ")
_MODE_BYTE = {DAG: 0, DCG: 1}
_BYTE_MODE = {0: DAG, 1: DCG}


def save(tape: Tape, path: str) -> None:
    if not tape.finalized:
        raise TapeError("only finalized tapes can be saved")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, _MODE_BYTE[tape.mode],
                              tape.n, tape.m, tape.q, tape.s_len, tape.d_len))
        fh.write(struct.pack(f"<{tape.m}q", *tape.outputs))
        fh.writelines(tape.stream_bytes())


def load(path: str, prefetch: bool = False, **store_config) -> Tape:
    """Load a finalized tape, streaming each stream into a ``BlockStore``
    built from ``store_config`` one block at a time.

    The statistics (beta, beta_r, p_l, the vertex and edge counts) are
    derived from the streams, never read from the file, in one backward
    pass that rejects, with a ``TapeError`` naming ``path``, any stream
    that recording could not have produced.  Under ``budget_blocks`` the
    loaded tape spills as it loads, just as a recorded tape does.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise TapeError(f"{path}: truncated tape file")
        magic, version, mode_byte, n, m, q, s_len, d_len = _HEADER.unpack(head)
        if magic != MAGIC:
            raise TapeError(f"{path}: not a tape file")
        if version != VERSION:
            raise TapeError(f"{path}: unsupported version {version}")
        if mode_byte not in _BYTE_MODE:
            raise TapeError(f"{path}: unknown mode byte {mode_byte}")
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + (m + s_len + d_len) * ENTRY_BYTES
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
    stats = _derive_stats(path, _BYTE_MODE[mode_byte], n, q, s, d, outputs)
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
    for start in range(0, count, step):
        chunk = _read_array(fh, store.typecode, min(step, count - start), path)
        # a partials chunk: recording never writes a non-finite partial
        if store.typecode == "d" and not all(map(math.isfinite, chunk)):
            bad = next(x for x in chunk if not math.isfinite(x))
            raise TapeError(f"{path}: non-finite partial {bad!r}")
        store.append(chunk)


def _derive_stats(path: str, mode: str, n: int, q: int, s: BlockStore,
                  d: BlockStore, outputs: list[int]) -> TapeStats:
    """Walk the records backwards, as the sweep does, checking that each
    operand count fits the streams, that results are numbered as recording
    numbers them (DAG vertex ``n+k`` for elemental ``k``; DCG remainder
    ids ``0..R-1`` in order, L-value results only on DCG tapes), that every
    operand is defined before it is read and appears once, and that every
    partial belongs to an elemental; then that the ``n`` input ids come
    first and the outputs are distinct known vertices (L-values on a DCG
    tape).  ``_read_stream`` has already checked that the partials are
    finite, as they arrived."""
    def bad(what):
        return TapeError(f"{path}: {what}")

    s_next = s.reverse_iter().__next__
    s_left, d_left = len(s), len(d)
    dag = mode == DAG
    beta = beta_r = 0
    p_l = n            # DCG: the deepest L-value id, inputs included
    youngest = -1      # DCG: the last remainder result, R - 1
    oldest = None      # DCG: the oldest remainder result seen so far
    trailing = -1      # DCG: the highest remainder id read after youngest
    for k in range(q - 1, -1, -1):
        s_left -= 2
        if s_left < n:
            raise bad("malformed structure stream")
        result = s_next()
        count = s_next()
        s_left -= count
        d_left -= count
        if count < 0 or s_left < n or d_left < 0:
            raise bad("malformed structure stream")
        if count == 1:
            ops = (s_next(),)
        else:
            ops = [s_next() for _ in range(count)]
            if len(set(ops)) != count:
                raise bad(f"elemental {k} repeats an operand")
        if dag:
            if result < 0:
                raise bad(f"L-value result {result} on a DAG tape")
            if result != n + k:
                raise bad(f"elemental {k} has result {result}, not {n + k}")
            if ops:
                first = min(ops)
                if first < 0 or max(ops) >= result:
                    raise bad(f"elemental {k} reads a vertex it does not follow")
                if result - first > beta:
                    beta = result - first
            continue
        if result >= 0:
            if oldest is None:
                if trailing > result:
                    raise bad(f"remainder vertex {trailing} is read before "
                              "it is recorded")
                youngest = result
            elif result != oldest - 1:
                raise bad(f"elemental {k} has result {result}, "
                          f"not {oldest - 1}")
            oldest = defined = result
        else:
            if -result > p_l:
                p_l = -result
            defined = oldest  # remainder ids below it precede this record
        for v in ops:
            if v < 0:
                if -v > p_l:
                    p_l = -v
            elif defined is None:
                if v > trailing:
                    trailing = v
            elif v >= defined:
                raise bad(f"remainder vertex {v} is read before it is recorded")
            elif result >= 0 and result - v > beta_r:
                beta_r = result - v
    if s_left != n:
        raise bad(f"structure stream does not start with {n} inputs")
    if d_left:
        raise bad(f"{d_left} partials belong to no elemental")
    inputs = range(n) if dag else range(-1, -n - 1, -1)
    if [s_next() for _ in range(n)] != list(reversed(inputs)):
        raise bad(f"input ids are not {inputs[0]}..{inputs[-1]}")
    if dag:
        num_remainder = num_vertices = n + q
        p_l = 0
    else:
        if oldest is None and trailing >= 0:
            raise bad(f"remainder vertex {trailing} is read before it is recorded")
        if oldest is not None and oldest != 0:
            raise bad(f"remainder ids start at {oldest}, not 0")
        num_remainder = youngest + 1
        num_vertices = p_l + num_remainder
    for v in outputs:
        if not (0 <= v < num_vertices if dag else -p_l <= v < 0):
            raise bad(f"output {v} is not a {'vertex' if dag else 'L-value'} "
                      "of the tape")
    if len(set(outputs)) != len(outputs):
        raise bad("an output is registered twice")
    return TapeStats(mode=mode, num_vertices=num_vertices, num_inputs=n,
                     num_outputs=len(outputs), num_edges=len(d),
                     num_elementals=q, beta=beta, beta_r=beta_r, p_l=p_l,
                     num_remainder=num_remainder, s_len=len(s), d_len=len(d))
