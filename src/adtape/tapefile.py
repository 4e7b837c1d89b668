"""Binary tape serialization.

Little-endian layout: magic ``ADTP``, version u32, mode u8 (0 = DAG,
1 = DCG), n u64, m u64, q u64, s_len u64, d_len u64, the ordered output
list (m x i64), then the s entries (i64 each) and the d entries (f64 each).
"""

from __future__ import annotations

import struct

from .tape import DAG, DCG, REMAINDER, Tape, TapeError

MAGIC = b"ADTP"
VERSION = 1

_HEADER = struct.Struct("<4sIBQQQQQ")
_MODE_BYTE = {DAG: 0, DCG: 1}
_BYTE_MODE = {0: DAG, 1: DCG}


def save(tape: Tape, path: str) -> None:
    if not tape.finalized:
        raise TapeError("only finalized tapes can be saved")
    s, d = tape.dump()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, _MODE_BYTE[tape.mode],
                              tape.n, tape.m, tape.q, len(s), len(d)))
        fh.write(struct.pack(f"<{tape.m}q", *tape.outputs))
        fh.write(struct.pack(f"<{len(s)}q", *s))
        fh.write(struct.pack(f"<{len(d)}d", *d))


def load(path: str, **store_config) -> Tape:
    """Rebuild a finalized tape by replaying the serialized records.

    Replaying re-derives the graph statistics (beta, beta_r, p_l) that the
    file format does not carry.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        magic, version, mode_byte, n, m, q, s_len, d_len = _HEADER.unpack_from(blob, 0)
    except struct.error as exc:
        raise TapeError(f"{path}: truncated tape file") from exc
    if magic != MAGIC:
        raise TapeError(f"{path}: not a tape file")
    if version != VERSION:
        raise TapeError(f"{path}: unsupported version {version}")
    if mode_byte not in _BYTE_MODE:
        raise TapeError(f"{path}: unknown mode byte {mode_byte}")
    mode = _BYTE_MODE[mode_byte]
    off = _HEADER.size
    expected = off + (m + s_len) * 8 + d_len * 8
    if len(blob) != expected:
        raise TapeError(f"{path}: size mismatch ({len(blob)} != {expected})")
    outputs = list(struct.unpack_from(f"<{m}q", blob, off))
    off += m * 8
    s = list(struct.unpack_from(f"<{s_len}q", blob, off))
    off += s_len * 8
    d = list(struct.unpack_from(f"<{d_len}d", blob, off))

    # parse records backwards (operand lists are delimited by the trailing
    # count), then replay forwards; this parse bounds-checks untrusted file
    # bytes before any Tape exists, so it is not Tape.reverse_elementals
    records = []
    si, di = s_len, d_len
    for _ in range(q):
        if si < 2:
            raise TapeError(f"{path}: malformed structure stream")
        result = s[si - 1]
        count = s[si - 2]
        if count < 0 or si - 2 - count < 0 or di - count < 0:
            raise TapeError(f"{path}: malformed structure stream")
        preds = list(zip(s[si - 2 - count:si - 2], d[di - count:di]))
        records.append((preds, result))
        si -= count + 2
        di -= count
    if si != n:
        raise TapeError(f"{path}: structure stream does not start with {n} inputs")
    inputs = range(n) if mode == DAG else range(-1, -n - 1, -1)
    if s[:n] != list(inputs):
        raise TapeError(f"{path}: input ids are not {inputs[0]}..{inputs[-1]}")
    records.reverse()

    tape = Tape(mode, **store_config)
    for _ in range(n):
        tape.register_input()
    for preds, result in records:
        if mode == DCG:
            deepest = min([result] + [v for v, _ in preds])
            while deepest < 0 and -deepest > tape.p_l:
                tape.declare_lvalue()
        rid = tape.record(preds, result=result if result < 0 else REMAINDER)
        if rid != result:
            raise TapeError(f"{path}: inconsistent vertex numbering "
                            f"({rid} != {result})")
    for vid in outputs:
        tape.register_output(vid)
    tape.finalize()
    return tape
