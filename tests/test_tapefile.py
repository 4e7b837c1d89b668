import gc
import math
import os
import re
import struct
import zlib

import pytest

from adtape import (DAG, DCG, LVALUE, REMAINDER, Tape, TapeError,
                    propagate_flat, propagate_lvalue, record_problem)
from adtape.blockstore import BlockStore, BlockStoreError, CorruptBlockError
from adtape.interpret import STRATEGY_MODE, adjoint_slot_count, propagate
from adtape.rng import Xorshift
from adtape.tapefile import MAGIC, save, load
from adtape.problems import IntroExample

from helpers import (bits, copies_tape, copy_tape, random_dag_tape,
                     reference_parse, run_child, zero_arity_tape)

def round_trip(tape, path):
    save(tape, str(path))
    return load(str(path))


def test_intro_dag_round_trip(tmp_path):
    tape = record_problem(IntroExample(), [1.0], mode=DAG)
    back = round_trip(tape, tmp_path / "t.adtp")
    assert back.dump() == tape.dump()
    assert back.outputs == tape.outputs
    assert back.stats() == tape.stats()
    assert propagate_flat(back, [1.0]) == propagate_flat(tape, [1.0])


def test_intro_dcg_round_trip(tmp_path):
    tape = record_problem(IntroExample(), [1.0], mode=DCG)
    back = round_trip(tape, tmp_path / "t.adtp")
    assert back.dump() == tape.dump()
    assert back.stats() == tape.stats()  # beta_r and p_l re-derived
    assert propagate_lvalue(back, [1.0]) == propagate_lvalue(tape, [1.0])


@pytest.mark.parametrize("trailing", [False, True],
                         ids=["mid-tape", "after-the-last-remainder"])
def test_load_derives_the_width_of_copies_into_lvalues(tmp_path, trailing):
    """The load check measures an edge into an L-value result from the
    record's remainder position, as the writers do; after the last
    remainder record that is the remainder count."""
    tape = copy_tape(DCG, trailing)
    back = round_trip(tape, tmp_path / "t.adtp")
    assert back.stats() == tape.stats()
    assert back.stats().beta_r == 2
    assert propagate_lvalue(back, [1.0]) == ([2.0] if trailing else [12.0])


@pytest.mark.parametrize("temporary,blocks_read,peaks", [
    (True, 10, (56, 48)), (False, 8, (64, 40))],
    ids=["one-temporary", "no-temporary"])
def test_load_checks_copies_after_the_last_remainder_across_blocks(
        tmp_path, temporary, blocks_read, peaks):
    """Five copies into L-values follow the last remainder record (or, with
    no temporary, every record is a copy) over four 4-entry blocks of s,
    loaded under one resident block.  The load derives the recorded
    statistics and gradient.  It reads every block of s twice, in the scan
    that fixes the copies' remainder position and in the pass, but holds
    one block read back at a time, so the peaks are those of one pass."""
    cfg = dict(block_entries=4, budget_blocks=1,
               spill_dir=str(tmp_path / "spill"))
    tape = copies_tape(temporary, **cfg)
    save(tape, str(tmp_path / "t.adtp"))
    back = load(str(tmp_path / "t.adtp"), **cfg)
    assert back.stats() == tape.stats()
    stats = back.store_stats()
    assert stats["s"]["blocks_read"] == blocks_read
    assert (stats["s"]["peak_resident_bytes"],
            stats["d"]["peak_resident_bytes"]) == peaks
    assert (bits(propagate_lvalue(back, [1.0, 1.0]))
            == bits(propagate_lvalue(tape, [1.0, 1.0])))


def test_random_tapes_round_trip(tmp_path):
    rng = Xorshift(99)
    for i in range(25):
        tape = random_dag_tape(rng)
        back = round_trip(tape, tmp_path / f"r{i}.adtp")
        assert back.dump() == tape.dump()
        assert back.stats() == tape.stats()


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_zero_arity_records_round_trip(tmp_path, mode):
    """A zero-arity record, a constant or (DCG) an L-value overwrite, reads
    no operand and widens no bandwidth."""
    tape = Tape(mode)
    x = tape.register_input()
    if mode == DAG:
        y = x
        for _ in range(3):
            y = tape._record_unary(y, 2.0)
        out = tape._record_binary(y, 1.0, tape.record([]), 1.0)
    else:
        t = tape._record_binary(x, 2.0, tape.record([]), 1.0)
        tape.record([], result=x)
        out = tape._record_unary(t, 1.0, x)
    tape.register_output(out)
    tape.finalize()
    back = round_trip(tape, tmp_path / "t.adtp")
    assert back.dump() == tape.dump()
    assert back.stats() == tape.stats()
    stats = tape.stats()
    assert (stats.beta, stats.beta_r) == ((2, 0) if mode == DAG else (0, 1))


def test_load_into_spilling_store(tmp_path):
    tape = record_problem(IntroExample(length=6), [0.7], mode=DAG)
    save(tape, str(tmp_path / "t.adtp"))
    back = load(str(tmp_path / "t.adtp"), block_entries=8, budget_blocks=1,
                spill_dir=str(tmp_path / "spill"))
    assert back.dump() == tape.dump()


def test_save_requires_finalized(tmp_path):
    t = Tape(DAG)
    with pytest.raises(TapeError, match="finalized"):
        save(t, str(tmp_path / "t.adtp"))


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.adtp"
    p.write_bytes(b"NOPE" + bytes(45))
    with pytest.raises(TapeError, match="not a tape file"):
        load(str(p))


def test_truncated_header_rejected(tmp_path):
    p = tmp_path / "short.adtp"
    p.write_bytes(MAGIC + b"\x01")
    with pytest.raises(TapeError, match="truncated"):
        load(str(p))


@pytest.mark.parametrize("version", [1, 2, 9])
def test_unsupported_version_rejected(tmp_path, version):
    """A file in the layout of the unchecked versions 1 and 2, whose
    streams follow the outputs as bare entries (a version-2 header ends
    with p_L), is refused by its version, and so is its header alone."""
    tape = record_problem(IntroExample(), [1.0], mode=DAG)
    s, d = tape.dump()
    head = struct.pack("<4sIBQQQQQ", MAGIC, version, 0, tape.n, tape.m,
                       tape.q, len(s), len(d))
    if version > 1:
        head += struct.pack("<Q", tape.p_l)
    p = tmp_path / "t.adtp"
    message = f"^{re.escape(str(p))}: unsupported version {version} in header$"
    for blob in (head + struct.pack(f"<{tape.m}q{len(s)}q{len(d)}d",
                                    *tape.outputs, *s, *d), head):
        p.write_bytes(blob)
        with pytest.raises(TapeError, match=message):
            load(str(p))


def test_size_mismatch_rejected(tmp_path):
    tape = record_problem(IntroExample(), [1.0], mode=DAG)
    p = tmp_path / "t.adtp"
    save(tape, str(p))
    p.write_bytes(p.read_bytes() + b"\x00" * 8)
    with pytest.raises(TapeError, match="size mismatch"):
        load(str(p))


def write_v3(path, tape, s=None, d=None, block_entries=4):
    """The version-3 file of ``tape``'s header fields and outputs, holding
    the streams ``s`` and ``d`` (the tape's own by default)."""
    dumped = tape.dump()
    encode_v3(path, tape.mode, tape.n, tape.q, tape.p_l, tape.outputs,
              dumped[0] if s is None else s, dumped[1] if d is None else d,
              block_entries)


def encode_v3(path, mode, n, q, p_l, outputs, s, d, block_entries):
    """The version-3 file of the given header fields, outputs and streams,
    in records of ``block_entries`` entries, every CRC valid."""
    head = struct.pack("<4sIBQQQQQQQ", MAGIC, 3, 0 if mode == DAG else 1, n,
                       len(outputs), q, len(s), len(d), p_l, block_entries)
    head += struct.pack(f"<{len(outputs)}q", *outputs)
    sections = b""
    for entries, code in ((s, "q"), (d, "d")):
        for i in range(0, len(entries), block_entries):
            block = entries[i:i + block_entries]
            payload = struct.pack(f"<{len(block)}{code}", *block)
            sections += struct.pack("<4sIQ", b"ADTB", zlib.crc32(payload),
                                    i // block_entries) + payload
    with open(path, "wb") as fh:
        fh.write(head + struct.pack("<I", zlib.crc32(head)) + sections)


@pytest.mark.parametrize("mode", [DAG, DCG])
@pytest.mark.parametrize("block_entries", [4, 16, 65536])
def test_save_writes_the_documented_layout(tmp_path, mode, block_entries):
    tape = record_problem(IntroExample(length=6), [0.7], mode=mode,
                          block_entries=block_entries)
    saved, written = tmp_path / "saved.adtp", tmp_path / "written.adtp"
    save(tape, str(saved))
    write_v3(written, tape, block_entries=block_entries)
    assert saved.read_bytes() == written.read_bytes()


def test_malformed_stream_rejected(tmp_path):
    tape = record_problem(IntroExample(), [1.0], mode=DAG)
    p = tmp_path / "t.adtp"
    s = tape.dump()[0]
    s[-2] = 10 ** 6  # the final count entry of the structure stream
    write_v3(p, tape, s)
    with pytest.raises(TapeError, match=f"^{re.escape(str(p))}: malformed"):
        load(str(p))


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_bad_input_ids_rejected(tmp_path, mode):
    tape = record_problem(IntroExample(), [1.0], mode=mode)
    p = tmp_path / "t.adtp"
    s = tape.dump()[0]
    s[0] = 12345
    write_v3(p, tape, s)
    with pytest.raises(TapeError, match="input ids") as excinfo:
        load(str(p))
    assert str(p) in str(excinfo.value)


def write_raw(path, mode, inputs, records, outputs, partial=0.5, p_l=None):
    """A tape file holding exactly the given records, each an (operands,
    result) pair, or an (operands, result, count) triple that writes
    ``count`` as the operand count, and storing ``p_l``: by default the
    deepest L-value among the inputs, operands and results (0 on a DAG
    tape).  ``partial`` is the partial of every counted operand, or the
    list of all the partials in stream order."""
    s, counted, deepest = list(inputs), 0, -min(inputs)
    for ops, result, *count in records:
        count = count[0] if count else len(ops)
        s += [*ops, count, result]
        counted += max(count, 0)
        deepest = max(deepest, -result, *(-v for v in ops))
    d = partial if isinstance(partial, list) else [partial] * counted
    if p_l is None:
        p_l = 0 if mode == DAG else deepest
    encode_v3(path, mode, len(inputs), len(records), p_l, outputs, s, d, 4)


#: (mode, inputs, records, outputs, p_l) of valid hand-written tapes
HAND_WRITTEN = {
    "dag": (DAG, [0], [([0], 1), ([0, 1], 2)], [2], 0),
    "dcg": (DCG, [-1], [([-1], 0), ([0], -2), ([-2, 0], 1), ([1], -2)], [-2], 2),
    "dcg-no-remainder": (DCG, [-1], [([], -2), ([-1], -3)], [-3], 3),
    "dcg-lvalue-operands": (DCG, [-1], [([-3, -1], -2)], [-2], 3),
    "dcg-lvalue-operands-deepest-last": (DCG, [-1], [([-1, -3], -2)], [-2], 3),
    "dcg-remainder-operands": (DCG, [-1], [([-1, -3], 0), ([0], -2)], [-2], 3),
    "dcg-lvalue-operands-arity-3": (DCG, [-1], [([-1], 0), ([0, -4, -1], -2)],
                                    [-2], 4),
}


@pytest.mark.parametrize("case", sorted(HAND_WRITTEN))
def test_hand_written_tape_loads(tmp_path, case):
    mode, inputs, records, outputs, p_l = HAND_WRITTEN[case]
    p = tmp_path / "t.adtp"
    write_raw(p, mode, inputs, records, outputs)
    tape = load(str(p))
    assert tape.q == len(records) and tape.outputs == outputs
    assert tape.stats().p_l == p_l


def unused_lvalue_tape(output):
    """A DCG tape that declares L-value -2 but never writes or reads it."""
    tape = Tape(DCG)
    x = tape.register_input()
    tape.declare_lvalue()
    tape.record([(x, 2.0)], result=-1)
    tape.register_output(output)
    tape.finalize()
    return tape


@pytest.mark.parametrize("output", [-1, -2])
def test_unused_lvalue_survives_round_trip(tmp_path, output):
    tape = unused_lvalue_tape(output)
    back = round_trip(tape, tmp_path / "t.adtp")
    assert tape.stats().p_l == 2
    assert back.stats() == tape.stats()
    assert (adjoint_slot_count(back.stats(), LVALUE)
            == adjoint_slot_count(tape.stats(), LVALUE) == 2)
    assert propagate_lvalue(back, [1.0]) == propagate_lvalue(tape, [1.0])


def many_unused_lvalues_tape(p_l):
    """A DCG tape of one input and ``p_l - 1`` declared L-values, of which
    only -2 is written: s is ``[-1, -1, 1, -2]``, so load derives p_L 2."""
    tape = Tape(DCG)
    x = tape.register_input()
    for _ in range(p_l - 1):
        tape.declare_lvalue()
    tape.record([(x, 2.0)], result=-2)
    tape.register_output(-2)
    tape.finalize()
    return tape


def test_save_refuses_a_tape_that_would_not_load(tmp_path):
    p = tmp_path / "t.adtp"
    with pytest.raises(TapeError, match="p_L 11 exceeds the derived p_L 2 "
                                        "plus s_len 4") as excinfo:
        save(many_unused_lvalues_tape(11), str(p))
    assert str(p) in str(excinfo.value)
    assert not p.exists()


def test_save_writes_the_largest_p_l_that_loads(tmp_path):
    tape = many_unused_lvalues_tape(6)
    back = round_trip(tape, tmp_path / "t.adtp")
    assert back.stats() == tape.stats() and back.stats().p_l == 6


@pytest.mark.parametrize("mode,inputs,records,outputs,p_l,message", [
    (DCG, [-1], [([-1], -3)], [-3], 2, "L-value -3 lies beyond p_L 2"),
    (DCG, [-1], [([-3], -1)], [-1], 2, "L-value -3 lies beyond p_L 2"),
    (DCG, [-1, -2], [([-1], -2)], [-2], 1, "L-value -2 lies beyond p_L 1"),
    (DCG, [-1], [([-1], -1)], [-2], 1, "unknown L-value -2"),
    (DAG, [0], [([0], 1)], [1], 1, "p_L is 1 on a DAG tape"),
    # p_L may exceed the deepest L-value, 1, by at most s_len, 4
    (DCG, [-1], [([-1], -1)], [-1], 6,
     "stored p_L 6 exceeds the derived p_L 1 plus s_len 4"),
    (DCG, [-1], [([-1], -1)], [-1], 10 ** 12,
     "stored p_L 1000000000000 exceeds the derived p_L 1 plus s_len 4"),
], ids=["result", "operand", "input", "output", "dag", "unused-lvalues",
        "huge"])
def test_stored_p_l_bounds_the_lvalues(tmp_path, mode, inputs, records,
                                       outputs, p_l, message):
    p = tmp_path / "t.adtp"
    write_raw(p, mode, inputs, records, outputs, p_l=p_l)
    with pytest.raises(TapeError, match=message) as excinfo:
        load(str(p))
    assert str(p) in str(excinfo.value)


def test_stored_p_l_up_to_s_len_past_the_streams_loads(tmp_path):
    p = tmp_path / "t.adtp"
    write_raw(p, DCG, [-1], [([-1], -1)], [-1], p_l=5)
    assert load(str(p)).stats().p_l == 5


MALFORMED = "malformed structure stream"

# (mode, records, outputs, message[, partials]) on one input: 0 (DAG) or
# -1 (DCG); the partials are one per counted operand unless given
REJECTED = {
    "dag-operand-at-result": (DAG, [([1], 1)], [1],
                              "remainder vertex 1 is read before"),
    "dag-operand-after-result": (DAG, [([2], 1), ([0], 2)], [2],
                                 "remainder vertex 2 is read before"),
    "dag-skipped-result": (DAG, [([0], 2)], [2],
                           "remainder ids start at 2, not 1"),
    "dag-repeated-result": (DAG, [([0], 1), ([1], 1)], [1],
                            "remainder vertex 1 is read before"),
    "dag-lvalue-result": (DAG, [([0], -1)], [0],
                          "L-value -1 lies beyond p_L 0"),
    "dag-duplicate-operand": (DAG, [([0, 0], 1)], [1], "repeats an operand"),
    "dcg-skipped-result": (DCG, [([-1], 0), ([0], 2), ([2], -1)], [-1],
                           "has result 0, not 1"),
    "dcg-repeated-result": (DCG, [([-1], 0), ([-1], 0), ([0], -1)], [-1],
                            "has result 0, not -1"),
    "dcg-first-result-not-0": (DCG, [([-1], 1), ([1], -1)], [-1],
                               "start at 1"),
    "dcg-operand-at-result": (DCG, [([0], 0), ([0], -1)], [-1],
                              "vertex 0 is read before"),
    "dcg-operand-before-lvalue-result": (
        DCG, [([-1], 0), ([1], -2), ([-2], 1)], [-2], "vertex 1 is read before"),
    "dcg-operand-in-trailing-lvalue-results": (
        DCG, [([-1], 0), ([1], -2), ([-2], -3)], [-3], "vertex 1 is read before"),
    "dcg-operand-without-remainder": (DCG, [([0], -2)], [-2],
                                      "vertex 0 is read before"),
    "dcg-duplicate-operand": (DCG, [([-1, -1], 0), ([0], -1)], [-1],
                              "repeats an operand"),
    "dcg-remainder-output": (DCG, [([-1], 0)], [0],
                             "DCG outputs must be L-values, got vertex 0"),
    "dag-unknown-output": (DAG, [([0], 1)], [2], "unknown vertex 2"),
    "duplicate-output": (DAG, [([0], 1)], [1, 1],
                         "vertex 1 already registered as output"),
    # each check again at arity 2, in either operand position, and at arity 3
    "dag-duplicate-operand-arity-3": (DAG, [([0], 1), ([0, 1, 0], 2)], [2],
                                      "elemental 1 repeats an operand"),
    "dcg-duplicate-operand-arity-3": (
        DCG, [([-1], 0), ([-1, 0, -1], 1), ([1], -1)], [-1],
        "elemental 1 repeats an operand"),
    "dag-operand-at-result-first": (DAG, [([1, 0], 1)], [1],
                                    "remainder vertex 1 is read before"),
    "dag-operand-at-result-second": (DAG, [([0, 1], 1)], [1],
                                     "remainder vertex 1 is read before"),
    "dag-operand-after-result-first": (
        DAG, [([2, 0], 1), ([0], 2)], [2], "remainder vertex 2 is read before"),
    "dag-operand-after-result-second": (
        DAG, [([0, 2], 1), ([0], 2)], [2], "remainder vertex 2 is read before"),
    "dag-operand-at-result-arity-3": (
        DAG, [([0], 1), ([0, 1, 2], 2)], [2], "remainder vertex 2 is read"),
    "dag-operand-after-result-arity-3": (
        DAG, [([0], 1), ([3, 0, 1], 2), ([0], 3)], [3],
        "remainder vertex 3 is read before it is recorded"),
    "dag-negative-operand": (DAG, [([-1], 1)], [1],
                             "L-value -1 lies beyond p_L 0"),
    "dag-negative-operand-first": (
        DAG, [([-1, 0], 1)], [1], "L-value -1 lies beyond p_L 0"),
    "dag-negative-operand-second": (
        DAG, [([0, -1], 1)], [1], "L-value -1 lies beyond p_L 0"),
    "dag-negative-operand-arity-3": (
        DAG, [([0], 1), ([0, 1, -1], 2)], [2], "L-value -1 lies beyond p_L 0"),
    "dag-lvalue-result-arity-0": (DAG, [([], -1)], [0],
                                  "L-value -1 lies beyond p_L 0"),
    "dag-lvalue-result-arity-2": (DAG, [([0], 1), ([0, 1], -1)], [1],
                                  "L-value -1 lies beyond p_L 0"),
    "dag-lvalue-result-arity-3": (
        DAG, [([0], 1), ([0], 2), ([0, 1, 2], -1)], [2],
        "L-value -1 lies beyond p_L 0"),
    "dcg-operand-at-result-first": (DCG, [([0, -1], 0), ([0], -1)], [-1],
                                    "remainder vertex 0 is read before"),
    "dcg-operand-at-result-second": (DCG, [([-1, 0], 0), ([0], -1)], [-1],
                                     "remainder vertex 0 is read before"),
    "dcg-operand-after-result-first": (
        DCG, [([-1], 0), ([2, -1], 1), ([-1], 2), ([2], -1)], [-1],
        "remainder vertex 2 is read before"),
    "dcg-operand-after-result-second": (
        DCG, [([-1], 0), ([-1, 2], 1), ([-1], 2), ([2], -1)], [-1],
        "remainder vertex 2 is read before"),
    "dcg-operand-at-result-arity-3": (
        DCG, [([-1], 0), ([-1, 0, 1], 1), ([1], -1)], [-1],
        "remainder vertex 1 is read before"),
    "dcg-operand-before-lvalue-result-second": (
        DCG, [([-1], 0), ([-1, 1], -2), ([-2], 1)], [-2],
        "remainder vertex 1 is read before"),
    "dcg-operand-before-lvalue-result-arity-3": (
        DCG, [([-1], 0), ([-1, 0, 1], -2), ([-2], 1)], [-2],
        "remainder vertex 1 is read before"),
    "dcg-operand-in-trailing-lvalue-results-second": (
        DCG, [([-1], 0), ([-1, 1], -2), ([-2], -3)], [-3],
        "remainder vertex 1 is read before"),
    "dcg-operand-in-trailing-lvalue-results-first": (
        DCG, [([-1], 0), ([1, -1], -2), ([-2], -3)], [-3],
        "remainder vertex 1 is read before"),
    "dcg-operand-without-remainder-second": (
        DCG, [([-1, 0], -2)], [-2], "remainder vertex 0 is read before"),
    "dcg-operand-without-remainder-arity-3": (
        DCG, [([-1, -2, 0], -2)], [-2], "remainder vertex 0 is read before"),
    # the first operand read back, the last written, is named first
    "dcg-operands-after-result-both": (
        DCG, [([-1], 0), ([2, 3], 1), ([-1], 2), ([-1], 3)], [-1],
        "remainder vertex 3 is read before"),
    "dcg-operands-before-lvalue-result-both": (
        DCG, [([-1], 0), ([1, 2], -2), ([-2], 1), ([-1], 2)], [-2],
        "remainder vertex 2 is read before"),
    "dcg-operand-before-lvalue-result-first": (
        DCG, [([-1], 0), ([1, -1], -2), ([-2], 1)], [-2],
        "remainder vertex 1 is read before"),
    # an operand count one entry longer than its record runs into the input
    # ids, though the partials stream holds a partial for every operand
    "dag-count-into-inputs-arity-1": (DAG, [([], 1, 1)], [1], MALFORMED),
    "dag-count-into-inputs-arity-2": (DAG, [([0], 1, 2)], [1], MALFORMED),
    "dag-count-into-inputs-arity-3": (DAG, [([7, 0], 1, 3)], [1], MALFORMED),
    "dcg-count-into-inputs-arity-1": (DCG, [([], -1, 1)], [-1], MALFORMED),
    "dcg-count-into-inputs-arity-2": (DCG, [([-1], -1, 2)], [-1], MALFORMED),
    "dcg-count-into-inputs-arity-3": (DCG, [([7, -1], -1, 3)], [-1],
                                      MALFORMED),
    # counts that the structure stream holds but the partials do not
    "dag-count-overruns-partials": (DAG, [([0], 1), ([0, 1], 2)], [2],
                                    MALFORMED, [0.5, 0.5]),
    "dcg-count-overruns-partials": (DCG, [([-1], 0), ([0, -1], -1)], [-1],
                                    MALFORMED, [0.5, 0.5]),
    "dag-negative-count": (DAG, [([0], 1, -1)], [1], MALFORMED),
    "dcg-negative-count": (DCG, [([-1], -1, -1)], [-1], MALFORMED),
    "dag-count-beyond-stream": (DAG, [([0], 1), ([0, 1], 2, 50)], [2],
                                MALFORMED),
    "dcg-count-beyond-stream": (DCG, [([-1], 0), ([0, -1], -1, 50)], [-1],
                                MALFORMED),
    # a bad count among the L-value records after the last remainder record
    # is named, not a newer record's remainder operand
    "dcg-negative-count-among-trailing": (
        DCG, [([-1], 0), ([0], -2, -1), ([0], -3)], [-3], MALFORMED),
    "dcg-count-beyond-stream-among-trailing": (
        DCG, [([-1], 0), ([0], -2, 50), ([0], -3)], [-3], MALFORMED),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_stream_invariant_violations_rejected(tmp_path, case):
    mode, records, outputs, message, *partial = REJECTED[case]
    p = tmp_path / "t.adtp"
    write_raw(p, mode, [0] if mode == DAG else [-1], records, outputs, *partial)
    with pytest.raises(TapeError, match=message) as excinfo:
        load(str(p))
    assert str(p) in str(excinfo.value)


@pytest.mark.parametrize("mode", [DAG, DCG])
@pytest.mark.parametrize("partial", [math.inf, -math.inf, math.nan])
def test_non_finite_partial_rejected(tmp_path, mode, partial):
    p = tmp_path / "t.adtp"
    inputs, records, outputs = (([0], [([0], 1)], [1]) if mode == DAG
                                else ([-1], [([-1], -1)], [-1]))
    write_raw(p, mode, inputs, records, outputs, partial=partial)
    with pytest.raises(TapeError, match="non-finite partial") as excinfo:
        load(str(p))
    assert str(p) in str(excinfo.value)


@pytest.mark.parametrize("block_entries", [1, 256])
@pytest.mark.parametrize("partials", [
    [0.5, math.inf, 0.5], [0.5, -math.inf, 0.5], [0.5, math.nan, 0.5],
    [0.5, math.inf, -math.inf],
], ids=["inf", "-inf", "nan", "inf-beside-minus-inf"])
def test_non_finite_partial_rejected_at_any_block_size(tmp_path, partials,
                                                       block_entries):
    p = tmp_path / "t.adtp"
    write_raw(p, DAG, [0], [([0], 1), ([0, 1], 2)], [2], partial=partials)
    with pytest.raises(TapeError, match="non-finite partial") as excinfo:
        load(str(p), block_entries=block_entries)
    assert str(p) in str(excinfo.value)


@pytest.mark.parametrize("block_entries", [1, 256])
def test_finite_partials_whose_sum_overflows_load(tmp_path, block_entries):
    p = tmp_path / "t.adtp"
    write_raw(p, DAG, [0], [([0], 1), ([1], 2)], [2], partial=1e308)
    tape = load(str(p), block_entries=block_entries)
    assert tape.dump()[1] == [1e308, 1e308]


def test_partials_without_elemental_rejected(tmp_path):
    tape = record_problem(IntroExample(), [1.0], mode=DAG)
    p = tmp_path / "t.adtp"
    write_v3(p, tape, d=tape.dump()[1] + [0.5])
    with pytest.raises(TapeError, match="1 partials belong to no elemental"):
        load(str(p))


def rerecorded(mode, n, p_l, s, d, q):
    """The tape, not yet finalized and with no outputs, that
    ``Tape.record`` builds from the raw records of ``s`` and ``d`` on a
    fresh tape with ``n`` inputs and (DCG) ``p_l`` L-values, or None when
    recording refuses them.  ``reference_parse`` may misread a corrupted
    stream, but then the replay cannot rebuild it, so only a stream that
    recording can write is taken."""
    try:
        records = reference_parse(s, d, n, q)[1]
    except (AssertionError, IndexError):
        return None
    tape = Tape(mode)
    for _ in range(n):
        tape.register_input()
    for _ in range(p_l - n if mode == DCG else 0):
        tape.declare_lvalue()
    try:
        for preds, partials, result in records:
            tape.record(zip(preds, partials),
                        result if result < 0 else REMAINDER)
    except TapeError:
        return None
    return tape


def replayed(mode, n, p_l, s, d, q, outputs):
    """``rerecorded`` with ``outputs`` registered and finalized, or None
    when recording refuses the records or the outputs."""
    tape = rerecorded(mode, n, p_l, s, d, q)
    if tape is None:
        return None
    try:
        for v in outputs:
            tape.register_output(v)
    except TapeError:
        return None
    tape.finalize()
    return tape


ORACLE_TAPES = {
    "intro": lambda mode: record_problem(IntroExample(length=3), [1.0],
                                         mode=mode),
    "zero-arity": zero_arity_tape,
}


@pytest.mark.parametrize("mode", [DAG, DCG])
@pytest.mark.parametrize("name", sorted(ORACLE_TAPES))
def test_load_accepts_exactly_what_recording_rebuilds(tmp_path, name, mode):
    """Each ``s`` entry overwritten, one at a time, by every id in
    ``[-p_L-2, R+2]`` for the remainder count R: ``load`` accepts the file
    exactly when its raw records, replayed through ``Tape.record``, rebuild
    ``s`` and ``d`` bitwise and its stored p_L is within ``s_len`` of the
    deepest L-value, and then loads the replayed tape's statistics."""
    tape = ORACLE_TAPES[name](mode)
    stats = tape.stats()
    p = tmp_path / "t.adtp"
    s, d = tape.dump()
    accepted = 0
    for where in range(len(s)):
        for value in range(-stats.p_l - 2, stats.num_remainder + 3):
            bad = s[:where] + [value] + s[where + 1:]
            write_v3(p, tape, bad)
            fresh = replayed(mode, tape.n, tape.p_l, bad, d, tape.q,
                             tape.outputs)
            rebuilt = (fresh is not None and fresh.dump()[0] == bad
                       and bits(fresh.dump()[1]) == bits(d)
                       and tape.p_l <= max(tape.n, -min(bad)) + len(bad))
            try:
                back = load(str(p))
            except TapeError:
                assert not rebuilt, (where, value)
                continue
            assert rebuilt, (where, value)
            assert back.stats() == fresh.stats() and back.dump() == fresh.dump()
            accepted += 1
    assert accepted >= len(s)  # at least each entry's own value


@pytest.mark.parametrize("mode", [DAG, DCG])
@pytest.mark.parametrize("name", sorted(ORACLE_TAPES))
def test_load_checks_outputs_as_register_output_does(tmp_path, name, mode):
    """The output list replaced by each id in ``[-p_L-2, R+2]`` and by a
    valid output twice: ``load`` refuses the file exactly when
    ``register_output`` refuses those outputs on the rerecorded tape, with
    its message after the path, and otherwise loads those outputs."""
    tape = ORACLE_TAPES[name](mode)
    stats = tape.stats()
    s, d = tape.dump()
    records = [(preds, result) for preds, _, result
               in reference_parse(s, d, tape.n, tape.q)[1]]
    p = tmp_path / "t.adtp"
    candidates = [[v] for v in range(-stats.p_l - 2, stats.num_remainder + 3)]
    candidates.append(tape.outputs[:1] * 2)
    refused = 0
    for outputs in candidates:
        write_raw(p, mode, s[:tape.n], records, outputs, partial=d,
                  p_l=tape.p_l)
        fresh = rerecorded(mode, tape.n, tape.p_l, s, d, tape.q)
        try:
            for v in outputs:
                fresh.register_output(v)
        except TapeError as exc:
            with pytest.raises(TapeError) as excinfo:
                load(str(p))
            assert str(excinfo.value) == f"{p}: {exc}", outputs
            refused += 1
            continue
        fresh.finalize()
        back = load(str(p))
        assert back.outputs == outputs
        assert back.stats() == fresh.stats() and back.dump() == fresh.dump()
    # the two ids below -p_L and the three from R up, the repeated output,
    # and on a DCG tape the R remainder vertices
    assert refused == 6 + (stats.num_remainder if mode == DCG else 0)


def test_load_never_records(tmp_path, monkeypatch):
    tape = record_problem(IntroExample(), [1.0], mode=DCG)
    p = tmp_path / "t.adtp"
    save(tape, str(p))

    def refuse(*args, **kwargs):
        raise AssertionError("load replayed a record")

    monkeypatch.setattr(Tape, "record", refuse)
    monkeypatch.setattr(Tape, "register_input", refuse)
    back = load(str(p))
    assert back.dump() == tape.dump() and back.stats() == tape.stats()


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_loaded_tape_rejects_writes(tmp_path, mode):
    back = round_trip(record_problem(IntroExample(), [1.0], mode=mode),
                      tmp_path / "t.adtp")
    before = back.dump()
    x = back.inputs[0]
    for write in (lambda: back.record([(x, 1.0)]), lambda: back._record_unary(x, 1.0),
                  lambda: back._record_binary(x, 1.0, x, 2.0), back.register_input):
        with pytest.raises(TapeError, match="tape is finalized"):
            write()
    assert back.dump() == before


def test_loaded_tape_spills_like_the_recorded_one(tmp_path):
    store = {"block_entries": 16, "budget_blocks": 1}
    tape = record_problem(IntroExample(length=20), [0.7], mode=DCG,
                          spill_dir=str(tmp_path / "rec"), **store)
    recorded = {k: dict(v) for k, v in tape.store_stats().items()}
    save(tape, str(tmp_path / "t.adtp"))
    back = load(str(tmp_path / "t.adtp"), spill_dir=str(tmp_path / "load"),
                **store)
    bound = (store["budget_blocks"] + 2) * store["block_entries"] * 8
    for name, stats in back.store_stats().items():
        assert stats["blocks_written"] == recorded[name]["blocks_written"]
        assert stats["bytes_spilled"] == recorded[name]["bytes_spilled"] > 0
        assert stats["peak_resident_bytes"] <= bound


RSS_CHILD = """
import os, sys
from adtape import DCG, record_problem
from adtape.problems import BlackScholesMC
from adtape.tapefile import load, save

paths, tmp = int(sys.argv[1]), sys.argv[2]
store = dict(block_entries=4096, budget_blocks=1, spill_dir=tmp)
problem = BlackScholesMC(paths=paths)
tape = record_problem(problem, problem.default_point(), mode=DCG, **store)
path = os.path.join(tmp, "t.adtp")
save(tape, path)
back = load(path, **store)
assert back.stats() == tape.stats()
print(tape.s_len * 8)
"""


def peak_rss_of_round_trip(paths, tmp_path):
    """(s-stream bytes, peak RSS bytes) of a child process that records a
    spilled BlackScholesMC DCG tape, saves it and loads it back."""
    work = tmp_path / f"paths-{paths}"
    work.mkdir()
    (s_bytes,), max_rss = run_child(RSS_CHILD, paths, work)
    return int(s_bytes), max_rss


def test_save_and_load_stay_out_of_core(tmp_path):
    """Peak RSS of record, save and load grows by less than one stream's
    bytes when the tape grows 10x, so neither direction holds a stream."""
    _, small = peak_rss_of_round_trip(200, tmp_path)
    s_bytes, large = peak_rss_of_round_trip(2000, tmp_path)
    assert large - small < s_bytes, (large - small, s_bytes)


#: a load that copies the records of a file with 4-entry blocks
COPIED = {"block_entries": 4, "budget_blocks": 1}


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_every_flipped_bit_of_a_tape_file_raises(tmp_path, mode):
    """Each bit of a version-3 file flipped in turn: a plain load, a load
    that copies the records and a budgeted load under another block size,
    which appends them, all raise the same ``TapeError``, which names the
    path and the damaged section, and for a record the block."""
    tape = record_problem(IntroExample(length=2), [0.7], mode=mode,
                          block_entries=4)
    p = tmp_path / "t.adtp"
    save(tape, str(p))
    blob = p.read_bytes()
    # the fields up to d_len, p_L and block_entries, the outputs, the CRC
    header = 49 + 16 + 8 * tape.m + 4
    size = 16 + 4 * 8
    s_bytes = 16 * -(-tape.s_len // 4) + 8 * tape.s_len  # its last record short
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << bit % 8
        p.write_bytes(flipped)
        at = bit // 8 - header
        if at < 0:
            named = "header"
        elif at < s_bytes:
            named = f"corrupt s block {at // size} "
        else:
            named = f"corrupt d block {(at - s_bytes) // size} "
        messages = []
        for config in ({}, COPIED, {"block_entries": 3, "budget_blocks": 1}):
            with pytest.raises(TapeError) as excinfo:
                load(str(p), spill_dir=str(tmp_path / "spill"), **config)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1] == messages[2], bit
        assert messages[0].startswith(f"{p}: ") and named in messages[0], bit
    del excinfo  # its traceback holds the last tape
    gc.collect()
    assert list((tmp_path / "spill").iterdir()) == []


def spilled_intro(tmp_path, mode, **store):
    return record_problem(IntroExample(length=20), [0.7], mode=mode,
                          spill_dir=str(tmp_path / "rec"), **store)


def counted_calls(monkeypatch, name):
    calls = []
    method = getattr(BlockStore, name)

    def count(store, *args):
        calls.append(args)
        return method(store, *args)

    monkeypatch.setattr(BlockStore, name, count)
    return calls


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_budgeted_load_copies_the_records_it_spills(tmp_path, monkeypatch,
                                                    mode):
    tape = spilled_intro(tmp_path, mode, **COPIED)
    p = str(tmp_path / "t.adtp")
    save(tape, p)
    spills = counted_calls(monkeypatch, "_spill")
    back = load(p, spill_dir=str(tmp_path / "load"), **COPIED)
    assert spills == []
    recorded = tape.store_stats()
    for name, stats in back.store_stats().items():
        assert stats["bytes_spilled"] == recorded[name]["bytes_spilled"] > 0
    # each stream's full-block records are written once into spill_dir
    assert len(list((tmp_path / "load").iterdir())) == 2
    assert back.dump() == tape.dump()
    # another block size decodes and spills each block
    load(p, spill_dir=str(tmp_path / "other"), block_entries=5,
         budget_blocks=1)
    assert spills


def test_failed_save_keeps_the_file_it_would_replace(tmp_path):
    """A save whose spill file was cut short fails, and the tape file it
    would have replaced stays byte for byte as it was, alone in its
    directory.  A saved file has the permissions of a plainly opened one."""
    tape = spilled_intro(tmp_path, DCG, **COPIED)
    out = tmp_path / "out"
    out.mkdir()
    p = out / "t.adtp"
    save(tape, str(p))
    before = p.read_bytes()
    (tmp_path / "plain").write_bytes(b"")
    assert p.stat().st_mode == (tmp_path / "plain").stat().st_mode
    os.truncate(tape._s._path, 0)
    with pytest.raises(BlockStoreError, match="copy of"):
        save(tape, str(p))
    assert list(out.iterdir()) == [p]
    assert p.read_bytes() == before


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_a_block_the_load_spilled_names_its_spill_file(tmp_path, monkeypatch,
                                                       mode):
    """A budgeted load under another block size spills blocks it encoded
    itself; one damaged after its write is the spill file's fault, so the
    load raises ``CorruptBlockError`` naming that file, not a ``TapeError``
    naming the tape file."""
    tape = spilled_intro(tmp_path, mode, **COPIED)
    p = str(tmp_path / "t.adtp")
    save(tape, p)
    spill = BlockStore._spill

    def damaging_spill(store, index):
        spill(store, index)
        at = index * (16 + 8 * store.block_entries) + 16
        (byte,) = os.pread(store._fd, 1, at)
        os.pwrite(store._fd, bytes([byte ^ 1]), at)

    monkeypatch.setattr(BlockStore, "_spill", damaging_spill)
    spill_dir = tmp_path / "load"
    with pytest.raises(CorruptBlockError) as excinfo:
        load(p, spill_dir=str(spill_dir), block_entries=3, budget_blocks=1)
    assert not isinstance(excinfo.value, TapeError)
    assert os.path.dirname(excinfo.value.path) == str(spill_dir)
    assert str(excinfo.value).endswith(f"at {excinfo.value.path} (CRC mismatch)")


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_save_of_a_spilled_tape_reads_no_block(tmp_path, monkeypatch, mode):
    tape = spilled_intro(tmp_path, mode, **COPIED)
    assert tape.store_stats()["s"]["bytes_spilled"] > 0
    reads = counted_calls(monkeypatch, "_load_spilled")
    p = str(tmp_path / "t.adtp")
    save(tape, p)
    assert reads == []
    assert load(p).dump() == tape.dump()


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_copied_and_appended_loads_give_the_same_tape(tmp_path, mode):
    """The same tape saved in records of the store's 16 entries, which a
    budgeted load copies, and written in records of 32, which it appends:
    the loaded tapes are bitwise equal, and so are their store counters,
    each load's validating read of ``d`` included."""
    store = {"block_entries": 16, "budget_blocks": 1}
    tape = spilled_intro(tmp_path, mode, **store)
    s, d = tape.dump()
    copied, appended = tmp_path / "copied.adtp", tmp_path / "appended.adtp"
    save(tape, str(copied))
    write_v3(appended, tape, block_entries=32)
    loaded = [load(str(p), spill_dir=str(tmp_path / p.stem), **store)
              for p in (copied, appended)]
    counters = [back.store_stats() for back in loaded]
    assert counters[0]["d"]["blocks_read"] == counters[0]["d"]["blocks_written"] > 1
    assert counters[0] == counters[1]
    a, b = loaded
    assert a.dump()[0] == b.dump()[0] == s
    assert bits(a.dump()[1]) == bits(b.dump()[1]) == bits(d)
    assert a.stats() == b.stats() == tape.stats()
    for strategy in [k for k, m in STRATEGY_MODE.items() if m == mode]:
        grads = [bits(propagate(t, [1.0], strategy)) for t in (tape, a, b)]
        assert grads[0] == grads[1] == grads[2]


def test_loaded_tape_reads_nothing_from_its_file(tmp_path):
    tape = spilled_intro(tmp_path, DCG, **COPIED)
    p = tmp_path / "t.adtp"
    save(tape, str(p))
    back = load(str(p), spill_dir=str(tmp_path / "load"), **COPIED)
    # another valid tape written over the file in place
    other = record_problem(IntroExample(length=20), [1.3], mode=DCG,
                           block_entries=4)
    save(other, str(tmp_path / "other.adtp"))
    with open(p, "r+b") as fh:
        fh.write((tmp_path / "other.adtp").read_bytes())
    assert propagate_lvalue(load(str(p)), [1.0]) != propagate_lvalue(tape, [1.0])
    assert bits(propagate_lvalue(back, [1.0])) == bits(propagate_lvalue(tape, [1.0]))
