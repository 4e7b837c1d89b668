import math
import os
import struct

import pytest

from adtape import (DAG, DCG, LVALUE, REMAINDER, Tape, TapeError,
                    propagate_flat, propagate_lvalue, record_problem)
from adtape.interpret import adjoint_slot_count
from adtape.rng import Xorshift
from adtape.tapefile import MAGIC, save, load
from adtape.problems import IntroExample

from helpers import (bits, random_dag_tape, reference_parse, run_child,
                     zero_arity_tape)

#: offset of d_len in the header: magic, version, mode, n, m, q, s_len
_HEADER_D_LEN = struct.calcsize("<4sIBQQQQ")


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
            y = tape.record_unary(y, 2.0)
        out = tape.record_binary(y, 1.0, tape.record([]), 1.0)
    else:
        t = tape.record_binary(x, 2.0, tape.record([]), 1.0)
        tape.record([], result=x)
        out = tape.record_unary(t, 1.0, x)
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


def test_unsupported_version_rejected(tmp_path):
    tape = record_problem(IntroExample(), [1.0], mode=DAG)
    p = tmp_path / "t.adtp"
    save(tape, str(p))
    blob = bytearray(p.read_bytes())
    blob[4:8] = struct.pack("<I", 9)
    p.write_bytes(bytes(blob))
    with pytest.raises(TapeError, match="version 9"):
        load(str(p))


def test_size_mismatch_rejected(tmp_path):
    tape = record_problem(IntroExample(), [1.0], mode=DAG)
    p = tmp_path / "t.adtp"
    save(tape, str(p))
    p.write_bytes(p.read_bytes() + b"\x00" * 8)
    with pytest.raises(TapeError, match="size mismatch"):
        load(str(p))


def test_malformed_stream_rejected(tmp_path):
    tape = record_problem(IntroExample(), [1.0], mode=DAG)
    p = tmp_path / "t.adtp"
    save(tape, str(p))
    blob = bytearray(p.read_bytes())
    # corrupt the final count entry of the structure stream
    count_off = len(blob) - tape.d_len * 8 - 2 * 8
    blob[count_off:count_off + 8] = struct.pack("<q", 10 ** 6)
    p.write_bytes(bytes(blob))
    with pytest.raises(TapeError, match="malformed"):
        load(str(p))


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_bad_input_ids_rejected(tmp_path, mode):
    tape = record_problem(IntroExample(), [1.0], mode=mode)
    p = tmp_path / "t.adtp"
    save(tape, str(p))
    blob = bytearray(p.read_bytes())
    first_s = len(blob) - (tape.s_len + tape.d_len) * 8
    blob[first_s:first_s + 8] = struct.pack("<q", 12345)
    p.write_bytes(bytes(blob))
    with pytest.raises(TapeError, match="input ids") as excinfo:
        load(str(p))
    assert str(p) in str(excinfo.value)


def write_raw(path, mode, inputs, records, outputs, partial=0.5, p_l=None):
    """A tape file holding exactly the given records, each an (operands,
    result) pair, or an (operands, result, count) triple that writes
    ``count`` as the operand count: version 1, or version 2 storing ``p_l``
    if it is given.  ``partial`` is the partial of every counted operand,
    or the list of all the partials in stream order."""
    s, counted = list(inputs), 0
    for ops, result, *count in records:
        count = count[0] if count else len(ops)
        s += [*ops, count, result]
        counted += max(count, 0)
    d = partial if isinstance(partial, list) else [partial] * counted
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIBQQQQQ", MAGIC, 1 if p_l is None else 2,
                             0 if mode == DAG else 1, len(inputs), len(outputs),
                             len(records), len(s), len(d)))
        if p_l is not None:
            fh.write(struct.pack("<Q", p_l))
        fh.write(struct.pack(f"<{len(outputs)}q", *outputs))
        fh.write(struct.pack(f"<{len(s)}q", *s))
        fh.write(struct.pack(f"<{len(d)}d", *d))


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


@pytest.mark.parametrize("case", sorted(HAND_WRITTEN))
def test_hand_written_version_2_tape_loads(tmp_path, case):
    mode, inputs, records, outputs, p_l = HAND_WRITTEN[case]
    v1, v2 = tmp_path / "v1.adtp", tmp_path / "v2.adtp"
    write_raw(v1, mode, inputs, records, outputs)
    write_raw(v2, mode, inputs, records, outputs, p_l=p_l)
    assert load(str(v2)).stats() == load(str(v1)).stats()


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


def test_version_1_file_derives_p_l(tmp_path):
    """The version-1 file of ``unused_lvalue_tape(-1)`` loads with the
    p_L its streams show."""
    p = tmp_path / "t.adtp"
    write_raw(p, DCG, [-1], [([-1], -1)], [-1])
    assert load(str(p)).stats().p_l == 1


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


def test_truncated_version_2_header_rejected(tmp_path):
    p = tmp_path / "short.adtp"
    p.write_bytes(struct.pack("<4sIBQQQQQ", MAGIC, 2, 1, 1, 1, 0, 1, 0))
    with pytest.raises(TapeError, match="truncated"):
        load(str(p))


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
    save(tape, str(p))
    blob = bytearray(p.read_bytes())
    blob[_HEADER_D_LEN:_HEADER_D_LEN + 8] = struct.pack("<Q", tape.d_len + 1)
    p.write_bytes(bytes(blob) + struct.pack("<d", 0.5))
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
    save(tape, str(p))
    blob = p.read_bytes()
    s, d = tape.dump()
    s_start = len(blob) - (tape.s_len + tape.d_len) * 8
    accepted = 0
    for where in range(len(s)):
        for value in range(-stats.p_l - 2, stats.num_remainder + 3):
            bad = s[:where] + [value] + s[where + 1:]
            at = s_start + where * 8
            p.write_bytes(blob[:at] + struct.pack("<q", value) + blob[at + 8:])
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
    for write in (lambda: back.record([(x, 1.0)]), lambda: back.record_unary(x, 1.0),
                  lambda: back.record_binary(x, 1.0, x, 2.0), back.register_input):
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
