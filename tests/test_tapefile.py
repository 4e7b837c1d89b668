import struct

import pytest

from adtape import (DAG, DCG, Tape, TapeError, propagate_flat, propagate_lvalue,
                    record_problem)
from adtape.rng import Xorshift
from adtape.tapefile import MAGIC, save, load
from adtape.problems import IntroExample

from helpers import random_dag_tape


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
