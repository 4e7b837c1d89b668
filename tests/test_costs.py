"""Exact bytecode counts of the sweep's record loops, pinned on CPython 3.11.

``interpret`` compiles one record loop per kind of slot map.  With the
collector off, ``sys.settrace`` with ``f_trace_opcodes`` counts the
bytecodes a loop executes, and the count is an exact integer function of
the tape's records: it does not depend on the block size, on spilling or on
the process.  Bytecode differs between CPython minor versions, so the pins
hold on 3.11 only; CI's 3.11 leg fails if this module reports a skip.
"""

import gc
import sys
from itertools import islice

import pytest

from adtape import DAG, DCG, STRATEGIES, propagate, record_problem
from adtape.interpret import STRATEGY_MODE, SlotCollisionError
from adtape.rng import Xorshift

from helpers import (RECORD_LOOPS, SMALL_PROBLEMS, STORES, bits,
                     random_dag_tape, random_dcg_tape, reference_parse,
                     zero_arity_tape)

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bytecode counts are pinned on CPython 3.11; other versions "
           "compile the record loops to other bytecode")

#: bytecodes per loop call, per arity-1 record, per arity-2 record, per
#: record of any other arity, per operand of such a record, and per
#: negative id read (result or operand).  The modulo and split figures per
#: record are those of the hand-written DAG and DCG loops that the template
#: replaced; identity saves the two bytecodes of ``% width`` per slot.
MODELS = {
    "identity": (5, 38, 61, 30, 17, 0),
    "modulo": (5, 42, 67, 32, 19, 0),
    "split": (5, 56, 88, 39, 26, -4),
}


def census(tape):
    """(1, q1, q2, other records, their operands, negative ids) of
    ``tape``, the terms of ``MODELS``."""
    _, records = reference_parse(*tape.dump(), tape.n, tape.q)
    terms = [1, 0, 0, 0, 0, 0]
    for preds, _, result in records:
        if len(preds) in (1, 2):
            terms[len(preds)] += 1
        else:
            terms[3] += 1
            terms[4] += len(preds)
        terms[5] += (result < 0) + sum(v < 0 for v in preds)
    return terms


def modelled(name, tape):
    return sum(c * t for c, t in zip(MODELS[name], census(tape)))


def count_bytecodes(fn):
    """``(fn(), {loop name: bytecodes executed in that loop})``."""
    names = {loop.__code__: name for name, loop in RECORD_LOOPS.items()}
    counts = dict.fromkeys(RECORD_LOOPS, 0)

    def opcodes(frame, event, arg):
        if event == "opcode":
            counts[names[frame.f_code]] += 1
        return opcodes

    def calls(frame, event, arg):
        if frame.f_code in names:
            frame.f_trace_opcodes = True
            return opcodes
        return None

    enabled, previous = gc.isenabled(), sys.gettrace()
    gc.disable()
    sys.settrace(calls)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
        if enabled:
            gc.enable()
    return result, counts


def tapes(store):
    """Every small problem in both modes, a zero-arity tape per mode and
    random tapes of arity 0 to 4, in ``store``."""
    made = {}
    for name, make in SMALL_PROBLEMS.items():
        problem = make()
        for mode in (DAG, DCG):
            made[f"{name}-{mode}"] = record_problem(
                problem, problem.default_point(), mode=mode, **store)
    for mode in (DAG, DCG):
        made[f"zero_arity-{mode}"] = zero_arity_tape(mode, **store)
    for seed in range(3):
        made[f"random-dag-{seed}"] = random_dag_tape(Xorshift(seed),
                                                     max_arity=4, **store)
        made[f"random-dcg-{seed}"] = random_dcg_tape(Xorshift(seed),
                                                     max_arity=4, **store)
    return made


@pytest.mark.parametrize("store", ["inmem", "spilled"])
def test_each_sweep_executes_its_loop_model(tmp_path, store):
    cfg = dict(STORES[store], spill_dir=str(tmp_path)) if STORES[store] else {}
    ran = set()
    for name, tape in tapes(cfg).items():
        seed = [1.0 + 0.5 * k for k in range(tape.m)]
        for strategy in STRATEGIES:
            if STRATEGY_MODE[strategy] != tape.mode:
                continue
            try:
                _, counts = count_bytecodes(
                    lambda: propagate(tape, seed, strategy))
            except SlotCollisionError:
                continue  # refused before any loop runs
            # one loop ran (test_interpret checks which one)
            (loop, count), = [(k, n) for k, n in counts.items() if n]
            assert count == modelled(loop, tape), (name, strategy, loop)
            ran.add(loop)
    assert ran == set(MODELS)


def run_loop(loop, tape):
    """The slots after ``loop`` applies every record of DAG ``tape`` under
    W = |V|, each output seeded with 1.0."""
    width = tape.stats().num_vertices
    vbar = [0.0] * width
    for j in tape.outputs:
        vbar[j] = 1.0
    s, d = tape.reverse_streams()
    loop(islice(zip(s, s), tape.q), zip(s, d), vbar, 0, width)
    return vbar


def test_modulo_loop_costs_two_bytecodes_per_slot_more_than_identity():
    """Under W = |V| both loops reach the same slots, and ``% width`` costs
    two bytecodes per slot expression: one per record and one per edge."""
    for name, tape in tapes({}).items():
        if tape.mode != DAG:
            continue
        identity, counts = count_bytecodes(
            lambda: run_loop(RECORD_LOOPS["identity"], tape))
        modulo, more = count_bytecodes(
            lambda: run_loop(RECORD_LOOPS["modulo"], tape))
        assert bits(identity) == bits(modulo), name
        assert (more["modulo"] - counts["identity"]
                == 2 * (tape.q + tape.edge_count)), name
