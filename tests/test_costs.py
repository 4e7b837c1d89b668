"""Exact bytecode counts of the sweep's record loops, the overloading tape
writers and whole recordings, pinned on CPython 3.11.

``interpret`` compiles one record loop per kind of slot map.  With the
collector off, ``sys.settrace`` with ``f_trace_opcodes`` counts the
bytecodes a function executes.  A loop's count is an exact integer function
of the tape's records: it does not depend on the block size, on spilling or
on the process.  A writer call's count is one of its path and of the blocks
that it fills.  Bytecode differs between
CPython minor versions, so the pins hold on 3.11 only; CI's 3.11 leg fails
if this module reports a skip.
"""

import gc
import sys
from itertools import islice

import pytest

from adtape import DAG, DCG, STRATEGIES, Tape, propagate, record_problem
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


def count_bytecodes(fn, functions=RECORD_LOOPS):
    """``(fn(), counts)``: ``counts[name]`` holds the bytecodes executed in
    ``functions[name]``, and ``counts[None]`` those of every other Python
    frame that ``fn`` runs."""
    names = {f.__code__: name for name, f in functions.items()}
    counts = dict.fromkeys([*functions, None], 0)

    def opcodes(frame, event, arg):
        if event == "opcode":
            counts[names.get(frame.f_code)] += 1
        return opcodes

    def calls(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcodes

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
            (loop, count), = [(k, n) for k, n in counts.items() if n and k]
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


# -- the overloading writers and whole recordings ----------------------------

#: bytecodes of one call in the writer's own frame, before the terms below:
#: a record of L-value operands (negative ids) and a fresh result
WRITERS = {"_record_unary": 75, "_record_binary": 83}
#: per operand, by how it meets the width: a negative id skips the width
#: test, a remainder id that keeps the width runs it, one that widens it
#: also stores the new width
OPERAND = {"lvalue": 0, "keeps": 6, "widens": 10}
#: an L-value result (``Recorder.assign``) skips the next-id store
LVALUE_RESULT = -6
#: ``_record_binary``'s own frame when its operands are one vertex: it adds
#: the partials and calls ``_record_unary``, which then runs as above
MERGED = 17
#: per stream whose open block the record fills: the call of ``push_full``
#: (whose own frames are not the writer's)
PUSH = 7

WRITER_FUNCTIONS = {name: getattr(Tape, name) for name in WRITERS}


def writer_cases(mode, block_entries):
    """(tape, writer name, args, modelled bytecodes) for each overloading
    writer call on a tape with two inputs and three records: every ordered
    pair of known operands, and on DCG every result.  The model is worked
    out from the tape's state before the call."""
    def fresh():
        t = Tape(mode, block_entries=block_entries)
        x, y = t.register_input(), t.register_input()
        z = t._record_binary(x, 0.5, y, 2.0)
        t._record_unary(t._record_unary(z, 1.5), 1.5)
        return t

    known = [*fresh().inputs, *range(3 if mode == DCG else 5)]
    lvalues = [None, *fresh().inputs] if mode == DCG else [None]

    def model(t, writer, operands, result):
        hi, width = t.stats().num_remainder, t._width
        cost = WRITERS[writer] + (result is not None) * LVALUE_RESULT
        for v in operands:
            if v < 0:
                kind = "lvalue"
            elif hi - v > width:
                kind, width = "widens", hi - v
            else:
                kind = "keeps"
            cost += OPERAND[kind]
        entries = len(operands) + 2
        cost += PUSH * (len(t._s_open) + entries >= t._s_full)
        cost += PUSH * (len(t._d_open) + len(operands) >= t._d_full)
        return cost

    for a in known:
        for result in lvalues:
            t = fresh()
            yield t, "_record_unary", (a, 1.25, result), model(
                t, "_record_unary", [a], result)
        for b in known:
            t = fresh()
            if a == b:
                cost = {"_record_binary": MERGED,
                        "_record_unary": model(t, "_record_unary", [a], None)}
            else:
                cost = model(t, "_record_binary", [a, b], None)
            yield t, "_record_binary", (a, 1.25, b, -0.5), cost


@pytest.mark.parametrize("block_entries", [3, 4, 1 << 16])
@pytest.mark.parametrize("mode", [DAG, DCG])
def test_each_writer_call_executes_its_model(mode, block_entries):
    """Every path of the two overloading writers, priced per call: the
    result kind, each operand's effect on the width, a repeated operand
    and the block pushes (3- and 4-entry blocks fill on some calls)."""
    paths = set()
    for t, writer, args, cost in writer_cases(mode, block_entries):
        _, counts = count_bytecodes(lambda: getattr(t, writer)(*args),
                                    WRITER_FUNCTIONS)
        del counts[None]
        if isinstance(cost, int):
            cost = {writer: cost}
        assert {k: n for k, n in counts.items() if n} == cost, (writer, args)
        paths.add((writer, len(cost)))
    assert len(paths) == 3


#: bytecodes that ``record_problem`` executes, over every Python frame, per
#: small problem and mode (in memory, default blocks)
RECORDINGS = {
    ("intro", DAG): 2899, ("intro", DCG): 3753,
    ("bs_mc", DAG): 13974, ("bs_mc", DCG): 17365,
    ("bs_fd", DAG): 509304, ("bs_fd", DCG): 535294,
    ("burgers", DAG): 73195, ("burgers", DCG): 77388,
    ("libor_mc", DAG): 66268, ("libor_mc", DCG): 77710,
}


@pytest.mark.parametrize("name,mode", sorted(RECORDINGS))
def test_whole_recording_executes_its_pinned_count(name, mode):
    problem = SMALL_PROBLEMS[name]()
    x = problem.default_point()
    _, counts = count_bytecodes(
        lambda: record_problem(problem, x, mode=mode), {})
    assert counts[None] == RECORDINGS[name, mode]
