"""Back-propagation over a finalized tape: flat, bandwidth-modulo and
dedicated-L-value strategies, plus the finite-difference gradient check.

The three strategies share one sweep, ``propagate(tape, seed, strategy)``,
which reads the records of ``Tape.reverse_streams`` newest first and in
pairs, and differs between strategies only in the pair (p_L, W) of the slot
map: L-value ``-k`` lives in slot ``k-1`` and vertex ``v >= 0`` in slot
``p_L + v % W``.

* flat: (0, |V|), one slot per vertex;
* bandwidth: (0, max(beta, n, m)), slots reused modulo the bandwidth;
* lvalue: (p_L, max(beta_R, 1)), dedicated L-value slots plus the
  remainder modulo the remainder bandwidth.

The record loop is written once, as a template (``_RECORD_LOOP``) whose one
hole is the slot of an id, and compiled at import into three loops.  The
slot map, not the strategy, picks them.  When p_L > 0, as in every lvalue
sweep, split (``p_L + v % W`` or ``~v`` by the sign of ``v``) takes every
record.  When p_L = 0, modulo (``v % W``) takes the newest |V| - W records,
whose results reach W, and identity (slot ``v``) takes the rest, in which
every id lies below W; so a flat sweep (W = |V|) runs identity alone, and
so does a bandwidth sweep whose W covers the tape.  Each is parse plus slot
arithmetic only.

Every slot is zeroed immediately after it is read (reset-after-read), which
makes slot reuse safe unless a seeded output is overwritten before its own
result is reached.  That follows from the outputs and the slot map alone,
so ``_check_collisions`` decides it before the sweep reads any block.
"""

from __future__ import annotations

import linecache
from itertools import islice
from math import inf, isfinite
from typing import Callable, Iterator, Sequence

from .tape import DAG, DCG, Tape, TapeStats, TapeError

FLAT = "flat"
BANDWIDTH = "bandwidth"
LVALUE = "lvalue"

STRATEGIES = (FLAT, BANDWIDTH, LVALUE)

#: recording mode each strategy interprets
STRATEGY_MODE = {FLAT: DAG, BANDWIDTH: DAG, LVALUE: DCG}


class SeedError(TapeError):
    pass


class SlotCollisionError(TapeError):
    """A modulo slot still holding a live seeded output was clobbered."""


def _slot_map(stats: TapeStats, strategy: str) -> tuple[int, int]:
    """(p_L, W) of the strategy: L-value ``-k`` maps to slot ``k-1``,
    vertex ``v >= 0`` to slot ``p_L + v % W``."""
    if strategy == FLAT:
        _require_mode(stats, DAG, f"{strategy} strategy")
        return 0, stats.num_vertices
    if strategy == BANDWIDTH:
        _require_mode(stats, DAG, f"{strategy} strategy")
        return 0, max(stats.beta, stats.num_inputs, stats.num_outputs)
    if strategy == LVALUE:
        _require_mode(stats, DCG, f"{strategy} strategy")
        # the remainder-bandwidth formula yields 0 when no
        # remainder-to-remainder edge exists, yet any temporary needs a slot
        return stats.p_l, max(stats.beta_r, 1)
    raise ValueError(f"unknown strategy {strategy!r}")


def adjoint_slot_count(stats: TapeStats, strategy: str) -> int:
    """Number of adjoint RAM slots the strategy allocates for this tape."""
    p_l, width = _slot_map(stats, strategy)
    return p_l + width if stats.num_remainder else p_l


def _check_collisions(outputs: Sequence[int], width: int,
                      num_vertices: int) -> None:
    """Raise SlotCollisionError where a DAG sweep with slots ``v % width``
    would overwrite a seeded output: where two outputs seed one slot, else
    at the largest clobbering vertex, the first the sweep reaches.  The
    results are ``n .. |V|-1`` and ``width >= n``, so the last vertex in
    the slot of output ``j`` clobbers it unless it is ``j``."""
    seeded: dict[int, int] = {}  # slot -> output
    for j in outputs:
        if j % width in seeded:
            raise SlotCollisionError(
                f"outputs {seeded[j % width]} and {j} both seed slot {j % width}")
        seeded[j % width] = j
    clobbers = [(j + (num_vertices - 1 - j) // width * width, j)
                for j in outputs if j + width < num_vertices]
    if clobbers:
        v, j = max(clobbers)
        raise SlotCollisionError(f"result vertex {v} clobbers live seeded "
                                 f"output {j} in slot {v % width}")


def _require_mode(obj, mode: str, what: str) -> None:
    if obj.mode != mode:
        raise TapeError(f"{what} requires a {mode.upper()} tape, got {obj.mode.upper()}")


#: The record loop of every sweep.  Its one hole is the slot of an id,
#: filled in for the result as ``{result_slot}`` and for each operand ``i``
#: as ``{i_slot}``.  Every name it reads is a fast local or a global, never
#: a closure cell (tests/test_interpret.py).
_RECORD_LOOP = '''\
def {name}(records, pairs, vbar, p_l, width):
    """Apply ``records`` and their ``pairs`` to ``vbar``: the slot of id
    ``v`` is ``{v_slot}``."""
    for result, count in records:
        slot = {result_slot}
        w = vbar[slot]
        vbar[slot] = 0.0
        # straight-line paths for the arities overloading records; the
        # loop takes zero-arity overwrites and hand-recorded n-ary records
        if count == 1:
            i, p = next(pairs)
            vbar[{i_slot}] += w * p
        elif count == 2:
            i, p = next(pairs)
            vbar[{i_slot}] += w * p
            i, p = next(pairs)
            vbar[{i_slot}] += w * p
        else:
            for i, p in islice(pairs, count):
                vbar[{i_slot}] += w * p
'''


def _compile_record_loop(name: str, slot: str):
    """``_RECORD_LOOP`` as function ``name``, with ``slot`` (an expression
    in ``{v}``, ``p_l`` and ``width``) as the slot of each id.  Its source
    goes into ``linecache`` under a filename of its own, as ``dataclasses``
    and ``namedtuple`` do for the code they generate, so tracebacks and
    ``inspect.getsource`` show its lines."""
    source = _RECORD_LOOP.format(name=name, v_slot=slot.format(v="v"),
                                 result_slot=slot.format(v="result"),
                                 i_slot=slot.format(v="i"))
    filename = f"<adtape.interpret.{name}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = {"__name__": __name__, "islice": islice}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


# one loop per kind of id: below W with p_L = 0, any id with p_L = 0, and
# any id with p_L > 0 (see propagate)
_sweep_identity = _compile_record_loop("_sweep_identity", "{v}")
_sweep_modulo = _compile_record_loop("_sweep_modulo", "{v} % width")
_sweep_split = _compile_record_loop(
    "_sweep_split", "p_l + {v} % width if {v} >= 0 else ~{v}")


def propagate(tape: Tape, seed: Sequence[float], strategy: str,
              on_step: Callable[[list[float]], None] | None = None,
              return_slots: bool = False):
    """Seed the outputs, sweep the tape in reverse and harvest the inputs.

    ``on_step`` sees a copy of the slot vector after every elemental;
    ``return_slots`` also returns the final slot vector.  A seeded output
    whose slot is seeded again, or taken by another vertex's result before
    the output's own result is reached, raises SlotCollisionError rather
    than silently corrupting adjoints.  Only the bandwidth strategy shares
    slots, so only its sweeps collide; they are refused from the outputs
    and the slot map before any block is read, and ``on_step`` sees no
    record of a refused sweep.

    ``on_step`` is called as the sweep asks for each next record, from a
    generator, so a ``StopIteration`` it raises surfaces as ``RuntimeError``
    (PEP 479); any other exception propagates as raised.
    """
    stats = tape.stats()
    p_l, width = _slot_map(stats, strategy)
    s, d = tape.reverse_streams()
    if len(seed) != tape.m:
        raise SeedError(f"seed length {len(seed)} != {tape.m} outputs")
    if p_l == 0:
        _check_collisions(tape.outputs, width, stats.num_vertices)
    vbar = [0.0] * adjoint_slot_count(stats, strategy)
    for ybar, j in zip(seed, tape.outputs):
        # ~v == -v - 1 puts L-value -k in slot k-1
        vbar[p_l + j % width if j >= 0 else ~j] = ybar
    # each record reads back as result, operand count, then the operands
    # (from s) with their partials (from d) in reverse operand order, one
    # C-level zip step per (result, count) and per (operand, partial), and
    # zip reuses its tuple.  zip(s, d) pulls s first, so pairs is stepped
    # only when an operand is due
    rows = zip(s, s)
    pairs = zip(s, d)
    # the slot map, not the strategy, picks the loops.  With p_L = 0 there
    # is no negative id (the writers and tapefile.load refuse one), the
    # results are n .. |V|-1, reached newest first, and every operand lies
    # below its record's result.  So only the newest |V| - W records read an
    # id of W or more; once the results fall below W, v % W == v for every
    # id and the identity loop runs the same float operations on the same
    # slots
    if p_l:
        _sweep_split(_span(rows, tape.q, vbar, on_step), pairs, vbar,
                     p_l, width)
    else:
        wraps = max(stats.num_vertices - width, 0)
        if wraps:
            _sweep_modulo(_span(rows, wraps, vbar, on_step), pairs, vbar,
                          0, width)
        _sweep_identity(_span(rows, tape.q - wraps, vbar, on_step), pairs,
                        vbar, 0, width)
    grad = []  # a loop: a comprehension would turn p_l, width, vbar into cells
    for i in tape.inputs:
        grad.append(vbar[p_l + i % width if i >= 0 else ~i])
    return (grad, vbar) if return_slots else grad


def _span(rows: Iterator[tuple[int, int]], count: int, vbar: list[float],
          on_step: Callable[[list[float]], None] | None
          ) -> Iterator[tuple[int, int]]:
    """The next ``count`` records of ``rows``, stepped through ``on_step``
    when one is given.  ``islice`` stops without pulling a record beyond
    ``count``, so the next span starts where this one ends."""
    records = islice(rows, count)
    return records if on_step is None else _stepped(records, vbar, on_step)


def _stepped(records: Iterator[tuple[int, int]], vbar: list[float],
             on_step: Callable[[list[float]], None]
             ) -> Iterator[tuple[int, int]]:
    """``records``, calling ``on_step(list(vbar))`` once the sweep has
    applied each record (when it asks for the next one)."""
    for record in records:
        yield record
        on_step(list(vbar))


def propagate_flat(tape: Tape, seed: Sequence[float], **kwargs):
    """``propagate(tape, seed, FLAT)``: one adjoint slot per vertex."""
    return propagate(tape, seed, FLAT, **kwargs)


def propagate_bandwidth(tape: Tape, seed: Sequence[float], **kwargs):
    """``propagate(tape, seed, BANDWIDTH)``: slots modulo max(beta, n, m)."""
    return propagate(tape, seed, BANDWIDTH, **kwargs)


def propagate_lvalue(tape: Tape, seed: Sequence[float], **kwargs):
    """``propagate(tape, seed, LVALUE)``: dedicated L-value slots, the
    remainder modulo max(beta_R, 1)."""
    return propagate(tape, seed, LVALUE, **kwargs)


def max_rel_err(grad: Sequence[float], reference: Sequence[float]) -> float:
    """The largest component error of ``grad`` against ``reference``,
    relative where ``|grad[i]| > 1`` and absolute below that.

    A component error that is not finite (a nan or inf in either vector,
    or a difference that overflows) makes the error ``math.inf``, so no
    tolerance passes it; vectors of different lengths raise ValueError."""
    worst = 0.0
    for g, ref in zip(grad, reference, strict=True):
        err = abs(g - ref) / max(1.0, abs(g))
        if not isfinite(err):
            return inf
        if err > worst:
            worst = err
    return worst


def gradient_check(problem, x: Sequence[float] | None = None,
                   seed: Sequence[float] | None = None,
                   fd_step: float = 1e-6, strategy: str = FLAT,
                   tape: Tape | None = None,
                   **store_config) -> float:
    """``max_rel_err`` of the harvested gradient against central
    differences (``problems.fd_gradient``)."""
    from .problems import fd_gradient
    from .scalar import record_problem

    if x is None:
        x = problem.default_point()
    if tape is None:
        if strategy not in STRATEGY_MODE:
            raise ValueError(f"unknown strategy {strategy!r}")
        tape = record_problem(problem, x, mode=STRATEGY_MODE[strategy],
                              **store_config)
    if seed is None:
        seed = [1.0] * tape.m
    grad = propagate(tape, seed, strategy)
    return max_rel_err(grad, fd_gradient(problem, x, fd_step, seed=seed))
