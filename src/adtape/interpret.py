"""Back-propagation over a finalized tape: flat, bandwidth-modulo and
dedicated-L-value strategies, plus the finite-difference gradient check.

The three strategies share one sweep, ``propagate(tape, seed, strategy)``,
which reads the record layout of the structure and partials streams itself,
newest record first, from the two iterators of ``Tape.reverse_streams``:
the record loop runs over ``islice`` of the structure iterator, every other
entry is read with the builtin ``next()``, and no object is built per
record.  The strategies differ only in the pair (p_L, W) of the slot
map: L-value ``-k`` lives in slot ``k-1`` and vertex ``v >= 0`` in slot
``p_L + v % W``.  The record loop is written twice, split on p_L: a DAG
tape is the case p_L = 0 with no negative id, so its loop maps vertex ``v``
to slot ``v % W`` alone, and the DCG loop keeps the sign test.

* flat: (0, |V|), one slot per vertex;
* bandwidth: (0, max(beta, n, m)), slots reused modulo the bandwidth;
* lvalue: (p_L, max(beta_R, 1)), dedicated L-value slots plus the
  remainder modulo the remainder bandwidth.

Every slot is zeroed immediately after it is read (reset-after-read),
which is what makes slot reuse safe in the modulo strategies.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Sequence

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


def _require_mode(obj, mode: str, what: str) -> None:
    if obj.mode != mode:
        raise TapeError(f"{what} requires a {mode.upper()} tape, got {obj.mode.upper()}")


def propagate(tape: Tape, seed: Sequence[float], strategy: str,
              on_step: Callable[[list[float]], None] | None = None,
              return_slots: bool = False):
    """Seed the outputs, sweep the tape in reverse and harvest the inputs.

    ``on_step`` sees a copy of the slot vector after every elemental;
    ``return_slots`` also returns the final slot vector.  A seeded output
    whose slot is seeded again, or taken by another vertex's result before
    the output's own result is reached, raises SlotCollisionError rather
    than silently corrupting adjoints.  Only under the bandwidth strategy
    can an output share its slot with another vertex, so only its tapes
    collide.
    """
    stats = tape.stats()
    p_l, width = _slot_map(stats, strategy)
    s, d = tape.reverse_streams()
    if len(seed) != tape.m:
        raise SeedError(f"seed length {len(seed)} != {tape.m} outputs")
    vbar = [0.0] * adjoint_slot_count(stats, strategy)
    live: dict[int, int] = {}  # slot -> seeded output vertex not yet consumed
    for ybar, j in zip(seed, tape.outputs):
        # ~v == -v - 1 puts L-value -k in slot k-1
        slot = p_l + j % width if j >= 0 else ~j
        if slot in live:
            raise SlotCollisionError(
                f"outputs {live[slot]} and {j} both seed slot {slot}")
        live[slot] = j
        vbar[slot] = ybar
    # each record reads back as result, operand count, then the operands
    # (from s) with their partials (from d) in reverse operand order.  The
    # builtin next() and islice read at C speed, where the iterators'
    # bound __next__ would not be specialised; and no name read in the
    # record loops may become a closure cell (tests/test_interpret.py)
    if p_l == 0:
        # p_L = 0 (every DAG tape): no id is negative, since the writers and
        # tapefile.load reject an operand or result below -p_L, so the slot
        # of v is v % W and the sign test of the DCG loop below is dropped
        for result in islice(s, tape.q):
            count = next(s)
            slot = result % width
            if live and slot in live:
                if live[slot] == result:
                    del live[slot]
                else:
                    raise SlotCollisionError(
                        f"result vertex {result} clobbers live seeded output "
                        f"{live[slot]} in slot {slot}")
            w = vbar[slot]
            vbar[slot] = 0.0
            # straight-line paths for the arities overloading records; the
            # loop takes zero-arity overwrites and hand-recorded n-ary records
            if count == 1:
                i = next(s)
                vbar[i % width] += w * next(d)
            elif count == 2:
                i = next(s)
                vbar[i % width] += w * next(d)
                i = next(s)
                vbar[i % width] += w * next(d)
            else:
                for i in islice(s, count):
                    vbar[i % width] += w * next(d)
            if on_step is not None:
                on_step(list(vbar))
    else:
        for result in islice(s, tape.q):
            count = next(s)
            slot = p_l + result % width if result >= 0 else ~result
            if live and slot in live:
                if live[slot] == result:
                    del live[slot]
                else:
                    raise SlotCollisionError(
                        f"result vertex {result} clobbers live seeded output "
                        f"{live[slot]} in slot {slot}")
            w = vbar[slot]
            vbar[slot] = 0.0
            if count == 1:
                i = next(s)
                vbar[p_l + i % width if i >= 0 else ~i] += w * next(d)
            elif count == 2:
                i = next(s)
                vbar[p_l + i % width if i >= 0 else ~i] += w * next(d)
                i = next(s)
                vbar[p_l + i % width if i >= 0 else ~i] += w * next(d)
            else:
                for i in islice(s, count):
                    vbar[p_l + i % width if i >= 0 else ~i] += w * next(d)
            if on_step is not None:
                on_step(list(vbar))
    grad = []  # a loop: a comprehension would turn p_l, width, vbar into cells
    for i in tape.inputs:
        grad.append(vbar[p_l + i % width if i >= 0 else ~i])
    return (grad, vbar) if return_slots else grad


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


def gradient_check(problem, x: Sequence[float] | None = None,
                   seed: Sequence[float] | None = None,
                   fd_step: float = 1e-6, strategy: str = FLAT,
                   tape: Tape | None = None,
                   **store_config) -> float:
    """Compare the harvested gradient against central differences.

    Returns the maximum component error, relative where the adjoint
    component exceeds one in magnitude and absolute below that.
    """
    from .problems import fd_oracle
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
    worst = 0.0
    for i in range(len(x)):
        direction = [0.0] * len(x)
        direction[i] = 1.0
        fd = fd_oracle(problem, x, direction, fd_step, seed=seed)
        err = abs(grad[i] - fd) / max(1.0, abs(grad[i]))
        if err > worst:
            worst = err
    return worst
