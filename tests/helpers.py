"""Shared test utilities: reference tape parsing and random generators.

The parser here is deliberately independent of Tape.parse: it walks the
dumped integer list forwards after locating record boundaries from the
back, so stream-layout regressions cannot hide in a shared code path.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys

import adtape
from adtape import DAG, DCG, Recorder, Tape, interpret
from adtape import scalar as ops
from adtape.problems import (BlackScholesFD, BlackScholesMC, Burgers,
                             IntroExample, LiborMC)
from adtape.rng import Xorshift

#: every problem at a size small enough to record many times per test run
SMALL_PROBLEMS = {
    "intro": lambda: IntroExample(length=4),
    "bs_mc": lambda: BlackScholesMC(steps=3, paths=4),
    "bs_fd": lambda: BlackScholesFD(ns=8, nt=40),
    "burgers": lambda: Burgers(nx=6, nt=8),
    "libor_mc": lambda: LiborMC(rates=5, maturity=2, paths=3),
}

#: the sweep's record loop, compiled once per kind of slot map
RECORD_LOOPS = {name: getattr(interpret, f"_sweep_{name}")
                for name in ("identity", "modulo", "split")}

#: tape store configurations: in memory, spilling all but one block, and
#: blocks so small that one record's entries can fill more than one
STORES = {
    "inmem": {},
    "spilled": {"block_entries": 64, "budget_blocks": 1},
    "tiny": {"block_entries": 3, "budget_blocks": 1},
}


def bits(values):
    """The bytes of a list of floats, so that equal means bitwise equal."""
    return struct.pack(f"<{len(values)}d", *values)


def reference_parse(s, d, n, q):
    """Independent reverse parse of dumped streams.

    Returns (input_ids, records) with records as (preds, partials, result)
    in forward order and operand order.
    """
    records = []
    si, di = len(s), len(d)
    for _ in range(q):
        result = s[si - 1]
        count = s[si - 2]
        preds = list(s[si - 2 - count:si - 2])
        partials = list(d[di - count:di])
        records.append((preds, partials, result))
        si -= count + 2
        di -= count
    assert si == n, "stream does not begin with the declared inputs"
    records.reverse()
    return list(s[:n]), records


def reference_bandwidth(s, d, n, q, remainder_only=False):
    """Max edge length over the dumped tape, recomputed from scratch.

    With ``remainder_only`` (beta_R of a DCG tape) only remainder operands
    count, and each edge is measured from the record's remainder position:
    its result, or for an L-value result the next remainder id."""
    _, records = reference_parse(s, d, n, q)
    best = 0
    next_id = 0  # of a DCG tape, whose remainder ids start at 0
    for preds, _, result in records:
        at = result if result >= 0 else next_id
        if result >= 0:
            next_id = result + 1
        for p in preds:
            if not remainder_only:
                best = max(best, result - p)
            elif p >= 0 and at - p > best:
                best = at - p
    return best


def random_dag_tape(rng: Xorshift, max_elementals=30, max_arity=3, **cfg):
    """A random but well-formed DAG tape with finite partials."""
    tape = Tape(DAG, **cfg)
    n = 1 + rng.next_u64() % 3
    ids = [tape.register_input() for _ in range(n)]
    q = 1 + rng.next_u64() % max_elementals
    for _ in range(q):
        arity = 1 + rng.next_u64() % max_arity
        preds = [(ids[rng.next_u64() % len(ids)], 2.0 * rng.uniform() - 1.0)
                 for _ in range(arity)]
        ids.append(tape.record(preds))
    tape.register_output(ids[-1])
    tape.finalize()
    return tape


def random_dcg_tape(rng: Xorshift, max_elementals=30, max_arity=3, **cfg):
    """A random but well-formed DCG tape: records of arity 0 to
    ``max_arity`` through ``Tape.record``, about a third of them
    overwriting an L-value, with operands drawn from every vertex so far.
    Half the tapes then end in a run of up to five copies into L-values and
    zero-arity overwrites, which follow the last remainder record."""
    tape = Tape(DCG, **cfg)
    lvalues = [tape.register_input() for _ in range(1 + rng.next_u64() % 3)]
    lvalues += [tape.declare_lvalue() for _ in range(1 + rng.next_u64() % 3)]
    ids = list(lvalues)
    for _ in range(1 + rng.next_u64() % max_elementals):
        preds = [(ids[rng.next_u64() % len(ids)], 2.0 * rng.uniform() - 1.0)
                 for _ in range(rng.next_u64() % (max_arity + 1))]
        if rng.next_u64() % 3 == 0:
            tape.record(preds, result=lvalues[rng.next_u64() % len(lvalues)])
        else:
            ids.append(tape.record(preds))
    for _ in range(rng.next_u64() % 6 if rng.next_u64() % 2 else 0):
        lhs = lvalues[rng.next_u64() % len(lvalues)]
        copied = [(ids[rng.next_u64() % len(ids)], 1.0)]
        tape.record(copied if rng.next_u64() % 3 else [], result=lhs)
    first = rng.next_u64() % len(lvalues)
    for k in range(1 + rng.next_u64() % 2):
        tape.register_output(lvalues[(first + k) % len(lvalues)])
    tape.finalize()
    return tape


def copy_tape(mode, trailing, **cfg):
    """``t = 2x; u = 3x; y = t`` and then, unless ``trailing``, ``y = y*u``:
    dy/dx is 2 or 12 at x = 1.  On a DCG tape the copy ``y = t`` is an edge
    from remainder vertex 0 into an L-value, two remainder ids before the
    next one, so beta_R is 2; with ``trailing`` it follows the last
    remainder record."""
    tape = Tape(mode, **cfg)
    ctx = Recorder(tape)
    x = ctx.input(1.0)
    y = ctx.lvalue()
    t, u = x * 2.0, x * 3.0
    y = ctx.assign(y, t)
    if not trailing:
        y = ctx.assign(y, y * u)
    ctx.output(y)
    tape.finalize()
    return tape


def copies_tape(temporary=True, **cfg):
    """A DCG tape whose last five records copy into L-values: ``t = 2x``
    (with ``temporary``; else ``t`` is ``x`` itself), then ``y = t; z = y;
    y = z; z = t; y = z``.  So every copy follows the last remainder record,
    and without ``temporary`` no record has a remainder result.  Both
    outputs, ``y`` and ``z``, have the derivative 2 or 1."""
    tape = Tape(DCG, **cfg)
    ctx = Recorder(tape)
    x = ctx.input(1.0)
    y, z = ctx.lvalue(), ctx.lvalue()
    t = x * 2.0 if temporary else x
    y = ctx.assign(y, t)
    z = ctx.assign(z, y)
    y = ctx.assign(y, z)
    z = ctx.assign(z, t)
    y = ctx.assign(y, z)
    ctx.output(y)
    ctx.output(z)
    tape.finalize()
    return tape


class RandomProgram:
    """A deterministic random straight-line program over a few L-values.

    The same source records on DAG and DCG tapes and evaluates passively,
    so it drives the cross-strategy agreement checks.
    """

    name = "random"
    fd_step = 1e-6

    def __init__(self, seed: int, n_inputs=None, n_lvalues=None, n_steps=None):
        rng = Xorshift(seed ^ 0xC0FFEE)
        self.seed = seed
        self.n_inputs = n_inputs or 1 + rng.next_u64() % 3
        self.n_lvalues = n_lvalues or 1 + rng.next_u64() % 3
        self.n_steps = n_steps or 3 + rng.next_u64() % 12
        self.plan = [(rng.next_u64() % 6,
                      rng.next_u64(), rng.next_u64(), rng.next_u64())
                     for _ in range(self.n_steps)]

    def default_point(self):
        rng = Xorshift(self.seed ^ 0xBEEF)
        return [0.2 + rng.uniform() for _ in range(self.n_inputs)]

    def run(self, ctx: Recorder, x):
        vals = [ctx.input(v) for v in x]
        cells = [ctx.lvalue(0.1 * (i + 1)) for i in range(self.n_lvalues)]

        def operand(idx):
            # read through the cell list so every mode sees current values
            k = idx % (len(vals) + len(cells))
            return vals[k] if k < len(vals) else cells[k - len(vals)]

        for op, a, b, target in self.plan:
            w = combine(op, operand(a), operand(b))
            t = target % len(cells)
            cells[t] = ctx.assign(cells[t], w)
        output_sum(ctx, vals, cells)


class OlderTemporaryProgram(RandomProgram):
    """A RandomProgram whose steps either build a temporary from any
    earlier value or copy an earlier temporary, up to all the program's
    records old, into an L-value.  On a DCG tape such a copy is an edge
    from an old remainder vertex into an L-value result."""

    def __init__(self, seed: int):
        super().__init__(seed, n_steps=8 + seed % 24)

    def run(self, ctx: Recorder, x):
        vals = [ctx.input(v) for v in x]
        cells = [ctx.lvalue(0.1 * (i + 1)) for i in range(self.n_lvalues)]
        temps = []
        for op, a, b, target in self.plan:
            if temps and target % 3 == 0:
                t = target // 3 % len(cells)
                cells[t] = ctx.assign(cells[t], temps[a % len(temps)])
            else:
                pool = vals + cells + temps
                temps.append(combine(op, pool[a % len(pool)],
                                     pool[b % len(pool)]))
        output_sum(ctx, vals, cells)


def combine(op: int, u, v):
    """One of six binary expressions, by ``op`` from 0 to 5."""
    if op == 0:
        return u + v
    if op == 1:
        return u - v
    if op == 2:
        return u * v
    if op == 3:
        return u / (2.0 + v * v)
    if op == 4:
        return ops.sin(u) + 0.5 * v
    return ops.exp(u * 0.25) - v


def output_sum(ctx: Recorder, vals, cells) -> None:
    """Assign the sum of ``cells`` to a fresh L-value and make it the one
    output; ``vals[0] - vals[0]`` keeps it active whatever the cells hold."""
    total = vals[0] - vals[0]
    for c in cells:
        total = total + c
    result = ctx.lvalue()
    result = ctx.assign(result, total)
    ctx.output(result)


def zero_arity_tape(mode, **cfg):
    """Two inputs, a zero-arity record and a ternary one; on a DCG tape the
    zero-arity record overwrites an L-value that was read before."""
    tape = Tape(mode, **cfg)
    x, y = tape.register_input(), tape.register_input()
    if mode == DCG:
        a, b = tape.declare_lvalue(), tape.declare_lvalue()
        tape.record([(x, 2.0), (y, -0.5)], result=a)
        tape.record([(a, 3.0)], result=b)
        tape.record([], result=a)
        t = tape.record([(x, 0.7), (a, 1.1), (y, -2.0)])
        tape.record([(t, 1.5), (b, 0.25)], result=b)
        outputs = [a, b]
    else:
        c = tape.record([])
        t = tape.record([(x, 2.0), (c, 1.5), (y, 1.0)])
        outputs = [tape.record([(t, 0.5), (x, -1.0)])]
    for v in outputs:
        tape.register_output(v)
    tape.finalize()
    return tape


#: appended to a child's code: print the child's peak RSS in bytes.  Linux
#: VmHWM is the peak of the address space the child got at exec.  Its
#: ``ru_maxrss`` also counts the parent's resident set at the fork, so in a
#: child of the test runner it hides any growth below the runner's size.
_PRINT_PEAK_RSS = """
import resource as _resource, sys as _sys
try:
    with open("/proc/self/status") as _status:
        _peak = next(int(line.split()[1]) * 1024 for line in _status
                     if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    _peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    _peak *= 1 if _sys.platform == "darwin" else 1024
print(_peak)
"""


def run_child(code: str, *args) -> tuple[list[str], int]:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    adtape; returns (the fields it prints, its peak RSS in bytes)."""
    src = os.path.dirname(os.path.dirname(adtape.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code + _PRINT_PEAK_RSS,
                          *map(str, args)],
                         env=env, capture_output=True, text=True, check=True)
    *fields, peak = out.stdout.split()
    return fields, int(peak)
