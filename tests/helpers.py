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
from adtape import DAG, DCG, Recorder, Tape
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
    """Max edge length over the dumped tape, recomputed from scratch."""
    _, records = reference_parse(s, d, n, q)
    best = 0
    for preds, _, result in records:
        for p in preds:
            if remainder_only and (p < 0 or result < 0):
                continue
            if not remainder_only:
                best = max(best, result - p)
            elif result - p > best:
                best = result - p
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
            u = operand(a)
            v = operand(b)
            if op == 0:
                w = u + v
            elif op == 1:
                w = u - v
            elif op == 2:
                w = u * v
            elif op == 3:
                w = u / (2.0 + v * v)
            elif op == 4:
                w = ops.sin(u) + 0.5 * v
            else:
                w = ops.exp(u * 0.25) - v
            t = target % len(cells)
            cells[t] = ctx.assign(cells[t], w)
        total = vals[0] - vals[0]  # keeps the output active in every seed
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
