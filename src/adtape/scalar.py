"""Overloading frontend: scalars whose arithmetic records onto a tape.

Programs are written once against a :class:`Recorder` context and run in
three ways: with a DAG tape (single-assignment recording, assignments
rebind), with a DCG tape (named L-values keep their negative vertex id
across overwrites, assignments record copy elementals), or with no tape at
all, in which case everything degrades to plain Python floats.  The primal
value sequence is identical in all three cases.

Each overloaded operation computes its primal value and local partials
inline and records one elemental: its predecessors are the active operands
in operand order, and its result is a fresh remainder vertex.  Only
``Recorder.assign`` on a DCG tape writes an existing L-value.  An operation
with no active operand records nothing and returns the plain value.  An
operation with one active operand records through ``Tape.record_unary`` and
one with two through ``Tape.record_binary``, which write the record with no
operand list; ``Tape.record``, the general loop, serves only the zero-arity
overwrite of a passive assignment.  Operands of two different tapes, in an
operation, an assignment or an output, raise ``TapeError``.

Comparison operators act on primal values and return plain booleans, so
control flow is frozen per recording.
"""

from __future__ import annotations

import math
from typing import Sequence

from .tape import DAG, DCG, Tape, TapeError


class ActiveScalar:
    """A numeric value carrying a tape handle and a vertex identity."""

    __slots__ = ("tape", "value", "vertex", "is_lvalue", "active")

    def __init__(self, tape: Tape, value: float, vertex: int,
                 is_lvalue: bool = False, active: bool = True):
        self.tape = tape
        self.value = value
        self.vertex = vertex
        self.is_lvalue = is_lvalue
        self.active = active

    def __repr__(self):
        kind = "lvalue" if self.is_lvalue else "temp"
        return f"ActiveScalar({self.value!r}, vertex={self.vertex}, {kind})"

    # -- arithmetic ---------------------------------------------------------

    # the other operand's value is read inline, not through value_of: one
    # call fewer per operation
    def __add__(self, other):
        b = other.value if isinstance(other, ActiveScalar) else float(other)
        return _binary(self, other, self.value + b, 1.0, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        b = other.value if isinstance(other, ActiveScalar) else float(other)
        return _binary(self, other, self.value - b, 1.0, -1.0)

    def __rsub__(self, other):
        a = other.value if isinstance(other, ActiveScalar) else float(other)
        return _binary(other, self, a - self.value, 1.0, -1.0)

    def __mul__(self, other):
        a = self.value
        b = other.value if isinstance(other, ActiveScalar) else float(other)
        return _binary(self, other, a * b, b, a)

    __rmul__ = __mul__

    # the divisor's partial is -v / b from the quotient v: -a / (b * b)
    # divides by zero once b * b underflows, though v is finite
    def __truediv__(self, other):
        b = other.value if isinstance(other, ActiveScalar) else float(other)
        v = self.value / b
        return _binary(self, other, v, 1.0 / b, -v / b)

    def __rtruediv__(self, other):
        b = self.value
        a = other.value if isinstance(other, ActiveScalar) else float(other)
        v = a / b
        return _binary(other, self, v, 1.0 / b, -v / b)

    def __neg__(self):
        return _unary(self, -self.value, -1.0)

    def __pos__(self):
        return self

    # -- comparisons on primal values ---------------------------------------

    def __lt__(self, other):
        return self.value < value_of(other)

    def __le__(self, other):
        return self.value <= value_of(other)

    def __gt__(self, other):
        return self.value > value_of(other)

    def __ge__(self, other):
        return self.value >= value_of(other)

    def __float__(self):
        return float(self.value)


def value_of(x) -> float:
    """Primal value of an active or passive scalar."""
    return x.value if isinstance(x, ActiveScalar) else float(x)


def _is_active(x) -> bool:
    return isinstance(x, ActiveScalar) and x.active


def _binary(a, b, v, da, db) -> "ActiveScalar | float":
    """Record ``v = a op b`` with partials ``da``, ``db`` onto the tape of
    its active operands, or return ``v`` if neither is active."""
    if isinstance(a, ActiveScalar) and a.active:
        tape = a.tape
        if isinstance(b, ActiveScalar) and b.active:
            if b.tape is not tape:
                raise TapeError("operands belong to different tapes")
            return ActiveScalar(tape, v, tape.record_binary(a.vertex, da, b.vertex, db))
        return ActiveScalar(tape, v, tape.record_unary(a.vertex, da))
    if isinstance(b, ActiveScalar) and b.active:
        return ActiveScalar(b.tape, v, b.tape.record_unary(b.vertex, db))
    return v


def _unary(a, v, partial) -> "ActiveScalar | float":
    if isinstance(a, ActiveScalar) and a.active:
        tape = a.tape
        return ActiveScalar(tape, v, tape.record_unary(a.vertex, partial))
    return v


# -- elemental math functions, generic over active/passive scalars ----------

def sin(x):
    v = value_of(x)
    return _unary(x, math.sin(v), math.cos(v))


def cos(x):
    v = value_of(x)
    return _unary(x, math.cos(v), -math.sin(v))


def exp(x):
    v = value_of(x)
    e = math.exp(v)
    return _unary(x, e, e)


def ln(x):
    v = value_of(x)
    if v <= 0.0:
        raise ValueError(f"ln of non-positive value {v}")
    return _unary(x, math.log(v), 1.0 / v)


def sqrt(x):
    v = value_of(x)
    if v <= 0.0:
        raise ValueError(f"sqrt of non-positive value {v}")
    r = math.sqrt(v)
    return _unary(x, r, 0.5 / r)


def pow_const(x, c: float):
    v = value_of(x)
    if v <= 0.0 and c != int(c):
        raise ValueError(f"pow of non-positive value {v} with non-integer exponent {c}")
    p = v ** c
    # from the power: c * v ** (c - 1.0) raises OverflowError where the
    # partial is only unrepresentable; this way it is inf, which the tape
    # rejects.  At v == 0 (integer c >= 0 here) the partial is 1 for c == 1.
    return _unary(x, p, c * (p / v) if v else float(c == 1.0))


def declare_lvalue(tape: Tape, initial: float = 0.0) -> ActiveScalar:
    """Allocate a dedicated L-value id on a DCG tape; passive until the
    first assignment."""
    vid = tape.declare_lvalue()
    return ActiveScalar(tape, float(initial), vid, is_lvalue=True, active=False)


class Recorder:
    """Execution context threading one tape (or none) through a program.

    Programs must write assignments as ``name = ctx.assign(name, expr)``;
    with a DCG tape this records a copy into the variable's dedicated
    L-value, with a DAG tape it rebinds, without a tape it is a plain
    assignment.
    """

    def __init__(self, tape: Tape | None = None):
        self.tape = tape
        self.outputs: list[float] = []

    @property
    def mode(self) -> str | None:
        return self.tape.mode if self.tape is not None else None

    def input(self, value: float):
        """Register a differentiated input on the tape (a plain float
        without one)."""
        if self.tape is None:
            return float(value)
        return ActiveScalar(self.tape, float(value), self.tape.register_input(),
                            is_lvalue=(self.tape.mode == DCG))

    def lvalue(self, initial: float = 0.0):
        if self.tape is not None and self.tape.mode == DCG:
            return declare_lvalue(self.tape, initial)
        return float(initial)

    def assign(self, lhs, rhs):
        if self.tape is None:
            return value_of(rhs)
        active = _is_active(rhs)
        if active and rhs.tape is not self.tape:
            raise TapeError("operands belong to different tapes")
        if self.tape.mode == DAG:
            return rhs if active else value_of(rhs)
        # DCG: lhs must be a declared L-value of this tape
        if not (isinstance(lhs, ActiveScalar) and lhs.is_lvalue
                and lhs.tape is self.tape):
            raise TapeError("assignment target is not an L-value of this tape")
        if active:
            self.tape.record_unary(rhs.vertex, 1.0, lhs.vertex)
            lhs.value = rhs.value
            lhs.active = True
        else:
            # passive overwrite: zero-arity record kills the adjoint slot
            self.tape.record([], result=lhs.vertex)
            lhs.value = value_of(rhs)
            lhs.active = False
        return lhs

    def output(self, s) -> None:
        if self.tape is None:
            self.outputs.append(value_of(s))
            return
        if not _is_active(s):
            raise TapeError("cannot register a passive value as output")
        if s.tape is not self.tape:
            # its vertex id names some other vertex of this tape
            raise TapeError("operands belong to different tapes")
        self.tape.register_output(s.vertex)


def run_passive(problem, x: Sequence[float]) -> list[float]:
    """Evaluate a generically written program with plain floats."""
    ctx = Recorder(None)
    problem.run(ctx, list(x))
    return ctx.outputs


def record_problem(problem, x: Sequence[float], mode: str = DAG,
                   **store_config) -> Tape:
    """Record a program at the given point and finalize the tape."""
    tape = Tape(mode, **store_config)
    ctx = Recorder(tape)
    problem.run(ctx, list(x))
    tape.finalize()
    return tape
