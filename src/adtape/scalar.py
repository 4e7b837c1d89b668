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
with no active operand records nothing and returns the plain value.

An operation reaches the tape in one Python frame: the operator or math
function itself tests its operands' activity, calls the overloading writer
``Tape._record_unary`` (one active operand) or ``Tape._record_binary``
(two) directly, and builds its result with ``object.__new__`` and four
slot stores, not through ``ActiveScalar.__init__``.  Only the rare mixes of
two ``ActiveScalar`` operands, one of them passive or the two on different
tapes, go through the helper ``_mixed_binary``.  ``Tape.record``, the
checked public writer, serves only the zero-arity overwrite of a passive
assignment.  Operands of two different tapes, in an operation, an
assignment or an output, raise ``TapeError``.  The writers test no operand
id: ``ActiveScalar`` is where an outside id is checked.

Comparisons, ``==`` and truth act on primal values and return plain
booleans, so control flow is frozen per recording as in the passive run.
"""

from __future__ import annotations

import math
from numbers import Number
from operator import attrgetter
from typing import Sequence

from .tape import DAG, DCG, Tape, TapeError

#: allocates an ActiveScalar without running __init__; every operation
#: then stores all four slots itself
_new = object.__new__


class ActiveScalar:
    """A numeric value carrying a tape handle and a vertex identity; the
    constructor checks the vertex against the tape and stores the value as
    a float, and tape and vertex are read-only.  So an operator that
    records before it computes (``__mul__``) cannot fail after its record."""

    __slots__ = ("_tape", "value", "_vertex", "active")

    def __init__(self, tape: Tape, value: float, vertex: int,
                 active: bool = True):
        if not isinstance(tape, Tape):
            raise TapeError(f"{tape!r} is not a Tape")
        if not isinstance(vertex, int):
            raise TapeError(f"vertex {vertex!r} is not an integer")
        tape._check_known(vertex)
        self._tape = tape
        self.value = float(value)
        self._vertex = vertex
        self.active = active

    tape = property(attrgetter("_tape"))
    vertex = property(attrgetter("_vertex"))

    @property
    def is_lvalue(self) -> bool:
        """Whether the vertex is an L-value: a DCG input or declared
        variable, the only vertices with a negative id."""
        return self._vertex < 0

    def __repr__(self):
        kind = "lvalue" if self.is_lvalue else "temp"
        return f"ActiveScalar({self.value!r}, vertex={self._vertex}, {kind})"

    # -- arithmetic ---------------------------------------------------------
    #
    # Each operator computes its value and partials, records in its own
    # frame (an active operand and a plain number through _record_unary, two
    # active operands of one tape through _record_binary) and builds its
    # result with _new.  The reflected operators are only called with a
    # plain number as ``other`` (Python tries the left operand's own
    # operator first), so they hand the rare ActiveScalar ``other`` to
    # _mixed_binary.

    def __add__(self, other):
        tape = self._tape
        if isinstance(other, ActiveScalar):
            v = self.value + other.value
            if not (self.active and other.active and other._tape is tape):
                return _mixed_binary(self, other, v, 1.0, 1.0)
            vid = tape._record_binary(self._vertex, 1.0, other._vertex, 1.0)
        else:
            v = self.value + float(other)
            if not self.active:
                return v
            vid = tape._record_unary(self._vertex, 1.0)
        r = _new(ActiveScalar)
        r._tape = tape
        r.value = v
        r._vertex = vid
        r.active = True
        return r

    def __radd__(self, other):
        if isinstance(other, ActiveScalar):
            return _mixed_binary(other, self, other.value + self.value, 1.0, 1.0)
        v = float(other) + self.value
        if not self.active:
            return v
        tape = self._tape
        r = _new(ActiveScalar)
        r._tape = tape
        r.value = v
        r._vertex = tape._record_unary(self._vertex, 1.0)
        r.active = True
        return r

    def __sub__(self, other):
        tape = self._tape
        if isinstance(other, ActiveScalar):
            v = self.value - other.value
            if not (self.active and other.active and other._tape is tape):
                return _mixed_binary(self, other, v, 1.0, -1.0)
            vid = tape._record_binary(self._vertex, 1.0, other._vertex, -1.0)
        else:
            v = self.value - float(other)
            if not self.active:
                return v
            vid = tape._record_unary(self._vertex, 1.0)
        r = _new(ActiveScalar)
        r._tape = tape
        r.value = v
        r._vertex = vid
        r.active = True
        return r

    def __rsub__(self, other):
        if isinstance(other, ActiveScalar):
            return _mixed_binary(other, self, other.value - self.value, 1.0, -1.0)
        v = float(other) - self.value
        if not self.active:
            return v
        tape = self._tape
        r = _new(ActiveScalar)
        r._tape = tape
        r.value = v
        r._vertex = tape._record_unary(self._vertex, -1.0)
        r.active = True
        return r

    def __mul__(self, other):
        a = self.value
        tape = self._tape
        if isinstance(other, ActiveScalar):
            b = other.value
            if not (self.active and other.active and other._tape is tape):
                return _mixed_binary(self, other, a * b, b, a)
            vid = tape._record_binary(self._vertex, b, other._vertex, a)
        else:
            b = float(other)
            if not self.active:
                return a * b
            vid = tape._record_unary(self._vertex, b)
        r = _new(ActiveScalar)
        r._tape = tape
        r.value = a * b
        r._vertex = vid
        r.active = True
        return r

    def __rmul__(self, other):
        b = self.value
        if isinstance(other, ActiveScalar):
            a = other.value
            return _mixed_binary(other, self, a * b, b, a)
        a = float(other)
        if not self.active:
            return a * b
        tape = self._tape
        r = _new(ActiveScalar)
        r._tape = tape
        r.value = a * b
        r._vertex = tape._record_unary(self._vertex, a)
        r.active = True
        return r

    # the divisor's partial is -v / b from the quotient v: -a / (b * b)
    # divides by zero once b * b underflows, though v is finite
    def __truediv__(self, other):
        tape = self._tape
        if isinstance(other, ActiveScalar):
            b = other.value
            v = self.value / b
            da = 1.0 / b
            db = -v / b
            if not (self.active and other.active and other._tape is tape):
                return _mixed_binary(self, other, v, da, db)
            vid = tape._record_binary(self._vertex, da, other._vertex, db)
        else:
            b = float(other)
            v = self.value / b
            da = 1.0 / b
            if not self.active:
                return v
            vid = tape._record_unary(self._vertex, da)
        r = _new(ActiveScalar)
        r._tape = tape
        r.value = v
        r._vertex = vid
        r.active = True
        return r

    def __rtruediv__(self, other):
        b = self.value
        if isinstance(other, ActiveScalar):
            v = other.value / b
            return _mixed_binary(other, self, v, 1.0 / b, -v / b)
        v = float(other) / b
        db = -v / b
        if not self.active:
            return v
        tape = self._tape
        r = _new(ActiveScalar)
        r._tape = tape
        r.value = v
        r._vertex = tape._record_unary(self._vertex, db)
        r.active = True
        return r

    def __neg__(self):
        v = -self.value
        if not self.active:
            return v
        tape = self._tape
        r = _new(ActiveScalar)
        r._tape = tape
        r.value = v
        r._vertex = tape._record_unary(self._vertex, -1.0)
        r.active = True
        return r

    def __pos__(self):
        return self

    # -- comparisons and truth on primal values -----------------------------
    # (unhashable, as assign changes an L-value's value; object.__ne__
    # inverts __eq__)

    __hash__ = None

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        other = other.value if isinstance(other, ActiveScalar) else other
        return self.value == other if isinstance(other, Number) else NotImplemented

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


def _mixed_binary(a, b, v, da, db) -> "ActiveScalar | float":
    """Record ``v = a op b`` with partials ``da``, ``db`` onto the tape of
    its active operands, or return ``v`` if neither is active.

    The operators call it only for what they do not handle inline: two
    ``ActiveScalar`` operands of which one is passive (a DCG L-value not
    yet assigned) or which belong to different tapes, and a reflected
    operator called directly with an ``ActiveScalar``."""
    if isinstance(a, ActiveScalar) and a.active:
        tape = a._tape
        if isinstance(b, ActiveScalar) and b.active:
            if b._tape is not tape:
                raise TapeError("operands belong to different tapes")
            return ActiveScalar(tape, v, tape._record_binary(a._vertex, da, b._vertex, db))
        return ActiveScalar(tape, v, tape._record_unary(a._vertex, da))
    if isinstance(b, ActiveScalar) and b.active:
        return ActiveScalar(b._tape, v, b._tape._record_unary(b._vertex, db))
    return v


# -- elemental math functions, generic over active/passive scalars ----------
#
# Each computes its value and partial, then records in its own frame, as the
# operators do.

def sin(x):
    scalar = isinstance(x, ActiveScalar)
    v = x.value if scalar else float(x)
    y = math.sin(v)
    d = math.cos(v)
    if not (scalar and x.active):
        return y
    tape = x._tape
    r = _new(ActiveScalar)
    r._tape = tape
    r.value = y
    r._vertex = tape._record_unary(x._vertex, d)
    r.active = True
    return r


def cos(x):
    scalar = isinstance(x, ActiveScalar)
    v = x.value if scalar else float(x)
    y = math.cos(v)
    d = -math.sin(v)
    if not (scalar and x.active):
        return y
    tape = x._tape
    r = _new(ActiveScalar)
    r._tape = tape
    r.value = y
    r._vertex = tape._record_unary(x._vertex, d)
    r.active = True
    return r


def exp(x):
    scalar = isinstance(x, ActiveScalar)
    v = x.value if scalar else float(x)
    y = math.exp(v)
    if not (scalar and x.active):
        return y
    tape = x._tape
    r = _new(ActiveScalar)
    r._tape = tape
    r.value = y
    r._vertex = tape._record_unary(x._vertex, y)
    r.active = True
    return r


def ln(x):
    scalar = isinstance(x, ActiveScalar)
    v = x.value if scalar else float(x)
    if v <= 0.0:
        raise ValueError(f"ln of non-positive value {v}")
    y = math.log(v)
    d = 1.0 / v
    if not (scalar and x.active):
        return y
    tape = x._tape
    r = _new(ActiveScalar)
    r._tape = tape
    r.value = y
    r._vertex = tape._record_unary(x._vertex, d)
    r.active = True
    return r


def sqrt(x):
    scalar = isinstance(x, ActiveScalar)
    v = x.value if scalar else float(x)
    if v <= 0.0:
        raise ValueError(f"sqrt of non-positive value {v}")
    y = math.sqrt(v)
    d = 0.5 / y
    if not (scalar and x.active):
        return y
    tape = x._tape
    r = _new(ActiveScalar)
    r._tape = tape
    r.value = y
    r._vertex = tape._record_unary(x._vertex, d)
    r.active = True
    return r


def pow_const(x, c: float):
    scalar = isinstance(x, ActiveScalar)
    v = x.value if scalar else float(x)
    if v <= 0.0 and c != int(c):
        raise ValueError(f"pow of non-positive value {v} with non-integer exponent {c}")
    y = v ** c
    # from the power: c * v ** (c - 1.0) raises OverflowError where the
    # partial is only unrepresentable; this way it is inf, which the tape
    # rejects.  At v == 0 (integer c >= 0 here) the partial is 1 for c == 1.
    d = c * (y / v) if v else float(c == 1.0)
    if not (scalar and x.active):
        return y
    tape = x._tape
    r = _new(ActiveScalar)
    r._tape = tape
    r.value = y
    r._vertex = tape._record_unary(x._vertex, d)
    r.active = True
    return r


def declare_lvalue(tape: Tape, initial: float = 0.0) -> ActiveScalar:
    """Allocate a dedicated L-value id on a DCG tape; passive until the
    first assignment."""
    vid = tape.declare_lvalue()
    return ActiveScalar(tape, initial, vid, active=False)


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
        return ActiveScalar(self.tape, float(value), self.tape.register_input())

    def lvalue(self, initial=0.0):
        """A variable that starts at ``initial``: on a DCG tape a declared
        L-value, an active ``initial`` copied in; else what assign makes."""
        tape = self.tape
        if tape is None or tape._dag:
            return self.assign(None, initial)
        if not (isinstance(initial, ActiveScalar) and initial.active):
            return declare_lvalue(tape, initial)
        if initial._tape is not tape:
            raise TapeError("operands belong to different tapes")
        return self.assign(declare_lvalue(tape), initial)

    def assign(self, lhs, rhs):
        tape = self.tape
        scalar = isinstance(rhs, ActiveScalar)
        if tape is None:
            return rhs.value if scalar else float(rhs)
        active = scalar and rhs.active
        if active and rhs._tape is not tape:
            raise TapeError("operands belong to different tapes")
        if tape._dag:
            if active:
                return rhs
            return rhs.value if scalar else float(rhs)
        # DCG: lhs must be a declared L-value of this tape
        if not (isinstance(lhs, ActiveScalar) and lhs._vertex < 0
                and lhs._tape is tape):
            raise TapeError("assignment target is not an L-value of this tape")
        if active:
            tape._record_unary(rhs._vertex, 1.0, lhs._vertex)
            lhs.value = rhs.value
            lhs.active = True
        else:
            # read before the record, so a value float() rejects writes none
            value = rhs.value if scalar else float(rhs)
            # passive overwrite: zero-arity record kills the adjoint slot
            tape.record([], result=lhs._vertex)
            lhs.value = value
            lhs.active = False
        return lhs

    def output(self, s) -> None:
        if self.tape is None:
            self.outputs.append(value_of(s))
            return
        if not (isinstance(s, ActiveScalar) and s.active):
            raise TapeError("cannot register a passive value as output")
        if s._tape is not self.tape:
            # its vertex id names some other vertex of this tape
            raise TapeError("operands belong to different tapes")
        self.tape.register_output(s._vertex)


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
