import gc
import math
import operator
import sys
from array import array
from fractions import Fraction

import pytest

from adtape import (DAG, DCG, STRATEGIES, Recorder, Tape, TapeError,
                    propagate)
from adtape import scalar as ops
from adtape.interpret import STRATEGY_MODE, gradient_check
from adtape.scalar import (ActiveScalar, declare_lvalue, record_problem,
                           run_passive, value_of)


def dag_ctx():
    return Recorder(Tape(DAG))


def dcg_ctx():
    return Recorder(Tape(DCG))


def last_record(tape):
    """(preds, partials, result) of the most recent elemental."""
    tape._s.seal()
    tape._d.seal()
    si = tape._s.tolist()
    di = tape._d.tolist()
    count = si[-2]
    return si[-2 - count:-2], di[len(di) - count:], si[-1]


def test_input_vertices():
    ctx = dag_ctx()
    a = ctx.input(1.0)
    assert a.vertex == 0 and a.value == 1.0
    b = ctx.input(2.0)
    assert b.vertex == 1
    ctx2 = dcg_ctx()
    assert ctx2.input(1.0).vertex == -1


def test_is_lvalue_reads_the_sign_of_the_vertex():
    """L-values are the vertices with negative ids: DCG inputs and declared
    variables, assigned or not.  DAG inputs and every operation result are
    not L-values."""
    dag = dag_ctx()
    x = dag.input(1.0)
    assert not x.is_lvalue and not (x * x).is_lvalue
    assert not dag.assign(x, ops.sin(x)).is_lvalue
    dcg = dcg_ctx()
    x, u = dcg.input(1.0), dcg.lvalue(2.0)
    assert x.is_lvalue and u.is_lvalue and not u.active
    assert not (x * u).is_lvalue and not ops.sin(x).is_lvalue
    u = dcg.assign(u, x + 1.0)
    assert u.is_lvalue and u.active
    with pytest.raises(AttributeError):
        u.is_lvalue = False


@pytest.mark.parametrize("op,expected_partials", [
    (lambda a, b: a + b, [(0, 1.0), (1, 1.0)]),
    (lambda a, b: a - b, [(0, 1.0), (1, -1.0)]),
    (lambda a, b: a * b, [(0, 5.0), (1, 3.0)]),
    (lambda a, b: a / b, [(0, 1.0 / 5.0), (1, -3.0 / 25.0)]),
    # passive left operand: the reflected operators of b
    (lambda a, b: 2.0 + b, [(1, 1.0)]),
    (lambda a, b: 2.0 - b, [(1, -1.0)]),
    (lambda a, b: 2.0 * b, [(1, 2.0)]),
    (lambda a, b: 2.0 / b, [(1, -2.0 / 25.0)]),
])
def test_binary_partials(op, expected_partials):
    ctx = dag_ctx()
    a, b = ctx.input(3.0), ctx.input(5.0)
    r = op(a, b)
    preds, partials, result = last_record(ctx.tape)
    assert list(zip(preds, partials)) == expected_partials
    assert result == r.vertex == 2
    assert r.value == op(3.0, 5.0)


def test_square_merges_to_single_edge():
    ctx = dag_ctx()
    u = ctx.input(math.sin(1.0))
    r = u * u
    preds, partials, _ = last_record(ctx.tape)
    assert preds == [0]
    assert partials[0] == pytest.approx(2.0 * math.sin(1.0))
    assert r.value == pytest.approx(math.sin(1.0) ** 2)


@pytest.mark.parametrize("fn,x,val,partial", [
    (ops.sin, 1.0, math.sin(1.0), math.cos(1.0)),
    (ops.sin, 1.7080734, math.sin(1.7080734), math.cos(1.7080734)),
    (ops.cos, 0.5, math.cos(0.5), -math.sin(0.5)),
    (ops.exp, 0.0, 1.0, 1.0),
    (ops.ln, 2.0, math.log(2.0), 0.5),
    (ops.sqrt, 4.0, 2.0, 0.25),
])
def test_unary_partials(fn, x, val, partial):
    ctx = dag_ctx()
    a = ctx.input(x)
    r = fn(a)
    _, partials, _ = last_record(ctx.tape)
    assert r.value == pytest.approx(val)
    assert partials[0] == pytest.approx(partial)


def test_pow_const():
    ctx = dag_ctx()
    a = ctx.input(2.0)
    r = ops.pow_const(a, 3.0)
    _, partials, _ = last_record(ctx.tape)
    assert r.value == pytest.approx(8.0)
    assert partials[0] == pytest.approx(12.0)


def test_pow_const_at_zero():
    for c, partial in ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)):
        ctx = dag_ctx()
        r = ops.pow_const(ctx.input(0.0), c)
        assert r.value == 0.0 ** c
        assert last_record(ctx.tape)[1] == [partial]


def test_division_by_tiny_divisor_records():
    # b * b underflows for |b| below about 1.5e-162; the quotient does not
    ctx = dag_ctx()
    x = ctx.input(1e-200)
    r = x / 1e-170
    preds, partials, _ = last_record(ctx.tape)
    assert r.value == 1e-200 / 1e-170
    assert preds == [0] and partials == [1.0 / 1e-170]
    ctx = dag_ctx()
    y = ctx.input(1e-170)
    r = 1e-200 / y
    assert r.value == 1e-200 / 1e-170
    assert last_record(ctx.tape)[1] == [-(1e-200 / 1e-170) / 1e-170]


@pytest.mark.parametrize("op", [lambda x: 1.0 / x,
                                lambda x: ops.pow_const(x, -1.0)],
                         ids=["rtruediv", "pow_const"])
def test_unrepresentable_partial_is_tape_error(op):
    # the quotient 1e200 is finite, its partial -1e400 is not
    ctx = dag_ctx()
    with pytest.raises(TapeError, match="non-finite partial"):
        op(ctx.input(1e-200))


def test_neg_partial():
    ctx = dag_ctx()
    a = ctx.input(2.0)
    r = -a
    _, partials, _ = last_record(ctx.tape)
    assert r.value == -2.0 and partials == [-1.0]


def test_domain_errors_carry_value():
    ctx = dag_ctx()
    a = ctx.input(-2.0)
    with pytest.raises(ValueError, match="-2.0"):
        ops.ln(a)
    with pytest.raises(ValueError, match="-2.0"):
        ops.sqrt(a)


def test_passive_operand_not_recorded():
    ctx = dag_ctx()
    a = ctx.input(2.0)
    r = a + 5.0
    preds, partials, _ = last_record(ctx.tape)
    assert r.value == 7.0
    assert preds == [0] and partials == [1.0]


def test_passive_only_arithmetic_stays_passive():
    assert ops.sin(0.5) == math.sin(0.5)
    ctx = dcg_ctx()
    cell = ctx.lvalue(0.25)  # declared but never assigned: passive
    assert isinstance(cell * 2.0, float)
    assert ctx.tape.q == 0


def test_cross_tape_mix_rejected():
    a = dag_ctx().input(1.0)
    b = dag_ctx().input(2.0)
    with pytest.raises(TapeError, match="different tapes"):
        a + b


#: overloaded operations that record, called as op(ctx, lvalue, x, y)
OVERLOADED = {
    "mul": lambda ctx, u, x, y: x * y,
    "mul_right": lambda ctx, u, x, y: y * x,
    "square": lambda ctx, u, x, y: x * x,
    "sin": lambda ctx, u, x, y: ops.sin(x),
    "assign": lambda ctx, u, x, y: ctx.assign(u, x),  # the DCG copy
}
GUARDED = [(mode, op) for mode in (DAG, DCG) for op in OVERLOADED
           if op != "assign" or mode == DCG]


def guarded_setup(mode):
    ctx = Recorder(Tape(mode))
    x, y = ctx.input(1.0), ctx.input(2.0)
    return ctx, ctx.lvalue(), x, y


@pytest.mark.parametrize("mode,op", GUARDED)
def test_overloaded_record_on_finalized_tape_rejected(mode, op):
    ctx, u, x, y = guarded_setup(mode)
    ctx.output(x)
    ctx.tape.finalize()
    with pytest.raises(TapeError, match="finalized"):
        OVERLOADED[op](ctx, u, x, y)


@pytest.mark.parametrize("vertex", [99, -99])
@pytest.mark.parametrize("mode,op", GUARDED)
def test_overloaded_record_of_unknown_vertex_rejected(mode, op, vertex):
    ctx, u, x, y = guarded_setup(mode)
    tape = ctx.tape
    before = (tape.q, tape.s_len, tape.d_len)
    # refused where the scalar is built, so no writer sees the id
    with pytest.raises(TapeError, match="unknown"):
        OVERLOADED[op](ctx, u, ActiveScalar(tape, 1.0, vertex), y)
    assert (tape.q, tape.s_len, tape.d_len) == before


def tape_state(tape):
    return (tape.q, tape.n, tape.p_l, tape.s_len, tape.d_len, tape.stats(),
            tape.store_stats())


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_active_scalar_holds_only_an_id_of_its_tape(mode):
    """The constructor is the one public way to put a vertex into a
    scalar, so it checks the id that the overloading writers take as it
    is; the tape is unchanged by a refusal."""
    ctx, u, x, y = guarded_setup(mode)
    tape = ctx.tape
    x * y
    kind = "L-value" if mode == DCG else "vertex"
    before = tape_state(tape)
    for vertex, message in ((99, "unknown vertex 99"),
                            (-99, f"unknown {kind} -99"),
                            (1.5, "vertex 1.5 is not an integer"),
                            (None, "vertex None is not an integer")):
        with pytest.raises(TapeError, match=f"^{message}$"):
            ActiveScalar(tape, 1.0, vertex)
    with pytest.raises(TapeError, match="is not a Tape$"):
        ActiveScalar(Recorder(None), 1.0, 0)
    assert tape_state(tape) == before
    for vertex in (*tape.inputs, 0):
        assert ActiveScalar(tape, 1.0, vertex).vertex == vertex


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_constructor_stores_a_float_so_no_operator_fails_after_its_record(
        mode):
    """``a * 2.0`` records before it multiplies, so the product must not
    fail: the constructor stores ``float(value)``, which refuses a value
    that a float cannot hold before anything is recorded, and holds an int
    as a float."""
    tape = Tape(mode)
    vertex = tape.register_input()
    with pytest.raises(OverflowError):
        ActiveScalar(tape, 10 ** 400, vertex)
    a = ActiveScalar(tape, 3, vertex)
    assert type(a.value) is float
    for op in (operator.mul, lambda u, c: c * u, operator.add,
               operator.truediv):
        q = tape.q
        assert op(a, 2.0).value == op(3.0, 2.0)
        assert tape.q == q + 1


def test_tape_and_vertex_are_read_only():
    ctx = dcg_ctx()
    x = ctx.input(1.0)
    t = x * 2.0
    for scalar in (x, t):
        with pytest.raises(AttributeError):
            scalar.tape = Tape(DCG)
        with pytest.raises(AttributeError):
            scalar.vertex = 99
    assert (x.tape, x.vertex, t.tape, t.vertex) == (ctx.tape, -1, ctx.tape, 0)


def test_comparisons_use_primal_values():
    ctx = dag_ctx()
    a = ctx.input(2.0)
    assert (a > 1.5) is True and (a <= 1.5) is False
    assert ctx.tape.q == 0  # comparing records nothing


def test_equality_and_truth_use_primal_values():
    ctx = dcg_ctx()
    a, b = ctx.input(2.0), ctx.input(2.0)
    z = a - 2.0
    q = ctx.tape.q
    assert (a == 2.0) is True and (a == 2) is True and (a == b) is True
    assert (a != 2.0) is False and (a != 3.0) is True and (a != z) is True
    assert (2.0 == a) is True and (Fraction(2) == a) is True
    assert bool(z) is False and bool(a) is True
    assert (a == "2.0") is False and (a != "2.0") is True
    assert a.__eq__("2.0") is NotImplemented
    passive = ctx.lvalue(0.0)
    assert bool(passive) is False and passive == 0.0
    nan = ctx.lvalue(math.nan)
    assert nan != nan and bool(nan)
    assert ctx.tape.q == q  # comparing records nothing
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


class Branches:
    """``y = 3a`` if the test holds at the input, else ``y = 5a``: a branch
    on ``a == 2.0`` or on the truth of ``a - 2.0``."""

    fd_step = 1e-6

    def __init__(self, test):
        self.test = test

    def default_point(self):
        return [2.0]

    def run(self, ctx, x):
        a = ctx.input(x[0])
        if self.test == "eq":
            y = a * 3.0 if a == 2.0 else a * 5.0
        else:
            y = a * 3.0 if a - 2.0 else a * 5.0
        out = ctx.assign(ctx.lvalue(), y)
        ctx.output(out)


@pytest.mark.parametrize("test,slope", [("eq", 3.0), ("truth", 5.0)])
def test_branches_follow_the_passive_run(test, slope):
    """At a = 2 the passive run takes 3a for ``a == 2.0`` and 5a for a false
    ``a - 2.0``; every recording takes the same branch, so its gradient is
    that branch's slope."""
    problem = Branches(test)
    assert run_passive(problem, [2.0]) == [2.0 * slope]
    for strategy in STRATEGIES:
        tape = record_problem(problem, [2.0], mode=STRATEGY_MODE[strategy])
        assert propagate(tape, [1.0], strategy) == [slope], strategy


def test_dag_assign_rebinds_without_record():
    ctx = dag_ctx()
    a = ctx.input(1.0)
    cell = ctx.lvalue()
    cell = ctx.assign(cell, ops.sin(a))
    assert cell.vertex == 1
    assert ctx.tape.q == 1  # only the sin itself


def test_dag_assign_passive_goes_passive():
    ctx = dag_ctx()
    ctx.input(1.0)
    cell = ctx.lvalue()
    cell = ctx.assign(cell, 3.5)
    assert cell == 3.5 and isinstance(cell, float)


def test_dcg_assign_records_copy():
    ctx = dcg_ctx()
    x = ctx.input(1.0)
    u = ctx.lvalue()
    u = ctx.assign(u, ops.sin(x))
    preds, partials, result = last_record(ctx.tape)
    assert (preds, partials, result) == ([0], [1.0], -2)
    assert u.vertex == -2 and u.value == pytest.approx(math.sin(1.0))


class LvalueFromActive:
    """``acc = lvalue(3a); acc = acc + a``: y = 4a."""

    def default_point(self):
        return [2.0]

    def run(self, ctx, x):
        a = ctx.input(x[0])
        acc = ctx.lvalue(a * 3.0)
        acc = ctx.assign(acc, acc + a)
        ctx.output(acc)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_lvalue_keeps_the_dependency_of_an_active_initial(strategy):
    """A DCG tape copies an active initial value into the new L-value (one
    record more than the DAG tape, which takes the scalar itself)."""
    problem = LvalueFromActive()
    mode = STRATEGY_MODE[strategy]
    tape = record_problem(problem, [2.0], mode=mode)
    assert tape.q == (4 if mode == DCG else 2)
    assert propagate(tape, [1.0], strategy) == [4.0]
    assert gradient_check(problem, strategy=strategy) < 1e-8
    assert run_passive(problem, [2.0]) == [8.0]


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_lvalue_of_another_tapes_scalar_rejected(mode):
    ca, cb = Recorder(Tape(mode)), Recorder(Tape(mode))
    ca.input(2.0)
    xb = cb.input(3.0) * 2.0
    before = tape_state(ca.tape), tape_state(cb.tape)
    with pytest.raises(TapeError, match="^operands belong to different tapes$"):
        ca.lvalue(xb)
    assert (tape_state(ca.tape), tape_state(cb.tape)) == before


def test_lvalue_of_a_passive_scalar_is_its_value():
    ctx = dcg_ctx()
    ctx.input(1.0)
    cell = ctx.lvalue(0.5)
    copy = ctx.lvalue(cell)
    assert (copy.vertex, copy.value, copy.active) == (-3, 0.5, False)
    assert ctx.tape.q == 0
    assert Recorder(None).lvalue(cell) == 0.5


def test_dcg_lvalue_keeps_vertex_across_assignments():
    ctx = dcg_ctx()
    x = ctx.input(1.0)
    u = ctx.lvalue()
    u = ctx.assign(u, ops.sin(x))
    first = u.vertex
    u = ctx.assign(u, u * 2.0)
    assert u.vertex == first == -2


def test_dcg_passive_assign_records_kill():
    ctx = dcg_ctx()
    ctx.input(1.0)
    u = ctx.lvalue()
    u = ctx.assign(u, 3.5)
    preds, partials, result = last_record(ctx.tape)
    assert (preds, partials, result) == ([], [], -2)
    assert u.value == 3.5 and not u.active


def test_dcg_assign_to_non_lvalue_rejected():
    ctx = dcg_ctx()
    x = ctx.input(1.0)
    temp = ops.sin(x)
    with pytest.raises(TapeError, match="L-value"):
        ctx.assign(temp, x)


def test_declare_order_matches_registration():
    tape = Tape(DCG)
    tape.register_input()
    u = declare_lvalue(tape, 0.0)
    v1 = declare_lvalue(tape, 0.0)
    v2 = declare_lvalue(tape, 0.0)
    assert (u.vertex, v1.vertex, v2.vertex) == (-2, -3, -4)
    assert tape.p_l == 4


def test_declare_lvalue_rejected_on_dag():
    with pytest.raises(TapeError, match="DCG"):
        declare_lvalue(Tape(DAG), 0.0)


def test_passive_output_rejected():
    ctx = dag_ctx()
    ctx.input(1.0)
    with pytest.raises(TapeError, match="passive"):
        ctx.output(2.0)


def test_branching_on_value_rerecords():
    class Branchy:
        def run(self, ctx, x):
            a = ctx.input(x[0])
            out = ctx.lvalue()
            if a > 0.0:
                out = ctx.assign(out, a * a)
            else:
                out = ctx.assign(out, a * 3.0)
            ctx.output(out)

    pos = record_problem(Branchy(), [2.0], mode=DAG)
    neg = record_problem(Branchy(), [-2.0], mode=DAG)
    _, d_pos = pos.dump()
    _, d_neg = neg.dump()
    assert d_pos == [4.0]   # merged square partial 2a
    assert d_neg == [3.0]   # the other branch


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_output_from_another_tape_rejected(mode):
    # the foreign vertex id also names a vertex of this tape, whose
    # gradient would be taken in its place
    ca, cb = Recorder(Tape(mode)), Recorder(Tape(mode))
    xa, xb = ca.input(2.0), cb.input(3.0)
    ya = ca.assign(ca.lvalue(), xa * xa)
    yb = cb.assign(cb.lvalue(), xb * xb)
    assert ya.vertex == yb.vertex
    with pytest.raises(TapeError, match="different tapes"):
        ca.output(yb)
    assert ca.tape.outputs == []


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_assign_from_another_tape_rejected(mode):
    ca, cb = Recorder(Tape(mode)), Recorder(Tape(mode))
    ca.input(2.0)
    xb = cb.input(3.0)
    cell = ca.lvalue()
    before = (ca.tape.q, ca.tape.s_len, ca.tape.d_len)
    with pytest.raises(TapeError, match="different tapes"):
        ca.assign(cell, xb * 2.0)
    assert (ca.tape.q, ca.tape.s_len, ca.tape.d_len) == before


def test_dcg_passive_assign_of_a_bad_value_records_nothing():
    ctx = dcg_ctx()
    ctx.input(1.0)
    u = ctx.lvalue(0.5)
    before = (ctx.tape.q, ctx.tape.s_len, ctx.tape.d_len)
    with pytest.raises(ValueError, match="could not convert"):
        ctx.assign(u, "abc")
    assert (ctx.tape.q, ctx.tape.s_len, ctx.tape.d_len) == before
    assert u.value == 0.5 and not u.active


# -- the overloaded operations against plain floats and Tape.record ---------

#: binary operators: the value and the (left, right) partials on floats
BINARY_OPS = {
    "add": (operator.add, lambda a, b: (1.0, 1.0)),
    "sub": (operator.sub, lambda a, b: (1.0, -1.0)),
    "mul": (operator.mul, lambda a, b: (b, a)),
    "truediv": (operator.truediv, lambda a, b: (1.0 / b, -(a / b) / b)),
}

#: unary operations: (overloaded call, value on floats, partial on floats,
#: domain of the value; outside it both raise ValueError)
UNARY_OPS = {
    "neg": (operator.neg, operator.neg, lambda v: -1.0, None),
    "sin": (ops.sin, math.sin, math.cos, None),
    "cos": (ops.cos, math.cos, lambda v: -math.sin(v), None),
    "exp": (ops.exp, math.exp, math.exp, None),
    "ln": (ops.ln, math.log, lambda v: 1.0 / v, lambda v: v > 0.0),
    "sqrt": (ops.sqrt, math.sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: v > 0.0),
    "pow_const": (lambda x: ops.pow_const(x, 2.5), lambda v: v ** 2.5,
                  lambda v: 2.5 * (v ** 2.5 / v), lambda v: v > 0.0),
}


def operands(mode):
    """A recorder whose tape holds two inputs and one elemental, and one
    operand of each kind on it.  Each call makes the same tape, so one call
    is the tape under test and another its reference."""
    ctx = Recorder(Tape(mode))
    tape = ctx.tape
    x, y = ctx.input(2.5), ctx.input(-1.25)  # active L-values on DCG
    t = tape.record([(x.vertex, 0.5), (y.vertex, 2.0)])
    kinds = {"temp": ActiveScalar(tape, 1.75, t), "input": x,
             "float": 3.25, "int": -3}
    if mode == DCG:
        kinds["passive_lvalue"] = ctx.lvalue(-0.75)
    return ctx, kinds


def active(v) -> bool:
    return isinstance(v, ActiveScalar) and v.active


def bits(v: float) -> bytes:
    return array("d", [v]).tobytes()


def check_against_reference(ctx, ref, result, value, preds):
    """``result`` of an overloaded operation on ``ctx``'s tape is what
    plain-float ``value`` and ``ref.record(preds)`` give: the same type,
    value bits and vertex, then the same streams after finalize."""
    tape, ref_tape = ctx.tape, ref.tape
    if preds:
        vid = ref_tape.record(preds)
        assert type(result) is ActiveScalar
        assert (result.tape, result.vertex) == (tape, vid)
        assert (result.is_lvalue, result.active) == (False, True)
        result = result.value
    assert type(result) is float
    assert bits(result) == bits(value)
    for t in (tape, ref_tape):
        t.register_output(t.inputs[0])
        t.finalize()
    (s, d), (ref_s, ref_d) = tape.dump(), ref_tape.dump()
    assert s == ref_s
    assert array("d", d).tobytes() == array("d", ref_d).tobytes()


@pytest.mark.parametrize("op,call", [
    *((op, "operator") for op in sorted(BINARY_OPS)),
    *((op, "reflected") for op in sorted(BINARY_OPS))])
@pytest.mark.parametrize("mode", [DAG, DCG])
def test_binary_operators_match_record(mode, op, call):
    """Every operand kind on either side: an active temporary, the input
    (an active L-value on DCG), a passive L-value (DCG), a float and an int.
    ``reflected`` calls the right operand's ``__r<op>__`` directly, which
    Python itself does only when the left operand is a plain number."""
    fn, partials = BINARY_OPS[op]
    kinds = list(operands(mode)[1])
    for left in kinds:
        for right in kinds:
            (ctx, operand), (ref, _) = operands(mode), operands(mode)
            a, b = operand[left], operand[right]
            if not isinstance(b, ActiveScalar) and (
                    call == "reflected" or not isinstance(a, ActiveScalar)):
                continue
            va, vb = value_of(a), value_of(b)
            da, db = partials(va, vb)
            preds = [(o.vertex, p) for o, p in ((a, da), (b, db)) if active(o)]
            if call == "reflected":
                result = getattr(b, f"__r{op}__")(a)
            else:
                result = fn(a, b)
            check_against_reference(ctx, ref, result, fn(va, vb), preds)


@pytest.mark.parametrize("op", sorted(UNARY_OPS))
@pytest.mark.parametrize("mode", [DAG, DCG])
def test_unary_operations_match_record(mode, op):
    fn, value, partial, domain = UNARY_OPS[op]
    for kind in operands(mode)[1]:
        (ctx, operand), (ref, _) = operands(mode), operands(mode)
        x = operand[kind]
        if op == "neg" and not isinstance(x, ActiveScalar):
            continue  # plain negation, not overloaded
        v = value_of(x)
        if domain is not None and not domain(v):
            before = (ctx.tape.q, ctx.tape.s_len, ctx.tape.d_len)
            with pytest.raises(ValueError, match="non-positive value"):
                fn(x)
            assert (ctx.tape.q, ctx.tape.s_len, ctx.tape.d_len) == before
            continue
        preds = [(x.vertex, partial(v))] if active(x) else []
        check_against_reference(ctx, ref, fn(x), value(v), preds)


@pytest.mark.parametrize("op", sorted(BINARY_OPS))
@pytest.mark.parametrize("mode", [DAG, DCG])
def test_binary_operators_reject_two_tapes(mode, op):
    fn = BINARY_OPS[op][0]
    (ca, ka), (cb, kb) = operands(mode), operands(mode)
    for a in (v for v in ka.values() if active(v)):
        for b in (v for v in kb.values() if active(v)):
            for left, right in ((a, b), (b, a)):
                before = [(t.q, t.s_len, t.d_len) for t in (ca.tape, cb.tape)]
                with pytest.raises(TapeError) as exc:
                    fn(left, right)
                assert str(exc.value) == "operands belong to different tapes"
                assert [(t.q, t.s_len, t.d_len) for t in (ca.tape, cb.tape)] == before


# -- one Python frame per overloaded operation -------------------------------

def python_calls(fn):
    """(module, function) of each Python-level call ``fn()`` makes outside
    this file, in order; C functions such as isinstance do not appear.
    The collector is off while profiling, so that a ``gc.callbacks`` hook
    (hypothesis registers one) cannot show up as a call of ``fn``."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename != __file__:
            calls.append((frame.f_globals.get("__name__"), frame.f_code.co_name))

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


#: an operation, called as op(ctx, x, y, lvalue), with its one adtape.scalar
#: function and the tape writer it calls
ONE_FRAME = {
    "x * y": (lambda ctx, x, y, u: x * y, "__mul__", "_record_binary"),
    "2.0 * x": (lambda ctx, x, y, u: 2.0 * x, "__rmul__", "_record_unary"),
    "x + 2.0": (lambda ctx, x, y, u: x + 2.0, "__add__", "_record_unary"),
    "2.0 + x": (lambda ctx, x, y, u: 2.0 + x, "__radd__", "_record_unary"),
    "2.0 - x": (lambda ctx, x, y, u: 2.0 - x, "__rsub__", "_record_unary"),
    "x / y": (lambda ctx, x, y, u: x / y, "__truediv__", "_record_binary"),
    "-x": (lambda ctx, x, y, u: -x, "__neg__", "_record_unary"),
    "exp(x)": (lambda ctx, x, y, u: ops.exp(x), "exp", "_record_unary"),
    "assign": (lambda ctx, x, y, u: ctx.assign(u, x), "assign", "_record_unary"),
}


@pytest.mark.parametrize("mode,op", [
    (mode, op) for mode in (DAG, DCG) for op in sorted(ONE_FRAME)
    if op != "assign" or mode == DCG])  # a DAG assignment records nothing
def test_overloaded_operation_runs_one_python_frame(mode, op):
    # Each frame costs a call and its argument binding per recorded
    # operation.  Running the activity test and the result's slot stores in
    # the operation itself, with no _binary/_unary helper and no
    # ActiveScalar.__init__, made overloading over a stub tape 0.73-0.77x
    # as long on Burgers(16, 200) and LiborMC(rates=10, paths=12), and real
    # recording 0.84-0.87x (CPython 3.11, median of 40 alternating
    # in-process runs, one pinned CPU).
    fn, name, writer = ONE_FRAME[op]
    ctx = Recorder(Tape(mode))
    x, y = ctx.input(1.5), ctx.input(2.0)
    u = ctx.lvalue()
    assert python_calls(lambda: fn(ctx, x, y, u)) == [
        ("adtape.scalar", name), ("adtape.tape", writer)]
