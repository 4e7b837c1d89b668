import math
from array import array

import pytest

from adtape import (DAG, DCG, FLAT, LVALUE, REMAINDER, STRATEGIES, Tape,
                    TapeError, propagate, record_problem)
from adtape.blockstore import BlockStore, BlockStoreError
from adtape.dot import to_dot
from adtape.interpret import STRATEGY_MODE
from adtape.problems import IntroExample, LiborMC
from adtape.tapefile import load, save

from helpers import (SMALL_PROBLEMS, STORES, copy_tape, reference_bandwidth,
                     reference_parse, zero_arity_tape)

SIN1 = math.sin(1.0)
COS1 = math.cos(1.0)


@pytest.fixture
def intro_dag():
    return record_problem(IntroExample(), [1.0], mode=DAG)


@pytest.fixture
def intro_dcg():
    return record_problem(IntroExample(), [1.0], mode=DCG)


def test_new_tape_empty_state():
    t = Tape(DAG)
    assert t.s_len == 0 and t.d_len == 0 and t.n == 0 and not t.finalized
    t2 = Tape(DCG)
    assert t2.p_l == 0 and t2.stats().beta_r == 0


def test_new_tapes_are_independent():
    a, b = Tape(DAG), Tape(DAG)
    a.register_input()
    assert b.n == 0 and b.s_len == 0


def test_register_input_ids():
    t = Tape(DAG)
    assert [t.register_input() for _ in range(3)] == [0, 1, 2]
    assert t.s_len == 3
    t2 = Tape(DCG)
    assert [t2.register_input() for _ in range(2)] == [-1, -2]


def test_input_after_elemental_rejected():
    t = Tape(DAG)
    t.register_input()
    t.record([(0, 1.0)])
    with pytest.raises(TapeError, match="before the first elemental"):
        t.register_input()


def test_input_after_lvalue_rejected():
    # DCG inputs must be the L-values -1..-n, the slots the gradient is
    # harvested from
    t = Tape(DCG)
    t.declare_lvalue()
    with pytest.raises(TapeError, match="before the first elemental or L-value"):
        t.register_input()


def test_record_appends_operands_count_result():
    t = Tape(DAG)
    t.register_input()
    rid = t.record([(0, COS1)])
    assert rid == 1
    t.register_output(rid)
    t.finalize()
    s, d = t.dump()
    assert s == [0, 0, 1, 1]
    assert d == pytest.approx([COS1])


def test_duplicate_operands_merged():
    t = Tape(DAG)
    t.register_input()
    rid = t.record([(0, 0.75), (0, 0.5)])
    t.register_output(rid)
    t.finalize()
    s, d = t.dump()
    assert s == [0, 0, 1, 1]
    assert d == [1.25]


def test_first_negative_zero_partial_kept():
    t = Tape(DAG)
    t.register_input()
    t.register_input()
    rid = t.record([(0, -0.0), (1, 2.0), (0, -0.0)])
    t.register_output(rid)
    t.finalize()
    s, d = t.dump()
    assert s == [0, 1, 0, 1, 2, 2]
    assert d == [0.0, 2.0] and math.copysign(1.0, d[0]) == -1.0


def test_zero_arity_record():
    t = Tape(DCG)
    t.register_input()
    lv = t.declare_lvalue()
    t.record([], result=lv)
    t.register_output(lv)
    t.finalize()
    s, d = t.dump()
    assert s == [-1, 0, -2]
    assert d == []


def test_unknown_pred_rejected():
    t = Tape(DAG)
    t.register_input()
    with pytest.raises(TapeError, match="unknown vertex"):
        t.record([(5, 1.0)])


def test_non_finite_partial_rejected():
    t = Tape(DAG)
    t.register_input()
    with pytest.raises(TapeError, match="non-finite"):
        t.record([(0, float("nan"))])


def test_merged_partial_that_overflows_rejected():
    # each partial is finite, their sum over the repeated operand is not
    t = Tape(DAG)
    t.register_input()
    with pytest.raises(TapeError, match="non-finite partial inf"):
        t.record([(0, 1e308), (0, 1e308)])
    with pytest.raises(TapeError, match="non-finite partial inf"):
        t._record_binary(0, 1e308, 0, 1e308)
    assert t.q == 0 and t.s_len == 1


@pytest.mark.parametrize("result", [0, 1, -3])
def test_unary_result_must_be_a_declared_lvalue(result):
    t = Tape(DCG)
    x = t.register_input()
    t.declare_lvalue()
    with pytest.raises(TapeError, match="not allowed"):
        t.record([(x, 1.0)], result)
    assert t.q == 0


def test_lvalue_results_rejected_on_dag():
    t = Tape(DAG)
    t.register_input()
    with pytest.raises(TapeError):
        t.record([(0, 1.0)], result=-1)


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_unknown_operand_is_named_before_a_bad_result(mode):
    """A DAG tape checks a record as a DCG tape with no L-values does: an
    unknown operand is named before an integer result that is no declared
    L-value, by ``record``.  A negative id on a DAG tape is an unknown
    vertex, as for an output.  The overloading writers test neither: an
    ``ActiveScalar`` holds only known ids (``test_scalar``)."""
    t = Tape(mode)
    t.register_input()
    kind = "vertex" if mode == DAG else "L-value"
    for vid, message in ((7, "unknown vertex 7"), (-9, f"unknown {kind} -9")):
        for result in (0, 7, -5):
            with pytest.raises(TapeError, match=f"^{message}$"):
                t.record([(vid, 1.0)], result)
        with pytest.raises(TapeError, match=f"^{message}$"):
            t.register_output(vid)
    assert t.q == 0 and not t.outputs


@pytest.mark.parametrize("mode", [DAG, DCG])
@pytest.mark.parametrize("vid", [None, "a", 0.0, -1.0])
def test_non_integer_output_rejected(mode, vid):
    """An output id that is not an integer is a ``TapeError``, not the raw
    ``TypeError`` of a range test, and a float that compares equal to a
    vertex is not taken: it would not save or index an adjoint slot."""
    t = Tape(mode)
    t.register_input()
    t._record_unary(t.inputs[0], 1.0)
    with pytest.raises(TapeError, match=f"^output id {vid!r} is not an "
                                        "integer$"):
        t.register_output(vid)
    assert not t.outputs


def test_remainder_output_rejected_on_dcg():
    t = Tape(DCG)
    t.register_input()
    rid = t.record([(-1, 1.0)])
    assert rid == 0
    with pytest.raises(TapeError, match="L-values"):
        t.register_output(rid)


def test_duplicate_output_rejected():
    t = Tape(DAG)
    t.register_input()
    t.register_output(0)
    with pytest.raises(TapeError, match="already registered"):
        t.register_output(0)


def test_finalize_requires_outputs():
    t = Tape(DAG)
    t.register_input()
    with pytest.raises(TapeError, match="without outputs"):
        t.finalize()


def test_dump_requires_finalize():
    t = Tape(DAG)
    with pytest.raises(TapeError, match="not finalized"):
        t.dump()


def test_record_after_finalize_rejected():
    t = Tape(DAG)
    t.register_input()
    t.register_output(0)
    t.finalize()
    with pytest.raises(TapeError, match="finalized"):
        t.record([(0, 1.0)])


def recording_state(t):
    st = t.stats()
    return (t.q, t.n, st.beta, st.beta_r, t.p_l, t.s_len, t.d_len,
            st.num_vertices, t.edge_count)


#: records every mode rejects, as calls on a tape with inputs x, y and one
#: elemental z (on DCG: L-values x, y and remainder z = 0)
BAD_RECORDS = {
    "float-operand": lambda t, x, y, z: t.record([(x, 1.0), (0.5, 1.0)]),
    "str-operand": lambda t, x, y, z: t.record([("a", 1.0)]),
    "none-operand": lambda t, x, y, z: t.record([(None, 1.0)]),
    "unhashable-operand": lambda t, x, y, z: t.record([([x], 1.0)]),
    "not-a-pair": lambda t, x, y, z: t.record([(x, 1.0), (y, 1.0, 2.0)]),
    "float-binary-operand": lambda t, x, y, z: t.record([(0.5, 1.0), (x, 1.0)]),
    "str-partial": lambda t, x, y, z: t.record([(x, 1.0), (y, "1.0")]),
    "none-partial": lambda t, x, y, z: t._record_binary(x, 1.0, z, None),
    "huge-int-partial": lambda t, x, y, z: t._record_unary(z, 10 ** 400),
    "nan-partial": lambda t, x, y, z: t._record_binary(x, 1.0, y, math.nan),
    "unknown-operand": lambda t, x, y, z: t.record([(x, 1.0), (z + 5, 1.0)]),
    "bad-result": lambda t, x, y, z: t.record([(x, 1.0)], 7),
    "inf-first-partial": lambda t, x, y, z: t._record_binary(x, math.inf, y, 1.0),
    "unknown-first-operand": lambda t, x, y, z: t.record([(z + 5, 1.0), (x, 1.0)]),
    "huge-int-binary-partial": lambda t, x, y, z: t._record_binary(x, 1.0, y, 10 ** 400),
    "float-lvalue-result": lambda t, x, y, z: t.record([(x, 1.0)], -1.0),
    # a repeated operand's partials are added before any other check
    "huge-int-repeated-partial": lambda t, x, y, z: t.record([(x, 10 ** 400),
                                                             (x, 1.0)]),
    "huge-int-repeated-binary-partial": (
        lambda t, x, y, z: t._record_binary(x, 10 ** 400, x, 1.0)),
    "none-repeated-binary-partial": (
        lambda t, x, y, z: t._record_binary(x, None, x, 1.0)),
}


@pytest.mark.parametrize("mode", [DAG, DCG])
@pytest.mark.parametrize("bad", sorted(BAD_RECORDS))
def test_rejected_record_leaves_the_tape_unchanged(mode, bad):
    # 3-entry blocks: the rejected record would cross a block boundary
    def recorded(reject):
        t = Tape(mode, block_entries=3)
        x, y = t.register_input(), t.register_input()
        z = t._record_binary(x, 0.5, y, 2.0)
        if reject:
            before = recording_state(t)
            with pytest.raises(TapeError):
                BAD_RECORDS[bad](t, x, y, z)
            assert recording_state(t) == before
        # the next record is numbered and laid out as if nothing happened
        w = t._record_binary(z, 1.5, x, -1.0)
        if mode == DCG:
            t._record_unary(w, 1.0, x)
        t.register_output(w if mode == DAG else x)
        t.finalize()
        return t

    t, clean = recorded(True), recorded(False)
    assert t.dump() == clean.dump() and t.stats() == clean.stats()


#: partials of the differential test: valid, non-finite and of the wrong type
DIFFERENTIAL_PARTIALS = [1.5, -0.0, 3, 1e308, math.inf, -math.inf, math.nan,
                         10 ** 400, "1.0", None]
#: partial pairs of a binary record: each partial beside a valid one, in
#: either position, and some pairs of two bad ones
DIFFERENTIAL_PARTIAL_PAIRS = (
    [(p, 1.5) for p in DIFFERENTIAL_PARTIALS]
    + [(1.5, p) for p in DIFFERENTIAL_PARTIALS]
    + [(math.nan, math.inf), ("1.0", None), (10 ** 400, math.nan),
       (math.inf, 10 ** 400), (None, math.nan)])


def differential_cases(x, y, z, lvalues):
    """(operand, partial) pairs and result of arity-1 and arity-2 records
    on a tape with inputs x, y and the elemental z, as overloading makes
    them: known operands, and a fresh result or one of ``lvalues``.  The
    partials are valid, non-finite and of the wrong type.  A repeated
    operand takes every pair of partials, since both writers add the two
    before any other check."""
    operands = [x, y, z]
    every_pair = [(da, db) for da in DIFFERENTIAL_PARTIALS
                  for db in DIFFERENTIAL_PARTIALS]
    for a in operands:
        for da in DIFFERENTIAL_PARTIALS:
            for result in (None, *lvalues):
                yield [(a, da)], result
        for b in operands:
            pairs = every_pair if a == b else DIFFERENTIAL_PARTIAL_PAIRS
            for da, db in pairs:
                yield [(a, da), (b, db)], None


def outcome(write):
    try:
        return write()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("block_entries", [3, 256])
@pytest.mark.parametrize("mode", [DAG, DCG])
def test_straight_line_writers_match_record(mode, block_entries):
    """``_record_unary`` and ``_record_binary`` give exactly what ``record``
    gives for the same arity-1 or arity-2 record of known operands, valid
    or rejected for its partials: the same result or exception, and the
    same streams, counters and store statistics after it and after one
    more record.  Up to two records before the tested one move it across
    3-entry block boundaries.  Unknown operands and results are ``record``'s
    alone (``BAD_RECORDS``)."""
    def tape_and_ids(prefix):
        t = Tape(mode, block_entries=block_entries)
        x, y = t.register_input(), t.register_input()
        z = t._record_binary(x, 0.5, y, 2.0)
        for _ in range(prefix):
            z = t._record_binary(z, 1.25, x, -0.5)
        return t, (x, y, z)

    def straight(t, preds, result):
        if len(preds) == 1:
            return t._record_unary(*preds[0], result)
        return t._record_binary(*preds[0], *preds[1])

    def generic(t, preds, result):
        return t.record(preds, REMAINDER if result is None else result)

    def state(t):
        return (recording_state(t), t.store_stats(), t.stats())

    _, ids = tape_and_ids(0)
    lvalues = ids[:2] if mode == DCG else ()
    for i, (preds, result) in enumerate(differential_cases(*ids, lvalues)):
        tapes, seen = [], []
        for write in (straight, generic):
            t, (x, y, z) = tape_and_ids(i % 3)
            seen.append((outcome(lambda: write(t, preds, result)), state(t)))
            rid = t.record([(z, 1.5), (x, -1.0)])
            t.register_output(rid if mode == DAG else x)
            t.finalize()
            tapes.append(t)
        case = (preds, result)
        assert seen[0] == seen[1], case
        (s0, d0), (s1, d1) = (t.dump() for t in tapes)
        assert s0 == s1, case
        assert array("d", d0).tobytes() == array("d", d1).tobytes(), case
        assert state(tapes[0]) == state(tapes[1]), case


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_overloading_never_takes_the_generic_loop(monkeypatch, mode):
    def refuse(*args):
        raise AssertionError("overloading called Tape.record")

    monkeypatch.setattr(Tape, "record", refuse)
    problem = SMALL_PROBLEMS["burgers"]()
    tape = record_problem(problem, problem.default_point(), mode=mode)
    assert tape.q > 0


def test_failed_finalize_leaves_no_record_path(tmp_path, monkeypatch):
    # 4-entry blocks, one resident: sealing d pushes its 1-entry tail and
    # must spill the full block before it, which fails here
    t = Tape(DAG, block_entries=4, budget_blocks=1, spill_dir=str(tmp_path))
    v = t.register_input()
    for _ in range(5):
        v = t._record_unary(v, 2.0)
    t.register_output(v)

    def boom(index):
        raise BlockStoreError(f"d: spill of block {index} failed")

    monkeypatch.setattr(t._d, "_spill", boom)
    with pytest.raises(BlockStoreError, match="spill of block 0"):
        t.finalize()
    for write in (lambda: t._record_unary(v, 1.0), lambda: t.record([]),
                  lambda: t._record_binary(0, 1.0, v, 1.0), t.register_input):
        with pytest.raises(TapeError, match="tape is finalized"):
            write()
    # s sealed with its blocks intact, d kept its unspilled block resident
    assert t.dump() == ([0, 0, 1, 1, 1, 1, 2, 2, 1, 3, 3, 1, 4, 4, 1, 5],
                        [2.0] * 5)


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_recording_enters_the_store_once_per_block(monkeypatch, mode):
    """Records go straight into the open blocks; a store is entered to push
    a full block and, through ``append``, for an input registration."""
    calls = {"append": 0, "push_full": 0}

    def counted(name):
        method = getattr(BlockStore, name)

        def call(store, *args):
            calls[name] += 1
            return method(store, *args)
        return call

    for name in calls:
        monkeypatch.setattr(BlockStore, name, counted(name))
    problem = LiborMC(rates=5, maturity=2, paths=3)
    tape = record_problem(problem, problem.default_point(), mode=mode,
                          block_entries=64)
    s, d = tape._s, tape._d
    assert calls["append"] == tape.n
    # every record is shorter than a block, so each push pushes one; seal
    # pushes the last, partly filled, block of each stream
    assert calls["push_full"] == sum(store.blocks_written - (len(store) % 64 > 0)
                                     for store in (s, d)) > 0
    assert calls["append"] + calls["push_full"] < tape.q / 5


# -- golden values from the worked single-input chain -----------------------

GOLDEN_S_DAG = [0, 0, 1, 1, 1, 1, 2, 2, 0, 2, 3, 3, 1, 4, 4, 1, 5, 5, 0, 2, 6]
GOLDEN_D_DAG = [0.54, 1.68, 1.0, 1.0, -0.14, 1.98, 1.0, 1.0]
GOLDEN_D_DCG = [0.54, 1.0, 1.68, 1.0, 1.0, 1.0, -0.14, 1.0, 1.98, 1.0, 1.0, 1.0]


def test_intro_dag_golden_streams(intro_dag):
    s, d = intro_dag.dump()
    assert s == GOLDEN_S_DAG
    assert [round(x, 2) for x in d] == GOLDEN_D_DAG


def test_intro_dag_stats(intro_dag):
    st = intro_dag.stats()
    assert (st.num_vertices, st.num_edges) == (7, 8)
    assert (st.s_len, st.d_len) == (21, 8)
    assert st.beta == 6


def test_intro_dcg_golden(intro_dcg):
    st = intro_dcg.stats()
    assert st.p_l == 4 and st.beta_r == 1
    assert st.d_len == 12 and st.s_len == 33
    _, d = intro_dcg.dump()
    assert [round(x, 2) for x in d] == GOLDEN_D_DCG


def test_intro_dcg_visit_sequence(intro_dcg):
    assert intro_dcg.visit_sequence() == [
        -4, 5, -1, 4, -2, 3, -3, 2, -1, 1, -2, 0, -1]


def test_single_copy_dcg_tape():
    t = Tape(DCG)
    x = t.register_input()
    y = t.declare_lvalue()
    t.record([(x, 1.0)], result=y)
    t.register_output(y)
    st = t.finalize()
    assert st.p_l == 2 and st.beta_r == 0 and st.num_remainder == 0


def test_stream_length_identity(intro_dag, intro_dcg):
    for tape in (intro_dag, intro_dcg):
        st = tape.stats()
        _, records = reference_parse(*tape.dump(), st.num_inputs,
                                     st.num_elementals)
        assert st.s_len == st.num_inputs + sum(len(p) + 2 for p, _, _ in records)
        assert st.d_len == sum(len(p) for p, _, _ in records)
    # the DAG identity in terms of graph sizes
    st = intro_dag.stats()
    assert st.s_len == 2 * st.num_vertices - st.num_inputs + st.num_edges
    assert st.d_len == st.num_edges


def test_reverse_parse_round_trip(intro_dag):
    s, d = intro_dag.dump()
    st = intro_dag.stats()
    inputs, records = reference_parse(s, d, st.num_inputs, st.num_elementals)
    rebuilt_s, rebuilt_d = list(inputs), []
    for preds, partials, result in records:
        rebuilt_s += preds + [len(preds), result]
        rebuilt_d += partials
    assert rebuilt_s == s and rebuilt_d == d


def test_beta_matches_independent_pass(intro_dag, intro_dcg):
    st = intro_dag.stats()
    assert st.beta == reference_bandwidth(*intro_dag.dump(), st.num_inputs,
                                          st.num_elementals)
    st = intro_dcg.stats()
    assert st.beta_r == reference_bandwidth(*intro_dcg.dump(), st.num_inputs,
                                            st.num_elementals,
                                            remainder_only=True)


@pytest.mark.parametrize("trailing", [False, True],
                         ids=["mid-tape", "after-the-last-remainder"])
def test_copy_into_an_lvalue_widens_beta_r(trailing):
    """A copy of temporary t into L-value y keeps t live until the next
    remainder id, so u, recorded after t, must not share its slot."""
    tape = copy_tape(DCG, trailing)
    st = tape.stats()
    assert st.beta_r == 2 == reference_bandwidth(
        *tape.dump(), st.num_inputs, st.num_elementals, remainder_only=True)
    expected = [2.0] if trailing else [12.0]
    assert propagate(copy_tape(DAG, trailing), [1.0], FLAT) == expected
    assert propagate(tape, [1.0], LVALUE) == expected


def test_dag_results_dominate_preds(intro_dag):
    st = intro_dag.stats()
    _, records = reference_parse(*intro_dag.dump(), st.num_inputs,
                                 st.num_elementals)
    for preds, _, result in records:
        assert all(result > p for p in preds)


def test_parse_matches_reference(intro_dcg):
    st = intro_dcg.stats()
    inputs, records = reference_parse(*intro_dcg.dump(), st.num_inputs,
                                      st.num_elementals)
    own_inputs, own = intro_dcg.parse()
    assert own_inputs == inputs
    assert [(list(p for p, _ in e.preds), e.result) for e in own] == \
        [(p, r) for p, _, r in records]


@pytest.mark.parametrize("store", ["inmem", "tiny"])
@pytest.mark.parametrize("source", ["zero_arity", "burgers"])
@pytest.mark.parametrize("mode", [DAG, DCG])
def test_reverse_streams_read_the_documented_layout(mode, source, store):
    """Read through the two iterators as ``reverse_streams`` documents,
    ``q`` records leave exactly the ``n`` input ids in ``s``, newest first,
    and nothing in ``d``.  ``zero_arity`` tapes hold a zero-arity and a
    ternary record; ``tiny`` blocks cut records across blocks."""
    if source == "zero_arity":
        tape = zero_arity_tape(mode, **STORES[store])
    else:
        problem = SMALL_PROBLEMS[source]()
        tape = record_problem(problem, problem.default_point(), mode=mode,
                              **STORES[store])
    _, records = reference_parse(*tape.dump(), tape.n, tape.q)
    s, d = tape.reverse_streams()
    parsed = []
    for _ in range(tape.q):
        result = next(s)
        count = next(s)
        parsed.append((result, [(next(s), next(d)) for _ in range(count)]))
    assert parsed == [(result, list(zip(preds[::-1], partials[::-1])))
                      for preds, partials, result in reversed(records)]
    assert list(s) == list(reversed(tape.inputs))
    assert next(d, None) is None


@pytest.mark.parametrize("mode", [DAG, DCG])
def test_tape_without_elementals(tmp_path, mode):
    t = Tape(mode)
    inputs = [t.register_input() for _ in range(2)]
    t.register_output(inputs[1])
    t.finalize()
    for strategy in STRATEGIES:
        if STRATEGY_MODE[strategy] == mode:
            assert propagate(t, [2.5], strategy) == [0.0, 2.5]
    assert t.parse() == (inputs, [])
    assert t.visit_sequence() == inputs[::-1]
    assert f'"{inputs[1]}" [shape=box' in to_dot(t)
    save(t, str(tmp_path / "t.adtp"))
    back = load(str(tmp_path / "t.adtp"))
    assert back.dump() == t.dump() and back.outputs == t.outputs
