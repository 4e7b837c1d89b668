"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; without ``-s`` pytest shows them for failing criteria only.
"""

import functools
import time

import pytest

from adtape import (
    BANDWIDTH,
    DAG,
    DCG,
    FLAT,
    LVALUE,
    SlotCollisionError,
    Tape,
    propagate,
    propagate_bandwidth,
    propagate_flat,
    propagate_lvalue,
    record_problem,
)
from adtape.interpret import STRATEGIES, STRATEGY_MODE, adjoint_slot_count, gradient_check
from adtape.metrics import account
from adtape.problems import (
    BlackScholesFD,
    BlackScholesMC,
    Burgers,
    IntroExample,
    LiborMC,
    evolution_coefficients,
    fd_oracle,
    record_evolution,
)
from adtape.rng import Xorshift

from helpers import RandomProgram, random_dag_tape, reference_parse

INTRO_GRAD = 0.4823553972640679

DESK = {
    "intro": IntroExample(),
    "bs_mc": BlackScholesMC(paths=100),
    "bs_fd": BlackScholesFD(ns=21, nt=200),
    "burgers": Burgers(nx=10, nt=20),
    "libor_mc": LiborMC(rates=5, maturity=2, paths=50),
}


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL  {label}")
                raise
            print(f"criterion {num:2d} PASS  {label}")
        return wrapper
    return deco


@criterion(1, "golden DAG tape for the worked example")
def test_criterion_01_golden_dag():
    t0 = time.perf_counter()
    tape = record_problem(IntroExample(), [1.0], mode=DAG)
    s, d = tape.dump()
    assert s == [0, 0, 1, 1, 1, 1, 2, 2, 0, 2, 3, 3, 1, 4, 4, 1, 5, 5, 0, 2, 6]
    assert [round(x, 2) for x in d] == [0.54, 1.68, 1.0, 1.0, -0.14, 1.98, 1.0, 1.0]
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "golden DCG tape, slots and visit sequence")
def test_criterion_02_golden_dcg():
    tape = record_problem(IntroExample(), [1.0], mode=DCG)
    st = tape.stats()
    assert st.p_l == 4 and st.beta_r == 1
    assert adjoint_slot_count(st, LVALUE) == 5
    # merged duplicate operands shorten s to 33; d carries the 12 partials
    assert st.s_len == 33 and st.d_len == 12
    _, d = tape.dump()
    assert [round(x, 2) for x in d] == [0.54, 1.0, 1.68, 1.0, 1.0, 1.0,
                                       -0.14, 1.0, 1.98, 1.0, 1.0, 1.0]
    assert tape.visit_sequence() == [-4, 5, -1, 4, -2, 3, -3, 2, -1, 1, -2, 0, -1]


@criterion(3, "all strategies agree on the worked-example gradient")
def test_criterion_03_gradient_value():
    p = IntroExample()
    dag = record_problem(p, [1.0], mode=DAG)
    dcg = record_problem(p, [1.0], mode=DCG)
    flat = propagate_flat(dag, [1.0])
    band = propagate_bandwidth(dag, [1.0])
    lval = propagate_lvalue(dcg, [1.0])
    assert flat == band  # bitwise: same tape, same arithmetic order
    assert flat == pytest.approx([INTRO_GRAD], abs=1e-15)
    assert lval == pytest.approx([INTRO_GRAD], rel=1e-12)
    fd = fd_oracle(p, [1.0], [1.0], 1e-6)
    assert abs(flat[0] - fd) / abs(flat[0]) < 1e-9


@criterion(4, "RAM bytes 56 / 48 / 40 on the worked example")
def test_criterion_04_ram_laws():
    dag = record_problem(IntroExample(), [1.0], mode=DAG).stats()
    dcg = record_problem(IntroExample(), [1.0], mode=DCG).stats()
    assert dag.num_vertices == 7 and dag.beta == 6
    assert account(dag, FLAT)[0] == 56
    assert account(dag, BANDWIDTH)[0] == 48
    assert account(dcg, LVALUE)[0] == 40


@criterion(5, "Monte Carlo RAM fixed at 112 bytes, path independent")
def test_criterion_05_bs_mc_ram():
    st3 = record_problem(BlackScholesMC(paths=3),
                         BlackScholesMC(paths=3).default_point(),
                         mode=DCG).stats()
    assert st3.p_l == 10
    assert account(st3, LVALUE)[0] == 112

    def lvalue_ram(paths, mode=DCG, strategy=LVALUE):
        p = BlackScholesMC(paths=paths)
        st = record_problem(p, p.default_point(), mode=mode).stats()
        return account(st, strategy)[0]

    t0 = time.perf_counter()
    assert lvalue_ram(10) == lvalue_ram(10 ** 4) == 112
    assert time.perf_counter() - t0 < 30.0

    flat_ram = {p: lvalue_ram(p, mode=DAG, strategy=FLAT)
                for p in (10, 100, 1000)}
    slope_small = (flat_ram[100] - flat_ram[10]) / 90.0
    slope_large = (flat_ram[1000] - flat_ram[100]) / 900.0
    assert abs(slope_large - slope_small) <= 0.2 * slope_small


@criterion(6, "strategy ordering and the DCG stream overhead band")
def test_criterion_06_strategy_ordering():
    for name, p in DESK.items():
        x = p.default_point()
        dag = record_problem(p, x, mode=DAG).stats()
        dcg = record_problem(p, x, mode=DCG).stats()
        ram_flat, sam_dag = account(dag, FLAT)
        ram_band = account(dag, BANDWIDTH)[0]
        ram_lval, sam_dcg = account(dcg, LVALUE)
        assert ram_lval <= ram_band <= ram_flat, name
        assert sam_dcg > sam_dag, name
        if name == "bs_mc":
            overhead = sam_dcg / sam_dag - 1.0
            assert 0.05 <= overhead <= 0.35


@criterion(7, "finite-difference verification of every case study")
def test_criterion_07_fd_verification():
    t0 = time.perf_counter()
    cases = [IntroExample(), BlackScholesMC(), BlackScholesFD(),
             Burgers(), LiborMC()]
    for p in cases:
        x = p.default_point()
        tapes = {mode: record_problem(p, x, mode=mode) for mode in (DAG, DCG)}
        for strategy in STRATEGIES:
            err = gradient_check(p, x=x, fd_step=p.fd_step, strategy=strategy,
                                 tape=tapes[STRATEGY_MODE[strategy]])
            assert err < p.fd_tolerance, (p.name, strategy, err)
    assert time.perf_counter() - t0 < 120.0


@criterion(8, "bandwidth of iterated evolutions bounded by 2n")
def test_criterion_08_evolution_bound():
    for n in (2, 4, 8):
        coeffs = evolution_coefficients(n)
        x = [0.1 * (i + 1) for i in range(n)]
        for length in (1, 10, 100):
            st = record_evolution(x, coeffs, length).stats()
            assert st.beta <= 2 * n, (n, length, st.beta)


@criterion(9, "spilled sweeps are bitwise identical and budget bounded")
def test_criterion_09_out_of_core(tmp_path):
    block_entries = 512
    slow_total = {1: 0.0, 4: 0.0}
    fast_total = 0.0
    for name, p in DESK.items():
        x = p.default_point()
        plain = record_problem(p, x, mode=DAG)
        t0 = time.perf_counter()
        base = propagate_flat(plain, [1.0])
        fast_total += time.perf_counter() - t0
        for budget in (1, 4):
            spill = tmp_path / f"{name}-{budget}"
            spill.mkdir()
            tape = record_problem(p, x, mode=DAG, block_entries=block_entries,
                                  budget_blocks=budget, spill_dir=str(spill))
            t0 = time.perf_counter()
            grad = propagate_flat(tape, [1.0])
            slow_total[budget] += time.perf_counter() - t0
            assert grad == base, (name, budget)
            bound = (budget + 2) * block_entries * 8
            for stream in tape.store_stats().values():
                assert stream["peak_resident_bytes"] <= bound, (name, budget)
    # timer floor keeps sub-millisecond sweeps from dominating the ratio
    assert slow_total[1] <= 5.0 * max(fast_total, 0.05)


@criterion(10, "randomized property suite over tapes and programs")
def test_criterion_10_property_suite():
    rng = Xorshift(2024)
    for _ in range(1000):
        tape = random_dag_tape(rng)
        st = tape.stats()
        s, d = tape.dump()
        inputs, records = reference_parse(s, d, st.num_inputs, st.num_elementals)
        rebuilt_s, rebuilt_d = list(inputs), []
        for preds, partials, result in records:
            rebuilt_s += preds + [len(preds), result]
            rebuilt_d += partials
        assert rebuilt_s == s and rebuilt_d == d

    for seed in range(20):
        tape = random_dag_tape(Xorshift(seed))
        one = propagate_flat(tape, [1.0])
        pi = propagate_flat(tape, [3.25])
        assert all(abs(a * 3.25 - b) <= 1e-12 * max(1.0, abs(b))
                   for a, b in zip(one, pi))
        _, slots = propagate_flat(tape, [1.0], return_slots=True)
        assert slots[tape.n:] == [0.0] * (len(slots) - tape.n)

    for seed in range(100):
        prog = RandomProgram(seed)
        x = prog.default_point()
        dag = record_problem(prog, x, mode=DAG)
        dcg = record_problem(prog, x, mode=DCG)
        grads = [propagate(dag, [1.0], FLAT), propagate(dag, [1.0], BANDWIDTH),
                 propagate(dcg, [1.0], LVALUE)]
        for other in grads[1:]:
            assert all(abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
                       for a, b in zip(grads[0], other))

    t = Tape(DAG)
    ids = [t.register_input()]
    for _ in range(4):
        ids.append(t.record([(ids[-1], 1.0)]))
    t.register_output(ids[1])
    t.register_output(ids[4])
    t.finalize()
    with pytest.raises(SlotCollisionError):
        propagate_bandwidth(t, [1.0, 1.0])
