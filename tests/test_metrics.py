import json

import pytest

from adtape import BANDWIDTH, DAG, DCG, FLAT, LVALUE, record_problem
from adtape.metrics import (
    REPORT_VERSION,
    account,
    build_report,
    emit_json,
    emit_report,
    emit_table,
)
from adtape.problems import IntroExample


@pytest.fixture
def intro_dag_stats():
    return record_problem(IntroExample(), [1.0], mode=DAG).stats()


@pytest.fixture
def intro_dcg_stats():
    return record_problem(IntroExample(), [1.0], mode=DCG).stats()


def test_intro_ram_bytes(intro_dag_stats, intro_dcg_stats):
    assert account(intro_dag_stats, FLAT)[0] == 56
    assert account(intro_dag_stats, BANDWIDTH)[0] == 48
    assert account(intro_dcg_stats, LVALUE)[0] == 40


def test_intro_sam_bytes(intro_dag_stats, intro_dcg_stats):
    # 8 bytes per structure entry plus 8 per partial
    assert account(intro_dag_stats, FLAT)[1] == (21 + 8) * 8
    assert account(intro_dag_stats, BANDWIDTH)[1] == (21 + 8) * 8
    assert account(intro_dcg_stats, LVALUE)[1] == (33 + 12) * 8


def test_build_report_fields(intro_dag_stats):
    rep = build_report("intro", FLAT, intro_dag_stats,
                       record_seconds=0.25, sweep_seconds=0.125)
    assert (rep.problem, rep.strategy) == ("intro", "flat")
    assert (rep.n, rep.m, rep.vertices, rep.edges) == (1, 1, 7, 8)
    assert (rep.ram_bytes, rep.sam_bytes) == (56, 232)
    assert rep.record_seconds == 0.25 and rep.sweep_seconds == 0.125


def test_json_omits_absent_grad_check(intro_dag_stats):
    doc = json.loads(emit_json([build_report("intro", FLAT, intro_dag_stats)]))
    assert doc["version"] == REPORT_VERSION
    (entry,) = doc["reports"]
    assert "grad_check" not in entry
    assert entry["ram_bytes"] == 56
    assert list(entry) == ["problem", "strategy", "n", "m", "vertices",
                           "edges", "p_l", "beta", "beta_r", "ram_bytes",
                           "sam_bytes", "record_seconds", "sweep_seconds"]


def test_json_includes_grad_check(intro_dag_stats):
    rep = build_report("intro", FLAT, intro_dag_stats,
                       grad_check_max_rel_err=3e-10, fd_step=1e-6)
    (entry,) = json.loads(emit_json([rep]))["reports"]
    assert entry["grad_check"] == {"max_rel_err": 3e-10, "fd_step": 1e-6}
    assert list(entry)[-1] == "grad_check"


def test_table_layout(intro_dag_stats, intro_dcg_stats):
    reps = [build_report("intro", FLAT, intro_dag_stats),
            build_report("intro", LVALUE, intro_dcg_stats)]
    lines = emit_table(reps).splitlines()
    assert len(lines) == 4
    assert lines[0].split()[:2] == ["problem", "strategy"]
    assert "56" in lines[2] and "40" in lines[3]


def test_emit_report_dispatch(intro_dag_stats):
    reps = [build_report("intro", FLAT, intro_dag_stats)]
    assert emit_report(reps, "table") == emit_table(reps)
    assert emit_report(reps, "json") == emit_json(reps)
    with pytest.raises(ValueError, match="format"):
        emit_report(reps, "yaml")


def test_empty_report_list_rejected():
    with pytest.raises(ValueError):
        emit_table([])
    with pytest.raises(ValueError):
        emit_json([])
