"""The library calls the benchmark in ``perfbench/`` makes, on a small
spilled tape, so that a library change cannot silently break its traced
run."""

from pathlib import Path

import pytest

from adtape import DAG, DCG, STRATEGIES, record_problem
from adtape.interpret import STRATEGY_MODE
from adtape.problems import IntroExample

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
INTRO_GRAD = 0.4823553972640679


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def test_plain_calls_and_drain_on_spilled_tapes(tmp_path, tracing):
    tapes = {mode: record_problem(IntroExample(), [1.0], mode=mode,
                                  block_entries=4, budget_blocks=1,
                                  spill_dir=str(tmp_path / mode))
             for mode in (DAG, DCG)}
    assert all(t.store_stats()["s"]["bytes_spilled"] > 0 for t in tapes.values())
    assert set(tracing.PLAIN.propagate) == set(STRATEGIES)
    for strategy, propagate in tracing.PLAIN.propagate.items():
        grad = propagate(tapes[STRATEGY_MODE[strategy]], [1.0])
        assert grad == pytest.approx([INTRO_GRAD], abs=1e-15)
    for tape in tapes.values():
        assert all(seconds >= 0.0 for seconds in tracing.drain_tape(tape))
