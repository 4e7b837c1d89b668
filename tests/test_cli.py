import json
import math

import pytest

from adtape import cli, interpret, problems, scalar
from adtape.cli import main
from adtape.interpret import gradient_check

GOLDEN_S = "0 0 1 1 1 1 2 2 0 2 3 3 1 4 4 1 5 5 0 2 6"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_run_intro_table(capsys):
    code, out, _ = run_cli(capsys, "run", "--problem", "intro")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # header, rule, three strategies
    flat, band, lval = lines[2:]
    assert "56" in flat and "48" in band and "40" in lval


def test_run_intro_json(capsys):
    code, out, _ = run_cli(capsys, "run", "--problem", "intro",
                           "--format", "json", "--grad-check")
    assert code == 0
    doc = json.loads(out)
    by_strategy = {r["strategy"]: r for r in doc["reports"]}
    assert by_strategy["flat"]["ram_bytes"] == 56
    assert by_strategy["bandwidth"]["ram_bytes"] == 48
    assert by_strategy["lvalue"]["ram_bytes"] == 40
    assert by_strategy["flat"]["grad_check"]["max_rel_err"] < 1e-9


def test_run_single_strategy(capsys):
    code, out, _ = run_cli(capsys, "run", "--problem", "intro",
                           "--strategy", "flat", "--format", "json")
    assert code == 0
    assert [r["strategy"] for r in json.loads(out)["reports"]] == ["flat"]


def test_run_bs_mc_lvalue_ram(capsys):
    code, out, _ = run_cli(capsys, "run", "--problem", "bs_mc", "--paths", "3",
                           "--strategy", "lvalue", "--format", "json")
    assert code == 0
    (rep,) = json.loads(out)["reports"]
    assert rep["ram_bytes"] == 112


def test_verify_intro(capsys):
    code, out, _ = run_cli(capsys, "verify", "--problem", "intro")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS intro") for line in lines)


def test_dump_intro_streams(capsys):
    code, out, _ = run_cli(capsys, "dump", "--problem", "intro")
    assert code == 0
    assert out.splitlines()[0] == "s = " + GOLDEN_S
    assert "0.54" in out


def test_dump_save_and_reload(capsys, tmp_path):
    path = str(tmp_path / "intro.adtp")
    code, first, _ = run_cli(capsys, "dump", "--problem", "intro",
                             "--mode", "dcg", "--save-tape", path)
    assert code == 0
    code, second, _ = run_cli(capsys, "dump", "--tape-file", path)
    assert code == 0
    assert second == first


@pytest.mark.parametrize("option, value", [
    ("--problem", "intro"), ("--mode", "dcg"), ("--length", "9"),
    ("--paths", "3")])
def test_dump_tape_file_refuses_recording_options(capsys, tmp_path, option,
                                                  value):
    path = str(tmp_path / "intro.adtp")
    code, _, _ = run_cli(capsys, "dump", "--problem", "intro",
                         "--save-tape", path)
    assert code == 0
    code, out, err = run_cli(capsys, "dump", "--tape-file", path,
                             option, value)
    assert code == 2 and out == ""
    assert err.startswith("error:") and option in err


def test_dump_tape_file_needs_no_problem(capsys, tmp_path):
    path = str(tmp_path / "intro.adtp")
    code, first, _ = run_cli(capsys, "dump", "--problem", "intro",
                             "--save-tape", path)
    assert code == 0
    code, second, _ = run_cli(capsys, "dump", "--tape-file", path)
    assert code == 0
    assert second == first


def test_dump_without_problem_or_tape_file_fails(capsys):
    code, out, err = run_cli(capsys, "dump")
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert "--problem" in err and "--tape-file" in err


def test_dump_dot_file(capsys, tmp_path):
    path = tmp_path / "g.dot"
    code, _, _ = run_cli(capsys, "dump", "--problem", "intro",
                         "--dot", str(path))
    assert code == 0
    assert path.read_text().startswith("digraph")


def test_dump_missing_tape_file_fails(capsys, tmp_path):
    code, _, err = run_cli(capsys, "dump", "--problem", "intro",
                           "--tape-file", str(tmp_path / "nope.adtp"))
    assert code == 2 and "error:" in err


def test_dump_all_problems_rejected(capsys):
    code, out, err = run_cli(capsys, "dump", "--problem", "all")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'all'" in err


@pytest.mark.parametrize("option", ["--budget-blocks", "--block-entries"])
def test_bad_store_option_exits_2(capsys, option):
    code, out, err = run_cli(capsys, "run", "--problem", "intro", option, "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and option[2:].replace("-", "_") in err


@pytest.mark.parametrize("argv", [
    ("--problem", "intro", "--budget-blocks", "0"),
    ("--problem", "intro", "--block-entries", "0"),
    ("--problem", "intro", "--length", "0"),
    ("--problem", "bs_mc", "--paths", "0"),
    ("--problem", "bs_mc", "--steps", "0"),
    ("--problem", "burgers", "--nx", "0"),
    ("--problem", "libor_mc", "--rates", "0"),
    ("--problem", "libor_mc", "--paths", "0"),
])
def test_explicit_zero_option_rejected(capsys, argv):
    code, out, err = run_cli(capsys, "run", *argv, "--strategy", "flat")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_unstable_grid_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "run", "--problem", "bs_fd",
                           "--grid", "101x10")
    assert code == 2
    assert "unstable" in err


def test_unknown_problem_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--problem", "nonsense"])


def test_bad_grid_argument_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--problem", "bs_fd", "--grid", "fifty"])


def test_bench_intro_budgets(capsys):
    code, out, _ = run_cli(capsys, "bench", "--problem", "intro",
                           "--strategy", "flat", "--format", "json")
    assert code == 0
    names = [r["problem"] for r in json.loads(out)["reports"]]
    assert names == ["intro[budget=inf]", "intro[budget=4]", "intro[budget=1]"]


def test_bench_rejects_budget_blocks(capsys):
    # bench chooses its budgets; a given one would silently change its rows
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--problem", "intro", "--strategy", "flat",
              "--budget-blocks", "2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "--budget-blocks" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--problem", "intro", "--format", "json"),
    ("dump", "--problem", "intro", "--format", "json"),
    ("dump", "--problem", "intro", "--fd-step", "1e-3"),
    ("bench", "--problem", "intro", "--fd-step", "1e-3"),
])
def test_verb_refuses_options_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert argv[-2] in err


@pytest.mark.parametrize("argv", [
    ("run", "--problem", "intro", "--paths", "5"),
    ("run", "--problem", "burgers", "--grid", "3x3"),
    ("verify", "--problem", "bs_fd", "--seed", "3"),
    ("bench", "--problem", "libor_mc", "--steps", "2"),
    ("dump", "--problem", "bs_mc", "--length", "4"),
])
def test_size_option_no_selected_problem_takes_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and argv[-2] in err


def test_problem_all_takes_every_size_option(capsys):
    code, out, _ = run_cli(capsys, "run", "--problem", "all", "--strategy",
                           "lvalue", "--format", "json", "--length", "4",
                           "--paths", "2", "--steps", "2", "--seed", "5",
                           "--grid", "5x50", "--nx", "4", "--nt", "3",
                           "--rates", "5")
    assert code == 0
    inputs = {r["problem"]: r["n"] for r in json.loads(out)["reports"]}
    assert inputs == {"bs_fd": 2, "bs_mc": 3, "burgers": 4, "intro": 1,
                      "libor_mc": 10}


def counted(monkeypatch, name, *modules):
    """Count the calls of function ``name`` through each module binding."""
    calls = []
    real = getattr(modules[0], name)

    def count(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, count)
    return calls


@pytest.mark.parametrize("verb", [("verify",), ("run", "--grad-check")])
@pytest.mark.parametrize("problem", [("intro",), ("bs_mc", "--paths", "2")])
def test_gradient_check_records_sweeps_and_differences_once(
        capsys, monkeypatch, verb, problem):
    records = counted(monkeypatch, "record_problem", scalar, cli)
    sweeps = counted(monkeypatch, "propagate", interpret, cli)
    oracles = counted(monkeypatch, "fd_oracle", problems)
    code, _, _ = run_cli(capsys, *verb, "--problem", *problem)
    assert code == 0
    n = len(problems.PROBLEMS[problem[0]]().default_point())
    assert (len(records), len(sweeps), len(oracles)) == (2, 3, n)


def test_run_grad_check_reports_gradient_check(capsys):
    code, out, _ = run_cli(capsys, "run", "--problem", "bs_mc", "--paths",
                           "2", "--format", "json", "--grad-check")
    assert code == 0
    p = problems.BlackScholesMC(paths=2)
    for r in json.loads(out)["reports"]:
        err = gradient_check(p, fd_step=p.fd_step, strategy=r["strategy"])
        assert r["grad_check"]["max_rel_err"] == err


@pytest.mark.parametrize("strategy", interpret.STRATEGIES)
def test_run_nan_gradient_agrees_with_no_strategy(capsys, monkeypatch,
                                                  strategy):
    real = cli.propagate

    def nan_for_one(tape, seed, swept):
        grad = real(tape, seed, swept)
        return [math.nan] * len(grad) if swept == strategy else grad

    monkeypatch.setattr(cli, "propagate", nan_for_one)
    code, _, err = run_cli(capsys, "run", "--problem", "intro")
    assert code == 2
    assert "disagree on gradient component 0" in err
    assert "nan" in err


def test_run_with_spill_budget(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "--problem", "intro",
                           "--block-entries", "8", "--budget-blocks", "1",
                           "--spill-dir", str(tmp_path), "--format", "json")
    assert code == 0
    assert json.loads(out)["reports"][0]["ram_bytes"] == 56


def test_run_prefetch_matches_plain_reads(capsys, monkeypatch, tmp_path,
                                          fadvise_calls):
    gradients = []
    sweep = cli.propagate

    def recorded_sweep(*args):
        gradients.append(sweep(*args))
        return gradients[-1]

    monkeypatch.setattr(cli, "propagate", recorded_sweep)
    argv = ["run", "--problem", "intro", "--block-entries", "4",
            "--budget-blocks", "1", "--spill-dir", str(tmp_path),
            "--format", "json"]
    runs = []
    for extra in ([], ["--prefetch"]):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        nbytes = [{k: v for k, v in r.items() if k.endswith("_bytes")}
                  for r in json.loads(out)["reports"]]
        runs.append((nbytes, gradients[:], len(fadvise_calls)))
        gradients.clear()
    (plain_bytes, plain_grads, plain_hints), (bytes_, grads, hints) = runs
    assert bytes_ == plain_bytes and all(r["sam_bytes"] for r in bytes_)
    assert grads == plain_grads and len(grads) == 3
    # only the prefetching run hints
    assert plain_hints == 0 and hints > 0


@pytest.mark.parametrize("argv, option, needed", [
    (("run", "--problem", "intro", "--fd-step", "1e-3"),
     "--fd-step", "--grad-check"),
    (("run", "--problem", "intro", "--spill-dir", "spill"),
     "--spill-dir", "--budget-blocks"),
    (("run", "--problem", "intro", "--prefetch"),
     "--prefetch", "--budget-blocks"),
    (("verify", "--problem", "intro", "--spill-dir", "spill"),
     "--spill-dir", "--budget-blocks"),
    (("verify", "--problem", "intro", "--prefetch"),
     "--prefetch", "--budget-blocks"),
    (("dump", "--problem", "intro", "--spill-dir", "spill"),
     "--spill-dir", "--budget-blocks"),
    (("dump", "--problem", "intro", "--prefetch"),
     "--prefetch", "--budget-blocks"),
], ids=["run-fd-step", "run-spill-dir", "run-prefetch", "verify-spill-dir",
        "verify-prefetch", "dump-spill-dir", "dump-prefetch"])
def test_option_without_the_option_it_depends_on_is_refused(
        capsys, tmp_path, monkeypatch, argv, option, needed):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} does not apply") and needed in err
    assert list(tmp_path.iterdir()) == []  # no spill dir was made


def test_dump_tape_file_refuses_spill_options_without_budget(capsys, tmp_path):
    path = str(tmp_path / "intro.adtp")
    assert run_cli(capsys, "dump", "--problem", "intro",
                   "--save-tape", path)[0] == 0
    code, out, err = run_cli(capsys, "dump", "--tape-file", path,
                             "--spill-dir", str(tmp_path / "spill"))
    assert code == 2 and out == ""
    assert err.startswith("error: --spill-dir does not apply")


def test_bench_takes_spill_options(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bench", "--problem", "intro", "--strategy",
                           "flat", "--format", "json", "--prefetch",
                           "--spill-dir", str(tmp_path / "spill"))
    assert code == 0 and len(json.loads(out)["reports"]) == 3
