"""Command-line entry point: record, differentiate, verify, dump, benchmark."""

from __future__ import annotations

import argparse
import sys
import time

from . import metrics, problems, tapefile
from .blockstore import BlockStoreError
from .dot import to_dot
from .interpret import (BANDWIDTH, FLAT, LVALUE, STRATEGIES, STRATEGY_MODE,
                        gradient_check, propagate)
from .problems import PROBLEMS, StabilityError, fd_oracle
from .scalar import record_problem
from .tape import DAG, DCG, TapeError

CROSS_CHECK_RTOL = 1e-12


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _grid(text: str) -> tuple[int, int]:
    try:
        ns, nt = text.lower().split("x")
        return int(ns), int(nt)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NSxNT, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adtape",
        description="Gradient-tape reverse-mode differentiation benchmarks")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, with_strategy=True):
        p.add_argument("--problem", required=True,
                       choices=sorted(PROBLEMS) + ["all"])
        if with_strategy:
            p.add_argument("--strategy", default="all",
                           choices=list(STRATEGIES) + ["all"])
        p.add_argument("--paths", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--grid", type=_grid, metavar="NSxNT")
        p.add_argument("--nx", type=int)
        p.add_argument("--nt", type=int)
        p.add_argument("--rates", type=int)
        p.add_argument("--length", type=int, help="intro chain length")
        p.add_argument("--seed", type=int)
        p.add_argument("--fd-step", type=_positive_float)
        p.add_argument("--block-entries", type=int)
        p.add_argument("--budget-blocks", type=int)
        p.add_argument("--prefetch", action="store_true",
                       help="while sweeping, ask the kernel to read each "
                            "next-older spilled block ahead")
        p.add_argument("--spill-dir")
        p.add_argument("--format", default="table", choices=["table", "json"])

    run = sub.add_parser("run", help="record, sweep and report memory figures")
    add_common(run)
    run.add_argument("--grad-check", action="store_true",
                     help="also run the finite-difference check")

    verify = sub.add_parser("verify", help="finite-difference gradient check")
    add_common(verify, with_strategy=False)

    dump = sub.add_parser("dump", help="print the recorded streams")
    add_common(dump, with_strategy=False)
    dump.add_argument("--mode", default=DAG, choices=[DAG, DCG])
    dump.add_argument("--dot", metavar="FILE",
                      help="write a DOT rendering ('-' for stdout)")
    dump.add_argument("--save-tape", metavar="FILE",
                      help="write the binary tape file")
    dump.add_argument("--tape-file", metavar="FILE",
                      help="dump a previously saved tape instead of recording")

    bench = sub.add_parser("bench",
                           help="compare strategies and spill budgets")
    add_common(bench)
    return parser


def make_problem(args, name: str) -> problems.Problem:
    """Problem ``name`` at the sizes given on the command line."""
    kwargs = {}
    if name == "intro":
        if args.length is not None:
            kwargs["length"] = args.length
    elif name == "bs_mc":
        if args.paths is not None:
            kwargs["paths"] = args.paths
        if args.steps is not None:
            kwargs["steps"] = args.steps
        if args.seed is not None:
            kwargs["seed"] = args.seed
    elif name == "bs_fd":
        if args.grid is not None:
            kwargs["ns"], kwargs["nt"] = args.grid
    elif name == "burgers":
        if args.nx is not None:
            kwargs["nx"] = args.nx
        if args.nt is not None:
            kwargs["nt"] = args.nt
    elif name == "libor_mc":
        if args.rates is not None:
            kwargs["rates"] = args.rates
        if args.paths is not None:
            kwargs["paths"] = args.paths
        if args.seed is not None:
            kwargs["seed"] = args.seed
    return PROBLEMS[name](**kwargs)


def store_config(args) -> dict:
    cfg = {}
    if args.block_entries is not None:
        cfg["block_entries"] = args.block_entries
    if args.budget_blocks is not None:
        cfg["budget_blocks"] = args.budget_blocks
    if args.spill_dir:
        cfg["spill_dir"] = args.spill_dir
    if getattr(args, "prefetch", False):
        cfg["prefetch"] = True
    return cfg


def _problem_names(args) -> list[str]:
    return sorted(PROBLEMS) if args.problem == "all" else [args.problem]


def _strategies(args) -> list[str]:
    strategy = getattr(args, "strategy", "all") or "all"
    return list(STRATEGIES) if strategy == "all" else [strategy]


def run_strategies(problem, strategies, cfg, grad_check=False, fd_step=None):
    """Record one tape per needed mode, sweep each strategy, cross-check."""
    reports, grads = [], {}
    tapes = {}
    for strategy in strategies:
        mode = STRATEGY_MODE[strategy]
        if mode not in tapes:
            t0 = time.perf_counter()
            tapes[mode] = (record_problem(problem, problem.default_point(),
                                          mode=mode, **cfg),
                           time.perf_counter() - t0)
        tape, record_seconds = tapes[mode]
        seed = [1.0] * tape.m
        t0 = time.perf_counter()
        grads[strategy] = propagate(tape, seed, strategy)
        sweep_seconds = time.perf_counter() - t0
        err = None
        step = fd_step or problem.fd_step
        if grad_check:
            err = gradient_check(problem, strategy=strategy, tape=tape,
                                 fd_step=step)
        reports.append(metrics.build_report(
            problem.name, strategy, tape.stats(),
            record_seconds=record_seconds, sweep_seconds=sweep_seconds,
            grad_check_max_rel_err=err, fd_step=step if err is not None else None))
    _cross_check(problem.name, grads)
    return reports, grads


def _cross_check(name, grads):
    items = list(grads.items())
    for (sa, ga), (sb, gb) in zip(items, items[1:]):
        for i, (a, b) in enumerate(zip(ga, gb)):
            if abs(a - b) > CROSS_CHECK_RTOL * max(1.0, abs(a), abs(b)):
                raise TapeError(
                    f"{name}: strategies {sa} and {sb} disagree on "
                    f"gradient component {i}: {a} vs {b}")


def cmd_run(args) -> int:
    reports = []
    for name in _problem_names(args):
        problem = make_problem(args, name)
        rs, _ = run_strategies(problem, _strategies(args), store_config(args),
                               grad_check=args.grad_check,
                               fd_step=args.fd_step)
        reports.extend(rs)
    print(metrics.emit_report(reports, args.format))
    return 0


def cmd_verify(args) -> int:
    failed = False
    for name in _problem_names(args):
        problem = make_problem(args, name)
        step = args.fd_step or problem.fd_step
        for strategy in STRATEGIES:
            err = gradient_check(problem, strategy=strategy, fd_step=step,
                                 **store_config(args))
            ok = err <= problem.fd_tolerance
            failed |= not ok
            print(f"{'PASS' if ok else 'FAIL'} {name} {strategy}: "
                  f"max err {err:.3e} (tolerance {problem.fd_tolerance:.0e}, "
                  f"h={step:.0e})")
    return 1 if failed else 0


def cmd_dump(args) -> int:
    if args.tape_file:
        tape = tapefile.load(args.tape_file, **store_config(args))
    else:
        if args.problem == "all":
            raise ValueError("dump records one problem, not 'all'")
        problem = make_problem(args, args.problem)
        tape = record_problem(problem, problem.default_point(),
                              mode=args.mode, **store_config(args))
    s, d = tape.dump()
    print("s =", " ".join(str(v) for v in s))
    print("d =", " ".join(repr(v) for v in d))
    print("d (2dp) =", " ".join(f"{v:.2f}" for v in d))
    if args.save_tape:
        tapefile.save(tape, args.save_tape)
    if args.dot:
        text = to_dot(tape)
        if args.dot == "-":
            print(text)
        else:
            with open(args.dot, "w") as fh:
                fh.write(text + "\n")
    return 0


def cmd_bench(args) -> int:
    if args.budget_blocks is not None:
        raise ValueError("bench sweeps its own budgets (inf, 4, 1); "
                         "drop --budget-blocks")
    reports = []
    for name in _problem_names(args):
        problem = make_problem(args, name)
        for budget in (None, 4, 1):
            cfg = store_config(args)
            if budget is not None:
                cfg["budget_blocks"] = budget
                cfg.setdefault("block_entries", 4096)
            rs, _ = run_strategies(problem, _strategies(args), cfg)
            for r in rs:
                r.problem = f"{name}[budget={budget or 'inf'}]"
            reports.extend(rs)
    print(metrics.emit_report(reports, args.format))
    return 0


_COMMANDS = {"run": cmd_run, "verify": cmd_verify, "dump": cmd_dump,
             "bench": cmd_bench}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (TapeError, BlockStoreError, StabilityError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
