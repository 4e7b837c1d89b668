"""Command-line entry point: record, differentiate, verify, dump, benchmark.

``run``, ``verify`` and ``bench`` take one path, ``run_strategies``.  Each
verb's parser offers only the options that verb reads, and a size option
that no selected problem takes is refused, as is a recording option given
to ``dump`` with ``--tape-file`` and an option given without the one it
depends on: ``run --fd-step`` without ``--grad-check``, and ``--spill-dir``
or ``--prefetch`` without ``--budget-blocks`` (``bench`` sets its own
budgets, so it takes both).  A refused option exits 2 and is named.
"""

from __future__ import annotations

import argparse
import struct
import sys
import time
from math import isfinite

from . import metrics, tapefile
from .blockstore import BlockStoreError
from .dot import to_dot
from .interpret import (BANDWIDTH, FLAT, STRATEGIES, STRATEGY_MODE,
                        max_rel_err, propagate)
from .problems import PROBLEMS, StabilityError, fd_gradient
from .scalar import record_problem
from .tape import DAG, DCG, TapeError

#: the cross-check tolerance against lvalue; flat and bandwidth must agree
#: bitwise
CROSS_CHECK_RTOL = 1e-12
_BITS = struct.Struct("<d")

#: each problem's size options: ``--grid`` sets ns and nt, any other its namesake
SIZE_OPTIONS = {
    "intro": ("length",),
    "bs_mc": ("paths", "steps", "seed"),
    "bs_fd": ("grid",),
    "burgers": ("nx", "nt"),
    "libor_mc": ("rates", "paths", "seed"),
}
_SIZES = sorted({option for options in SIZE_OPTIONS.values()
                 for option in options})
_STORE_OPTIONS = ("block_entries", "budget_blocks", "spill_dir", "prefetch")


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

    def add_problem(p, required=True):
        p.add_argument("--problem", required=required,
                       choices=sorted(PROBLEMS) + ["all"])
        for option in _SIZES:
            takers = [n for n, options in SIZE_OPTIONS.items() if option in options]
            p.add_argument(f"--{option}", type=_grid if option == "grid" else int,
                           metavar="NSxNT" if option == "grid" else None,
                           help="taken by " + ", ".join(takers))

    def add_store(p, budget=True):
        p.add_argument("--block-entries", type=int)
        if budget:
            p.add_argument("--budget-blocks", type=int)
        p.add_argument("--prefetch", action="store_true",
                       help="while sweeping, ask the kernel to read each "
                            "next-older spilled block ahead")
        p.add_argument("--spill-dir")

    def add_report(p):
        p.add_argument("--strategy", default="all",
                       choices=list(STRATEGIES) + ["all"])
        p.add_argument("--format", default="table", choices=["table", "json"])

    run = sub.add_parser("run", help="record, sweep and report memory figures")
    add_problem(run)
    add_report(run)
    add_store(run)
    run.add_argument("--fd-step", type=_positive_float)
    run.add_argument("--grad-check", action="store_true",
                     help="also run the finite-difference check")

    verify = sub.add_parser("verify", help="finite-difference gradient check")
    add_problem(verify)
    add_store(verify)
    verify.add_argument("--fd-step", type=_positive_float)

    dump = sub.add_parser("dump", help="print the recorded streams")
    add_problem(dump, required=False)
    add_store(dump)
    dump.add_argument("--mode", choices=[DAG, DCG],
                      help="recording mode (default dag)")
    dump.add_argument("--dot", metavar="FILE",
                      help="write a DOT rendering ('-' for stdout)")
    dump.add_argument("--save-tape", metavar="FILE",
                      help="write the binary tape file")
    dump.add_argument("--tape-file", metavar="FILE",
                      help="dump a previously saved tape instead of recording")

    # bench sweeps its own budgets, so it takes no --budget-blocks
    bench = sub.add_parser("bench",
                           help="compare strategies and spill budgets")
    add_problem(bench)
    add_report(bench)
    add_store(bench, budget=False)
    return parser


def store_config(args) -> dict:
    """The block-store options given on the command line; a verb that takes
    ``--budget-blocks`` refuses the spill options without it, because then
    nothing spills."""
    if "budget_blocks" in vars(args) and args.budget_blocks is None:
        _refuse(args, ["spill_dir", "prefetch"],
                "a store without --budget-blocks, which never spills")
    return {key: value for key, value in vars(args).items()
            if key in _STORE_OPTIONS and value not in (None, "")}


def _refuse(args, options, context: str) -> None:
    for option in options:
        value = getattr(args, option)
        if value is not None and value is not False:  # given, or a set flag
            raise ValueError(
                f"--{option.replace('_', '-')} does not apply to {context}")


def _problems(args):
    """The selected problems at the sizes given; a size option that no
    selected problem takes is refused before the first is made."""
    names = sorted(PROBLEMS) if args.problem == "all" else [args.problem]
    taken = {option for name in names for option in SIZE_OPTIONS[name]}
    _refuse(args, [o for o in _SIZES if o not in taken],
            f"problem {args.problem}")
    for name in names:
        kwargs = {option: getattr(args, option) for option in SIZE_OPTIONS[name]
                  if getattr(args, option) is not None}
        if "grid" in kwargs:
            kwargs["ns"], kwargs["nt"] = kwargs.pop("grid")
        yield PROBLEMS[name](**kwargs)


def _strategies(args) -> list[str]:
    return list(STRATEGIES) if args.strategy == "all" else [args.strategy]


def run_strategies(problem, strategies, cfg, grad_check=False, fd_step=None):
    """Record one tape per needed mode, sweep each strategy once and
    cross-check the gradients, flat against bandwidth bitwise and lvalue
    at ``CROSS_CHECK_RTOL``; ``grad_check`` compares each gradient with one
    set of central differences."""
    reports, grads, tapes = [], {}, {}
    x = problem.default_point()
    step = fd_step or problem.fd_step
    fd = fd_gradient(problem, x, step) if grad_check else None
    for strategy in strategies:
        mode = STRATEGY_MODE[strategy]
        if mode not in tapes:
            t0 = time.perf_counter()
            tapes[mode] = (record_problem(problem, x, mode=mode, **cfg),
                           time.perf_counter() - t0)
        tape, record_seconds = tapes[mode]
        seed = [1.0] * tape.m
        t0 = time.perf_counter()
        grads[strategy] = propagate(tape, seed, strategy)
        sweep_seconds = time.perf_counter() - t0
        err = max_rel_err(grads[strategy], fd) if grad_check else None
        reports.append(metrics.build_report(
            problem.name, strategy, tape.stats(),
            record_seconds=record_seconds, sweep_seconds=sweep_seconds,
            grad_check_max_rel_err=err, fd_step=step if grad_check else None))
    items = list(grads.items())
    for (sa, ga), (sb, gb) in zip(items, items[1:]):
        # flat and bandwidth run the same float operations in the same
        # order on the same DAG tape, so they must agree bitwise
        bitwise = {sa, sb} == {FLAT, BANDWIDTH}
        for i, (a, b) in enumerate(zip(ga, gb, strict=True)):
            # not a > test: a nan component agrees with nothing
            if not abs(a - b) <= CROSS_CHECK_RTOL * max(1.0, abs(a), abs(b)):
                raise TapeError(
                    f"{problem.name}: strategies {sa} and {sb} disagree on "
                    f"gradient component {i}: {a} vs {b}")
            if bitwise and _BITS.pack(a) != _BITS.pack(b):
                raise TapeError(
                    f"{problem.name}: strategies {sa} and {sb} are not "
                    f"bitwise equal on gradient component {i}: {a!r} vs "
                    f"{b!r}")
    return reports


def cmd_run(args) -> int:
    if not args.grad_check:
        _refuse(args, ["fd_step"], "run without --grad-check")
    cfg = store_config(args)
    reports = []
    for problem in _problems(args):
        reports += run_strategies(problem, _strategies(args), cfg,
                                  grad_check=args.grad_check,
                                  fd_step=args.fd_step)
    print(metrics.emit_report(reports, args.format))
    failed = [r for r in reports if r.grad_check_max_rel_err is not None
              and not isfinite(r.grad_check_max_rel_err)]
    for r in failed:
        print(f"error: {r.problem} {r.strategy}: non-finite gradient check "
              f"error", file=sys.stderr)
    return 1 if failed else 0


def cmd_verify(args) -> int:
    cfg = store_config(args)
    failed = False
    for problem in _problems(args):
        reports = run_strategies(problem, STRATEGIES, cfg,
                                 grad_check=True, fd_step=args.fd_step)
        for r in reports:
            ok = r.grad_check_max_rel_err <= problem.fd_tolerance
            failed |= not ok
            print(f"{'PASS' if ok else 'FAIL'} {r.problem} {r.strategy}: "
                  f"max err {r.grad_check_max_rel_err:.3e} (tolerance "
                  f"{problem.fd_tolerance:.0e}, h={r.fd_step:.0e})")
    return 1 if failed else 0


def cmd_dump(args) -> int:
    cfg = store_config(args)
    if args.tape_file:
        _refuse(args, ["problem", "mode", *_SIZES],
                "--tape-file, which loads a recorded tape")
        tape = tapefile.load(args.tape_file, **cfg)
    else:
        if args.problem is None:
            raise ValueError("dump needs --problem or --tape-file")
        if args.problem == "all":
            raise ValueError("dump records one problem, not 'all'")
        (problem,) = _problems(args)
        tape = record_problem(problem, problem.default_point(),
                              mode=args.mode or DAG, **cfg)
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
    reports = []
    for problem in _problems(args):
        for budget in (None, 4, 1):
            cfg = store_config(args)
            if budget is not None:
                cfg["budget_blocks"] = budget
                cfg.setdefault("block_entries", 4096)
            rs = run_strategies(problem, _strategies(args), cfg)
            for r in rs:
                r.problem = f"{problem.name}[budget={budget or 'inf'}]"
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
