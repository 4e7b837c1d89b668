"""Layered gradient benchmark of adtape.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository: the library is
imported from ``src/`` next to this directory, so nothing needs building.
For each workload the run sets up, checks the reference gradients against
finite differences, discards one warm-up iteration, then repeats timed
iterations for ``--seconds`` seconds, checking every gradient produced,
with set-up samples interleaved.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` is a separate run that prints the per-layer metrics. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "adtape", "__init__.py")):
    sys.exit(f"perfbench: no adtape sources under {SRC}")
sys.path.insert(0, SRC)

from adtape import FLAT, LVALUE, account, gradient_check  # noqa: E402
from adtape.cli import CROSS_CHECK_RTOL  # noqa: E402
from tracing import PLAIN, Tracer, layer_sample  # noqa: E402
from workloads import SWEEPS, WORKLOADS  # noqa: E402

MIN_SAMPLES = 11    # timed iterations, so one percentile has ten beyond it
MIN_SETUPS = 11     # set-up samples, so their p90 is not their maximum
MIN_TRACED = 5      # traced and untraced iterations in a traced run
PROBE_TIMEOUT_S = 120


# -- correctness gate ---------------------------------------------------------

def _bits(values) -> bytes:
    return array("d", values).tobytes()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CROSS_CHECK_RTOL * max(1.0, abs(a), abs(b))


def _disagreeing(grads: list[tuple[str, list[float]]]) -> set[str]:
    """Labels of gradients that differ from their neighbour at 1e-12."""
    bad = set()
    for (la, ga), (lb, gb) in zip(grads, grads[1:]):
        if not all(_close(a, b) for a, b in zip(ga, gb)):
            bad |= {la, lb}
    return bad


class Checker:
    """Counts every gradient produced and every one that fails a check."""

    def __init__(self, workload):
        self.workload = workload
        self.reference: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def _tally(self, labels, bad: set[str], what: str) -> None:
        self.attempted += len(labels)
        self.failed += len(bad)
        for label in sorted(bad):
            print(f"FAIL {self.workload.name} {what}: {label}", file=sys.stderr)

    def check_reference(self, reference: dict[str, list[float]]) -> None:
        """In-memory unit-seed gradients against central differences at the
        problem's own step and tolerance, outside every timing."""
        wl = self.workload
        p = wl.problem
        bad = {s for s, mode in SWEEPS
               if gradient_check(p, wl.x, fd_step=p.fd_step, strategy=s,
                                 tape=wl.tapes[mode]) > p.fd_tolerance}
        bad |= _disagreeing(list(reference.items()))
        self._tally(reference, bad, "reference gradient")
        self.reference = reference

    def check(self, it) -> None:
        """A unit-seed gradient must be bitwise the in-memory reference
        (repeated, spilled or reloaded); another adjoint seed must scale it
        at 1e-12. Strategies agree at 1e-12, and no budgeted store may hold
        more than its bound."""
        bound = self.workload.peak_bound()
        bad = set()
        for g in it.gradients:
            ref = self.reference[g.strategy]
            if g.adjoint == 1.0:
                ok = _bits(g.values) == _bits(ref)
            else:
                ok = all(_close(a, g.adjoint * r) for a, r in zip(g.values, ref))
            if bound is not None:
                ok &= all(s["peak_resident_bytes"] <= bound
                          for s in g.tape.store_stats().values())
            if not ok:
                bad.add(g.label)
        bad |= _disagreeing([(g.label, g.values) for g in it.gradients])
        self._tally(it.gradients, bad, "gradient")

    def iteration_failed(self) -> None:
        traceback.print_exc()
        n = self.workload.gradients_per_iteration
        self.attempted += n
        self.failed += n


def run_iteration(wl, checker: Checker, calls, before_cleanup=None):
    """One checked iteration; None if it raised (its gradients count as
    failed)."""
    try:
        it = wl.iterate(calls)
    except Exception:  # every failure is counted, none skipped
        checker.iteration_failed()
        return None
    checker.check(it)
    if before_cleanup is not None:
        before_cleanup(it)
    wl.cleanup(it)
    return it


# -- metrics ------------------------------------------------------------------

def memory_figures(it) -> dict[str, int]:
    """RAM of each strategy, SAM of the DAG and DCG streams together, and
    the highest resident stream bytes of any store the iteration used."""
    tapes = {}
    for strategy, tape, _ in it.sweeps:
        tapes.setdefault(strategy, tape)
    figures = {f"ram_{s}_bytes": account(t.stats(), s)[0] for s, t in tapes.items()}
    figures["sam_bytes"] = (account(tapes[FLAT].stats(), FLAT)[1]
                            + account(tapes[LVALUE].stats(), LVALUE)[1])
    figures["peak_resident_bytes"] = max(
        s["peak_resident_bytes"] for t in it.tapes() for s in t.store_stats().values())
    return figures


def tail_percentile(values: list[float]) -> tuple[int, int, float]:
    """Highest whole percentile (nearest rank) with at least ten samples
    above it: (percentile, samples above it, value). With ten samples or
    fewer there is none, and the smallest sample stands in."""
    xs = sorted(values)
    n = len(xs)
    p = max(0, 100 * (n - 10) // n)
    rank = max(1, math.ceil(p * n / 100))
    return p, n - rank, xs[rank - 1]


def p90(values: list[float]) -> float:
    """90th percentile, nearest rank: what every timing reports (README.md
    says why not the median)."""
    xs = sorted(values)
    return xs[math.ceil(0.9 * len(xs)) - 1]


def summarize(samples: list[dict], key: str) -> float:
    """p90 of a timing; the median of a count, which is exact anyway."""
    values = [s[key] for s in samples]
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return p90(values)


def probe_rss_mb(name: str, seed: int) -> float:
    """Peak RSS of a fresh process doing what one iteration needs."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--rss-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def _rss_probe(name: str, seed: int, workdir: str) -> None:
    WORKLOADS[name](seed, workdir).probe(PLAIN)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


# -- one workload -------------------------------------------------------------

@dataclass
class Samples:
    """Everything one run measured, before it is summarised."""

    setups: list[dict] = field(default_factory=list)  # setup_s, record_*_s
    plain: list[dict] = field(default_factory=list)   # untraced iterations
    traced: list[float] = field(default_factory=list)  # traced gradient_s
    layers: list[dict] = field(default_factory=list)  # traced layer figures
    loads: list[dict] = field(default_factory=list)   # tape_load_s off-loop
    setup_seconds: float = 0.0  # spent on set-up samples so far

    def recorded(self) -> list[dict]:
        # burgers_reuse records only in set-up
        return self.plain if "record_dag_s" in self.plain[0] else self.setups


def sample_setup(wl, samples: Samples) -> None:
    """Set up a fresh copy of the workload, timed and then discarded, and
    load the set-up tape where the loop loads none."""
    t0 = perf_counter()
    copy = type(wl)(wl.seed, wl.workdir)
    times = copy.setup(PLAIN)
    times["setup_s"] = perf_counter() - t0
    samples.setups.append(times)
    if not wl.loads_in_loop:
        samples.loads.append({"tape_load_s": wl.load_sample(PLAIN)})
    samples.setup_seconds += perf_counter() - t0


def measure(wl_name: str, seed: int, seconds: float, trace: bool,
            workdir: str):
    """Set up, check the reference, warm up, then loop for ``seconds``,
    spending the workload's ``setup_share`` of it on set-up samples."""
    samples = Samples()
    # the first set-up is cold and left out of every statistic
    wl = WORKLOADS[wl_name](seed, workdir)
    wl.setup(PLAIN)
    checker = Checker(wl)
    checker.check_reference(wl.reference(PLAIN))
    run_iteration(wl, checker, PLAIN)  # warm-up, discarded

    tracer = Tracer() if trace else None
    min_samples = MIN_TRACED if trace else MIN_SAMPLES
    start = perf_counter()
    deadline = start + seconds
    hard_stop = deadline + 60  # if iterations keep failing

    def short() -> bool:
        done = len(samples.plain)
        if trace:
            done = min(done, len(samples.traced))
        return done < min_samples

    def setup_next() -> bool:
        # spread the set-ups evenly over the loop; after it, make up only
        # what is short
        now = perf_counter()
        if now >= deadline:
            return len(samples.setups) < MIN_SETUPS
        return samples.setup_seconds < wl.setup_share * (now - start)

    while (perf_counter() < deadline
           or ((short() or len(samples.setups) < MIN_SETUPS)
               and perf_counter() < hard_stop)):
        if setup_next():
            sample_setup(wl, samples)
            continue
        it = run_iteration(wl, checker, PLAIN)
        if it is not None:
            samples.plain.append(dict(it.times, **memory_figures(it)))
        if tracer is None:
            continue
        tracer.reset()
        with tracer.installed() as calls:
            calls.run_passive(wl.problem, wl.x)
            it = run_iteration(wl, checker, calls, before_cleanup=lambda it:
                               samples.layers.append(layer_sample(tracer, it)))
        if it is not None:
            samples.traced.append(it.times["gradient_s"])
    return wl, checker, samples


def layer_metrics(samples: Samples) -> dict[str, float]:
    metrics = {key: summarize(samples.layers, key) for key in samples.layers[0]}
    passive = metrics["problems.passive_s"]
    record = statistics.mean(summarize(samples.recorded(), f"record_{m}_s")
                             for m in ("dag", "dcg"))
    sweep = statistics.mean(summarize(samples.plain, f"sweep_{s}_s")
                            for s in PLAIN.propagate)
    metrics["ratio.record_over_passive"] = record / passive
    metrics["ratio.sweep_over_passive"] = sweep / passive
    metrics["trace.overhead_s"] = (p90(samples.traced)
                                   - summarize(samples.plain, "gradient_s"))
    return metrics


def end_to_end_metrics(wl, checker: Checker, samples: Samples, seed: int,
                       detail: dict[str, str]) -> dict[str, float]:
    plain = samples.plain
    loads = plain if wl.loads_in_loop else samples.loads

    def timing(rows: list[dict], key: str) -> float:
        median = statistics.median(r[key] for r in rows)
        detail[key] = f"p90 of {len(rows)}, median {median:.6g}"
        return summarize(rows, key)

    p, beyond, tail = tail_percentile([r["gradient_s"] for r in plain])
    detail["gradient_s_tail"] = f"p{p} of {len(plain)}, {beyond} beyond"
    return {
        "setup_s": timing(samples.setups, "setup_s"),
        "gradient_s": timing(plain, "gradient_s"),
        "gradient_s_tail": tail,
        "record_dag_s": timing(samples.recorded(), "record_dag_s"),
        "record_dcg_s": timing(samples.recorded(), "record_dcg_s"),
        **{f"sweep_{s}_s": timing(plain, f"sweep_{s}_s") for s in PLAIN.propagate},
        "tape_load_s": timing(loads, "tape_load_s"),
        "peak_rss_mb": probe_rss_mb(wl.name, seed),
        **{key: max(r[key] for r in plain)
           for key in plain[0] if key.endswith("_bytes")},
        "correct_ratio": 1.0 - checker.failed / checker.attempted,
    }


# -- reporting ----------------------------------------------------------------

def _declared(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def report(name: str, seed: int, trace: bool, checker: Checker,
           metrics: dict | None, notes: dict, detail: dict[str, str]) -> dict:
    """Print every metric by name and unit; return the JSON result."""
    units = _declared(trace)
    result = {"correct": checker.failed == 0 and metrics is not None,
              "attempted": max(checker.attempted, 1),
              "failed": checker.failed if checker.attempted else 1,
              "metrics": {}}
    print(f"== {name}  seed={seed}  trace={int(trace)}  "
          + "  ".join(f"{k}={v}" for k, v in notes.items()))
    if metrics is not None:
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                               "do not match BENCHMARK.json")
        for key, unit in units.items():
            value = metrics[key]
            extra = f"  ({detail[key]})" if key in detail else ""
            print(f"  {key:<28} {value:>16.6g} {unit}{extra}")
            result["metrics"][key] = {"value": value, "unit": unit}
    print(f"  {'failed_ratio':<28} {checker.failed / max(checker.attempted, 1):>16.6g}"
          f"  ({checker.failed} of {checker.attempted} gradients)")
    return result


def run_one(args) -> int:
    trace = bool(args.trace)
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.rss_probe:
            _rss_probe(args.workload, args.seed, workdir)
            return 0
        wl, checker, samples = measure(args.workload, args.seed, args.seconds,
                                       trace, workdir)
        notes = {"iterations": len(samples.plain), "setups": len(samples.setups)}
        detail: dict[str, str] = {}
        metrics = None
        if samples.plain and (samples.layers or not trace):
            if trace:
                notes["traced_iterations"] = len(samples.traced)
                metrics = layer_metrics(samples)
            else:
                metrics = end_to_end_metrics(wl, checker, samples, args.seed, detail)
    finally:
        shutil.rmtree(workdir)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    result = report(args.workload, args.seed, trace, checker, metrics, notes,
                    detail)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process, then one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(done.stdout, end="", flush=True)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--rss-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
