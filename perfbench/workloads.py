"""The benchmark's workloads: seeded inputs, set-up and one timed iteration.

Each workload is a closed loop in one process and one thread. The workload
seed is turned into the program's inputs here (the LIBOR path seed, the
Burgers initial state and adjoint seeds); the library sees only those.
Why each workload exists is written in README.md beside this file.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter

from adtape import BANDWIDTH, DAG, DCG, FLAT, LVALUE
from adtape.problems import Burgers, LiborMC
from adtape.tape import Tape

#: (strategy, recording mode of the tape it sweeps), in sweep order
SWEEPS = ((FLAT, DAG), (BANDWIDTH, DAG), (LVALUE, DCG))

LIBOR_RATES = 10
LIBOR_PATHS = 12
#: in-memory store of libor_inmem: about 15 s-blocks and 6 d-blocks per tape
INMEM_STORE = {"block_entries": 1536}
#: out-of-core store of libor_spill: about 88 s-blocks and 37 d-blocks per tape
SPILL_STORE = {"block_entries": 256, "budget_blocks": 1}
BURGERS_NX = 16
BURGERS_NT = 200


@dataclass
class Gradient:
    label: str
    strategy: str
    values: list[float]
    tape: Tape
    adjoint: float  # seed of the program's single output


@dataclass
class Iteration:
    times: dict[str, float] = field(default_factory=dict)
    gradients: list[Gradient] = field(default_factory=list)
    sweeps: list[tuple[str, Tape, float]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    spill_root: str | None = None  # spill dirs and tape file, removed after

    def sweep(self, calls, strategy: str, tape: Tape, adjoint: float,
              label: str | None = None) -> None:
        """Sweep and keep the gradient; an unlabelled sweep is the one the
        ``sweep_<strategy>_s`` metric times."""
        t0 = perf_counter()
        values = calls.propagate[strategy](tape, [adjoint])
        seconds = perf_counter() - t0
        if label is None:
            self.times[f"sweep_{strategy}_s"] = seconds
        self.sweeps.append((strategy, tape, seconds))
        self.gradients.append(Gradient(label or strategy, strategy, values,
                                       tape, adjoint))

    def tapes(self) -> list[Tape]:
        return list({id(t): t for _, t, _ in self.sweeps}.values())


def store_counts(tapes) -> dict[str, int]:
    counts = {"blocks_written": 0, "blocks_read": 0, "bytes_spilled": 0}
    for tape in tapes:
        for stats in tape.store_stats().values():
            for key in counts:
                counts[key] += stats[key]
    return counts


class Workload:
    """Set-up records the in-memory DAG and DCG tapes of the program at the
    workload's inputs. They are the correctness reference of every workload
    and the reused tapes of burgers_reuse."""

    name = ""
    store: dict = {}  # BlockStore config of the tapes the loop records
    gradients_per_iteration = len(SWEEPS)
    loads_in_loop = False  # else load_sample times tape_load_s
    setup_share = 0.15  # of the timed loop spent on set-up (and load) samples

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.rng = random.Random(seed)
        self.problem, self.x = self.make_inputs(self.rng)
        self.tapes: dict[str, Tape] = {}

    def make_inputs(self, rng: random.Random):
        raise NotImplementedError

    def peak_bound(self) -> int | None:
        """Most resident stream bytes a store of this workload may hold."""
        if "budget_blocks" not in self.store:
            return None
        return (self.store["budget_blocks"] + 2) * self.store["block_entries"] * 8

    def setup(self, calls) -> dict[str, float]:
        times = {}
        for mode in (DAG, DCG):
            t0 = perf_counter()
            self.tapes[mode] = calls.record_problem(self.problem, self.x, mode=mode)
            times[f"record_{mode}_s"] = perf_counter() - t0
        return times

    def reference(self, calls) -> dict[str, list[float]]:
        return {s: calls.propagate[s](self.tapes[mode], [1.0])
                for s, mode in SWEEPS}

    def iterate(self, calls) -> Iteration:
        raise NotImplementedError

    def probe(self, calls) -> None:
        """What one iteration needs, from a fresh process."""
        self.iterate(calls)

    def load_sample(self, calls) -> float:
        """Seconds to load the DCG set-up tape from its file, which is saved
        on the first call and left in the work dir."""
        path = os.path.join(self.workdir, "dcg.adtp")
        if not os.path.exists(path):
            calls.save(self.tapes[DCG], path)
        t0 = perf_counter()
        calls.load(path, **self.store)
        return perf_counter() - t0

    @staticmethod
    def cleanup(iteration: Iteration) -> None:
        if iteration.spill_root is not None:
            shutil.rmtree(iteration.spill_root)


class Libor(Workload):
    """Each iteration runs the program passively, records a DAG and a DCG
    tape and sweeps them with all three strategies."""

    name = "libor_inmem"
    store = INMEM_STORE

    def make_inputs(self, rng):
        # the path seed is the only input drawn from the workload seed;
        # 0 would select Xorshift's built-in default
        problem = LiborMC(rates=LIBOR_RATES, paths=LIBOR_PATHS,
                          seed=rng.getrandbits(63) | 1)
        return problem, problem.default_point()

    def tape_config(self, it: Iteration, mode: str) -> dict:
        return dict(self.store)

    def iterate(self, calls):
        it = Iteration()
        start = perf_counter()
        calls.run_passive(self.problem, self.x)
        tapes = {}
        for mode in (DAG, DCG):
            t0 = perf_counter()
            tapes[mode] = calls.record_problem(self.problem, self.x, mode=mode,
                                               **self.tape_config(it, mode))
            it.times[f"record_{mode}_s"] = perf_counter() - t0
        for strategy, mode in SWEEPS:
            it.sweep(calls, strategy, tapes[mode], 1.0)
        self.round_trip(calls, it, tapes[DCG])
        it.times["gradient_s"] = perf_counter() - start
        it.counts = store_counts(it.tapes())
        return it

    def round_trip(self, calls, it: Iteration, tape: Tape) -> None:
        pass


class LiborSpill(Libor):
    """As libor_inmem, out of core, then a tape-file round trip: save the
    DCG tape, load it into fresh stores and sweep the loaded tape."""

    name = "libor_spill"
    store = SPILL_STORE
    gradients_per_iteration = len(SWEEPS) + 1
    loads_in_loop = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._iterations = itertools.count(1)

    def tape_config(self, it, mode):
        # every live tape gets a fresh spill dir of its own: tapes sharing
        # a dir overwrite each other's blocks (ROADMAP item 3, defect (a))
        if it.spill_root is None:
            it.spill_root = os.path.join(self.workdir,
                                         f"iteration-{next(self._iterations)}")
            os.makedirs(it.spill_root)
        return dict(self.store, spill_dir=os.path.join(it.spill_root, mode))

    def round_trip(self, calls, it, tape):
        path = os.path.join(it.spill_root, "dcg.adtp")
        calls.save(tape, path)
        t0 = perf_counter()
        loaded = calls.load(path, **self.tape_config(it, "loaded"))
        it.times["tape_load_s"] = perf_counter() - t0
        it.sweep(calls, LVALUE, loaded, 1.0, label="lvalue_loaded")


class BurgersReuse(Workload):
    """Both tapes are recorded once, in set-up; each iteration sweeps them
    with all three strategies under a fresh adjoint seed."""

    name = "burgers_reuse"
    setup_share = 0.5  # its set-up is slow and yields both record_*_s

    def make_inputs(self, rng):
        # positive velocities keep every upwind branch, hence the tape
        # structure, beta and the byte counts, the same for every seed;
        # max|u| * dt/dx <= 0.2 keeps the scheme stable
        u0 = [rng.uniform(0.25, 1.0) for _ in range(BURGERS_NX)]
        return Burgers(nx=BURGERS_NX, nt=BURGERS_NT, u0=u0), u0

    def iterate(self, calls):
        it = Iteration()
        adjoint = self.rng.uniform(0.5, 2.0)
        before = store_counts(self.tapes.values())
        start = perf_counter()
        for strategy, mode in SWEEPS:
            it.sweep(calls, strategy, self.tapes[mode], adjoint)
        it.times["gradient_s"] = perf_counter() - start
        after = store_counts(self.tapes.values())
        it.counts = {k: after[k] - before[k] for k in after}
        return it

    def probe(self, calls):
        self.setup(calls)
        self.iterate(calls)


WORKLOADS = {w.name: w for w in (Libor, BurgersReuse, LiborSpill)}
