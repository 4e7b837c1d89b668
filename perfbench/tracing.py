"""Per-layer accounting for the traced run, kept in the benchmark's own files.

The library is not instrumented. The traced run swaps its calls into the
library for wrappers that keep, per layer, a call count, the total time and
the self time (total minus the time of spans nested inside it), all in
memory. ``Tape.record`` and ``BlockStore.append`` are called from inside
the library, so they are patched on their classes for the duration of a
traced iteration only. ``propagate`` binds the strategy functions at import,
so the sweeps are wrapped at the benchmark's call site instead.

The per-entry generators (``Tape.reverse_elementals`` and
``BlockStore.reverse_iter``) are not wrapped: wrapping every ``next()``
would cost more than the work. They are measured by draining them on the
tape a sweep just used.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict, deque
from time import perf_counter
from types import SimpleNamespace

from adtape import scalar, tapefile
from adtape.blockstore import BlockStore
from adtape.interpret import (BANDWIDTH, FLAT, LVALUE, propagate_bandwidth,
                              propagate_flat, propagate_lvalue)
from adtape.tape import Tape

#: the library entry points the workloads call, untraced
PLAIN = SimpleNamespace(
    run_passive=scalar.run_passive,
    record_problem=scalar.record_problem,
    propagate={FLAT: propagate_flat, BANDWIDTH: propagate_bandwidth,
               LVALUE: propagate_lvalue},
    save=tapefile.save,
    load=tapefile.load,
)


class Tracer:
    """Span accumulators for one traced iteration at a time."""

    def __init__(self):
        self._open: list[float] = []  # time of child spans, per open span
        self.reset()

    def reset(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spill_write_s = 0.0

    def wrap(self, name: str, fn):
        open_spans = self._open

        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = open_spans.pop()
                self.count[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - inner
                if open_spans:
                    open_spans[-1] += dt
        return span

    def _wrap_append(self, fn):
        span = self.wrap("blockstore.append", fn)

        def append(store, entries):
            before = store.bytes_spilled
            t0 = perf_counter()
            span(store, entries)
            if store.bytes_spilled != before:
                self.spill_write_s += perf_counter() - t0
        return append

    @contextlib.contextmanager
    def installed(self):
        """Patch the inner entry points; yield the traced call table."""
        record, append = Tape.record, BlockStore.append
        Tape.record = self.wrap("tape.record", record)
        BlockStore.append = self._wrap_append(append)
        try:
            yield SimpleNamespace(
                run_passive=self.wrap("problems.passive", PLAIN.run_passive),
                record_problem=self.wrap("scalar.record", PLAIN.record_problem),
                propagate={s: self.wrap(f"interpret.{s}", fn)
                           for s, fn in PLAIN.propagate.items()},
                save=self.wrap("tapefile.save", PLAIN.save),
                load=self.wrap("tapefile.load", PLAIN.load),
            )
        finally:
            Tape.record, BlockStore.append = record, append


def _drain(iterator) -> float:
    t0 = perf_counter()
    deque(iterator, maxlen=0)
    return perf_counter() - t0


def drain_tape(tape: Tape) -> tuple[float, float, float]:
    """(reverse parse incl. reads, plain reads, prefetching reads) of one
    tape, in seconds. Prefetch starts a reader thread only where a block is
    on disk; every thread is joined before its drain returns."""
    parse = _drain(tape.reverse_elementals(prefetch=False))
    reads = sum(_drain(store.reverse_iter()) for store in (tape._s, tape._d))
    prefetch = sum(_drain(store.reverse_iter(prefetch=True))
                   for store in (tape._s, tape._d))
    return parse, reads, prefetch


def layer_sample(tracer: Tracer, iteration) -> dict[str, float]:
    """Per-layer figures of one traced iteration. Drains the tapes its
    sweeps used, so call it before the iteration's spill dirs go."""
    parse = reads = prefetch = 0.0
    sweep_self = {s: 0.0 for s in PLAIN.propagate}
    for strategy, tape, seconds in iteration.sweeps:
        p, r, f = drain_tape(tape)
        parse += p - r
        reads += r
        prefetch += f
        sweep_self[strategy] += seconds - p
    t = tracer
    sample = {
        "problems.passive_s": t.total["problems.passive"] / t.count["problems.passive"],
        "scalar.record_self_s": t.self_time["scalar.record"],
        "tape.record_calls": t.count["tape.record"],
        "tape.record_self_s": t.self_time["tape.record"],
        "tape.parse_s": parse,
        "blockstore.append_calls": t.count["blockstore.append"],
        "blockstore.append_s": t.total["blockstore.append"],
        "blockstore.spill_write_s": t.spill_write_s,
        "blockstore.read_s": reads,
        "blockstore.read_prefetch_s": prefetch,
        "interpret.edges": sum(tape.edge_count for _, tape, _ in iteration.sweeps),
        "tapefile.save_s": t.total["tapefile.save"],
        "tapefile.load_s": t.total["tapefile.load"],
    }
    for key, value in iteration.counts.items():
        sample[f"blockstore.{key}"] = value
    for strategy, value in sweep_self.items():
        sample[f"interpret.{strategy}_self_s"] = value
    return sample
