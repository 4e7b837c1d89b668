"""Gradient tape: recording protocol, stream layout and graph statistics.

A tape owns two append-only streams: the structure stream ``s`` (signed
8-byte integers) and the partials stream ``d`` (8-byte doubles).  The layout
of ``s`` is: the input vertex ids first, then for every recorded elemental
its predecessor ids in operand order, the predecessor count, and the result
id.  ``d`` carries one local partial derivative per predecessor entry of
``s``, in the same order.  ``Tape.reverse_streams`` returns an iterator
over each stream, newest entry first, to be read in pairs at C speed:
``zip(s, s)`` yields each record's ``(result, count)`` and ``zip(s, d)``
each ``(operand, partial)``.  The adjoint sweep
``interpret.propagate(tape, seed, strategy)`` reads this record layout
itself through them, with no object per record;
``Tape.reverse_elementals`` turns each record into ``(result, preds)`` for
``Tape.parse``, ``Tape.visit_sequence`` and the DOT rendering.  The sweep
puts the adjoint of L-value ``-k`` in slot ``k-1`` and of vertex
``v >= 0`` in slot ``p_L + v % W``, with (p_L, W) fixed per strategy.  Its
one record loop is a template compiled for three kinds of slot: the sign
test between ``p_L + v % W`` and slot ``k-1`` for every record when
p_L > 0; and when p_L = 0, which a DAG tape has, having no negative id,
``v % W`` for the newest |V| - W records and the identity (slot ``v``)
for the rest, whose ids all lie below W.  A flat sweep (W = |V|) runs the
identity loop alone.

Both recording modes number vertices the same way.  L-values, named
program variables, get dedicated negative ids ``-1 .. -p_L`` that persist
across overwrites; every other vertex (the remainder) gets the next id of
one dense count ``0, 1, ...``.  A ``DCG`` tape registers its inputs and
declared variables as L-values.  A ``DAG`` tape is the case ``p_L = 0``:
pure single-assignment recording, where the inputs are the first vertices
and assignments rebind.  So one set of checks serves both: an operand is
known when ``-p_L <= v < R`` for the next remainder id ``R``, only a
remainder operand widens the bandwidth, by ``R - v`` whether the result is
fresh (then ``R`` is its id) or an existing L-value, and a result is fresh
or an existing L-value.  ``Tape.record`` runs these checks on every record;
the overloading writers need not, as an ``ActiveScalar`` holds a known id.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import isfinite
from typing import Iterable, Iterator, NamedTuple

from .blockstore import DEFAULT_BLOCK_ENTRIES, BlockStore

DAG = "dag"
DCG = "dcg"

#: result kind of Tape.record for a fresh non-L-value vertex
REMAINDER = "remainder"


class TapeError(Exception):
    pass


def _bad_record(vids: list, parts: list, exc: Exception) -> TapeError:
    return TapeError(f"bad record {vids!r} with partials {parts!r}: {exc}")


class Elemental(NamedTuple):
    """One parsed tape entry group: predecessors in operand order."""
    result: int
    preds: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class TapeStats:
    mode: str
    num_vertices: int
    num_inputs: int
    num_outputs: int
    num_edges: int
    num_elementals: int
    beta: int
    beta_r: int
    p_l: int
    num_remainder: int
    s_len: int
    d_len: int


class Tape:
    """Single-writer recording tape; immutable once finalized.

    Under ``budget_blocks`` each stream spills only full blocks, as
    fixed-size records in its own ``adtape-<stream>-*.blk`` file under
    ``spill_dir`` (the system temp dir when none is given).  A spilling
    stream holds one descriptor on its file until the tape is freed; then the
    file is removed.  Each stream notes its ``peak_resident_bytes`` just
    before it pushes full blocks and at seal, not on every record, and
    while reading only for a block read back from disk.

    ``record``, the one public writer, takes any operand list, merges
    repeated operands, can overwrite an L-value and checks everything:
    each pair, each operand's id and the result.  Overloading records
    through ``_record_unary`` and ``_record_binary``, ``record`` written
    straight for one and two operands with no operand list or loop.  They
    keep the finalized and partial checks and the merge, but test no
    operand or result: ``ActiveScalar`` checks an outside id and
    ``Recorder.assign`` its target.  Every writer works the same on both
    modes, a DAG tape being a DCG tape with no L-values: it numbers the
    result from the one counter of ids ``>= 0``, writes the record into
    each stream's open block with one ``array.fromlist`` (which writes all
    of a list or none of it), and only then commits that counter and the
    one width (``stats().beta`` on a DAG tape, ``beta_r`` on a DCG tape),
    so a rejected record leaves the tape as it was.  The width counts every
    record, an L-value overwrite too: a remainder operand ``v`` stays live
    until the next remainder id ``R``, so the record widens it to ``R - v``.
    The sweep reads the tape through ``reverse_streams`` with one record
    loop, compiled per slot map (``interpret``).  The three writers write
    the same bytes for the same valid record.  A writer enters a
    store (``BlockStore.push_full``) only when that store's open block
    fills.  ``finalize`` closes the tape before it seals the streams, so no
    record reaches a sealed block, even when a seal fails.
    """

    def __init__(self, mode: str = DAG,
                 block_entries: int = DEFAULT_BLOCK_ENTRIES,
                 budget_blocks: int | None = None,
                 spill_dir: str | None = None,
                 prefetch: bool = False):
        if mode not in (DAG, DCG):
            raise TapeError(f"unknown tape mode {mode!r}")
        store = {"block_entries": block_entries, "budget_blocks": budget_blocks,
                 "spill_dir": spill_dir}
        self.mode = mode
        self._dag = mode == DAG
        self.prefetch = prefetch
        self._s = s = BlockStore("q", name="s", **store)
        self._d = d = BlockStore("d", name="d", **store)
        self._s_open, self._d_open = s.open_block, d.open_block
        self._s_full, self._d_full = s.block_entries, d.block_entries
        self.n = 0
        self.p_l = 0
        self.outputs: list[int] = []
        self._output_set: set[int] = set()
        self._next_id = 0  # next id >= 0: a DAG input or vertex, a remainder
        self._width = 0    # the bandwidth of the remainder ids
        self.finalized = False

    @property
    def m(self) -> int:
        return len(self.outputs)

    @property
    def q(self) -> int:
        """The records, read off the streams: each writes its operands, its
        count and its result to ``s`` and a partial per operand to ``d``."""
        return (len(self._s) - self.n - len(self._d)) // 2

    @property
    def inputs(self) -> range:
        """Input vertex ids in registration order: ``0..n-1`` on a DAG
        tape, ``-1..-n`` on a DCG tape."""
        return range(self.n) if self.mode == DAG else range(-1, -self.n - 1, -1)

    @property
    def edge_count(self) -> int:
        """One partial per edge, so the length of ``d``."""
        return len(self._d)

    @property
    def s_len(self) -> int:
        return len(self._s)

    @property
    def d_len(self) -> int:
        return len(self._d)

    # -- recording ----------------------------------------------------------

    def register_input(self) -> int:
        self._require_recording()
        if self.p_l > self.n or len(self._s) > self.n:  # past a record
            raise TapeError("inputs must be registered before the first "
                            "elemental or L-value")
        if self.mode == DAG:
            vid = self._next_id
            self._next_id += 1
        else:
            self.p_l += 1
            vid = -self.p_l
        self.n += 1
        self._s.append((vid,))
        return vid

    def declare_lvalue(self) -> int:
        """Allocate the next L-value id without recording an elemental."""
        self._require_recording()
        if self.mode != DCG:
            raise TapeError("L-values exist only on DCG tapes")
        self.p_l += 1
        return -self.p_l

    def record(self, preds: Iterable[tuple[int, float]],
               result: int | str = REMAINDER) -> int:
        """Record one elemental; returns the result vertex id.

        ``preds`` is the (vertex, partial) list in operand order; duplicate
        operands are merged with summed partials, in first-seen order.
        ``result`` is ``REMAINDER`` (the next DAG vertex or DCG remainder
        id) or an existing L-value id ``-k`` (DCG only), which the elemental
        overwrites; any other integer is rejected.  An empty ``preds``
        records a zero-arity overwrite whose reverse action only zeroes the
        result's adjoint slot.
        """
        partials: dict[int, float] = {}
        try:
            for vid, part in preds:
                # not .get(vid, 0.0) + part: that turns a first -0.0 into 0.0
                partials[vid] = partials[vid] + part if vid in partials else part
        except (TypeError, ValueError, OverflowError) as exc:
            raise TapeError(f"bad (vertex, partial) pair: {exc}") from None
        if result == REMAINDER:
            result = None
        elif not isinstance(result, int):
            raise TapeError(f"bad result kind {result!r}")
        if self.finalized:
            raise TapeError("tape is finalized")
        vids, parts = list(partials), list(partials.values())
        s_open = self._s_open
        try:
            for part in parts:
                if not isfinite(part):
                    # index finds part by identity, so a nan too
                    vid = vids[parts.index(part)]
                    raise TapeError(f"non-finite partial {part!r} for vertex {vid}")
            lo, hi = -self.p_l, self._next_id
            beta = self._width
            for vid in vids:
                if not lo <= vid < hi:
                    self._check_known(vid)
                if vid >= 0 and hi - vid > beta:
                    beta = hi - vid
            if result is None:
                rid = hi
            elif 0 < -result <= self.p_l:
                rid = result
            else:
                raise TapeError(f"L-value result {result!r} not allowed on this tape")
            n = len(vids)
            s_open.fromlist([*vids, n, rid])
        except (TypeError, OverflowError) as exc:
            raise _bad_record(vids, parts, exc) from None
        d_open = self._d_open
        d_open.fromlist(parts)  # isfinite has converted every partial already

        # the record is written: commit the counters
        self._width = beta
        if result is None:
            self._next_id = rid + 1
        if len(s_open) >= self._s_full:
            self._s.push_full(n + 2)
        if len(d_open) >= self._d_full:
            self._d.push_full(n)
        return rid

    def _record_unary(self, a: int, da: float, result: int | None = None) -> int:
        """Record ``result = f(a)`` with partial ``da``; ``result`` is None
        for a fresh vertex or an L-value id ``-k`` (DCG only).

        ``record`` for one operand, written straight for overloading: ``a``
        is an ``ActiveScalar``'s vertex and ``result`` an L-value that
        ``Recorder.assign`` checked, so neither is tested again."""
        if self.finalized:
            raise TapeError("tape is finalized")
        s_open = self._s_open
        try:
            if not isfinite(da):
                raise TapeError(f"non-finite partial {da!r} for vertex {a}")
            hi = self._next_id
            beta = self._width
            if a >= 0 and hi - a > beta:
                beta = hi - a
            rid = hi if result is None else result
            s_open.fromlist([a, 1, rid])
        except (TypeError, OverflowError) as exc:
            raise _bad_record([a], [da], exc) from None
        d_open = self._d_open
        d_open.fromlist([da])

        # the record is written: commit the counters
        self._width = beta
        if result is None:
            self._next_id = rid + 1
        if len(s_open) >= self._s_full:
            self._s.push_full(3)
        if len(d_open) >= self._d_full:
            self._d.push_full(1)
        return rid

    def _record_binary(self, a: int, da: float, b: int, db: float) -> int:
        """Record a fresh vertex ``f(a, b)`` with partials ``da``, ``db``;
        ``a == b`` is one operand with partial ``da + db``.

        ``record`` for two operands, as ``_record_unary`` is for one."""
        if a == b:
            try:  # merged as record merges a repeated operand
                da = da + db
            except (TypeError, OverflowError) as exc:
                raise TapeError(f"bad (vertex, partial) pair: {exc}") from None
            return self._record_unary(a, da)
        if self.finalized:
            raise TapeError("tape is finalized")
        s_open = self._s_open
        try:
            if not isfinite(da):
                raise TapeError(f"non-finite partial {da!r} for vertex {a}")
            if not isfinite(db):
                raise TapeError(f"non-finite partial {db!r} for vertex {b}")
            rid = self._next_id
            beta = self._width
            if a >= 0 and rid - a > beta:
                beta = rid - a
            if b >= 0 and rid - b > beta:
                beta = rid - b
            s_open.fromlist([a, b, 2, rid])
        except (TypeError, OverflowError) as exc:
            raise _bad_record([a, b], [da, db], exc) from None
        d_open = self._d_open
        d_open.fromlist([da, db])

        # the record is written: commit the counters
        self._next_id = rid + 1
        self._width = beta
        if len(s_open) >= self._s_full:
            self._s.push_full(4)
        if len(d_open) >= self._d_full:
            self._d.push_full(2)
        return rid

    def register_output(self, vid: int) -> None:
        self._require_recording()
        if not isinstance(vid, int):
            raise TapeError(f"output id {vid!r} is not an integer")
        self._check_known(vid)
        if self.mode == DCG and vid >= 0:
            raise TapeError(f"DCG outputs must be L-values, got vertex {vid}")
        if vid in self._output_set:
            raise TapeError(f"vertex {vid} already registered as output")
        self._output_set.add(vid)
        self.outputs.append(vid)

    def finalize(self) -> TapeStats:
        self._require_recording()
        if self.n < 1:
            raise TapeError("cannot finalize a tape without inputs")
        if not self.outputs:
            raise TapeError("cannot finalize a tape without outputs")
        # closed first: seal pushes the open blocks that records are written
        # into, so even a seal that fails must leave no record path to them
        self.finalized = True
        self._s.seal()
        self._d.seal()
        return self.stats()

    def stats(self) -> TapeStats:
        """The tape's counts; its one width is ``beta`` on a DAG tape and
        ``beta_r`` on a DCG tape, and the other reads 0."""
        width = self._width
        return TapeStats(
            mode=self.mode,
            num_vertices=self.p_l + self._next_id,
            num_inputs=self.n,
            num_outputs=self.m,
            num_edges=self.edge_count,
            num_elementals=self.q,
            beta=width if self._dag else 0,
            beta_r=0 if self._dag else width,
            p_l=self.p_l,
            num_remainder=self._next_id,
            s_len=self.s_len,
            d_len=self.d_len,
        )

    def _adopt(self, n: int, p_l: int, num_remainder: int,
               width: int) -> None:
        """Set the counters that ``tapefile.load`` derived from the streams
        it read into ``_s`` and ``_d``; nothing is recorded."""
        self.n, self.p_l = n, p_l
        self._next_id, self._width = num_remainder, width

    # -- reading ------------------------------------------------------------

    def dump(self) -> tuple[list[int], list[float]]:
        """Exact stream contents, for golden tests and the CLI."""
        self._require_finalized()
        return self._s.tolist(), self._d.tolist()

    def reverse_streams(self, prefetch: bool | None = None
                        ) -> tuple[Iterator[int], Iterator[float]]:
        """``(s, d)``: a reverse iterator over each stream, newest entry
        first.  With ``prefetch`` (default ``self.prefetch``) each store
        hints the kernel to read its next-older spilled block ahead
        (``BlockStore.reverse_blocks``).

        Each record reads back as its result id, its operand count, then
        that many operand ids from ``s`` each paired with its partial from
        ``d``, in reverse operand order; the ``n`` input ids remain at the
        end of ``s``.  The adjoint sweep and ``reverse_elementals`` read
        them in pairs: ``islice(zip(s, s), q)`` yields each record's
        ``(result, count)``, and ``zip(s, d)`` each ``(operand, partial)``,
        stepped with the builtin ``next()`` or ``islice``, never through a
        bound ``__next__``, which CPython 3.11 does not specialise.
        ``zip(s, d)`` pulls from ``s`` before ``d``, so a reader steps it
        only when an operand is due: one step too many loses an id of ``s``.
        """
        self._require_finalized()
        if prefetch is None:
            prefetch = self.prefetch
        return self._s.reverse_iter(prefetch), self._d.reverse_iter(prefetch)

    def reverse_elementals(self, prefetch: bool | None = None
                           ) -> Iterator[tuple[int, tuple[tuple[int, float], ...]]]:
        """Parse the streams backwards, yielding (result, preds).

        Predecessors come out in reverse operand order, which is the order
        the adjoint sweep applies them in.  The input ids at the head of
        ``s`` are not yielded; they are ``self.inputs``.  ``parse``,
        ``visit_sequence``, ``dot`` and the benchmark's per-layer drain read
        the tape through this; the sweep reads the same records straight
        from ``reverse_streams``.
        """
        s, d = self.reverse_streams(prefetch)
        pairs = zip(s, d)
        for result, count in islice(zip(s, s), self.q):
            # direct paths for the arities overloading records; the rest
            # (zero-arity overwrites, hand-recorded n-ary) slice the pairs
            if count == 1:
                yield result, (next(pairs),)
            elif count == 2:
                yield result, (next(pairs), next(pairs))
            else:
                yield result, tuple(islice(pairs, count))

    def parse(self) -> tuple[list[int], list[Elemental]]:
        """Forward-order view: (input ids, elementals with operand order)."""
        elems = [Elemental(result, preds[::-1])
                 for result, preds in self.reverse_elementals()]
        elems.reverse()
        return list(self.inputs), elems

    def visit_sequence(self) -> list[int]:
        """Vertex ids in reverse-interpretation order, consecutive
        duplicates collapsed (a result immediately re-read as the next
        predecessor is one visit)."""
        seq: list[int] = []

        def visit(v):
            if not seq or seq[-1] != v:
                seq.append(v)

        for result, preds in self.reverse_elementals():
            visit(result)
            for v, _ in preds:
                visit(v)
        for v in reversed(self.inputs):
            visit(v)
        return seq

    def store_stats(self) -> dict:
        return {"s": self._s.stats(), "d": self._d.stats()}

    # -- internal -----------------------------------------------------------

    def _check_known(self, vid: int) -> None:
        if not -self.p_l <= vid < self._next_id:
            kind = "L-value" if vid < 0 and not self._dag else "vertex"
            raise TapeError(f"unknown {kind} {vid}")

    def _require_recording(self) -> None:
        if self.finalized:
            raise TapeError("tape is finalized")

    def _require_finalized(self) -> None:
        if not self.finalized:
            raise TapeError("tape is not finalized")
