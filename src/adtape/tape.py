"""Gradient tape: recording protocol, stream layout and graph statistics.

A tape owns two append-only streams: the structure stream ``s`` (signed
8-byte integers) and the partials stream ``d`` (8-byte doubles).  The layout
of ``s`` is: the input vertex ids first, then for every recorded elemental
its predecessor ids in operand order, the predecessor count, and the result
id.  ``d`` carries one local partial derivative per predecessor entry of
``s``, in the same order.  ``Tape.reverse_elementals`` is the one reverse
parser of these streams: the adjoint sweep
``interpret.propagate(tape, seed, strategy)``, ``Tape.parse`` and
``Tape.visit_sequence`` all consume it.  The sweep puts the adjoint of
L-value ``-k`` in slot ``k-1`` and of vertex ``v >= 0`` in slot
``p_L + v % W``, with (p_L, W) fixed per strategy.

Two recording modes exist:

* ``DAG``: pure single-assignment recording; every vertex gets the next
  non-negative index, assignments rebind.
* ``DCG``: named program variables (L-values) get dedicated negative ids
  ``-1, -2, ...`` that persist across overwrites; expression temporaries
  (the remainder) are numbered densely ``0, 1, ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Iterator, NamedTuple

from .blockstore import DEFAULT_BLOCK_ENTRIES, BlockStore

DAG = "dag"
DCG = "dcg"

#: result kind of Tape.record for a fresh non-L-value vertex
REMAINDER = "remainder"


class TapeError(Exception):
    pass


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
    before it pushes full blocks and at seal, not on every record.

    ``record`` takes any operand list, merges repeated operands and can
    overwrite an L-value; overloading records through ``record_unary`` and
    ``record_binary``.  All three end in one append core, which checks the
    operands and partials, numbers the result and writes both streams, so
    they lay out the same record the same way.
    """

    def __init__(self, mode: str = DAG,
                 block_entries: int = DEFAULT_BLOCK_ENTRIES,
                 budget_blocks: int | None = None,
                 spill_dir: str | None = None,
                 prefetch: bool = False):
        if mode not in (DAG, DCG):
            raise TapeError(f"unknown tape mode {mode!r}")
        self.mode = mode
        self.prefetch = prefetch
        self._s = BlockStore("q", name="s", block_entries=block_entries,
                             budget_blocks=budget_blocks, spill_dir=spill_dir)
        self._d = BlockStore("d", name="d", block_entries=block_entries,
                             budget_blocks=budget_blocks, spill_dir=spill_dir)
        self.n = 0
        self.q = 0
        self.edge_count = 0
        self.beta = 0
        self.beta_r = 0
        self.p_l = 0
        self.outputs: list[int] = []
        self._output_set: set[int] = set()
        self._next_ssa = 0        # DAG vertex counter
        self._next_remainder = 0  # DCG remainder counter
        self.finalized = False

    @property
    def m(self) -> int:
        return len(self.outputs)

    @property
    def inputs(self) -> range:
        """Input vertex ids in registration order: ``0..n-1`` on a DAG
        tape, ``-1..-n`` on a DCG tape."""
        return range(self.n) if self.mode == DAG else range(-1, -self.n - 1, -1)

    @property
    def s_len(self) -> int:
        return len(self._s)

    @property
    def d_len(self) -> int:
        return len(self._d)

    # -- recording ----------------------------------------------------------

    def register_input(self) -> int:
        self._require_recording()
        if self.q > 0 or self.p_l > self.n:
            raise TapeError("inputs must be registered before the first "
                            "elemental or L-value")
        if self.mode == DAG:
            vid = self._next_ssa
            self._next_ssa += 1
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
        overwrites.  An empty ``preds`` records a zero-arity overwrite whose
        reverse action only zeroes the result's adjoint slot.
        """
        partials: dict[int, float] = {}
        for vid, part in preds:
            # not .get(vid, 0.0) + part: that turns a first -0.0 into 0.0
            partials[vid] = partials[vid] + part if vid in partials else part
        if result == REMAINDER:
            result = None
        elif not (isinstance(result, int) and result < 0):
            raise TapeError(f"bad result kind {result!r}")
        return self._append(tuple(partials), tuple(partials.values()), result)

    def record_unary(self, a: int, da: float, result: int | None = None) -> int:
        """Record ``result = f(a)`` with partial ``da``; ``result`` is None
        for a fresh vertex or an existing L-value id ``-k`` (DCG only)."""
        return self._append((a,), (da,), result)

    def record_binary(self, a: int, da: float, b: int, db: float) -> int:
        """Record a fresh vertex ``f(a, b)`` with partials ``da``, ``db``;
        ``a == b`` is one operand with partial ``da + db``."""
        if a == b:
            return self._append((a,), (da + db,), None)
        return self._append((a, b), (da, db), None)

    def _append(self, vids: tuple, parts: tuple, result: int | None) -> int:
        """The one append core: check the distinct operands ``vids`` and
        their partials, number the result (None for a fresh vertex), and
        write the record to both streams."""
        if self.finalized:
            raise TapeError("tape is finalized")
        for part in parts:
            if not isfinite(part):
                # index finds part by identity, so a nan too
                vid = vids[parts.index(part)]
                raise TapeError(f"non-finite partial {part!r} for vertex {vid}")
        if self.mode == DAG:
            hi = self._next_ssa
            for vid in vids:
                if not 0 <= vid < hi:
                    self._check_known(vid)
            if result is not None:
                raise TapeError(f"L-value result {result!r} not allowed on this tape")
            rid = hi
            self._next_ssa = rid + 1
            for vid in vids:
                if rid - vid > self.beta:
                    self.beta = rid - vid
        else:
            lo, hi = -self.p_l, self._next_remainder
            for vid in vids:
                if not lo <= vid < hi:
                    self._check_known(vid)
            if result is None:
                rid = hi
                self._next_remainder = rid + 1
                for vid in vids:
                    if vid >= 0 and rid - vid > self.beta_r:
                        self.beta_r = rid - vid
            elif 0 < -result <= self.p_l:
                rid = result
            else:
                raise TapeError(f"L-value result {result!r} not allowed on this tape")

        n = len(vids)
        self._s.append((*vids, n, rid))
        self._d.append(parts)
        self.q += 1
        self.edge_count += n
        return rid

    def register_output(self, vid: int) -> None:
        self._require_recording()
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
        self._s.seal()
        self._d.seal()
        self.finalized = True
        return self.stats()

    def stats(self) -> TapeStats:
        if self.mode == DAG:
            num_vertices = self._next_ssa
            num_remainder = num_vertices
            p_l = 0
        else:
            num_vertices = self.p_l + self._next_remainder
            num_remainder = self._next_remainder
            p_l = self.p_l
        return TapeStats(
            mode=self.mode,
            num_vertices=num_vertices,
            num_inputs=self.n,
            num_outputs=self.m,
            num_edges=self.edge_count,
            num_elementals=self.q,
            beta=self.beta,
            beta_r=self.beta_r,
            p_l=p_l,
            num_remainder=num_remainder,
            s_len=self.s_len,
            d_len=self.d_len,
        )

    @classmethod
    def _adopt(cls, stats: TapeStats, s: BlockStore, d: BlockStore,
               outputs: list[int], prefetch: bool = False) -> "Tape":
        """A finalized tape over sealed streams ``s`` and ``d`` whose
        ``stats`` and ``outputs`` the caller derived from them and checked
        (``tapefile.load``); nothing is recorded."""
        tape = cls(stats.mode, prefetch=prefetch)
        tape._s, tape._d = s, d
        tape.n = stats.num_inputs
        tape.q = stats.num_elementals
        tape.edge_count = stats.num_edges
        tape.beta, tape.beta_r, tape.p_l = stats.beta, stats.beta_r, stats.p_l
        if stats.mode == DAG:
            tape._next_ssa = stats.num_vertices
        else:
            tape._next_remainder = stats.num_remainder
        tape.outputs = list(outputs)
        tape._output_set = set(outputs)
        tape.finalized = True
        return tape

    # -- reading ------------------------------------------------------------

    def dump(self) -> tuple[list[int], list[float]]:
        """Exact stream contents, for golden tests and the CLI."""
        self._require_finalized()
        return self._s.tolist(), self._d.tolist()

    def stream_bytes(self) -> Iterator[bytes]:
        """The ``s`` stream, then the ``d`` stream, as little-endian bytes,
        one block at a time."""
        self._require_finalized()
        yield from self._s.le_blocks()
        yield from self._d.le_blocks()

    def reverse_elementals(self, prefetch: bool | None = None
                           ) -> Iterator[tuple[int, tuple[tuple[int, float], ...]]]:
        """Parse the streams backwards, yielding (result, preds).

        This is the one reverse parser of a tape.  Predecessors come out in
        reverse operand order, which is the order the adjoint sweep applies
        them in.  The input ids at the head of ``s`` are not yielded; they
        are ``self.inputs``.
        """
        self._require_finalized()
        if prefetch is None:
            prefetch = self.prefetch
        s_next = self._s.reverse_iter(prefetch=prefetch).__next__
        d_next = self._d.reverse_iter(prefetch=prefetch).__next__
        for _ in range(self.q):
            result = s_next()
            count = s_next()
            # direct paths for the arities overloading records; the rest
            # (zero-arity overwrites, hand-recorded n-ary) build a list
            if count == 1:
                yield result, ((s_next(), d_next()),)
            elif count == 2:
                yield result, ((s_next(), d_next()), (s_next(), d_next()))
            else:
                yield result, tuple([(s_next(), d_next()) for _ in range(count)])

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
        if self.mode == DAG:
            if not 0 <= vid < self._next_ssa:
                raise TapeError(f"unknown vertex {vid}")
        else:
            if vid < 0:
                if -vid > self.p_l:
                    raise TapeError(f"unknown L-value {vid}")
            elif vid >= self._next_remainder:
                raise TapeError(f"unknown vertex {vid}")

    def _require_recording(self) -> None:
        if self.finalized:
            raise TapeError("tape is finalized")

    def _require_finalized(self) -> None:
        if not self.finalized:
            raise TapeError("tape is not finalized")
