"""RAM/SAM byte accounting and the benchmark report document.

RAM is the adjoint vector (slot count times sigma bytes per scalar); SAM is
the two tape streams (8 bytes per entry).  Reports carry recording and
sweep wall time separately; the combined figure is derivable by addition.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import isfinite

from .blockstore import ENTRY_BYTES
from .interpret import adjoint_slot_count
from .tape import TapeStats

SIGMA = 8  # bytes per adjoint scalar (double precision)
REPORT_VERSION = 1


def account(stats: TapeStats, strategy: str) -> tuple[int, int]:
    """(ram_bytes, sam_bytes) for interpreting this tape with the strategy."""
    ram = adjoint_slot_count(stats, strategy) * SIGMA
    sam = (stats.s_len + stats.d_len) * ENTRY_BYTES
    return ram, sam


@dataclass
class MemoryReport:
    problem: str
    strategy: str
    n: int
    m: int
    vertices: int
    edges: int
    p_l: int
    beta: int
    beta_r: int
    ram_bytes: int
    sam_bytes: int
    record_seconds: float = 0.0
    sweep_seconds: float = 0.0
    grad_check_max_rel_err: float | None = None
    fd_step: float | None = None

    def to_dict(self) -> dict:
        """The report as a JSON document; a non-finite ``max_rel_err``
        (``interpret.max_rel_err`` reads ``inf`` for any non-finite
        component) is the string ``"inf"``, since JSON has no infinity."""
        doc = asdict(self)
        err, step = doc.pop("grad_check_max_rel_err"), doc.pop("fd_step")
        if err is not None:
            doc["grad_check"] = {"max_rel_err": err if isfinite(err) else "inf",
                                 "fd_step": step}
        return doc


def build_report(problem: str, strategy: str, stats: TapeStats,
                 record_seconds: float = 0.0, sweep_seconds: float = 0.0,
                 grad_check_max_rel_err: float | None = None,
                 fd_step: float | None = None) -> MemoryReport:
    ram, sam = account(stats, strategy)
    return MemoryReport(
        problem=problem, strategy=strategy,
        n=stats.num_inputs, m=stats.num_outputs,
        vertices=stats.num_vertices, edges=stats.num_edges,
        p_l=stats.p_l, beta=stats.beta, beta_r=stats.beta_r,
        ram_bytes=ram, sam_bytes=sam,
        record_seconds=record_seconds, sweep_seconds=sweep_seconds,
        grad_check_max_rel_err=grad_check_max_rel_err, fd_step=fd_step,
    )


def emit_json(reports: list[MemoryReport]) -> str:
    if not reports:
        raise ValueError("no reports to emit")
    doc = {"version": REPORT_VERSION, "reports": [r.to_dict() for r in reports]}
    return json.dumps(doc, indent=2, allow_nan=False)


_COLUMNS = [
    ("problem", lambda r: r.problem),
    ("strategy", lambda r: r.strategy),
    ("n", lambda r: str(r.n)),
    ("m", lambda r: str(r.m)),
    ("|V|", lambda r: str(r.vertices)),
    ("|E|", lambda r: str(r.edges)),
    ("p_L", lambda r: str(r.p_l)),
    ("beta", lambda r: str(r.beta)),
    ("beta_R", lambda r: str(r.beta_r)),
    ("RAM[b]", lambda r: str(r.ram_bytes)),
    ("SAM[b]", lambda r: str(r.sam_bytes)),
    ("rec[s]", lambda r: f"{r.record_seconds:.3f}"),
    ("sweep[s]", lambda r: f"{r.sweep_seconds:.3f}"),
    ("fd_err", lambda r: "" if r.grad_check_max_rel_err is None
     else f"{r.grad_check_max_rel_err:.2e}"),
]


def emit_table(reports: list[MemoryReport]) -> str:
    if not reports:
        raise ValueError("no reports to emit")
    rows = [[head for head, _ in _COLUMNS]]
    rows += [[fmt(r) for _, fmt in _COLUMNS] for r in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def emit_report(reports: list[MemoryReport], fmt: str = "table") -> str:
    if fmt == "table":
        return emit_table(reports)
    if fmt == "json":
        return emit_json(reports)
    raise ValueError(f"unknown report format {fmt!r}")
