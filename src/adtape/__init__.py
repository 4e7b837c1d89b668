"""Reverse-mode algorithmic differentiation with gradient tapes, three
adjoint memory strategies, out-of-core tape streaming and byte-exact
RAM/SAM accounting."""

from .blockstore import BlockStore, BlockStoreError
from .interpret import (BANDWIDTH, FLAT, LVALUE, STRATEGIES,
                        SeedError, SlotCollisionError, adjoint_slot_count,
                        gradient_check, propagate, propagate_bandwidth,
                        propagate_flat, propagate_lvalue)
from .metrics import MemoryReport, account, build_report, emit_report
from .problems import PROBLEMS, StabilityError, fd_oracle
from .scalar import (ActiveScalar, Recorder, declare_lvalue, record_problem,
                     run_passive, value_of)
from .tape import DAG, DCG, REMAINDER, Elemental, Tape, TapeError, TapeStats

__all__ = [
    "ActiveScalar", "BlockStore", "BlockStoreError", "DAG", "DCG",
    "Elemental", "MemoryReport", "PROBLEMS", "REMAINDER",
    "Recorder", "SeedError", "SlotCollisionError", "StabilityError",
    "Tape", "TapeError", "TapeStats", "account", "adjoint_slot_count",
    "build_report", "declare_lvalue", "emit_report", "fd_oracle",
    "gradient_check", "propagate", "propagate_bandwidth",
    "propagate_flat", "propagate_lvalue", "record_problem", "run_passive",
    "value_of", "FLAT", "BANDWIDTH", "LVALUE", "STRATEGIES",
]

__version__ = "0.1.0"
