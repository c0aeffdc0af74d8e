"""Resource caps and the evaluation budget.

Every potentially explosive step (truth tables, clause distribution, DNF
conversion, count splits, model enumeration) checks one of these caps and
raises ResourceLimitError instead of running away; constituent expansion
checks the constant `normal.MAX_SIGNATURE` instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import ResourceLimitError


@dataclass(frozen=True)
class Limits:
    max_letters: int = 20       # truth-table letters (2^k rows)
    max_conjuncts: int = 20_000 # width of a clause form, a DNF or a count split
    eval_ops: int = 100_000_000  # oracle step budget per top-level call
    eval_ms: int | None = None  # optional wall-clock budget for oracle calls


DEFAULT_LIMITS = Limits()


class Budget:
    """Step counter (and optional deadline) for the model-enumeration oracle."""

    def __init__(self, ops: int, ms: int | None = None):
        self.remaining = ops
        self.deadline = time.monotonic() + ms / 1000.0 if ms is not None else None

    @classmethod
    def from_limits(cls, limits: Limits) -> "Budget":
        return cls(limits.eval_ops, limits.eval_ms)

    def tick(self, cost: int = 1) -> None:
        self.remaining -= cost
        if self.remaining < 0:
            raise ResourceLimitError("evaluation budget exhausted")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("evaluation time budget exhausted")
