"""Small shared helpers."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded

BUDGET_ENV = "MLACALC_BUDGET_SECS"


@dataclass(frozen=True)
class Deadline:
    """Cooperative wall-clock cap; ``at`` is a time.monotonic() instant or None."""

    at: float | None = None

    def check(self, what: str = "operation") -> None:
        if self.at is not None and time.monotonic() > self.at:
            raise BudgetExceeded(f"time budget exhausted during {what}", stage=what)

    @staticmethod
    def from_seconds(secs: float | None) -> "Deadline":
        if secs is None:
            return Deadline(None)
        return Deadline(time.monotonic() + float(secs))

    @staticmethod
    def from_env() -> "Deadline":
        raw = os.environ.get(BUDGET_ENV)
        return Deadline.from_seconds(float(raw)) if raw else Deadline(None)


def budget_from_env() -> float | None:
    raw = os.environ.get(BUDGET_ENV)
    return float(raw) if raw else None


def first_true(mask: np.ndarray) -> tuple[int, ...] | None:
    """Row-major index of the first True entry of ``mask``, or None."""
    if not mask.any():
        return None
    return tuple(int(v) for v in np.unravel_index(int(mask.argmax()), mask.shape))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exhaustive check: what ran, how many tuples, details."""

    name: str
    passed: bool
    tuples_checked: int
    witness: tuple[int, ...] | None = None
    detail: str = ""
