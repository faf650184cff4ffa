"""Small shared helpers."""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, TypeVar

import numpy as np

from .errors import BudgetExceeded, InputError

BUDGET_ENV = "MLACALC_BUDGET_SECS"

_deadline: ContextVar[float | None] = ContextVar("_deadline", default=None)


@contextmanager
def run_budget() -> Iterator[None]:
    """Arm one MLACALC_BUDGET_SECS time budget for the enclosed run.

    Inside an enclosing run the budget it armed stays in force, so one
    budget covers a whole command however many layers open a run.  A value
    that is not a number of seconds raises InputError; a negative one is
    spent at once.
    """
    raw = os.environ.get(BUDGET_ENV)
    if _deadline.get() is not None or not raw:
        yield
        return
    try:
        secs = float(raw)
        if math.isnan(secs):
            raise ValueError(raw)
    except ValueError:
        raise InputError(f"{BUDGET_ENV} must be a number of seconds, got {raw!r}", value=raw) from None
    token = _deadline.set(time.monotonic() + secs)
    try:
        yield
    finally:
        _deadline.reset(token)


def check_budget(stage: str) -> None:
    """Raise BudgetExceeded, naming ``stage``, once the run's budget is spent.

    Outside a run nothing is armed and no clock is read.
    """
    at = _deadline.get()
    if at is not None and time.monotonic() > at:
        raise BudgetExceeded(f"time budget exhausted during {stage}", stage=stage)


T = TypeVar("T")


def memoized(memo: dict, key: Hashable, build: Callable[[], T]) -> T:
    """``memo[key]``, built by ``build()`` the first time it is asked for.

    A build that raises stores nothing, so it raises again on the next call.
    """
    if key not in memo:
        memo[key] = build()
    return memo[key]


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
