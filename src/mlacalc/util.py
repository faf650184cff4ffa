"""Small shared helpers."""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

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


def budgeted(stage: str, items: Iterable[T]) -> Iterator[T]:
    """The items in order, with check_budget(stage) before each is pulled, so
    an item built lazily is not built once the budget is spent."""
    items = iter(items)
    while True:
        check_budget(stage)
        try:
            item = next(items)
        except StopIteration:
            return
        yield item


def scan(stage: str, slabs: Iterable[tuple[tuple, np.ndarray]]) -> tuple[tuple | None, int]:
    """The least failure of a law scanned slab by slab: (witness or None, tuples).

    ``slabs`` yields (prefix, mask) in the order of their tuples, mask set where
    the law fails at (*prefix, *position).  The witness is that tuple at the
    first set entry of the first slab with one; tuples counts the entries of
    every slab scanned, the failing one included.  The budget is checked before
    each slab is pulled (budgeted).
    """
    tuples = 0
    for prefix, mask in budgeted(stage, slabs):
        tuples += mask.size
        at = first_true(mask)
        if at is not None:
            return (*prefix, *at), tuples
    return None, tuples


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exhaustive check: what ran, how many tuples, details."""

    name: str
    passed: bool
    tuples_checked: int
    witness: tuple[int, ...] | None = None
    detail: str = ""
