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
    return tuple(np.array(np.unravel_index(mask.argmax(), mask.shape)).tolist())


def distinct(n: int, *values: np.ndarray) -> list[int]:
    """The distinct entries of the arrays, each an index below n, in increasing
    order: np.unique's answer, scattered into a mask instead of sorted."""
    seen = np.zeros(n, dtype=bool)
    for v in values:
        seen[v] = True
    return seen.nonzero()[0].tolist()


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


# the most entries a law family builds in one block of slabs (see blocks)
BLOCK_ENTRIES = 1 << 16


def row_blocks(n: int, entries: int) -> list[slice]:
    """range(n) cut into consecutive blocks of outer elements, for a family
    that builds ``entries`` mask entries per outer element: each block holds
    as many elements as BLOCK_ENTRIES allows, and at least one, so an outer
    element whose slabs exceed the cap scans alone."""
    k = max(1, BLOCK_ENTRIES // max(entries, 1))
    return [slice(lo, min(lo + k, n)) for lo in range(0, n, k)]


def blocks(n: int, entries: int) -> Iterator[np.ndarray]:
    """The row_blocks as arrays of their elements."""
    return (np.arange(s.start, s.stop) for s in row_blocks(n, entries))


def scan(stage: str, items: Iterable[tuple]) -> tuple[tuple | None, int]:
    """The least failure of a law scanned slab by slab: (witness or None, tuples).

    ``items`` yields, in the order of their tuples, single slabs (prefix, mask)
    or blocks (keys, stacks), each mask set where the law fails at
    (*prefix, *position).  A block's stacks are one mask or a tuple of them,
    each holding the slabs of one law along a leading axis of one length k;
    its slabs are taken in the order i = 0..k-1, and within each i stack by
    stack, and keys[i * len(stacks) + j] is the prefix of slab i of stack j.
    So a block gives the witness and the count its slabs give one at a time,
    in one numpy pass instead of a Python step per slab; a family cuts its
    outer elements into blocks of at most BLOCK_ENTRIES entries (blocks).

    The witness is the tuple at the first set entry of the first slab with
    one; tuples counts the entries of every slab scanned, the failing one
    included.  The budget is checked before each item is pulled (budgeted).
    """
    tuples = 0
    for keys, stacks in budgeted(stage, items):
        if isinstance(keys, tuple):  # a single slab
            tuples += stacks.size
            if (at := first_true(stacks)) is not None:
                return (*keys, *at), tuples
            continue
        stacks = (stacks,) if isinstance(stacks, np.ndarray) else stacks
        # (slab i, stack j, position in the slab) of each stack's first failure
        hits = [(at[0], j, at[1:]) for j, at in enumerate(map(first_true, stacks)) if at]
        if not hits:
            tuples += sum(m.size for m in stacks)
            continue
        i, j, pos = min(hits)
        sizes = [m.size // len(m) for m in stacks]
        tuples += i * sum(sizes) + sum(sizes[: j + 1])
        return (*keys[i * len(stacks) + j], *pos), tuples
    return None, tuples


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exhaustive check: what ran, how many tuples, details."""

    name: str
    passed: bool
    tuples_checked: int
    witness: tuple[int, ...] | None = None
    detail: str = ""
