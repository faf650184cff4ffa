"""util.scan: the one loop that turns failure slabs into a least witness."""

from __future__ import annotations

import numpy as np
import pytest

from mlacalc import util
from mlacalc.errors import BudgetExceeded


def _slabs(masks, pulled):
    """(a,) prefixed slabs over the masks, recording each a as it is pulled."""
    for a, mask in enumerate(masks):
        pulled.append(a)
        yield (a,), np.asarray(mask, dtype=bool)


def test_least_witness_across_slabs():
    masks = [np.zeros((2, 3)), [[0, 0, 0], [0, 1, 1]], [[1, 1, 1], [1, 1, 1]]]
    pulled = []
    assert util.scan("test", _slabs(masks, pulled)) == ((1, 1, 1), 12)
    assert pulled == [0, 1]  # the slab after the failing one is never built


def test_count_includes_the_failing_slab():
    masks = [np.zeros(4), np.zeros(4), [0, 0, 0, 1]]
    assert util.scan("test", _slabs(masks, [])) == ((2, 3), 12)
    assert util.scan("test", _slabs(masks[:2], [])) == (None, 8)
    assert util.scan("test", _slabs([], [])) == (None, 0)


def test_prefix_may_carry_any_values():
    slabs = [(("left", 7), np.array([False, True]))]
    assert util.scan("test", slabs) == (("left", 7, 1), 2)


def test_expired_budget_raises_before_the_first_slab_is_built(monkeypatch):
    monkeypatch.setenv(util.BUDGET_ENV, "-1")
    pulled = []
    with pytest.raises(BudgetExceeded) as exc, util.run_budget():
        util.scan("a stage", _slabs([np.ones(3)], pulled))
    assert exc.value.payload == {"stage": "a stage"}
    assert pulled == []


def test_budget_is_checked_before_each_slab(monkeypatch):
    checks = []
    monkeypatch.setattr(util, "check_budget", checks.append)
    pulled = []

    def slabs():
        for a in range(3):
            assert checks == ["s"] * (a + 1), "the budget must be checked before slab a is built"
            yield from _slabs([np.zeros(2)], pulled)

    assert util.scan("s", slabs()) == (None, 6)
    assert checks == ["s"] * 4  # once more before the exhausted generator says so
