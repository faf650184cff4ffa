"""util.scan: the one loop that turns failure slabs, alone or in blocks, into a
least witness; util.blocks, the cut of outer elements into blocks; and
util.distinct, the distinct indices of arrays by mask."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def test_expired_budget_raises_before_the_first_block_is_built(monkeypatch):
    monkeypatch.setenv(util.BUDGET_ENV, "-1")
    built = []

    def items():
        for xs in util.blocks(10, 4):
            built.append(xs)
            yield [(int(x),) for x in xs], np.ones((len(xs), 4), dtype=bool)

    with pytest.raises(BudgetExceeded) as exc, util.run_budget():
        util.scan("a stage", items())
    assert exc.value.payload == {"stage": "a stage"}
    assert built == []


def test_blocks_cut_at_the_cap():
    cap = util.BLOCK_ENTRIES
    assert [b.tolist() for b in util.blocks(5, cap // 2)] == [[0, 1], [2, 3], [4]]
    assert [b.tolist() for b in util.blocks(3, cap + 1)] == [[0], [1], [2]]  # above it: alone
    assert [b.tolist() for b in util.blocks(4, 0)] == [[0, 1, 2, 3]]
    assert list(util.blocks(0, 7)) == []


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_blocks_scan_as_their_slabs_one_at_a_time(data):
    # slab (i, j) is slab i of stack j; one at a time they come i-major
    n = data.draw(st.integers(0, 7))
    shapes = data.draw(st.lists(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                                min_size=1, max_size=3))
    sparse = st.sampled_from((False,) * 7 + (True,))
    stacks = [data.draw(hnp.arrays(bool, (n, *shape), elements=sparse)) for shape in shapes]
    m = len(stacks)
    singles = [((i, j), stacks[j][i]) for i in range(n) for j in range(m)]
    want = util.scan("s", singles)

    def keyed(xs):
        return [(int(i), j) for i in xs for j in range(m)]

    # blocks at the cap, entries counted over all stacks
    cap = data.draw(st.integers(1, 40))
    entries = sum(int(np.prod(shape)) for shape in shapes)
    with mock.patch.object(util, "BLOCK_ENTRIES", cap):
        cut = list(util.blocks(n, entries))
    assert all(len(xs) == 1 or len(xs) * entries <= cap for xs in cut)
    assert util.scan("s", ((keyed(xs), tuple(s[xs] for s in stacks)) for xs in cut)) == want

    # random cuts, each piece a block or its slabs one at a time
    bounds = sorted(set(data.draw(st.lists(st.integers(0, n), max_size=4))) | {0, n})
    items = []
    for lo, hi in zip(bounds, bounds[1:]):
        xs = np.arange(lo, hi)
        if data.draw(st.booleans()):
            items += [((int(i), j), stacks[j][i]) for i in xs for j in range(m)]
        elif m == 1 and data.draw(st.booleans()):  # one stack may come as a bare mask
            items.append((keyed(xs), stacks[0][xs]))
        else:
            items.append((keyed(xs), tuple(s[xs] for s in stacks)))
    assert util.scan("s", items) == want


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_distinct_is_np_unique(data):
    n = data.draw(st.integers(1, 600))
    dtype = data.draw(st.sampled_from([np.int32, np.int64]))
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=12)
    arrays = data.draw(
        st.lists(hnp.arrays(dtype, shapes, elements=st.integers(0, n - 1)), min_size=1, max_size=3)
    )
    got = util.distinct(n, *arrays)
    assert got == np.unique(np.concatenate([a.ravel() for a in arrays])).tolist()
    assert all(type(v) is int for v in got)
