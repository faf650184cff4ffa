"""Coset enumeration against brute-force permutation realizations."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlacalc import coset, groups
from mlacalc.cli import main
from mlacalc.coset import Presentation, coset_enumerate, make_presentation
from mlacalc.errors import BudgetExceeded, CosetCapExceeded, InputError, ResourceError
from mlacalc.groups import subgroup_closure
from mlacalc.util import run_budget


def _compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def _perm_group(gens):
    ident = tuple(range(4))
    members = {ident}
    queue = [ident]
    while queue:
        p = queue.pop()
        for q in gens:
            r = _compose(p, q)
            if r not in members:
                members.add(r)
                queue.append(r)
    return members


def _element_orders(G):
    out = []
    for x in range(G.order):
        k, y = 1, x
        while y != G.identity:
            y = int(G.table[y, x])
            k += 1
        out.append(k)
    return sorted(out)


def test_triangle_presentation_matches_s4_search():
    # the largest pair (p, q) in Sym(4) with p^2 = q^3 = (pq)^2 = 1 generates
    # a group of order 6, and the enumeration must land on exactly that
    ident = tuple(range(4))
    best = 1
    for p in permutations(range(4)):
        if _compose(p, p) != ident:
            continue
        for q in permutations(range(4)):
            if _compose(q, _compose(q, q)) != ident:
                continue
            pq = _compose(p, q)
            if _compose(pq, pq) != ident:
                continue
            best = max(best, len(_perm_group([p, q])))
    assert best == 6

    pres = make_presentation(("a", "b"), [(1, 1), (2, 2, 2), (1, 2, 1, 2)])
    res = coset_enumerate(pres)
    assert res.group.order == best
    assert not res.group.is_abelian


def test_single_relator_cyclic():
    res = coset_enumerate(make_presentation(("a",), [(1,) * 12]))
    G = res.group
    assert G.order == 12 and G.is_abelian
    # abelian with an element of full order: cyclic certificate
    assert max(_element_orders(G)) == 12


def test_quaternion_presentation():
    pres = make_presentation(("a", "b"), [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)])
    res = coset_enumerate(pres)
    assert res.group.order == 8
    assert _element_orders(res.group) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_trivial_presentations():
    res = coset_enumerate(make_presentation((), ()))
    assert res.group.order == 1 and res.group.labels == ("1",)
    res = coset_enumerate(make_presentation((), ()), identity_label="e")
    assert res.group.labels == ("e",)
    res = coset_enumerate(make_presentation(("a",), [(1,)]))
    assert res.group.order == 1


def test_gen_images_generate_and_satisfy_relators():
    pres = make_presentation(("a", "b"), [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)])
    res = coset_enumerate(pres)
    G, img = res.group, res.gen_image
    assert subgroup_closure(G, img).members == frozenset(range(G.order))
    for rel in pres.relators:
        x = G.identity
        for e in rel:
            v = int(img[abs(e) - 1])
            x = G.mul(x, v if e > 0 else G.inv(v))
        assert x == G.identity


class _AllocationLog:
    """Stands in for numpy inside coset: records the shape of every np.empty."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, *args, **kwargs):
        self.shapes.append(tuple(shape))
        return np.empty(shape, *args, **kwargs)


def test_order_cap_is_enforced_before_the_tables_exist(monkeypatch, fixtures_dir):
    pres = make_presentation(("a", "b"), [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)])
    log = _AllocationLog()
    monkeypatch.setattr(coset, "np", log)
    monkeypatch.setattr(groups, "ORDER_CAP", 4)
    with pytest.raises(ResourceError) as exc:
        coset_enumerate(pres)
    assert exc.value.payload == {"order": 8, "cap": 4}
    assert not [shape for shape in log.shapes if 8 in shape]
    # Q8 (order 8) parses under a cap of 8; its tensor square (order 64) is
    # refused before its tables exist, and the CLI maps that to exit code 3
    monkeypatch.setattr(groups, "ORDER_CAP", 8)
    assert main(["tensor", str(fixtures_dir / "tensors" / "q8-trivial.json"), "--json"]) == 3
    assert not [shape for shape in log.shapes if 64 in shape]


def test_free_group_exceeds_cap():
    with pytest.raises(CosetCapExceeded):
        coset_enumerate(make_presentation(("a", "b"), ()), max_cosets=64)


@pytest.mark.parametrize("max_cosets", [1, 100])
def test_coset_table_stays_within_the_cap(max_cosets):
    # the table grows by doubling, but never to more rows than the cap admits
    eng = coset._Enumerator(make_presentation(("a", "b"), ()), max_cosets)
    with pytest.raises(CosetCapExceeded):
        eng.run()
    assert eng.defined == max_cosets
    assert len(eng.table) <= max_cosets


def test_expired_deadline_stops_enumeration(monkeypatch):
    pres = make_presentation(("a", "b"), [(1,) * 6, (2,) * 6])
    monkeypatch.setenv("MLACALC_BUDGET_SECS", "-1")
    with pytest.raises(BudgetExceeded), run_budget():
        coset_enumerate(pres)


def test_presentation_input_errors():
    with pytest.raises(InputError):
        make_presentation(("a", "a"), ())
    with pytest.raises(InputError):
        make_presentation(("a",), [(0,)])
    with pytest.raises(InputError):
        make_presentation(("a",), [(2,)])
    with pytest.raises(InputError):
        coset_enumerate(make_presentation(("a",), [(1,)]), max_cosets=0)
    with pytest.raises(InputError):
        coset_enumerate(Presentation((), {1: (np.array([0]), np.array([[1]]))}))


@pytest.mark.parametrize(
    "labels, by_length, entry, relator",
    [
        # a 0 entry: enumerated to a group of order 1 when unchecked
        (("a",), {1: (np.array([0]), np.array([[0]]))}, 0, [0]),
        # past the last generator: a bare IndexError in the enumerator when unchecked
        (("a",), {1: (np.array([0]), np.array([[-2]]))}, -2, [-2]),
        (("a", "b"), {3: (np.array([0]), np.array([[1, 0, 2]]))}, 0, [1, 0, 2]),
        # int8 -128 is its own absolute value
        (("a",), {2: (np.array([0]), np.array([[1, -128]], dtype=np.int8))}, -128, [1, -128]),
    ],
)
def test_hand_built_presentation_validates_itself(labels, by_length, entry, relator):
    with pytest.raises(InputError) as exc:
        coset_enumerate(Presentation(labels, by_length))
    assert str(exc.value) == f"relator entry {entry} references no generator"
    assert exc.value.payload == {"relator": relator}


def test_relator_arrays_must_be_2d_and_in_range():
    # -128 is its own absolute value in int8: the range check must not wrap
    with pytest.raises(InputError) as exc:
        make_presentation(("a",), np.array([[1, 1], [-128, 1]], dtype=np.int8))
    assert exc.value.payload == {"relator": [-128, 1]}
    with pytest.raises(InputError) as exc:
        make_presentation(("a", "b"), np.array([1, 2]))
    assert exc.value.payload == {"shape": [2]}


@st.composite
def _relator_arrays(draw):
    ngen = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int64]))
    width = draw(st.integers(0, 4))
    valid = [g for g in range(-ngen, ngen + 1) if g]
    entry = st.sampled_from(valid * 6 + [0, ngen + 1, -128])
    # rows drawn from a small pool, so that most arrays repeat some row
    pool = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=3))
    rows = draw(st.lists(st.sampled_from(pool), max_size=8))
    return ngen, np.array(rows, dtype=dtype).reshape(len(rows), width)


def _presentation_or_error(labels, relators):
    try:
        return make_presentation(labels, relators).relators
    except InputError as ex:
        return str(ex), ex.payload


@settings(max_examples=200, deadline=None)
@given(case=_relator_arrays())
@example(case=(2, np.array([[1, -2], [-128, 1], [1, -2]], dtype=np.int8)))
def test_array_and_list_relators_agree(case):
    ngen, rows = case
    labels = [f"g{i}" for i in range(ngen)]
    got = _presentation_or_error(labels, rows)
    assert got == _presentation_or_error(labels, rows.tolist())
    words = [tuple(r) for r in rows.tolist()]
    bad = [w for w in words if any(e == 0 or abs(e) > ngen for e in w)]
    if bad:
        assert got[1] == {"relator": list(bad[0])}
    else:  # first occurrences, in input order; empty rows dropped
        assert got == tuple(w for w in dict.fromkeys(words) if w)


def _replay(tbl, c, rel):
    for e in rel:
        c = int(tbl[c, 2 * (abs(e) - 1) + (e < 0)])
    return c


def test_closure_check_names_the_least_failing_relator():
    # the regular table of S3 = <a, b | b^2, (ab)^2, a^3>, then a's image swapped
    # at cosets 0 and 1: relators of lengths 3 and 4 fail, b^2 and b a^-1 a b close
    elems = list(permutations(range(3)))
    a, b = (1, 2, 0), (1, 0, 2)
    a_inv = tuple(a.index(i) for i in range(3))
    tbl = np.array([[elems.index(_compose(c, g)) for g in (a, a_inv, b, b)] for c in elems])
    pres = make_presentation(("a", "b"), [(2, 2), (2, -1, 1, 2), (1, 2, 1, 2), (1, 1, 1), (-1, -1, -1)])
    by_length = coset._Enumerator(pres, 1).by_length
    coset._check_relators_close(pres, by_length, tbl)  # the true table closes them all
    tbl[[0, 1], 0] = tbl[[1, 0], 0]
    tbl[tbl[:, 0], 1] = np.arange(6)
    closes = [all(_replay(tbl, c, r) == c for c in range(6)) for r in pres.relators]
    assert closes == [True, True, False, False, False]
    with pytest.raises(InputError) as exc:
        coset._check_relators_close(pres, by_length, tbl)
    # the length-3 relators are checked first, but (ab)^2 comes first in input order
    assert exc.value.payload == {"relator": [1, 2, 1, 2]}


def test_relators_deduplicated_and_empty_dropped():
    pres = make_presentation(("a",), [(), (1, 1), (1, 1)])
    assert pres.relators == ((1, 1),)


def test_enumeration_is_deterministic():
    pres = make_presentation(("a", "b"), [(1, 1), (2, 2, 2), (1, 2, 1, 2)])
    r1 = coset_enumerate(pres)
    r2 = coset_enumerate(pres)
    assert (r1.group.table == r2.group.table).all()
    assert (r1.gen_image == r2.gen_image).all()
    assert r1.group.labels == r2.group.labels


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 8), n=st.integers(1, 8))
def test_abelianized_two_generator_groups(m, n):
    pres = make_presentation(("a", "b"), [(1,) * m, (2,) * n, (1, 2, -1, -2)])
    res = coset_enumerate(pres)
    assert res.group.order == m * n
    assert res.group.is_abelian
