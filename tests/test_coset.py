"""Coset enumeration against brute-force permutation realizations."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
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
        coset_enumerate(Presentation((), ((1,),)))


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
