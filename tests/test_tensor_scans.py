"""The tensor scans against plain nested loops, on passing and failing tensors.

Each reference below walks the tuples of one check in its order with scalar
table reads and stops at the first failure.  A corpus tensor with one cell of
its symbol table or of an induced action changed must give the same verdict,
witness, tuple count and detail from the scan and from its reference.
"""

from __future__ import annotations

import dataclasses
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlacalc.tensor import (
    TENSOR_IDENTITY_NAMES,
    check_defining_relations,
    check_induced_action_formulas,
    check_tensor_identities,
    check_tensor_lie_commutator,
)
from mlacalc.util import CheckReport

# --- the nested-loop references -------------------------------------------------


def _first(name, detail, checked, tuples, fails):
    """The report of a scan over ``tuples`` that stops at the first failure."""
    for tup in tuples:
        if fails(*tup):
            return CheckReport(name, False, checked, tuple(tup), detail)
    return CheckReport(name, True, checked, None, detail)


def _slots(t):
    """g·(^h g)⁻¹ and ^g h·h⁻¹ at (g, h)."""
    pair = t.pair
    G, H = pair.G.group, pair.H.group
    act, co = pair.g_on_h, pair.h_on_g
    return (
        lambda g, h: G.mul(g, G.inv(co.act(h, g))),
        lambda g, h: H.mul(act.act(g, h), H.inv(h)),
    )


def reference_tensor_identities(t):
    G, H, K = t.pair.G.group, t.pair.H.group, t.group
    tm, ag, ah = t.tensor_map, t.act_g, t.act_h
    ng, nh = G.order, H.order
    gslot, hslot = _slots(t)
    e = K.identity

    def sym(g, h):
        return int(tm[g, h])

    def report(k, checked, witness):
        name, detail = f"tensor-identity-{k}", TENSOR_IDENTITY_NAMES[k]
        return CheckReport(name, witness is None, checked, witness, detail)

    def first(tuples, fails):
        return next((tuple(tup) for tup in tuples if fails(*tup)), None)

    out = {}
    w = first(((G.identity, h) for h in range(nh)), lambda g, h: sym(g, h) != e)
    w = w or first(((g, H.identity) for g in range(ng)), lambda g, h: sym(g, h) != e)
    out[1] = report(1, ng + nh, w)
    out[2] = report(2, 2 * ng * nh, first(
        product(range(ng), range(nh)),
        lambda g, h: K.inv(sym(g, h)) != ag[g, sym(G.inv(g), h)]
        or K.inv(sym(g, h)) != ah[h, sym(g, H.inv(h))],
    ))
    out[3] = report(3, ng * nh * K.order, first(
        product(range(ng), range(nh), range(K.order)),
        lambda g, h, x: K.conjugate(sym(g, h), x) != ah[hslot(g, h), x],
    ))
    out[4] = report(4, ng * nh * nh, first(
        product(range(ng), range(nh), range(nh)),
        lambda g, h, hp: sym(gslot(g, h), hp) != K.mul(sym(g, h), ah[hp, K.inv(sym(g, h))]),
    ))
    # scanned over (g, g', h), reported as (g, h, g')
    w = first(
        product(range(ng), range(ng), range(nh)),
        lambda g, gp, h: sym(gp, hslot(g, h)) != K.mul(ag[gp, sym(g, h)], K.inv(sym(g, h))),
    )
    out[5] = report(5, ng * nh * ng, w and (w[0], w[2], w[1]))
    out[6] = report(6, (ng * nh) ** 2, first(
        product(range(ng), range(nh), range(ng), range(nh)),
        lambda g, h, gp, hp: K.commutator(sym(g, h), sym(gp, hp))
        != sym(gslot(g, h), hslot(gp, hp)),
    ))
    return out


def reference_tensor_lie_commutator(t):
    pair = t.pair
    G, H, K = pair.G.group, pair.H.group, t.group
    act, co = pair.g_on_h, pair.h_on_g
    tm, ag, ah = t.tensor_map, t.act_g, t.act_h
    D = t.algebra.lie_defect_table
    checked = 0
    for g, h in product(range(G.order), range(H.order)):
        dg, bg = G.inv(int(co.mixed_defect_table[h, g])), G.inv(co.brk(h, g))
        checked += G.order * H.order
        for gp, hp in product(range(G.order), range(H.order)):
            dh, bh = int(act.mixed_defect_table[gp, hp]), act.brk(gp, hp)
            pref = ag[dg, ah[bh, tm[bg, dh]]]
            rhs = K.mul(K.mul(pref, tm[dg, bh]), tm[dg, dh])
            if D[tm[g, h], tm[gp, hp]] != rhs:
                return CheckReport("tensor-lie-commutator", False, checked, (g, h, gp, hp))
    return CheckReport("tensor-lie-commutator", True, checked)


def reference_defining_relations(t):
    pair = t.pair
    G, H, K = pair.G.group, pair.H.group, t.group
    act, co = pair.g_on_h, pair.h_on_g
    tm = t.tensor_map
    ng, nh = G.order, H.order
    G3, H3 = (range(ng), range(ng), range(nh)), (range(ng), range(nh), range(nh))

    def trivial(a, b, c):  # a · b⁻¹ · c⁻¹
        return K.mul(K.mul(a, K.inv(b)), K.inv(c)) == K.identity

    img = t.result.gen_image

    # (x⊗y)⋆(x'⊗y') = ⟨y,x⟩⁻¹ ⊗ ⟨x',y'⟩ at generators i = (x, y), j = (x', y')
    def seed(i, j):
        (x, y), (xp, yp) = divmod(i, nh), divmod(j, nh)
        return img[G.inv(co.brk(y, x)) * nh + act.brk(xp, yp)]

    relations = [
        ("product in the right slot", H3, lambda x, y, yp: tm[x, H.mul(y, yp)]
         != K.mul(tm[x, y], tm[co.act(y, x), H.conjugate(y, yp)])),
        ("product in the left slot", G3, lambda x, xp, y: tm[G.mul(x, xp), y]
         != K.mul(tm[G.conjugate(x, xp), act.act(x, y)], tm[x, y])),
        ("left star relation", G3, lambda x, xp, y: not trivial(
            tm[pair.G.op(x, xp), act.act(xp, y)],
            tm[co.act(y, x), act.brk(xp, y)],
            tm[G.conjugate(x, xp), H.inv(act.brk(x, y))],
        )),
        ("right star relation", H3, lambda x, y, yp: not trivial(
            tm[co.act(yp, x), pair.H.op(y, yp)],
            tm[G.inv(co.brk(y, x)), H.conjugate(y, yp)],
            tm[co.brk(yp, x), act.act(x, y)],
        )),
        ("star seed", (range(ng * nh), range(ng * nh)), lambda i, j: t.algebra.op(img[i], img[j])
         != seed(i, j)),
    ]
    checked = 0
    for detail, ranges, fails in relations:
        checked += len(list(product(*ranges)))
        report = _first("tensor-defining-relations", detail, checked, product(*ranges), fails)
        if not report.passed:
            return report
    return CheckReport("tensor-defining-relations", True, checked)


def reference_induced_action_formulas(t):
    pair = t.pair
    G, H = pair.G.group, pair.H.group
    tm, ag, ah = t.tensor_map, t.act_g, t.act_h
    ng, nh = G.order, H.order
    name = "induced-action-formulas"
    left = _first(
        name, "left factor", ng * ng * nh, product(range(ng), range(ng), range(nh)),
        lambda g, x, y: ag[g, tm[x, y]] != tm[G.conjugate(g, x), pair.g_on_h.act(g, y)],
    )
    if not left.passed:
        return left
    right = _first(
        name, "right factor", left.tuples_checked + nh * ng * nh,
        product(range(nh), range(ng), range(nh)),
        lambda h, x, y: ah[h, tm[x, y]] != tm[pair.h_on_g.act(h, x), H.conjugate(h, y)],
    )
    return right if not right.passed else CheckReport(name, True, right.tuples_checked)


# --- the comparisons ----------------------------------------------------------------

CHECKS = [
    (check_tensor_identities, reference_tensor_identities),
    (check_tensor_lie_commutator, reference_tensor_lie_commutator),
    (check_defining_relations, reference_defining_relations),
    (check_induced_action_formulas, reference_induced_action_formulas),
]


@pytest.mark.parametrize("name", ["z2-trivial", "s3-improper-star", "q8-trivial"])
def test_corpus_tensors_pass_every_scan(tensors, name):
    t = tensors[name]
    for check, reference in CHECKS:
        got = check(t)
        assert got == reference(t)
        assert all(r.passed for r in (got.values() if isinstance(got, dict) else [got]))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_perturbed_tensors_fail_as_the_loops_do(tensors, data):
    # one cell of the symbol table or of an induced action changed; a small
    # row index reaches the identity rows that identity 1 reads
    t = tensors[data.draw(st.sampled_from(["s3-improper-star", "q8-trivial", "z2-trivial"]))]
    field = data.draw(st.sampled_from(["tensor_map", "act_g", "act_h"]))
    arr = getattr(t, field).copy()
    i = data.draw(st.integers(0, arr.shape[0] - 1))
    j = data.draw(st.integers(0, arr.shape[1] - 1))
    old = int(arr[i, j])
    arr[i, j] = data.draw(st.integers(0, t.order - 1).filter(lambda v: v != old))
    bad = dataclasses.replace(t, **{field: arr})
    for check, reference in CHECKS:
        assert check(bad) == reference(bad)
