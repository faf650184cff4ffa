"""The slab scans of the pair laws against the per-row scans they replaced.

The references below are _pair_condition_witness, check_lemma_commutator_bracket
and check_partner_generators as they stood when each outer element was still
scanned one row (or one element) at a time.  Both must report the same
display or side, the same condition and the same least witness, on
perturbed actions of the corpus self pairs that mostly break some law.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlacalc.actions import (
    SIDES,
    CompatiblePair,
    MlaAction,
    _pair_condition_witness,
    check_lemma_commutator_bracket,
    check_partner_generators,
)
from mlacalc.corpus import get_group, group_names
from mlacalc.errors import IdentityViolation
from mlacalc.mla import make_improper_star, make_trivial_star
from mlacalc.util import CheckReport

# --- the per-row references ------------------------------------------------------


def reference_pair_condition_witness(gh, hg, cond):
    G, H = gh.actor.group, gh.acted.group
    Gs, Hs = gh.actor.star, gh.acted.star

    def scan(n_a, n_b, fail_row):
        for a in range(n_a):
            for b in range(n_b):
                bad = fail_row(a, b)
                if bad.any():
                    return [a, b, int(np.flatnonzero(bad)[0])]
        return None

    if cond == 1:
        displays = (
            ("G", G.order, H.order, lambda g, h: hg.phi[gh.phi[g, h]]
             != G.conj_table[g][hg.phi[h][G.conj_table[G.inv(g)]]]),
            ("H", H.order, G.order, lambda h, g: gh.phi[hg.phi[h, g]]
             != H.conj_table[h][gh.phi[g][H.conj_table[H.inv(h)]]]),
        )
    elif cond == 2:
        displays = (
            ("H", G.order, H.order, lambda g, h: gh.bracket[G.inv(hg.brk(h, g))]
             != Hs[gh.brk(g, h)]),
            ("G", H.order, G.order, lambda h, g: hg.bracket[H.inv(gh.brk(g, h))]
             != Gs[hg.brk(h, g)]),
        )
    elif cond == 3:
        displays = (
            ("H", G.order, H.order, lambda g, h: H.conj_table[gh.brk(g, h)][
                gh.phi[hg.brk(h, g)]] != np.arange(H.order)),
            ("G", G.order, H.order, lambda g, h: hg.phi[gh.brk(g, h)][
                G.conj_table[hg.brk(h, g)]] != np.arange(G.order)),
        )
    elif cond == 4:
        displays = (
            ("G", G.order, H.order, lambda g, h: G.conj_table[g][hg.bracket[h]]
             != hg.bracket[gh.phi[g, h]][G.conj_table[g]]),
            ("H", H.order, G.order, lambda h, g: H.conj_table[h][gh.bracket[g]]
             != gh.bracket[hg.phi[h, g]][H.conj_table[h]]),
        )
    else:
        displays = (
            ("H", G.order, H.order, lambda g, h: gh.bracket[G.mul(g, hg.phi[h, G.inv(g)])]
             != Hs[gh.mixed_comm_table[g, h]]),
            ("G", H.order, G.order, lambda h, g: hg.bracket[H.mul(h, gh.phi[g, H.inv(h)])]
             != Gs[hg.mixed_comm_table[h, g]]),
        )
    for side, n_a, n_b, fail_row in displays:
        w = scan(n_a, n_b, fail_row)
        if w:
            return side, w
    return None


def reference_lemma_commutator_bracket(pair):
    checked = 0
    for side in SIDES:
        act, co = pair.action(side), pair.companion(side)
        G, H = act.actor.group, act.acted.group
        for g in range(G.order):
            for h in range(H.order):
                left = H.comm_table[act.brk(g, h)]
                mid = act.bracket[G.mul(g, co.act(h, G.inv(g)))]
                right = act.acted.star[int(act.mixed_comm_table[g, h])]
                checked += H.order
                neq = (left != mid) | (mid != right)
                if neq.any():
                    raise IdentityViolation(
                        "commutator/bracket/star chain breaks",
                        side=side,
                        witness=[g, h, int(np.flatnonzero(neq)[0])],
                    )
    return CheckReport("commutator-bracket-chain", True, checked)


def reference_partner_generators(pair):
    checked = 0
    for side in SIDES:
        act, co = pair.action(side), pair.companion(side)
        G, H = act.actor.group, act.acted.group
        for g in range(G.order):
            for h in range(H.order):
                x = H.mul(H.identity, int(act.mixed_defect_table[g, h]))
                y = G.mul(co.brk(h, g), G.mul(g, co.act(h, G.inv(g))))
                checked += G.order + H.order
                bad = None
                on_actor = co.phi[x] != G.conj_table[y]
                on_acted = H.conj_table[x] != act.phi[y]
                if on_actor.any():
                    bad = "actor", int(np.flatnonzero(on_actor)[0])
                elif on_acted.any():
                    bad = "acted", int(np.flatnonzero(on_acted)[0])
                if bad:
                    raise IdentityViolation(
                        "generator partner does not act identically",
                        side=side,
                        witness=[g, h, bad[1]],
                        on=bad[0],
                    )
    return CheckReport("partner-generators", True, checked)


def outcome(check, pair):
    try:
        return "pass", check(pair)
    except IdentityViolation as exc:
        return "fail", str(exc), exc.payload


# --- the property ------------------------------------------------------------------

SMALL = [n for n in group_names() if 2 <= get_group(n).order <= 12]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_slab_scans_match_the_row_scans(data):
    # conjugation self pairs of the corpus (trivial star and bracket, or the
    # improper star as bracket), then 1-2 entries of phi or bracket changed
    # on either action; the tables need not form a compatible pair any more
    G = get_group(data.draw(st.sampled_from(SMALL)))
    n = G.order
    M = data.draw(st.sampled_from([make_trivial_star, make_improper_star]))(G)
    bracket = np.full((n, n), G.identity) if M.star_is_trivial else M.star
    tables = {side: {"phi": G.conj_table.copy(), "bracket": bracket.copy()} for side in SIDES}
    for _ in range(data.draw(st.integers(1, 2))):
        side = data.draw(st.sampled_from(SIDES))
        arr = tables[side][data.draw(st.sampled_from(["phi", "bracket"]))]
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        old = int(arr[i, j])
        arr[i, j] = data.draw(st.integers(0, n - 1).filter(lambda v: v != old))
    gh, hg = (MlaAction(M, M, tables[side]["phi"], tables[side]["bracket"]) for side in SIDES)

    for cond in (1, 2, 3, 4, 5):
        want = reference_pair_condition_witness(gh, hg, cond)
        assert _pair_condition_witness(gh, hg, cond) == want
    pair = CompatiblePair(gh, hg)
    assert outcome(check_lemma_commutator_bracket, pair) == outcome(
        reference_lemma_commutator_bracket, pair
    )
    assert outcome(check_partner_generators, pair) == outcome(reference_partner_generators, pair)


@pytest.mark.parametrize("name", SMALL)
def test_corpus_self_pairs_pass_both_scans(name):
    G = get_group(name)
    for M in (make_trivial_star(G), make_improper_star(G)):
        bracket = np.full((G.order, G.order), G.identity) if M.star_is_trivial else M.star
        act = MlaAction(M, M, G.conj_table, bracket)
        pair = CompatiblePair(act, act)
        for cond in (1, 2, 3, 4, 5):
            assert _pair_condition_witness(act, act, cond) is None
            assert reference_pair_condition_witness(act, act, cond) is None
        assert outcome(check_lemma_commutator_bracket, pair) == outcome(
            reference_lemma_commutator_bracket, pair
        )
        assert outcome(check_partner_generators, pair) == outcome(
            reference_partner_generators, pair
        )
