"""The slab scans of the pair laws against the per-row scans they replaced.

The references below are _pair_condition_witness, check_lemma_commutator_bracket,
check_partner_generators, check_star_to_bracket_level,
check_lie_conjugation_transfer and check_partner_closure_ops as they stood
when each outer element (or pair of elements) was still scanned one row or
one element at a time, and the two defect-ideal scans as plain loops over
pairs of members.  Both must report the same display or side, the same
condition, the same least witness and the same count, on perturbed actions
of the corpus self pairs that mostly break some law.
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
    bracket_ideal,
    check_compatibility,
    check_defect_centralizes_bracket_ideal,
    check_defect_fixes_opposite_bracket_ideal,
    check_lemma_commutator_bracket,
    check_lie_conjugation_transfer,
    check_partner_closure_ops,
    check_partner_generators,
    check_star_to_bracket_level,
    mixed_lie_ideal,
    partner_element,
    validate_action,
    witnessed_derived_terms,
)
from mlacalc.corpus import get_group, group_names
from mlacalc.errors import IdentityViolation, MlaError
from mlacalc.groups import validate_cayley
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


def reference_agreement(pair, side, x, y, message, prefix):
    act, co = pair.action(side), pair.companion(side)
    G, H = act.actor.group, act.acted.group
    on_actor = co.phi[x] != G.conj_table[y]
    on_acted = H.conj_table[x] != act.phi[y]
    for on, bad in (("actor", on_actor), ("acted", on_acted)):
        if bad.any():
            raise IdentityViolation(
                message, side=side, witness=[*prefix, int(np.flatnonzero(bad)[0])], on=on
            )


def reference_star_to_bracket_level(pair, level):
    checked = 0
    for side in SIDES:
        act = pair.action(side)
        term = witnessed_derived_terms(pair, side, level)[level]
        members = sorted(term.carrier.members)
        for x1 in members:
            z = partner_element(pair, side, term.words[x1])[1]
            for x2 in members:
                lhs, rhs = act.acted.op(x1, x2), act.brk(z, x2)
                checked += 1
                if lhs != rhs:
                    raise IdentityViolation(
                        "star does not rewrite to the partner bracket",
                        side=side,
                        level=level,
                        witness=[x1, x2, z, lhs, rhs],
                    )
    return CheckReport(f"star-to-bracket-level-{level}", True, checked)


def reference_lie_conjugation_transfer(pair):
    checked = 0
    for side in SIDES:
        act = pair.action(side)
        term = mixed_lie_ideal(pair, side)
        members = sorted(term.carrier.members)
        partner = {x: partner_element(pair, side, term.words[x])[1] for x in members}
        for x1 in members:
            for x2 in members:
                dx = act.acted.lie_defect(x1, x2)
                dy = act.actor.lie_defect(partner[x1], partner[x2])
                message = "defect pair does not act identically"
                reference_agreement(pair, side, dx, dy, message, [x1, x2])
                checked += pair.G.order + pair.H.order
    return CheckReport("lie-conjugation-transfer", True, checked)


def reference_partner_closure_ops(pair):
    checked = 0
    for side in SIDES:
        act = pair.action(side)
        G, H = act.actor.group, act.acted.group
        term = mixed_lie_ideal(pair, side)
        pairs = [partner_element(pair, side, term.words[x]) for x in sorted(term.carrier.members)]
        for x, y in pairs:
            message = "inverse pair does not act identically"
            reference_agreement(pair, side, H.inv(x), G.inv(y), message, [x, y])
            checked += G.order + H.order
        for x1, y1 in pairs:
            for x2, y2 in pairs:
                x, y = H.commutator(x1, x2), G.commutator(y1, y2)
                message = "commutator pair does not act identically"
                reference_agreement(pair, side, x, y, message, [x1, x2, y1, y2])
                checked += G.order + H.order
    return CheckReport("partner-closure-ops", True, checked)


def reference_defect_centralizes_bracket_ideal(pair):
    checked = 0
    for side in SIDES:
        H = pair.action(side).acted.group
        defects = sorted(mixed_lie_ideal(pair, side).carrier.members)
        for a in defects:
            for b in sorted(bracket_ideal(pair, side).subgroup.members):
                checked += 1
                if H.commutator(a, b) != H.identity:
                    raise IdentityViolation(
                        "defect element fails to commute with a bracket element",
                        side=side,
                        witness=[a, b],
                    )
    return CheckReport("defect-centralizes-bracket-ideal", True, checked)


def reference_defect_fixes_opposite_bracket_ideal(pair):
    checked = 0
    for side in SIDES:
        co = pair.companion(side)
        defects = sorted(mixed_lie_ideal(pair, side).carrier.members)
        mirror_side = "h-on-g" if side == "g-on-h" else "g-on-h"
        for a in defects:
            for b in sorted(bracket_ideal(pair, mirror_side).subgroup.members):
                checked += 1
                if co.act(a, b) != b:
                    raise IdentityViolation(
                        "defect element moves an opposite bracket element",
                        side=side,
                        witness=[a, b],
                    )
    return CheckReport("defect-fixes-opposite-bracket-ideal", True, checked)


# each scan against its reference
CHECKS = {
    "commutator-bracket": (check_lemma_commutator_bracket, reference_lemma_commutator_bracket),
    "partner-generators": (check_partner_generators, reference_partner_generators),
    "star-to-bracket-0": (
        lambda pair: check_star_to_bracket_level(pair, 0),
        lambda pair: reference_star_to_bracket_level(pair, 0),
    ),
    "star-to-bracket-1": (
        lambda pair: check_star_to_bracket_level(pair, 1),
        lambda pair: reference_star_to_bracket_level(pair, 1),
    ),
    "conjugation-transfer": (check_lie_conjugation_transfer, reference_lie_conjugation_transfer),
    "partner-closure": (check_partner_closure_ops, reference_partner_closure_ops),
    "defect-centralizer": (
        check_defect_centralizes_bracket_ideal,
        reference_defect_centralizes_bracket_ideal,
    ),
    "defect-fixes-opposite": (
        check_defect_fixes_opposite_bracket_ideal,
        reference_defect_fixes_opposite_bracket_ideal,
    ),
}


def outcome(check, pair):
    # a perturbed pair may already fail while its ideals are built, the same
    # way for a scan and its reference
    try:
        return "pass", check(pair)
    except IdentityViolation as exc:
        return "fail", str(exc), exc.payload
    except MlaError as exc:
        return "error", type(exc).__name__, str(exc), exc.payload


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
    for check, reference in CHECKS.values():
        assert outcome(check, pair) == outcome(reference, pair)


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
        for check, reference in CHECKS.values():
            got = outcome(check, pair)
            assert got[0] == "pass" and got == outcome(reference, pair)


def test_commutator_slab_names_both_partner_pairs():
    # with actions, a commutator of agreeing pairs agrees, so the commutator
    # scan of check_partner_closure_ops only fails on a corrupted commutator
    # table: here of the actor group, one of two equal but distinct copies of S3
    S3 = get_group("S3")
    G, H = (validate_cayley(S3.labels, S3.table) for _ in range(2))
    M, N = make_trivial_star(G), make_trivial_star(H)
    gh = validate_action(M, N, S3.conj_table, np.full((6, 6), S3.identity))
    hg = validate_action(N, M, S3.conj_table, np.full((6, 6), S3.identity))
    pair = check_compatibility(gh, hg)
    term = mixed_lie_ideal(pair, "g-on-h")
    xy = [partner_element(pair, "g-on-h", term.words[x]) for x in sorted(term.carrier.members)]
    (x1, y1), (x2, y2) = xy[1:3]
    assert y1 != y2
    comm = G.comm_table.copy()
    comm[y1, y2] = next(v for v in range(6) if v != comm[y1, y2])
    G.__dict__["comm_table"] = comm
    got = outcome(check_partner_closure_ops, pair)
    assert got == outcome(reference_partner_closure_ops, pair)
    assert got[:2] == ("fail", "commutator pair does not act identically")
    assert got[2]["witness"][:4] == [x1, x2, y1, y2]
