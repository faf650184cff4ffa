"""Cross actions, compatible pairs, mixed ideals, and partner transport.

Ideal orders for the three reference pairs are frozen from first
principles: the z2 pair has trivial actions so every mixed ideal is
trivial; the s3 pair has bracket equal to the mixed commutator so the
defect ideal collapses while the action ideals are the rotation subgroup;
the q8 pair has a trivial bracket so the defect ideal is exactly the
commutator subgroup {1, -1}.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import replace

import numpy as np
import pytest

from mlacalc import actions, cli
from mlacalc.actions import (
    SIDES,
    CompatiblePair,
    MlaAction,
    action_partner,
    bracket_ideal,
    check_action_laws,
    check_bracket_conjugation,
    check_compatibility,
    check_defect_centralizes_bracket_ideal,
    check_defect_fixes_opposite_bracket_ideal,
    check_lemma_commutator_bracket,
    check_lie_conjugation_transfer,
    check_pair_conditions,
    check_partner_closure_ops,
    check_partner_generators,
    check_partner_words,
    check_star_to_bracket_level,
    check_transfer_bounds,
    conjugation_self_action,
    derived_action_ideal,
    mixed_lie_ideal,
    star_to_bracket,
    trivial_action,
    validate_action,
    witnessed_derived_terms,
)
from mlacalc.corpus import get_group
from mlacalc.errors import (
    ActionViolation,
    BoundViolation,
    CompatibilityViolation,
    IdealityFailure,
    IdentityViolation,
    InputError,
    MathViolation,
    NotAutomorphism,
    NotInIdeal,
    NotInTerm,
    WitnessRequired,
)
from mlacalc.docs import load_document
from mlacalc.harness import Instance, run_suite
from mlacalc.mla import MultLieAlg, make_trivial_star
from .self_pairs import self_pair


# --- oracles -------------------------------------------------------------------


def oracle_mixed_defect(act, g, h):
    """<g,h>^-1 · (^g h · h^-1) by single multiplications."""
    H = act.acted.group
    return H.mul(H.inv(act.brk(g, h)), H.mul(act.act(g, h), H.inv(h)))


def oracle_eval_word(pair, side, word):
    """Letter-by-letter evaluation of a level-0 witness word."""
    act = pair.action(side)
    H = act.acted.group
    x = H.identity
    for kind, g, h, sgn in word:
        assert kind == "gen"
        v = oracle_mixed_defect(act, g, h)
        x = H.mul(x, H.inv(v) if sgn < 0 else v)
    return x


def oracle_ideal_members(M, gens):
    """Naive closure under products, inverses, conjugation, and star."""
    G, S = M.group, M.star
    T, inv = G.table, G.inverses
    members = {G.identity} | {int(g) for g in gens}
    while True:
        nxt = set(members)
        for s in list(members):
            nxt.add(int(inv[s]))
            for x in range(G.order):
                nxt.add(int(T[x, T[s, inv[x]]]))
                nxt.add(int(S[x, s]))
                nxt.add(int(S[s, x]))
            for t in members:
                nxt.add(int(T[s, t]))
        if nxt == members:
            return members
        members = nxt


# --- construction and validation ------------------------------------------------


def test_reference_pairs_assemble(pairs):
    assert set(pairs) == {"z2-trivial", "s3-improper-star", "q8-trivial"}
    for pair in pairs.values():
        assert pair._verified and pair.g_on_h._verified and pair.h_on_g._verified


def test_only_the_validators_record_a_proof():
    M = make_trivial_star(get_group("Q8"))
    act = validate_action(M, M, M.group.conj_table, np.full((8, 8), M.group.identity))
    assert act._verified
    pair = check_compatibility(act, act)
    assert pair._verified and pair.swapped()._verified
    # hand-built and replaced objects carry no proof, even with the same tables
    hand = MlaAction(M, M, act.phi, act.bracket)
    assert not hand._verified and not replace(act)._verified
    assert not replace(pair)._verified and not CompatiblePair(act, act)._verified
    # a pair is proven only when both of its actions are
    assert not check_compatibility(hand, act)._verified
    # and no caller can hand the proof to a constructor
    with pytest.raises(TypeError):
        MlaAction(M, M, act.phi, act.bracket, _verified=True)
    with pytest.raises(TypeError):
        CompatiblePair(act, act, _verified=True)
    with pytest.raises(ValueError):
        replace(act, _verified=True)
    with pytest.raises(ValueError):
        replace(pair, _verified=True)


def test_mixed_tables_match_oracle(pairs):
    for pair in pairs.values():
        for side in SIDES:
            act = pair.action(side)
            G, H = act.actor.group, act.acted.group
            for g in range(G.order):
                for h in range(H.order):
                    comm = H.mul(act.act(g, h), H.inv(h))
                    assert int(act.mixed_comm_table[g, h]) == comm
                    assert int(act.mixed_defect_table[g, h]) == oracle_mixed_defect(act, g, h)


def test_action_table_shape_and_range_errors():
    M2 = make_trivial_star(get_group("C2"))
    M4 = make_trivial_star(get_group("C4"))
    with pytest.raises(InputError):
        validate_action(M2, M4, np.zeros((3, 4), dtype=int), np.zeros((2, 4), dtype=int))
    phi = np.broadcast_to(np.arange(4), (2, 4)).copy()
    bad = np.full((2, 4), 9)
    with pytest.raises(InputError):
        validate_action(M2, M4, phi, bad)


def test_unknown_side_rejected(pairs):
    with pytest.raises(InputError):
        pairs["q8-trivial"].action("sideways")


def test_mismatched_algebras_rejected(pairs):
    with pytest.raises(InputError):
        check_compatibility(pairs["z2-trivial"].g_on_h, pairs["s3-improper-star"].h_on_g)


def test_phi_perturbations_are_rejected():
    M2 = make_trivial_star(get_group("C2"))
    M4 = make_trivial_star(get_group("C4"))
    e4 = M4.group.identity
    zero = np.full((2, 4), e4)

    phi = np.broadcast_to(np.arange(4), (2, 4)).copy()
    phi[1, 0] = phi[1, 1]  # collapses two values
    with pytest.raises(NotAutomorphism) as exc:
        validate_action(M2, M4, phi, zero)
    assert exc.value.payload["reason"] == "not-bijective"

    # swapping the identity with a generator is a permutation but not an
    # automorphism
    phi = np.broadcast_to(np.arange(4), (2, 4)).copy()
    x = next(v for v in range(4) if v != e4)
    phi[1, e4], phi[1, x] = x, e4
    with pytest.raises(NotAutomorphism) as exc:
        validate_action(M2, M4, phi, zero)
    assert exc.value.payload["reason"] == "product"

    # conjugation by r preserves the product of S3 but not a star changed at (r, s)
    G = get_group("S3")
    r, s = G.labels.index("r"), G.labels.index("s")
    trivial = np.full((6, 6), G.identity)
    star = trivial.copy()
    star[r, s] = r
    with pytest.raises(NotAutomorphism) as exc:
        validate_action(make_trivial_star(G), MultLieAlg(G, star), G.conj_table, trivial)
    assert str(exc.value) == "phi[r] does not preserve the star"
    assert exc.value.payload == {"g": r, "reason": "star", "witness": [r, s]}


def test_phi_homomorphism_failure_detected():
    # rows are all automorphisms of C4 but the assignment g -> phi[g] is not
    # multiplicative: a maps to inversion, a^3 to the identity map
    M4 = make_trivial_star(get_group("C4"))
    G = M4.group
    inversion = G.inverses.copy()
    phi = np.stack([np.arange(4), inversion, np.arange(4), np.arange(4)])
    with pytest.raises(ActionViolation) as exc:
        validate_action(M4, M4, phi, np.full((4, 4), G.identity))
    assert exc.value.payload["condition"] == "phi-homomorphism"


def test_bracket_perturbation_is_rejected(pairs):
    pair = pairs["s3-improper-star"]
    act, co = pair.g_on_h, pair.h_on_g
    bad = act.bracket.copy()
    bad[1, 2] = (bad[1, 2] + 1) % 6
    with pytest.raises(MathViolation) as exc:
        cand = validate_action(act.actor, act.acted, act.phi, bad)
        check_compatibility(cand, co)
    assert "condition" in exc.value.payload and "witness" in exc.value.payload


def test_incompatible_actions_fail_pair_conditions():
    # a trivial action against conjugation: each validates alone, but the
    # mutual conjugation condition needs ^('g h) = conj by g h g^-1
    M = make_trivial_star(get_group("S3"))
    t = trivial_action(M, M)
    c = conjugation_self_action(M, np.full((6, 6), M.group.identity))
    with pytest.raises(CompatibilityViolation) as exc:
        check_compatibility(t, c)
    assert exc.value.payload["condition"] == 1
    assert len(exc.value.payload["witness"]) == 3


# --- re-check wrappers ------------------------------------------------------------


def test_wrapper_checks_pass_on_reference_pairs(pairs):
    for pair in pairs.values():
        for fn in (
            check_action_laws,
            check_pair_conditions,
            check_bracket_conjugation,
            check_lemma_commutator_bracket,
            check_partner_generators,
            check_partner_words,
            check_partner_closure_ops,
            check_lie_conjugation_transfer,
            check_defect_centralizes_bracket_ideal,
            check_defect_fixes_opposite_bracket_ideal,
            check_transfer_bounds,
        ):
            rep = fn(pair)
            assert rep.passed and rep.tuples_checked > 0


def test_verified_pairs_restate_their_laws_without_a_scan(
    pairs, fixtures_dir, golden_dir, monkeypatch
):
    # the counts a scan of each unproven copy reports, before the scans are disabled
    checks = (check_action_laws, check_pair_conditions)
    want = {name: tuple(c(replace(p)).tuples_checked for c in checks) for name, p in pairs.items()}
    # action-check builds its pair (and proves it) while loading the document
    doc = load_document(fixtures_dir / "pairs" / "z2-trivial.json")
    monkeypatch.setattr(cli, "load_document", lambda path: doc)

    def no_scan(*args, **kwargs):
        raise AssertionError("a verified pair was scanned")

    monkeypatch.setattr(actions, "_require_bracket_laws", no_scan)
    monkeypatch.setattr(actions, "_require_pair_conditions", no_scan)
    for name, pair in pairs.items():
        assert tuple(c(pair).tuples_checked for c in checks) == want[name]
        led = run_suite(Instance.from_pair(pair), ["def-2.8", "def-3.1"])
        assert [led.get(st).tuples for st in ("def-2.8", "def-3.1")] == list(want[name])
        assert led.ok
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["action-check", "z2-trivial.json"]) == 0
    assert out.getvalue() == (golden_dir / "action-check-z2.txt").read_text(encoding="utf-8")
    # an unproven copy is still scanned
    with pytest.raises(AssertionError, match="scanned"):
        check_pair_conditions(replace(pairs["q8-trivial"]))


LAW_2 = "bracket law 2 (<x x', y> expansion) fails"
LAW_4 = "bracket law 4 (star/bracket exchange in the second slot) fails"
COND_2 = "pair condition 2 (inverse bracket equals star against the opposite bracket) fails"
COND_3 = "pair condition 3 (the two brackets act inversely to each other) fails"

# (pair, perturbed action, table, entry) -> the least failure of each check,
# as (message, payload), or (error, message, payload) where the error is not
# that of ERRORS; check_compatibility is handed the perturbed actions
PERTURBED_BRACKETS = [
    (
        ("s3-improper-star", "g_on_h", "bracket", (1, 2)),
        {
            "compat": (
                f"{LAW_2} on g-on-h", {"condition": 2, "side": "g-on-h", "witness": [1, 1, 2]}
            ),
            "def-2.8": (LAW_2, {"condition": 2, "witness": [1, 1, 2], "side": "g-on-h"}),
            "def-3.1": (
                f"{COND_2} on the H display", {"condition": 2, "side": "H", "witness": [1, 2, 3]}
            ),
        },
    ),
    (
        ("q8-trivial", "h_on_g", "bracket", (3, 5)),
        {
            "compat": (
                f"{LAW_2} on h-on-g", {"condition": 2, "side": "h-on-g", "witness": [1, 2, 5]}
            ),
            "def-2.8": (LAW_2, {"condition": 2, "witness": [1, 2, 5], "side": "h-on-g"}),
            "def-3.1": (
                f"{COND_3} on the H display", {"condition": 3, "side": "H", "witness": [5, 3, 4]}
            ),
        },
    ),
    (
        ("s3-improper-star", "h_on_g", "bracket", (4, 1)),
        {
            "compat": (
                f"{LAW_4} on g-on-h", {"condition": 4, "side": "g-on-h", "witness": [1, 3, 4]}
            ),
            "def-2.8": (LAW_4, {"condition": 4, "witness": [1, 3, 4], "side": "g-on-h"}),
            "def-3.1": (
                f"{COND_2} on the H display", {"condition": 2, "side": "H", "witness": [1, 4, 3]}
            ),
            "prop-2.10": (
                "bracket conjugation fails on the G display",
                {"side": "h-on-g", "witness": [1, 3, 4, 1]},
            ),
        },
    ),
    (
        ("s3-improper-star", "g_on_h", "bracket", (0, 3)),
        {
            "compat": (
                f"{LAW_2} on g-on-h", {"condition": 2, "side": "g-on-h", "witness": [0, 0, 3]}
            ),
            "def-2.8": (LAW_2, {"condition": 2, "witness": [0, 0, 3], "side": "g-on-h"}),
            "def-3.1": (
                f"{COND_2} on the H display", {"condition": 2, "side": "H", "witness": [0, 0, 3]}
            ),
            "prop-2.10": (
                "bracket conjugation fails on the H display",
                {"side": "g-on-h", "witness": [1, 3, 0, 3]},
            ),
        },
    ),
    (
        ("s3-improper-star", "g_on_h", "phi", (1, 2)),
        {
            "compat": (
                NotAutomorphism,
                "phi[r] is not a permutation on g-on-h",
                {"g": 1, "reason": "not-bijective", "side": "g-on-h"},
            ),
            "def-2.8": (
                NotAutomorphism,
                "phi[r] is not a permutation",
                {"g": 1, "reason": "not-bijective", "side": "g-on-h"},
            ),
            "def-3.1": (
                "pair condition 1 (group actions compose compatibly) fails on the G display",
                {"condition": 1, "side": "G", "witness": [1, 2, 1]},
            ),
            "prop-2.10": (
                "bracket conjugation fails on the H display",
                {"side": "g-on-h", "witness": [1, 2, 1, 3]},
            ),
        },
    ),
]
ERRORS = {
    "compat": ActionViolation,
    "def-2.8": ActionViolation,
    "def-3.1": CompatibilityViolation,
    "prop-2.10": IdentityViolation,
}


@pytest.mark.parametrize("where,failures", PERTURBED_BRACKETS)
def test_replaced_pair_is_rescanned_for_its_least_witness(pairs, where, failures):
    name, field_name, table, (i, j) = where
    pair = pairs[name]
    act = getattr(pair, field_name)
    bad = getattr(act, table).copy()
    bad[i, j] = (bad[i, j] + 1) % bad.shape[1]
    broken = replace(pair, **{field_name: replace(act, **{table: bad})})
    error, message, payload = (ERRORS["compat"], *failures["compat"])[-3:]
    with pytest.raises(error) as exc:
        check_compatibility(broken.g_on_h, broken.h_on_g)
    assert (str(exc.value), exc.value.payload) == (message, payload)
    led = run_suite(Instance.from_pair(broken), ["def-2.8", "def-3.1", "prop-2.10"])
    for st in failures.keys() - {"compat"}:
        error, message, payload = (ERRORS[st], *failures[st])[-3:]
        v = led.get(st)
        assert (v.status, v.detail) == ("fail", message)
        assert list(v.witness.items()) == [
            ("error", error.__name__), ("message", message), *payload.items()
        ]
    assert "prop-2.10" in failures or led.get("prop-2.10").status == "pass"


# a trivial self pair with h_on_g.phi[1, 1] = 0: phi[1] is not a permutation.
# Unchecked, C2, C3, C4 and V4 gave tensors of order 1, 1, 1 and 4 (against
# 2, 3, 4 and 16), and Q8 and S3 reported pair condition 1
@pytest.mark.parametrize("name", ["C2", "C3", "C4", "V4", "Q8", "S3"])
def test_hand_built_phi_rows_are_checked_before_any_bracket_law(name):
    pair = self_pair(name, "trivial")
    phi = pair.h_on_g.phi.copy()
    phi[1, 1] = 0
    label = pair.G.group.labels[1]
    with pytest.raises(NotAutomorphism) as exc:
        check_compatibility(pair.g_on_h, replace(pair.h_on_g, phi=phi))
    assert str(exc.value) == f"phi[{label}] is not a permutation on h-on-g"
    assert exc.value.payload == {"g": 1, "reason": "not-bijective", "side": "h-on-g"}
    # and on the other side, where g_on_h is the unverified action
    with pytest.raises(NotAutomorphism) as exc:
        check_compatibility(replace(pair.g_on_h, phi=phi), pair.h_on_g)
    assert exc.value.payload["side"] == "g-on-h"


def test_hand_built_phi_that_is_not_multiplicative_names_its_side(pairs):
    # every row an automorphism, but phi[g] = identity for all g but one
    pair = pairs["s3-improper-star"]
    phi = np.broadcast_to(pair.g_on_h.phi[0], pair.g_on_h.phi.shape).copy()
    phi[1] = pair.g_on_h.phi[1]
    with pytest.raises(ActionViolation) as exc:
        check_compatibility(replace(pair.g_on_h, phi=phi), pair.h_on_g)
    assert str(exc.value) == "phi is not multiplicative in the actor on g-on-h"
    assert exc.value.payload["condition"] == "phi-homomorphism"
    assert exc.value.payload["side"] == "g-on-h"


def _count_law_scans(monkeypatch):
    """(side, action, companion, laws) of every bracket-law and phi-row check."""
    seen = []
    for name in ("_require_bracket_laws", "_require_automorphisms"):
        fn = getattr(actions, name)

        def spy(act, *rest, fn=fn, name=name):
            seen.append((name, act, *rest))
            return fn(act, *rest)

        monkeypatch.setattr(actions, name, spy)
    return seen


@pytest.mark.parametrize("name,star", [("S3", "improper"), ("Q8", "trivial"), ("D4", "improper")])
def test_a_self_pair_scans_its_action_once(name, star, monkeypatch):
    act = self_pair(name, star).g_on_h
    hand = replace(act, bracket=act.bracket.copy())  # unverified: phi rows and law 2 too
    seen = _count_law_scans(monkeypatch)
    check_compatibility(act, act)
    assert seen == [("_require_bracket_laws", act, act, (1, 3, 4), "g-on-h")]
    seen.clear()
    check_compatibility(hand, hand)
    assert seen == [
        ("_require_automorphisms", hand, "g-on-h"),
        ("_require_bracket_laws", hand, hand, (1, 2, 3, 4), "g-on-h"),
    ]
    seen.clear()
    check_compatibility(hand, act)  # two actions: each side is scanned
    assert [(s[0], s[-1]) for s in seen] == [
        ("_require_automorphisms", "g-on-h"),
        ("_require_bracket_laws", "g-on-h"),
        ("_require_bracket_laws", "h-on-g"),
    ]


@pytest.mark.parametrize("cell", [(1, 2), (2, 1), (0, 3), (4, 5)])
def test_a_broken_self_pair_names_g_on_h(cell):
    act = self_pair("S3", "improper").g_on_h
    bad = act.bracket.copy()
    bad[cell] = (bad[cell] + 1) % 6
    hand = replace(act, bracket=bad)
    with pytest.raises(ActionViolation) as want:  # the first side's scan, as both sides ran it
        actions._require_bracket_laws(hand, hand, (1, 2, 3, 4), "g-on-h")
    with pytest.raises(ActionViolation) as got:
        check_compatibility(hand, hand)
    assert (str(got.value), got.value.payload) == (str(want.value), want.value.payload)
    assert got.value.payload["side"] == "g-on-h"


def test_swapped_pair_still_compatible(pairs):
    for pair in pairs.values():
        sw = pair.swapped()
        assert sw.G is pair.H and sw.H is pair.G
        assert check_pair_conditions(sw).passed


# --- ideals ------------------------------------------------------------------------


IDEAL_ORDERS = {
    # pair -> (derived action, bracket, mixed defect), same on both sides
    "z2-trivial": (1, 1, 1),
    "s3-improper-star": (3, 3, 1),
    "q8-trivial": (2, 1, 2),
}


def test_ideal_families_frozen_orders(pairs):
    for name, pair in pairs.items():
        da, br, mx = IDEAL_ORDERS[name]
        for side in SIDES:
            assert derived_action_ideal(pair, side).subgroup.order == da
            assert bracket_ideal(pair, side).subgroup.order == br
            assert mixed_lie_ideal(pair, side).carrier.order == mx


def test_ideal_families_match_naive_closure(pairs):
    for pair in pairs.values():
        for side in SIDES:
            act = pair.action(side)
            got = derived_action_ideal(pair, side)
            want = oracle_ideal_members(act.acted, np.unique(act.mixed_comm_table))
            assert got.subgroup.members == frozenset(want)
            got = bracket_ideal(pair, side)
            want = oracle_ideal_members(act.acted, np.unique(act.bracket))
            assert got.subgroup.members == frozenset(want)
            got = mixed_lie_ideal(pair, side)
            want = oracle_ideal_members(act.acted, np.unique(act.mixed_defect_table))
            assert got.carrier.members == frozenset(want)


def test_witness_words_evaluate_correctly(pairs):
    for pair in pairs.values():
        for side in SIDES:
            term = mixed_lie_ideal(pair, side)
            assert term.words[pair.action(side).acted.group.identity] == ()
            for x, word in term.words.items():
                assert oracle_eval_word(pair, side, word) == x


def test_word_of_unknown_element_raises(pairs):
    term = mixed_lie_ideal(pairs["z2-trivial"], "g-on-h")
    with pytest.raises(NotInIdeal):
        term.word_of(1)


def test_partner_of_q8_defect(pairs):
    pair = pairs["q8-trivial"]
    term = mixed_lie_ideal(pair, "g-on-h")
    minus_one = next(x for x in term.carrier.members if x != pair.H.group.identity)
    x, y, mirror_word = action_partner(pair, term.words[minus_one])
    assert x == minus_one
    # the partner is the same central element seen on the actor side
    assert y == minus_one
    assert oracle_eval_word(pair, "h-on-g", mirror_word) == y


def test_witnessed_derived_terms_shrink(pairs):
    pair = pairs["q8-trivial"]
    for side in SIDES:
        terms = witnessed_derived_terms(pair, side, 2)
        orders = [t.carrier.order for t in terms]
        assert orders == [2, 1, 1]
        for term in terms:
            assert set(term.words) == set(term.carrier.members)


def test_witness_words_are_read_only(pairs):
    term = mixed_lie_ideal(pairs["q8-trivial"], "g-on-h")
    with pytest.raises(TypeError):
        term.words[0] = ()


# --- one construction per pair ---------------------------------------------------------


def test_pair_builds_each_ideal_once(pairs):
    pair = pairs["q8-trivial"]
    for side in SIDES:
        for build in (mixed_lie_ideal, bracket_ideal, derived_action_ideal):
            assert build(pair, side) is build(pair, side)
        shallow = witnessed_derived_terms(pair, side, 1)
        deep = witnessed_derived_terms(pair, side, 2)
        assert shallow[0] is mixed_lie_ideal(pair, side)
        assert all(a is b for a, b in zip(shallow, deep)) and len(deep) == 3
        assert witnessed_derived_terms(pair, side, 2)[2] is deep[2]


def test_new_pairs_derive_their_own_ideals(pairs):
    pair = pairs["s3-improper-star"]
    for other in (pair.swapped(), replace(pair)):
        for side in SIDES:
            assert mixed_lie_ideal(other, side) is not mixed_lie_ideal(pair, side)
            assert mixed_lie_ideal(other, side).pair is other
            assert bracket_ideal(other, side) is not bracket_ideal(pair, side)


def test_failing_ideal_construction_raises_every_time():
    # a hand-built S3 pair whose only bracket value is a reflection, which
    # generates a subgroup that is not normal
    G = get_group("S3")
    M = make_trivial_star(G)
    s = G.labels.index("s")
    bracket = np.full((6, 6), G.identity)
    bracket[s, s] = s
    act = MlaAction(M, M, G.conj_table, bracket)
    pair = CompatiblePair(act, act)
    for _ in range(3):
        with pytest.raises(IdealityFailure, match="not normal"):
            bracket_ideal(pair)
    # the pair's other ideals are built and kept as usual
    assert derived_action_ideal(pair) is derived_action_ideal(pair)
    with pytest.raises(IdealityFailure):
        bracket_ideal(pair)


# --- star-to-bracket rewriting ---------------------------------------------------------


def test_star_to_bracket_levels(pairs):
    for pair in pairs.values():
        assert check_star_to_bracket_level(pair, 0).passed
        assert check_star_to_bracket_level(pair, 1).passed


def test_star_to_bracket_single_rewrite(pairs):
    pair = pairs["q8-trivial"]
    term = mixed_lie_ideal(pair, "g-on-h")
    minus_one = next(x for x in term.carrier.members if x != pair.H.group.identity)
    z = star_to_bracket(pair, term.words[minus_one], minus_one)
    assert z in mixed_lie_ideal(pair, "h-on-g").carrier.members


def test_star_to_bracket_error_paths(pairs):
    pair = pairs["q8-trivial"]
    term = mixed_lie_ideal(pair, "g-on-h")
    word = term.words[max(term.carrier.members)]
    with pytest.raises(WitnessRequired):
        star_to_bracket(pair, None, 0)
    outside = next(x for x in range(8) if x not in term.carrier.members)
    with pytest.raises(NotInTerm):
        star_to_bracket(pair, word, outside)


@pytest.mark.parametrize("level", [-1, -3, -5])
def test_negative_levels_are_refused(pairs, level):
    # a negative level once read as level 0, or as a term counted from the end
    pair = pairs["q8-trivial"]
    term = mixed_lie_ideal(pair, "g-on-h")
    x = max(term.carrier.members)
    calls = (
        lambda: witnessed_derived_terms(pair, "g-on-h", level),
        lambda: star_to_bracket(pair, term.words[x], x, level=level),
        lambda: check_star_to_bracket_level(pair, level),
    )
    for call in calls:
        with pytest.raises(InputError) as exc:
            call()
        assert type(exc.value) is InputError
        assert str(exc.value) == f"derived term level {level} is negative"
        assert exc.value.payload == {"level": level}


# --- transfer bounds ----------------------------------------------------------------


def test_transfer_bounds_detail_mentions_both_sides(pairs):
    for pair in pairs.values():
        rep = check_transfer_bounds(pair)
        assert "g-on-h" in rep.detail and "h-on-g" in rep.detail


# (class g-on-h, class h-on-g), (length g-on-h, length h-on-g) -> the first failing demand
TRANSFER_VIOLATIONS = [
    ((1, 3), (1, 1), ("class", "g-on-h", "h-on-g", [1, 3])),
    ((1, 1), (5, 1), ("length", "h-on-g", "g-on-h", [1, 5])),
    ((3, 1), (1, 3), ("length", "g-on-h", "h-on-g", [1, 3])),
    ((None, 2), (1, 1), ("class", "h-on-g", "g-on-h", [2, None])),
]


@pytest.mark.parametrize("classes,lengths,want", TRANSFER_VIOLATIONS)
def test_transfer_bound_violations_name_the_first_failing_demand(
    pairs, monkeypatch, classes, lengths, want
):
    # both sides' classes are computed before their lengths, g-on-h first
    monkeypatch.setattr(actions, "nilpotency_class", lambda _, it=iter(classes): next(it))
    monkeypatch.setattr(actions, "solvable_length", lambda _, it=iter(lengths): next(it))
    with pytest.raises(BoundViolation) as exc:
        check_transfer_bounds(pairs["s3-improper-star"])
    kind, a_side, b_side, values = want
    assert str(exc.value) == f"{kind} transfer bound fails: {b_side} vs {a_side}+1"
    assert exc.value.payload == {
        "kind": kind,
        "from_side": a_side,
        "to_side": b_side,
        "values": values,
    }
