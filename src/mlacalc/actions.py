"""Mutual actions between two multiplicative Lie algebras.

An action of G on H is a table phi (star-preserving automorphisms of H,
multiplicative in g) plus a bracket table <g,h> into H.  validate_action
proves phi and bracket law 2; the other three bracket laws and the pair
laws mention the reverse action, so check_compatibility proves them with
both actions in hand.  Each records what it proved on the action or pair,
as make_algebra does on an algebra, and the statements that restate those
laws (check_action_laws, check_pair_conditions) rescan only an unproven
pair, such as a hand-built or dataclasses.replace'd one.

The mixed defect ^L[g,h] = <g,h>^-1 (^g h · h^-1) generates an ideal of H
whose elements carry witness words; the partner machinery maps those words
to elements of the mirrored ideal of G that act identically on both groups.
A compatible pair builds each of its ideals (mixed defect, derived terms,
bracket, derived action) once, the first time a statement asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
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
from .groups import Subgroup, _freeze, spanning_tree, subgroup_closure, tree_words
from .mla import (
    Ideal,
    MultLieAlg,
    _record_verified,
    compose_failure,
    nilpotency_class,
    solvable_length,
    star_iso_failure,
    sub_algebra,
    validate_ideal,
)
from .util import CheckReport, blocks, check_budget, distinct, memoized, scan

SIDES = ("g-on-h", "h-on-g")

BRACKET_CONDITION_NAMES = {
    1: "<x, y y'> expansion",
    2: "<x x', y> expansion",
    3: "star/bracket exchange in the first slot",
    4: "star/bracket exchange in the second slot",
}

PAIR_CONDITION_NAMES = {
    1: "group actions compose compatibly",
    2: "inverse bracket equals star against the opposite bracket",
    3: "the two brackets act inversely to each other",
    4: "actions distribute over the opposite bracket",
    5: "mixed commutator bracket equals derived-element star",
}


@dataclass(frozen=True, eq=False)
class MlaAction:
    actor: MultLieAlg
    acted: MultLieAlg
    phi: np.ndarray  # (|actor|, |acted|), phi[g] a permutation of acted
    bracket: np.ndarray  # (|actor|, |acted|) -> acted element
    # phi and bracket law 2 are proven; set only by validate_action, never by a caller
    _verified: bool = field(default=False, init=False, repr=False)

    def act(self, g: int, h: int) -> int:
        return int(self.phi[g, h])

    def brk(self, g: int, h: int) -> int:
        return int(self.bracket[g, h])

    @cached_property
    def mixed_comm_table(self) -> np.ndarray:
        # [g, h] = ^g h · h^-1, an element of the acted group
        H = self.acted.group
        return _freeze(H.table[self.phi, H.inverses[None, :]])

    @cached_property
    def mixed_defect_table(self) -> np.ndarray:
        # ^L[g, h] = <g,h>^-1 · (^g h · h^-1)
        H = self.acted.group
        return _freeze(H.table[H.inverses[self.bracket], self.mixed_comm_table])


def conjugation_self_action(M: MultLieAlg, bracket) -> MlaAction:
    """Self-action by conjugation with an explicit bracket table."""
    return validate_action(M, M, M.group.conj_table, bracket)


def trivial_action(actor: MultLieAlg, acted: MultLieAlg) -> MlaAction:
    phi = np.broadcast_to(np.arange(acted.order), (actor.order, acted.order))
    bracket = np.full((actor.order, acted.order), acted.group.identity)
    return validate_action(actor, acted, phi, bracket)


_NOT_AUTOMORPHISM = {
    "not-bijective": "is not a permutation",
    "product": "does not preserve the product",
    "star": "does not preserve the star",
}


def validate_action(actor: MultLieAlg, acted: MultLieAlg, phi, bracket) -> MlaAction:
    """Check that phi acts by star-preserving automorphisms, multiplicatively
    in the actor, and bracket law 2, the one law whose symbols stay on one
    side; laws 1, 3 and 4 need the reverse action (check_compatibility).
    A clean check records the action as verified."""
    G, H = actor.group, acted.group
    phi = np.asarray(phi, dtype=np.int64)
    bracket = np.asarray(bracket, dtype=np.int64)
    shape = (G.order, H.order)
    if phi.shape != shape:
        raise InputError(f"phi table shape {phi.shape} does not match {shape}")
    if bracket.shape != shape:
        raise InputError(f"bracket table shape {bracket.shape} does not match {shape}")
    if ((phi < 0) | (phi >= H.order)).any() or ((bracket < 0) | (bracket >= H.order)).any():
        raise InputError("action table entry out of range")
    action = MlaAction(actor, acted, _freeze(phi.copy()), _freeze(bracket.copy()))
    _require_automorphisms(action)
    _require_bracket_laws(action, None, (2,))
    return _record_verified(action)


def _require_automorphisms(act: MlaAction, side: str | None = None) -> None:
    """Raise NotAutomorphism at the first row of phi that is not a
    star-preserving automorphism, else ActionViolation where phi is not
    multiplicative in the actor; the message and payload name the side when
    one is given."""
    G = act.actor.group
    on, where = ({}, "") if side is None else ({"side": side}, f" on {side}")
    bad = star_iso_failure(act.acted, act.acted, act.phi, "action validation")
    if bad is not None:
        g, reason, at = bad
        raise NotAutomorphism(
            f"phi[{G.labels[g]}] {_NOT_AUTOMORPHISM[reason]}{where}",
            g=g,
            reason=reason,
            **({} if at is None else {"witness": list(at)}),
            **on,
        )
    bad = compose_failure(G, act.phi, "action validation")
    if bad is not None:
        raise ActionViolation(
            f"phi is not multiplicative in the actor{where}",
            condition="phi-homomorphism",
            witness=list(bad),
            **on,
        )


def _require_bracket_laws(
    act: MlaAction, co: MlaAction | None, which: Iterable[int], side: str | None = None
) -> None:
    """Raise ActionViolation on the least failure (x-major, then in law order
    2, 1, 3, 4) of the given bracket laws; the message and payload name the
    side when one is given."""
    G, H = act.actor.group, act.acted.group
    B, P, T, inv = act.bracket, act.phi, H.table, H.inverses
    Gs, Hs = act.actor.star, act.acted.star
    laws = [law for law in (2, 1, 3, 4) if law in set(which)]
    assert co is not None or laws in ([], [2])
    # each law's failure mask at x (a block, along axis 0) and two of x', y, y'
    xp, y, yp = np.arange(G.order)[:, None], np.arange(H.order)[:, None], np.arange(H.order)
    fails = {
        # <x·x', y> at [x', y]
        2: lambda x: B[G.table[x, xp], yp] != T[B[G.conj_table[x, xp], P[x, yp]], B[x, yp]],
        # <x, y·y'> = <x, y> · <^y x, ^y y'> at [y, y']
        1: lambda x: B[x, T[y, yp]] != T[B[x, y], B[co.phi[y, x], H.conj_table[y, yp]]],
        # <x*x', ^{x'}y> · <^y x, <x', y>>^-1 · <^x x', <x, y>^-1>^-1 at [x', y]
        3: lambda x: T[T[B[Gs[x, xp], P[xp, yp]], inv[B[co.phi[yp, x], B[xp, yp]]]],
                       inv[B[G.conj_table[x, xp], inv[B[x, yp]]]]] != H.identity,
        # <^{y'}x, y*y'> · <<y,x>^-1, ^y y'>^-1 · <<y',x>, ^x y>^-1 at [y, y']
        4: lambda x: T[T[B[co.phi[yp, x], Hs[y, yp]],
                         inv[B[G.inverses[co.bracket[y, x]], H.conj_table[y, yp]]]],
                       inv[B[co.bracket[yp, x], P[x, y]]]] != H.identity,
    }
    slabs = (
        ([(law, v) for v in x.tolist() for law in laws],
         tuple(fails[law](x[:, None, None]) for law in laws))
        for x in blocks(G.order, 2 * H.order * (G.order + H.order))
    )
    at = scan("bracket laws", slabs)[0]
    if at is not None:
        cond, *witness = at
        raise ActionViolation(
            f"bracket law {cond} ({BRACKET_CONDITION_NAMES[cond]}) fails"
            + ("" if side is None else f" on {side}"),
            condition=cond,
            **({} if side is None else {"side": side}),
            witness=witness,
        )


@dataclass(frozen=True, eq=False)
class CompatiblePair:
    g_on_h: MlaAction
    h_on_g: MlaAction
    # both actions and all pair laws are proven; set only by check_compatibility
    _verified: bool = field(default=False, init=False, repr=False)
    # ideals derived from this pair, built on first use (see memoized)
    _ideals: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def G(self) -> MultLieAlg:
        return self.g_on_h.actor

    @property
    def H(self) -> MultLieAlg:
        return self.g_on_h.acted

    def action(self, side: str) -> MlaAction:
        if side == "g-on-h":
            return self.g_on_h
        if side == "h-on-g":
            return self.h_on_g
        raise InputError(f"unknown side {side!r}; expected one of {SIDES}")

    def companion(self, side: str) -> MlaAction:
        return self.action("h-on-g" if side == "g-on-h" else "g-on-h")

    def swapped(self) -> "CompatiblePair":
        return check_compatibility(self.h_on_g, self.g_on_h)


def check_compatibility(g_on_h: MlaAction, h_on_g: MlaAction) -> CompatiblePair:
    """Verify the phi rows of each action that validate_action has not
    proven, then bracket laws 1-4 on both actions (law 2 only where
    validate_action has not proven it) and the five pair conditions.  The
    pair is recorded as verified when both of its actions are.  A self pair
    (one action on both sides) checks its action once, as "g-on-h": the
    second side would scan the same tables after the first one passed."""
    if g_on_h.actor is not h_on_g.acted or g_on_h.acted is not h_on_g.actor:
        raise InputError("actions are not over the same pair of algebras")
    sides = (("g-on-h", g_on_h, h_on_g), ("h-on-g", h_on_g, g_on_h))[: 1 + (g_on_h is not h_on_g)]
    for side, act, _ in sides:
        if not act._verified:
            _require_automorphisms(act, side)
    for side, act, co in sides:
        _require_bracket_laws(act, co, (1, 3, 4) if act._verified else (1, 2, 3, 4), side)
    _require_pair_conditions(g_on_h, h_on_g)
    pair = CompatiblePair(g_on_h, h_on_g)
    return _record_verified(pair) if g_on_h._verified and h_on_g._verified else pair


def check_action_laws(pair: CompatiblePair) -> CheckReport:
    """Both actions: phi structure plus all four bracket laws.  A verified
    pair carries the proof; any other pair is checked from its raw tables,
    each action by validate_action and then against its companion, and a
    failure names that action's side in its payload."""
    tuples = 0
    for side in SIDES:
        act, co = pair.action(side), pair.companion(side)
        if not pair._verified:
            try:
                validate_action(act.actor, act.acted, act.phi, act.bracket)
                _require_bracket_laws(act, co, (1, 3, 4))
            except MathViolation as exc:
                exc.payload.setdefault("side", side)
                raise
        na, nb = act.actor.group.order, act.acted.group.order
        tuples += na * nb + 3 * na * nb * nb + 3 * na * na * nb
    return CheckReport("action-laws", True, tuples)


def check_pair_conditions(pair: CompatiblePair) -> CheckReport:
    """The five mutual-compatibility laws on both displays; a verified pair
    carries the proof."""
    if not pair._verified:
        _require_pair_conditions(pair.g_on_h, pair.h_on_g)
    ng, nh = pair.G.group.order, pair.H.group.order
    return CheckReport("pair-conditions", True, 5 * (ng * ng * nh + ng * nh * nh))


def _require_pair_conditions(gh: MlaAction, hg: MlaAction) -> None:
    """Raise CompatibilityViolation at the least failure of the five pair
    conditions, scanned in order, each on its two displays in turn; the
    payload names the condition, the display and [a, b, primed].

    Each display scans a outer-major, in blocks of a, one (b, primed) failure
    slab per a.  (a, b) is (g, h) or (h, g), and primed runs over the
    display's group:

        condition   first display       second display
        1           G  (g, h, g')       H  (h, g, h')
        2           H  (g, h, h')       G  (h, g, g')
        3           H  (g, h, h')       G  (g, h, g')
        4           G  (g, h, g')       H  (h, g, h')
        5           H  (g, h, h')       G  (h, g, g')
    """
    G, H = gh.actor.group, gh.acted.group
    Gs, Hs = gh.actor.star, gh.acted.star
    CG, CH = G.conj_table, H.conj_table
    gphi, hphi, gbr, hbr = gh.phi, hg.phi, gh.bracket, hg.bracket
    # (condition, display, outer group, failure mask at a block a, b, primed)
    displays = [
        # ^(^g h) g' must equal acting with the word g·h·g^-1
        (1, "G", G, lambda a, b, p: hphi[gphi[a, b], p] != CG[a, hphi[b, CG[G.inverses[a], p]]]),
        (1, "H", H, lambda a, b, p: gphi[hphi[a, b], p] != CH[a, gphi[b, CH[H.inverses[a], p]]]),
        # <<h,g>^-1, h'> = <g,h> * h'
        (2, "H", G, lambda a, b, p: gbr[G.inverses[hbr[b, a]], p] != Hs[gbr[a, b], p]),
        (2, "G", H, lambda a, b, p: hbr[H.inverses[gbr[b, a]], p] != Gs[hbr[a, b], p]),
        # acting by <g,h> then <h,g> fixes everything
        (3, "H", G, lambda a, b, p: CH[gbr[a, b], gphi[hbr[b, a], p]] != p),
        (3, "G", G, lambda a, b, p: hphi[gbr[a, b], CG[hbr[b, a], p]] != p),
        # ^g <h,g'> = <^g h, ^g g'>
        (4, "G", G, lambda a, b, p: CG[a, hbr[b, p]] != hbr[gphi[a, b], CG[a, p]]),
        (4, "H", H, lambda a, b, p: CH[a, gbr[b, p]] != gbr[hphi[a, b], CH[a, p]]),
        # <g·^h g^-1, h'> = (^g h·h^-1) * h'
        (5, "H", G, lambda a, b, p: gbr[G.table[a, hphi[b, G.inverses[a]]], p]
         != Hs[gh.mixed_comm_table[a, b], p]),
        (5, "G", H, lambda a, b, p: hbr[H.table[a, gphi[b, H.inverses[a]]], p]
         != Gs[hg.mixed_comm_table[a, b], p]),
    ]
    n = {"G": G.order, "H": H.order}

    def slabs() -> Iterator:
        for cond, side, outer, fails in displays:
            nb = H.order if outer is G else G.order  # b runs over the other group
            b, p = np.arange(nb)[:, None], np.arange(n[side])
            for a in blocks(outer.order, nb * n[side]):
                yield [(cond, side, v) for v in a.tolist()], fails(a[:, None, None], b, p)

    at = scan("pair conditions", slabs())[0]
    if at is not None:
        cond, side, *witness = at
        raise CompatibilityViolation(
            f"pair condition {cond} ({PAIR_CONDITION_NAMES[cond]}) fails on the {side} display",
            condition=cond,
            side=side,
            witness=witness,
        )


# ---------------------------------------------------------------------------
# the three mixed ideals


def _checked_ideal(M: MultLieAlg, S: Subgroup, what: str) -> Ideal:
    """validate_ideal(M, S) for a subgroup generated as an ideal; raising means
    the ideal needs more than products, which the theory rules out."""
    try:
        return validate_ideal(M, S)
    except IdealityFailure as exc:
        raise IdealityFailure(
            f"{what} is not an ideal before closure: {exc}", source=what, **exc.payload
        ) from exc


def _generated_ideal(pair: CompatiblePair, side: str, name: str, table: Callable) -> Ideal:
    """The subgroup of the acted algebra that the values of ``table(action)``
    generate, checked to be an ideal; built once per pair and side."""
    act = pair.action(side)

    def build() -> Ideal:
        S = subgroup_closure(act.acted.group, distinct(act.acted.order, table(act)))
        return _checked_ideal(act.acted, S, f"{name} ideal ({side})")

    return memoized(pair._ideals, (name, side), build)


def derived_action_ideal(pair: CompatiblePair, side: str = "g-on-h") -> Ideal:
    """Ideal of the acted algebra generated by all ^g h · h^-1."""
    return _generated_ideal(pair, side, "derived-action", lambda act: act.mixed_comm_table)


def bracket_ideal(pair: CompatiblePair, side: str = "g-on-h") -> Ideal:
    """Ideal of the acted algebra generated by all <g, h>."""
    return _generated_ideal(pair, side, "bracket", lambda act: act.bracket)


# witness words: letters are ("gen", g, h, sgn) at level 0 and
# ("lie", word_u, word_v, sgn) at level k >= 1, sgn in {1, -1}

Letter = tuple
Word = tuple


@dataclass(frozen=True, eq=False)
class WitnessedIdeal:
    pair: CompatiblePair
    side: str
    level: int
    ideal: Ideal
    words: Mapping[int, Word]  # carrier element -> word over the level's letters

    def __post_init__(self) -> None:
        # memoized terms are shared between statements, so no caller may edit them
        object.__setattr__(self, "words", MappingProxyType(dict(self.words)))

    @property
    def carrier(self) -> Subgroup:
        return self.ideal.subgroup

    def word_of(self, x: int) -> Word:
        try:
            return self.words[x]
        except KeyError:
            raise NotInIdeal(
                f"element {self.ideal.algebra.group.labels[x]} has no witness word",
                element=x,
                side=self.side,
                level=self.level,
            )


def _eval_letter(pair: CompatiblePair, side: str, letter: Letter, partner: bool) -> int:
    act = pair.action(side)
    co = pair.companion(side)
    K = act.actor.group if partner else act.acted.group
    kind = letter[0]
    if kind == "gen":
        _, g, h, sgn = letter
        if partner:
            val = int(_partner_defect(co, g, h))
        else:
            val = int(act.mixed_defect_table[g, h])
    elif kind == "lie":
        _, wu, wv, sgn = letter
        u = _eval_word(pair, side, wu, partner)
        v = _eval_word(pair, side, wv, partner)
        alg = act.actor if partner else act.acted
        val = alg.lie_defect(u, v)
    else:
        raise InputError(f"unknown witness letter kind {kind!r}")
    return K.inv(val) if sgn < 0 else val


def _partner_defect(co: MlaAction, g, h):
    """<h,g> · (g · ^h g^-1) in the actor group G of the forward action, the
    partner of the defect ^L[g,h]; co is the reverse action, h may be an array."""
    G = co.acted.group
    return G.table[co.bracket[h, g], G.table[g, co.phi[h, G.inverses[g]]]]


def _eval_word(pair: CompatiblePair, side: str, word: Word, partner: bool) -> int:
    act = pair.action(side)
    K = act.actor.group if partner else act.acted.group
    x = K.identity
    for letter in word:
        x = K.mul(x, _eval_letter(pair, side, letter, partner))
    return x


def mixed_lie_ideal(pair: CompatiblePair, side: str = "g-on-h") -> WitnessedIdeal:
    """Ideal of the acted algebra generated by the defects ^L[g,h], with a
    shortest witness word stored for every carrier element."""
    return witnessed_derived_terms(pair, side, 0)[0]


def witnessed_derived_terms(pair: CompatiblePair, side: str, depth: int) -> list[WitnessedIdeal]:
    """Terms 0..depth of the derived series of the mixed defect ideal, each
    carried with witness words over that level's defect letters: the defects
    ^L[g,h] at level 0, which generate it as an ideal (checked), and the
    defects of the previous term's members after.  The pair keeps the terms
    built so far and grows them to the deepest level asked."""
    if depth < 0:
        raise InputError(f"derived term level {depth} is negative", level=depth)
    act = pair.action(side)
    terms = memoized(pair._ideals, ("derived", side), list)
    alg, H = act.acted, act.acted.group
    for level in range(len(terms), depth + 1):
        if level == 0:
            D = act.mixed_defect_table
            letters = [("gen", g, h, sgn) for g, h in np.ndindex(D.shape) for sgn in (1, -1)]
        else:
            check_budget("derived terms")
            mem, w = sorted(terms[-1].carrier.members), terms[-1].words
            letters = [("lie", w[u], w[v], sgn) for u in mem for v in mem for sgn in (1, -1)]
            D = alg.lie_defect_table[np.ix_(mem, mem)]
        # a shortest word for each element that right products of the letter
        # values reach from 1: in a finite group, the subgroup they generate
        values = np.stack([D, H.inverses[D]], axis=-1).ravel()
        tree = tree_words(*spanning_tree(H.table[:, values], H.identity))
        words = {x: tuple(letters[c] for c in w) for x, w in tree.items()}
        sub = Subgroup(H, frozenset(words))
        what = f"mixed defect ideal ({side})"
        ideal = _checked_ideal(alg, sub, what) if level == 0 else Ideal(alg, sub)
        terms.append(WitnessedIdeal(pair, side, level, ideal, words))
    return terms[: depth + 1]


def partner_element(pair: CompatiblePair, side: str, word: Word) -> tuple[int, int]:
    """Evaluate a witness word and its partner: (element, partner element)."""
    return _eval_word(pair, side, word, False), _eval_word(pair, side, word, True)


def _disagreement(pair: CompatiblePair, side: str, x, y) -> np.ndarray:
    """Where x (acted group) and y (actor group) act differently on both
    groups: x via the reverse action / conjugation, y via conjugation / the
    forward action.  For arrays x, y of one shape, one row per position,
    over the actor group's elements and then the acted group's."""
    act, co = pair.action(side), pair.companion(side)
    G, H = act.actor.group, act.acted.group
    return np.concatenate([co.phi[x] != G.conj_table[y], H.conj_table[x] != act.phi[y]], axis=-1)


def _require_agreement(
    pair: CompatiblePair, stage: str, message: str, slabs: Iterable, witness: Callable
) -> int:
    """Scan _disagreement slabs prefixed by (side, *prefix) and return the
    tuples checked.  The least disagreement raises IdentityViolation(message)
    with witness [*witness([*prefix, *position]), element index]."""
    at, checked = scan(stage, slabs)
    if at is not None:
        side, *pos, i = at
        n = pair.action(side).actor.order
        raise IdentityViolation(
            message,
            side=side,
            witness=[*witness(pos), i if i < n else i - n],
            on="actor" if i < n else "acted",
        )
    return checked


def action_partner(pair: CompatiblePair, word: Word, side: str = "g-on-h") -> tuple[int, int, Word]:
    """Partner of a defect-ideal word: the element of the mirrored ideal
    acting identically on both groups, plus its own witness word there."""
    x, y = partner_element(pair, side, word)
    mirror_side = "h-on-g" if side == "g-on-h" else "g-on-h"
    mirror = mixed_lie_ideal(pair, mirror_side)
    if y not in mirror.words:
        raise NotInIdeal(
            "partner element falls outside the mirrored defect ideal",
            element=y,
            side=mirror_side,
        )
    slab = ((side, x, y), _disagreement(pair, side, x, y))
    _require_agreement(pair, "action partner", "partner does not act identically", [slab], list)
    return x, y, mirror.words[y]


def check_partner_generators(pair: CompatiblePair) -> CheckReport:
    """Single-defect partners act identically on both groups (both sides)."""

    def slabs() -> Iterator:
        for side in SIDES:
            act, co = pair.action(side), pair.companion(side)
            h, n = np.arange(act.acted.order), act.actor.order + act.acted.order
            for g in blocks(act.actor.order, act.acted.order * n):
                # the one-letter words (("gen", g, h, 1),) and their partners, over h
                x, y = act.mixed_defect_table[g], _partner_defect(co, g[:, None], h)
                yield [(side, v) for v in g.tolist()], _disagreement(pair, side, x, y)

    message = "generator partner does not act identically"
    checked = _require_agreement(pair, "partner generators", message, slabs(), list)
    return CheckReport("partner-generators", True, checked)


def check_partner_words(pair: CompatiblePair) -> CheckReport:
    """Every witnessed element of each defect ideal has an identically
    acting partner built letter-by-letter from its word."""

    def slabs() -> Iterator:
        for side in SIDES:
            term = mixed_lie_ideal(pair, side)
            for x in sorted(term.carrier.members):
                xe, y = partner_element(pair, side, term.words[x])
                if xe != x:
                    raise IdentityViolation(
                        "witness word does not evaluate to its element",
                        side=side,
                        witness=[x, xe],
                    )
                yield (side, x, y), _disagreement(pair, side, x, y)

    message = "word partner does not act identically"
    checked = _require_agreement(pair, "partner words", message, slabs(), list)
    return CheckReport("partner-words", True, checked)


def check_partner_closure_ops(pair: CompatiblePair) -> CheckReport:
    """Agreement survives inverses and commutators of agreeing pairs."""
    checked = 0
    for side in SIDES:
        act = pair.action(side)
        G, H = act.actor.group, act.acted.group
        term = mixed_lie_ideal(pair, side)
        xy = [partner_element(pair, side, term.words[x]) for x in sorted(term.carrier.members)]
        inverses = (
            ((side, x, y), _disagreement(pair, side, H.inverses[x], G.inverses[y])) for x, y in xy
        )
        message = "inverse pair does not act identically"
        checked += _require_agreement(pair, "partner closure", message, inverses, list)
        # one slab per x1, over every x2: [x1, x2] against [y1, y2]
        xs, ys = np.array(xy).T
        commutators = (
            ((side, j), _disagreement(pair, side, H.comm_table[x1, xs], G.comm_table[y1, ys]))
            for j, (x1, y1) in enumerate(xy)
        )
        message = "commutator pair does not act identically"
        checked += _require_agreement(
            pair, "partner closure", message, commutators,
            lambda jk: [*xs[jk].tolist(), *ys[jk].tolist()],  # [x1, x2, y1, y2]
        )
    return CheckReport("partner-closure-ops", True, checked)


def star_to_bracket(
    pair: CompatiblePair,
    x1_word: Word | None,
    x2: int,
    level: int = 0,
    side: str = "g-on-h",
) -> int:
    """Rewrite x1 * x2 (both in the level-k defect term of the acted algebra)
    as a bracket <z, x2> with z in the mirrored level-k term; returns z."""
    if x1_word is None:
        raise WitnessRequired("star_to_bracket needs a witness word for x1")
    act = pair.action(side)
    term = witnessed_derived_terms(pair, side, level)[level]
    x1 = _eval_word(pair, side, x1_word, False)
    if x1 not in term.words:
        raise NotInIdeal(
            "x1 is not a witnessed member of the term", element=x1, level=level, side=side
        )
    if x2 not in term.carrier.members:
        raise NotInTerm("x2 is outside the term", element=x2, level=level, side=side)
    z = _eval_word(pair, side, x1_word, True)
    lhs = act.acted.op(x1, x2)
    rhs = act.brk(z, x2)  # z sits in the actor group, so the forward bracket applies
    if lhs != rhs:
        raise IdentityViolation(
            "star does not rewrite to the partner bracket",
            side=side,
            level=level,
            witness=[x1, x2, z, lhs, rhs],
        )
    return z


def check_star_to_bracket_level(pair: CompatiblePair, level: int) -> CheckReport:
    """x1 * x2 = <partner(x1), x2> over all witnessed pairs at one level,
    one slab per x1."""
    checked = 0
    for side in SIDES:
        act = pair.action(side)
        term = witnessed_derived_terms(pair, side, level)[level]
        members = sorted(term.carrier.members)
        xs = np.array(members)

        def slabs() -> Iterator:
            for x1 in members:
                z = _eval_word(pair, side, term.words[x1], True)
                yield (x1, z), act.acted.star[x1, xs] != act.bracket[z, xs]

        at, n = scan("star-to-bracket", slabs())
        checked += n
        if at is not None:
            x1, z, k = at
            x2 = members[k]
            raise IdentityViolation(
                "star does not rewrite to the partner bracket",
                side=side,
                level=level,
                witness=[x1, x2, z, act.acted.op(x1, x2), act.brk(z, x2)],
            )
    return CheckReport(f"star-to-bracket-level-{level}", True, checked)


def check_lie_conjugation_transfer(pair: CompatiblePair) -> CheckReport:
    """Defects of agreeing pairs act identically: ^L[x1,x2] vs ^L[y1,y2],
    one slab per x1 over every x2."""
    checked = 0
    for side in SIDES:
        act = pair.action(side)
        term = mixed_lie_ideal(pair, side)
        xs = np.array(sorted(term.carrier.members))
        ys = np.array([_eval_word(pair, side, term.words[x], True) for x in xs.tolist()])
        Lx, Ly = act.acted.lie_defect_table, act.actor.lie_defect_table
        slabs = (
            ((side, j), _disagreement(pair, side, Lx[x1, xs], Ly[y1, ys]))
            for j, (x1, y1) in enumerate(zip(xs, ys))
        )
        message = "defect pair does not act identically"
        checked += _require_agreement(
            pair, "conjugation transfer", message, slabs, lambda jk: xs[jk].tolist()
        )
    return CheckReport("lie-conjugation-transfer", True, checked)


def check_bracket_conjugation(pair: CompatiblePair) -> CheckReport:
    """Conjugating one bracket value by another equals bracketing the
    mixed-commutator conjugates, on both sides."""

    def slabs() -> Iterator:
        for side in SIDES:
            act, co = pair.action(side), pair.companion(side)
            B, Hc = act.bracket, act.acted.group.conj_table
            ng, nh = act.actor.order, act.acted.order
            # one slab per x over (acted y, actor x', acted y')
            y, xp, yp = np.arange(nh)[:, None, None], np.arange(ng)[:, None], np.arange(nh)
            for x in blocks(ng, nh * ng * nh):
                x4 = x[:, None, None, None]
                c = act.mixed_comm_table[x4, y]  # ^x y · y^-1
                fails = Hc[B[x4, y], B[xp, yp]] != B[co.phi[c, xp], Hc[c, yp]]
                yield [(side, v) for v in x.tolist()], fails

    at, checked = scan("bracket conjugation", slabs())
    if at is not None:
        side, *witness = at
        display = "H" if side == "g-on-h" else "G"  # each side's display is its acted group
        raise IdentityViolation(
            f"bracket conjugation fails on the {display} display", side=side, witness=witness
        )
    return CheckReport("bracket-conjugation", True, checked)


def check_lemma_commutator_bracket(pair: CompatiblePair) -> CheckReport:
    """[<g,h>, h'] = <g·^h g^-1, h'> = (^g h·h^-1) * h', and mirrored."""

    def slabs() -> Iterator:
        for side in SIDES:
            act, co = pair.action(side), pair.companion(side)
            G, H = act.actor.group, act.acted.group
            h, hp = np.arange(H.order)[:, None], np.arange(H.order)
            for g in blocks(G.order, H.order * H.order):
                g3 = g[:, None, None]
                left = H.comm_table[act.bracket[g3, h], hp]  # [<g,h>, h'] over (h, h')
                mid = act.bracket[G.table[g3, co.phi[h, G.inverses[g3]]], hp]
                right = act.acted.star[act.mixed_comm_table[g3, h], hp]
                yield [(side, v) for v in g.tolist()], (left != mid) | (mid != right)

    at, checked = scan("commutator bracket", slabs())
    if at is not None:
        side, *witness = at
        raise IdentityViolation("commutator/bracket/star chain breaks", side=side, witness=witness)
    return CheckReport("commutator-bracket-chain", True, checked)


def check_defect_centralizes_bracket_ideal(pair: CompatiblePair) -> CheckReport:
    """Every defect-ideal element group-commutes with the bracket ideal."""
    checked = 0
    for side in SIDES:
        act = pair.action(side)
        H = act.acted.group
        defects = sorted(mixed_lie_ideal(pair, side).carrier.members)
        brk = bracket_ideal(pair, side).subgroup.member_array
        slabs = (((a,), H.comm_table[a, brk] != H.identity) for a in defects)
        at, n = scan("defect centralizer", slabs)
        checked += n
        if at is not None:
            raise IdentityViolation(
                "defect element fails to commute with a bracket element",
                side=side,
                witness=[at[0], int(brk[at[1]])],
            )
    return CheckReport("defect-centralizes-bracket-ideal", True, checked)


def check_defect_fixes_opposite_bracket_ideal(pair: CompatiblePair) -> CheckReport:
    """Defect-ideal elements act trivially on the opposite bracket ideal."""
    checked = 0
    for side in SIDES:
        act = pair.action(side)
        co = pair.companion(side)
        defects = sorted(mixed_lie_ideal(pair, side).carrier.members)
        mirror_side = "h-on-g" if side == "g-on-h" else "g-on-h"
        opp = bracket_ideal(pair, mirror_side).subgroup.member_array
        at, n = scan("defect fixes opposite", (((a,), co.phi[a, opp] != opp) for a in defects))
        checked += n
        if at is not None:
            raise IdentityViolation(
                "defect element moves an opposite bracket element",
                side=side,
                witness=[at[0], int(opp[at[1]])],
            )
    return CheckReport("defect-fixes-opposite-bracket-ideal", True, checked)


def check_transfer_bounds(pair: CompatiblePair) -> CheckReport:
    """Nilpotency class / solvable length transfer between the two defect
    ideals with slack one, in both directions."""
    subs = {s: sub_algebra(pair.action(s).acted, mixed_lie_ideal(pair, s).carrier) for s in SIDES}
    vals = {
        "class": {side: nilpotency_class(subs[side]) for side in SIDES},
        "length": {side: solvable_length(subs[side]) for side in SIDES},
    }
    for a_side, b_side in (("g-on-h", "h-on-g"), ("h-on-g", "g-on-h")):
        for kind, by_side in vals.items():
            a, b = by_side[a_side], by_side[b_side]
            if a is not None and (b is None or b > a + 1):
                raise BoundViolation(
                    f"{kind} transfer bound fails: {b_side} vs {a_side}+1",
                    kind=kind,
                    from_side=a_side,
                    to_side=b_side,
                    values=[a, b],
                )
    detail = " ".join(
        f"{abbr}(defect {side})={vals[kind][side]}"
        for kind, abbr in (("class", "cl"), ("length", "l"))
        for side in SIDES
    )
    return CheckReport("transfer-bounds", True, 4, detail=detail)
