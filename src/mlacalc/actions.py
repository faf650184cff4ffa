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
from itertools import chain
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
    NotAutomorphism,
    NotInIdeal,
    NotInTerm,
    WitnessRequired,
)
from .groups import FiniteGroup, Subgroup, _freeze, spanning_tree, subgroup_closure
from .mla import (
    Ideal,
    MultLieAlg,
    _record_verified,
    compose_failure,
    nilpotency_class,
    solvable_length,
    star_iso_reason,
    star_iso_slabs,
    sub_algebra,
    validate_ideal,
)
from .util import CheckReport, check_budget, memoized, scan

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
    phi, bracket = _freeze(phi.copy()), _freeze(bracket.copy())

    rows = chain.from_iterable(star_iso_slabs(acted, acted, phi[g], (g,)) for g in range(G.order))
    hit = scan("action validation", rows)[0]
    if hit is not None:
        g, *at = hit
        reason, at = star_iso_reason(at)
        raise NotAutomorphism(
            f"phi[{G.labels[g]}] {_NOT_AUTOMORPHISM[reason]}",
            g=g,
            reason=reason,
            **({} if at is None else {"witness": list(at)}),
        )
    bad = compose_failure(G, phi, "action validation")
    if bad is not None:
        raise ActionViolation(
            "phi is not multiplicative in the actor",
            condition="phi-homomorphism",
            witness=list(bad),
        )

    action = MlaAction(actor, acted, phi, bracket)
    _require_bracket_laws(action, None, (2,))
    return _record_verified(action)


def _require_bracket_laws(
    act: MlaAction, co: MlaAction | None, which: Iterable[int], side: str | None = None
) -> None:
    """Raise ActionViolation on the least witness of the given bracket laws;
    the message and payload name the side when one is given."""
    hit = _bracket_condition_witness(act, co, which)
    if hit:
        cond, witness = hit
        on = {} if side is None else {"side": side}
        raise ActionViolation(
            f"bracket law {cond} ({BRACKET_CONDITION_NAMES[cond]}) fails"
            + ("" if side is None else f" on {side}"),
            condition=cond,
            **on,
            witness=witness,
        )


def _bracket_condition_witness(
    act: MlaAction,
    co: MlaAction | None,
    which: Iterable[int],
) -> tuple[int, list[int]] | None:
    """Least witness (x-major, then in law order 2, 1, 3, 4) of a failing
    bracket law, or None."""
    G, H = act.actor.group, act.acted.group
    B, P = act.bracket, act.phi
    Gs, Hs = act.actor.star, act.acted.star
    wanted = set(which)
    assert co is not None or wanted <= {2}

    def slabs() -> Iterator:
        for x in range(G.order):
            if 2 in wanted:
                lhs = B[G.table[x]]  # <x·x', y> at [x', y]
                yield (2, x), lhs != H.table[B[np.ix_(G.conj_table[x], P[x])], B[x][None, :]]
            if 1 in wanted:
                lhs = B[x][H.table]  # <x, y·y'> at [y, y']
                t = B[co.phi[:, x][:, None], H.conj_table]  # <^y x, ^y y'>
                yield (1, x), lhs != H.table[B[x][:, None], t]
            if 3 in wanted:
                t1 = B[Gs[x][:, None], P]  # <x*x', ^{x'}y> at [x', y]
                t2 = B[co.phi[:, x][None, :], B]  # <^y x, <x', y>>
                t3 = B[G.conj_table[x][:, None], H.inverses[B[x]][None, :]]
                prod = H.table[H.table[t1, H.inverses[t2]], H.inverses[t3]]
                yield (3, x), prod != H.identity
            if 4 in wanted:
                u1 = B[co.phi[:, x][None, :], Hs]  # <^{y'}x, y*y'> at [y, y']
                u2 = B[G.inverses[co.bracket[:, x]][:, None], H.conj_table]
                u3 = B[co.bracket[:, x][None, :], P[x][:, None]]
                prod = H.table[H.table[u1, H.inverses[u2]], H.inverses[u3]]
                yield (4, x), prod != H.identity

    at = scan("bracket laws", slabs())[0]
    return None if at is None else (at[0], list(at[1:]))


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
    """Verify bracket laws 1-4 on both actions (law 2 only where
    validate_action has not proven it) and the five pair conditions.  The
    pair is recorded as verified when both of its actions are."""
    if g_on_h.actor is not h_on_g.acted or g_on_h.acted is not h_on_g.actor:
        raise InputError("actions are not over the same pair of algebras")
    for side, act, co in (("g-on-h", g_on_h, h_on_g), ("h-on-g", h_on_g, g_on_h)):
        _require_bracket_laws(act, co, (1, 3, 4) if act._verified else (1, 2, 3, 4), side)
    _require_pair_conditions(g_on_h, h_on_g)
    pair = CompatiblePair(g_on_h, h_on_g)
    return _record_verified(pair) if g_on_h._verified and h_on_g._verified else pair


def check_action_laws(pair: CompatiblePair) -> CheckReport:
    """Both actions: phi structure plus all four bracket laws.  A verified
    pair carries the proof; any other pair is checked from its raw tables,
    each action by validate_action and then against its companion."""
    tuples = 0
    for side in SIDES:
        act, co = pair.action(side), pair.companion(side)
        if not pair._verified:
            validate_action(act.actor, act.acted, act.phi, act.bracket)
            _require_bracket_laws(act, co, (1, 3, 4))
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
    """Raise CompatibilityViolation on the first failing pair condition."""
    for cond in (1, 2, 3, 4, 5):
        hit = _pair_condition_witness(gh, hg, cond)
        if hit:
            side, witness = hit
            raise CompatibilityViolation(
                f"pair condition {cond} ({PAIR_CONDITION_NAMES[cond]}) fails on the {side} display",
                condition=cond,
                side=side,
                witness=witness,
            )


def _pair_condition_witness(
    gh: MlaAction, hg: MlaAction, cond: int
) -> tuple[str, list[int]] | None:
    """Check one pair condition on both displays, in this order; the least
    failure comes back as (display, [a, b, primed]).

    Each display scans a outer-major, one (b, primed) failure slab per a.
    (a, b) is (g, h) or (h, g), and primed runs over the display's group:

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
    displays = {
        # ^(^g h) g' must equal acting with the word g·h·g^-1
        1: (
            ("G", G.order, lambda g: hg.phi[gh.phi[g]] != CG[g][hg.phi[:, CG[G.inverses[g]]]]),
            ("H", H.order, lambda h: gh.phi[hg.phi[h]] != CH[h][gh.phi[:, CH[H.inverses[h]]]]),
        ),
        # <<h,g>^-1, h'> = <g,h> * h'
        2: (
            ("H", G.order, lambda g: gh.bracket[G.inverses[hg.bracket[:, g]]] != Hs[gh.bracket[g]]),
            ("G", H.order, lambda h: hg.bracket[H.inverses[gh.bracket[:, h]]] != Gs[hg.bracket[h]]),
        ),
        # acting by <g,h> then <h,g> fixes everything
        3: (
            ("H", G.order, lambda g: CH[gh.bracket[g][:, None], gh.phi[hg.bracket[:, g]]]
             != np.arange(H.order)),
            ("G", G.order, lambda g: hg.phi[gh.bracket[g][:, None], CG[hg.bracket[:, g]]]
             != np.arange(G.order)),
        ),
        # ^g <h,g'> = <^g h, ^g g'>
        4: (
            ("G", G.order, lambda g: CG[g][hg.bracket] != hg.bracket[gh.phi[g][:, None], CG[g]]),
            ("H", H.order, lambda h: CH[h][gh.bracket] != gh.bracket[hg.phi[h][:, None], CH[h]]),
        ),
        # <g·^h g^-1, h'> = (^g h·h^-1) * h'
        5: (
            ("H", G.order, lambda g: gh.bracket[G.table[g, hg.phi[:, G.inverses[g]]]]
             != Hs[gh.mixed_comm_table[g]]),
            ("G", H.order, lambda h: hg.bracket[H.table[h, gh.phi[:, H.inverses[h]]]]
             != Gs[hg.mixed_comm_table[h]]),
        ),
    }
    if cond not in displays:
        raise InputError(f"no pair condition {cond}")
    slabs = (((side, a), fails(a)) for side, n, fails in displays[cond] for a in range(n))
    at = scan("pair conditions", slabs)[0]
    return None if at is None else (at[0], list(at[1:]))


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
        S = subgroup_closure(act.acted.group, np.unique(table(act)).tolist())
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


def _bfs_words(K: FiniteGroup, letters: list[Letter], values: list[int]) -> dict[int, Word]:
    """A shortest word over the letters for each element right products of the
    letter values reach from the identity.  In a finite group those elements
    are the subgroup the values generate, so the keys need no closure."""
    parent, col, levels = spanning_tree(K.table[:, values], K.identity)
    words: dict[int, Word] = {K.identity: ()}
    for level in levels[1:]:
        for x, q, c in zip(level.tolist(), parent[level].tolist(), col[level].tolist()):
            words[x] = words[q] + (letters[c],)
    return words


def mixed_lie_ideal(pair: CompatiblePair, side: str = "g-on-h") -> WitnessedIdeal:
    """Ideal of the acted algebra generated by the defects ^L[g,h], with a
    shortest witness word stored for every carrier element."""
    return memoized(pair._ideals, ("mixed", side), lambda: _mixed_lie_ideal(pair, side))


def _mixed_lie_ideal(pair: CompatiblePair, side: str) -> WitnessedIdeal:
    act = pair.action(side)
    G, H = act.actor.group, act.acted.group
    letters: list[Letter] = []
    values: list[int] = []
    for g in range(G.order):
        for h in range(H.order):
            for sgn in (1, -1):
                letters.append(("gen", g, h, sgn))
                values.append(
                    int(act.mixed_defect_table[g, h])
                    if sgn > 0
                    else H.inv(int(act.mixed_defect_table[g, h]))
                )
    words = _bfs_words(H, letters, values)
    what = f"mixed defect ideal ({side})"
    ideal = _checked_ideal(act.acted, Subgroup(H, frozenset(words)), what)
    return WitnessedIdeal(pair, side, 0, ideal, words)


def witnessed_derived_terms(pair: CompatiblePair, side: str, depth: int) -> list[WitnessedIdeal]:
    """Terms 0..depth of the derived series of the mixed defect ideal, each
    carried with witness words over that level's defect letters.  The pair
    keeps the terms built so far and grows them to the deepest level asked."""
    terms = memoized(pair._ideals, ("derived", side), lambda: [mixed_lie_ideal(pair, side)])
    alg = pair.action(side).acted
    H = alg.group
    for level in range(len(terms), depth + 1):
        check_budget("derived terms")
        prev = terms[-1]
        members = sorted(prev.carrier.members)
        letters: list[Letter] = []
        values: list[int] = []
        for u in members:
            for v in members:
                for sgn in (1, -1):
                    val = alg.lie_defect(u, v)
                    letters.append(("lie", prev.words[u], prev.words[v], sgn))
                    values.append(val if sgn > 0 else H.inv(val))
        words = _bfs_words(H, letters, values)
        sub = Subgroup(H, frozenset(words))
        terms.append(WitnessedIdeal(pair, side, level, Ideal(alg, sub), words))
    return terms[: max(depth, 0) + 1]


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
            h = np.arange(act.acted.order)
            for g in range(act.actor.order):
                # the one-letter words (("gen", g, h, 1),) and their partners, over h
                x, y = act.mixed_defect_table[g], _partner_defect(co, g, h)
                yield (side, g), _disagreement(pair, side, x, y)

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
            for x in range(act.actor.order):
                c = act.mixed_comm_table[x]  # ^x y · y^-1 over acted y
                # one slab over (acted y, actor x', acted y')
                lhs = Hc[B[x][:, None, None], B]
                yield (side, x), lhs != B[co.phi[c][:, :, None], Hc[c][:, None, :]]

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
            for g in range(G.order):
                left = H.comm_table[act.bracket[g]]  # [<g,h>, h'] over (h, h')
                mid = act.bracket[G.table[g, co.phi[:, G.inverses[g]]]]
                right = act.acted.star[act.mixed_comm_table[g]]
                yield (side, g), (left != mid) | (mid != right)

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
