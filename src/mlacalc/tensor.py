"""Tensor product of a compatible pair, realized as a concrete algebra.

Pipeline: instantiate the defining relations of the pairing over all element
tuples, enumerate the presented group, extend the star from its generator
seed along normal-form words, then collect what the axiom kernel and the
seed find wrong.  Offending values become new group relators and the
construction reruns, a fixpoint loop with a round cap; a round that finds
nothing has proven all five axioms, so its algebra is recorded as verified
without a second scan.  Induced actions of both factors, the identity
suites, and the quotient bounds live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterator

import numpy as np

from .actions import CompatiblePair, bracket_ideal, mixed_lie_ideal
from .coset import (
    DEFAULT_MAX_COSETS,
    EnumerationResult,
    EnumerationStats,
    Presentation,
    coset_enumerate,
    make_presentation,
)
from .errors import (
    BoundViolation,
    Inapplicable,
    IdealityFailure,
    InducedActionIllDefined,
    InputError,
    PreconditionFailed,
    StarInconsistent,
)
from .groups import FiniteGroup, Subgroup, spanning_tree, subgroup_closure, validate_cayley
from .mla import (
    Ideal,
    MultLieAlg,
    _record_verified,
    axiom_sides,
    broken_axioms,
    compose_failure,
    lie_commutator_ideal,
    make_star_table,
    make_trivial_star,
    nilpotency_class,
    quotient_algebra,
    solvable_length,
    star_iso_failure,
    star_iso_reason,
    star_iso_slabs,
    validate_ideal,
)
from .util import CheckReport, budgeted, check_budget, first_true, memoized, scan

DEFAULT_MAX_ROUNDS = 8
SEED_ORDERS = ("default", "alt")

# new relators admitted per fixpoint round; keeps presentations readable
RELATOR_BATCH = 256

TENSOR_IDENTITY_NAMES = {
    1: "identity slots vanish",
    2: "inverse transport",
    3: "conjugation by a generator",
    4: "right twist difference",
    5: "left twist difference",
    6: "commutator of generators",
}


@dataclass(frozen=True, eq=False)
class TensorAlgebra:
    algebra: MultLieAlg
    pair: CompatiblePair
    tensor_map: np.ndarray  # (|G|, |H|) -> element of algebra
    result: EnumerationResult
    seed_order: str
    rounds: int
    extra_relators: tuple[tuple[int, ...], ...]
    act_g: np.ndarray | None = None  # (|G|, |K|) permutation rows
    act_h: np.ndarray | None = None
    # the canonical ideal and quotient, built on first use
    _canonical: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def group(self) -> FiniteGroup:
        return self.algebra.group

    @property
    def order(self) -> int:
        return self.algebra.order

    def sym(self, g: int, h: int) -> int:
        return int(self.tensor_map[g, h])

    def _require_actions(self) -> tuple[np.ndarray, np.ndarray]:
        if self.act_g is None or self.act_h is None:
            raise InputError("induced actions have not been installed yet")
        return self.act_g, self.act_h


def _pair_labels(pair: CompatiblePair) -> list[str]:
    G, H = pair.G.group, pair.H.group
    return [f"({G.label(g)}⊗{H.label(h)})" for g in range(G.order) for h in range(H.order)]


def build_tensor_presentation(pair: CompatiblePair) -> Presentation:
    """Relator instantiations of the four defining relations over all tuples."""
    act, co = pair.g_on_h, pair.h_on_g
    G, H = pair.G.group, pair.H.group
    ng, nh = G.order, H.order
    TG, TH = G.table, H.table
    CG, CH = G.conj_table, H.conj_table
    SG, SH = pair.G.star, pair.H.star
    aphi, abrk = act.phi, act.bracket
    cphi, cbrk = co.phi, co.bracket

    def idx(a, b):
        return a * nh + b

    rows = []

    # x ⊗ (y y') = (x ⊗ y) · (^y x ⊗ ^y y')   over (x, y, y')
    a = idx(np.arange(ng)[:, None, None], TH[None, :, :])
    b = np.broadcast_to(idx(np.arange(ng)[:, None, None], np.arange(nh)[None, :, None]), a.shape)
    c = idx(cphi.T[:, :, None], CH[None, :, :])
    rows.append(np.stack([-(a + 1), b + 1, c + 1], axis=-1).reshape(-1, 3))

    # (x x') ⊗ y = (^x x' ⊗ ^x y) · (x ⊗ y)   over (x, x', y)
    a = idx(TG[:, :, None], np.arange(nh)[None, None, :])
    b = idx(CG[:, :, None], aphi[:, None, :])
    c = np.broadcast_to(idx(np.arange(ng)[:, None, None], np.arange(nh)[None, None, :]), a.shape)
    rows.append(np.stack([-(a + 1), b + 1, c + 1], axis=-1).reshape(-1, 3))

    # ((x⋆x') ⊗ ^{x'}y) · (^y x ⊗ ⟨x',y⟩)⁻¹ · (^x x' ⊗ ⟨x,y⟩⁻¹)⁻¹ = 1   over (x, x', y)
    a = idx(SG[:, :, None], aphi[None, :, :])
    b = idx(cphi.T[:, None, :], abrk[None, :, :])
    c = idx(CG[:, :, None], H.inverses[abrk][:, None, :])
    rows.append(np.stack([a + 1, -(b + 1), -(c + 1)], axis=-1).reshape(-1, 3))

    # (^{y'}x ⊗ (y⋆y')) · (⟨y,x⟩⁻¹ ⊗ ^y y')⁻¹ · (⟨y',x⟩ ⊗ ^x y)⁻¹ = 1   over (x, y, y')
    a = idx(cphi.T[:, None, :], SH[None, :, :])
    b = idx(G.inverses[cbrk].T[:, :, None], CH[None, :, :])
    c = idx(cbrk.T[:, None, :], aphi[:, :, None])
    rows.append(np.stack([a + 1, -(b + 1), -(c + 1)], axis=-1).reshape(-1, 3))

    return make_presentation(_pair_labels(pair), np.concatenate(rows))


def star_seed_indices(pair: CompatiblePair) -> np.ndarray:
    """Generator-pair star values (x⊗y)⋆(x'⊗y') = ⟨y,x⟩⁻¹ ⊗ ⟨x',y'⟩, as generator indices."""
    G, H = pair.G.group, pair.H.group
    nh = H.order
    first = G.inverses[pair.h_on_g.bracket].T.reshape(-1)
    second = pair.g_on_h.bracket.reshape(-1)
    return first[:, None] * nh + second[None, :]


def _letter_order(ngen: int, seed_order: str) -> range:
    if seed_order == "default":
        return range(ngen)
    if seed_order == "alt":
        return range(ngen - 1, -1, -1)
    raise InputError(f"unknown seed order {seed_order!r}; expected one of {SEED_ORDERS}")


def _normal_forms(K: FiniteGroup, images: np.ndarray, seed_order: str):
    """Right-append BFS words over generator images.

    Returns (parent, letter, levels): element i != identity satisfies
    i = parent[i] · images[letter[i]], and ``levels[d]`` holds the elements
    whose words have length d, the identity alone first (see spanning_tree).
    """
    letters = np.asarray(_letter_order(len(images), seed_order), dtype=np.int64)
    parent, col, levels = spanning_tree(K.table[:, images[letters]], int(K.identity))
    if sum(map(len, levels)) != K.order:
        raise InputError("generator images do not generate the enumerated group")
    return parent, np.where(col < 0, -1, letters[col]), levels


def _extend_star(K: FiniteGroup, tree: tuple, seed_elem: np.ndarray) -> np.ndarray:
    """Star on all of K from the generator seed, by peeling the normal-form
    words of ``tree`` (see _normal_forms), one word length at a time."""
    parent, letter, levels = tree
    T, C = K.table, K.conj_table
    e = K.identity
    ngen = len(seed_elem)
    n = K.order

    # a ⋆ v for each generator symbol a, peeling the last letter of v:
    # a ⋆ (q·w) = (a ⋆ q) · ^q(a ⋆ w)
    genrows = np.empty((ngen, n), dtype=np.int64)
    genrows[:, e] = e
    for level in levels[1:]:
        q, b = parent[level], letter[level]
        genrows[:, level] = T[genrows[:, q], C[q, seed_elem[:, b]]]

    # u ⋆ v peeling the last letter of u: (q·w) ⋆ v = ^q(w ⋆ v) · (q ⋆ v)
    star = np.empty((n, n), dtype=np.int64)
    star[e, :] = e
    for level in levels[1:]:
        q, b = parent[level], letter[level]
        star[level] = T[C[q[:, None], genrows[b]], star[q]]
    return star


def _offending_values(
    K: FiniteGroup,
    S: np.ndarray,
    images: np.ndarray,
    seed_elem: np.ndarray,
) -> np.ndarray:
    """Elements that the axioms or the generator seed force to be trivial:
    lhs·rhs⁻¹ wherever a side of the seed or of an axiom_sides row differs.
    Only the axioms that broken_axioms finds failing are scanned; an axiom
    that holds has no offending values."""
    T, inv = K.table, K.inverses
    stage = "tensor star validation"
    seed = (0, (), S[images[:, None], images[None, :]], seed_elem)
    broken = list(broken_axioms(K, S, stage))
    out: list[np.ndarray] = []
    for _, _, lhs, rhs in chain([seed], budgeted(stage, axiom_sides(K, S, broken))):
        bad = lhs != rhs
        if bad.any():
            out.append(T[lhs[bad], inv[np.broadcast_to(rhs, lhs.shape)[bad]]])
    vals = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *out]))
    return vals[vals != K.identity][:RELATOR_BATCH]


def _word_of(parent: np.ndarray, letter: np.ndarray, identity: int, v: int) -> tuple[int, ...]:
    """v's normal-form word, as a relator: 1-based generator numbers."""
    rev = []
    while v != identity:
        rev.append(int(letter[v]) + 1)
        v = int(parent[v])
    return tuple(reversed(rev))


def induce_star(
    result: EnumerationResult,
    pair: CompatiblePair,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_cosets: int = DEFAULT_MAX_COSETS,
    seed_order: str = "default",
) -> TensorAlgebra:
    """Extend the generator star seed to the whole group, rerunning enumeration
    with any relators the axioms force, until the construction stabilizes."""
    if max_rounds < 1:
        raise InputError("max_rounds must be at least 1")
    _letter_order(1, seed_order)  # validates the flag
    seed_idx = star_seed_indices(pair)
    ng, nh = pair.G.order, pair.H.order
    res = result
    for round_no in range(1, max_rounds + 1):
        check_budget("tensor star fixpoint")
        K = res.group
        images = res.gen_image
        seed_elem = images[seed_idx]
        tree = _normal_forms(K, images, seed_order)
        star = _extend_star(K, tree, seed_elem)
        bad = _offending_values(K, star, images, seed_elem)
        if bad.size == 0:
            # the checks that found nothing to collect proved all five axioms
            alg = _record_verified(MultLieAlg(K, make_star_table(K, star)))
            extra = () if res is result else res.presentation.relators[len(result.presentation.relators) :]
            return TensorAlgebra(
                alg, pair, images.reshape(ng, nh).copy(), res, seed_order, round_no, extra
            )
        if round_no == max_rounds:
            raise StarInconsistent(
                f"star extension did not stabilize within {max_rounds} rounds",
                rounds=max_rounds,
                pending=int(bad.size),
                order=int(K.order),
            )
        parent, letter, _ = tree
        new_rels = [_word_of(parent, letter, int(K.identity), int(v)) for v in bad]
        pres = make_presentation(
            res.presentation.generator_labels, res.presentation.relators + tuple(new_rels)
        )
        res = coset_enumerate(pres, max_cosets)
    raise AssertionError("unreachable")


def _extend_hom(
    target: FiniteGroup,
    gen_targets: np.ndarray,
    parent: np.ndarray,
    letter: np.ndarray,
    levels: list[np.ndarray],
) -> np.ndarray:
    """Row a of the result is the map into ``target`` sending the normal-form
    word of each element (see _normal_forms) to the same word over
    ``gen_targets[a]``; all rows grow one word length at a time."""
    rows = np.empty((len(gen_targets), len(parent)), dtype=np.int64)
    rows[:, levels[0]] = target.identity
    for level in levels[1:]:
        rows[:, level] = target.table[rows[:, parent[level]], gen_targets[:, letter[level]]]
    return rows


_ILL_DEFINED = {
    "not-bijective": "is not a bijection",
    "product": "breaks multiplication",
    "star": "breaks the star",
}


def induce_actions(t: TensorAlgebra) -> TensorAlgebra:
    """Install the factor actions ^g(x⊗y) = (^g x ⊗ ^g y), ^h(x⊗y) = (^h x ⊗ ^h y)."""
    pair = t.pair
    G, H = pair.G.group, pair.H.group
    K = t.group
    tree = _normal_forms(K, t.result.gen_image, t.seed_order)
    tm = t.tensor_map
    # each actor's images of the symbols, as in check_induced_action_formulas
    sym_g = tm[G.conj_table[:, :, None], pair.g_on_h.phi[:, None, :]]
    sym_h = tm[pair.h_on_g.phi[:, :, None], H.conj_table[:, None, :]]
    act_g = _extend_hom(K, sym_g.reshape(G.order, -1), *tree)
    act_h = _extend_hom(K, sym_h.reshape(H.order, -1), *tree)
    sides = (("left-factor", G, act_g), ("right-factor", H, act_h))

    for side, _, rows in sides:
        slabs = (s for a, row in enumerate(rows) for s in star_iso_slabs(t.algebra, t.algebra, row, (a,)))
        hit = scan("induced actions", slabs)[0]
        if hit is not None:
            a, *at = hit
            reason, at = star_iso_reason(at)
            raise InducedActionIllDefined(
                f"induced map of {side} element {a} {_ILL_DEFINED[reason]}",
                side=side,
                element=a,
                **({} if at is None else {"witness": at}),
            )

    for side, group, rows in sides:
        # the maps must compose as a group action: rows[a·b] == rows[a] ∘ rows[b]
        bad = compose_failure(group, rows, "induced actions")
        if bad is not None:
            raise InducedActionIllDefined(
                f"{side} images do not compose as a group action",
                side=side,
                witness=bad[:2],
            )

    return replace(t, act_g=act_g, act_h=act_h)


def _first_failing(name: str, slabs: Iterator) -> CheckReport:
    """A report over single slabs, each prefixed by its detail: the first
    failing slab names the detail and the witness, the tuples counted up to
    and including it."""
    at, checked = scan(name, slabs)
    if at is None:
        return CheckReport(name, True, checked)
    return CheckReport(name, False, checked, at[1:], at[0])


def check_defining_relations(t: TensorAlgebra) -> CheckReport:
    """All four defining relations, re-evaluated directly on the symbol table."""
    pair = t.pair
    act, co = pair.g_on_h, pair.h_on_g
    G, H = pair.G.group, pair.H.group
    K = t.group
    T = K.table
    tm = t.tensor_map

    def slabs() -> Iterator:
        rhs = T[tm[:, :, None], tm[co.phi.T[:, :, None], H.conj_table[None, :, :]]]
        yield ("product in the right slot",), tm[:, H.table] != rhs

        rhs = T[
            tm[G.conj_table[:, :, None], act.phi[:, None, :]],
            np.broadcast_to(tm[:, None, :], (G.order, G.order, H.order)),
        ]
        yield ("product in the left slot",), tm[G.table] != rhs

        SG, SH = pair.G.star, pair.H.star
        a = tm[SG[:, :, None], act.phi[None, :, :]]
        b = tm[co.phi.T[:, None, :], act.bracket[None, :, :]]
        c = tm[G.conj_table[:, :, None], H.inverses[act.bracket][:, None, :]]
        yield ("left star relation",), T[T[a, K.inverses[b]], K.inverses[c]] != K.identity

        a = tm[co.phi.T[:, None, :], SH[None, :, :]]
        b = tm[G.inverses[co.bracket].T[:, :, None], H.conj_table[None, :, :]]
        c = tm[co.bracket.T[:, None, :], act.phi[:, :, None]]
        yield ("right star relation",), T[T[a, K.inverses[b]], K.inverses[c]] != K.identity

        img = t.result.gen_image
        lhs = t.algebra.star[img[:, None], img[None, :]]
        yield ("star seed",), lhs != img[star_seed_indices(pair)]

    return _first_failing("tensor-defining-relations", slabs())


def check_induced_action_formulas(t: TensorAlgebra) -> CheckReport:
    """Induced actions restricted to symbols match the coordinatewise formulas."""
    act_g, act_h = t._require_actions()
    pair = t.pair
    CG, CH = pair.G.group.conj_table, pair.H.group.conj_table
    tm = t.tensor_map

    def slabs() -> Iterator:
        # over (g, x, y), then (h, x, y)
        yield ("left factor",), act_g[:, tm] != tm[CG[:, :, None], pair.g_on_h.phi[:, None, :]]
        yield ("right factor",), act_h[:, tm] != tm[pair.h_on_g.phi[:, :, None], CH[:, None, :]]

    return _first_failing("induced-action-formulas", slabs())


def check_tensor_identities(t: TensorAlgebra, only: int | None = None) -> dict[int, CheckReport]:
    """The six symbol identities; conjugation superscripts act through the
    induced actions, mixed commutators read [x,y] = ^x y·y⁻¹."""
    act_g, act_h = t._require_actions()
    pair = t.pair
    act, co = pair.g_on_h, pair.h_on_g
    G, H = pair.G.group, pair.H.group
    K = t.group
    T, inv = K.table, K.inverses
    tm = t.tensor_map
    ng, nh = G.order, H.order
    gslot = G.table[np.arange(ng)[:, None], G.inverses[co.phi.T]]  # g·(^h g)⁻¹
    hslot = act.mixed_comm_table  # ^g h·h⁻¹
    which = [only] if only is not None else sorted(TENSOR_IDENTITY_NAMES)
    out: dict[int, CheckReport] = {}

    for k in which:
        if k not in TENSOR_IDENTITY_NAMES:
            raise InputError(f"unknown tensor identity {k}")
        name = f"tensor-identity-{k}"
        witness: tuple[int, ...] | None = None
        checked = 0
        if k == 1:
            checked = ng + nh
            bad_h = first_true(tm[G.identity, :] != K.identity)
            bad_g = first_true(tm[:, H.identity] != K.identity)
            if bad_h is not None:
                witness = (int(G.identity), *bad_h)
            elif bad_g is not None:
                witness = (*bad_g, int(H.identity))
        elif k == 2:
            lhs = inv[tm]
            r1 = act_g[np.arange(ng)[:, None], tm[G.inverses, :]]
            r2 = act_h[np.arange(nh)[None, :], tm[:, H.inverses]]
            checked = 2 * tm.size
            witness = first_true((lhs != r1) | (lhs != r2))
        elif k == 3:
            checked = ng * nh * K.order
            slabs = (((g,), K.conj_table[tm[g]] != act_h[hslot[g]]) for g in range(ng))
            witness = scan(name, slabs)[0]
        elif k == 4:
            checked = ng * nh * nh
            slabs = (  # over (h, h')
                ((g,), tm[gslot[g]] != T[tt[:, None], act_h[:, inv[tt]].T]) for g, tt in enumerate(tm)
            )
            witness = scan(name, slabs)[0]
        elif k == 5:
            checked = ng * nh * ng
            slabs = (  # over (g', h), reported as (g, h, g')
                ((g,), tm[:, hslot[g]] != T[act_g[:, tt], inv[tt][None, :]]) for g, tt in enumerate(tm)
            )
            at = scan(name, slabs)[0]
            witness = at and (at[0], at[2], at[1])
        elif k == 6:
            checked = (ng * nh) ** 2
            slabs = (  # over (h, g', h')
                ((g,), K.comm_table[tm[g]][:, tm] != tm[gslot[g]][:, hslot]) for g in range(ng)
            )
            witness = scan(name, slabs)[0]
        out[k] = CheckReport(name, witness is None, checked, witness, TENSOR_IDENTITY_NAMES[k])
    return out


def check_tensor_lie_commutator(t: TensorAlgebra) -> CheckReport:
    """Closed form of the star defect between two symbols: a conjugated
    bracket-defect symbol times two defect-slot symbols."""
    act_g, act_h = t._require_actions()
    pair = t.pair
    act, co = pair.g_on_h, pair.h_on_g
    G, H = pair.G.group, pair.H.group
    K = t.group
    T = K.table
    D = t.algebra.lie_defect_table
    tm = t.tensor_map
    ng, nh = G.order, H.order
    dh = act.mixed_defect_table  # ^L[g', h'] over (g', h')
    bh = act.bracket

    def slabs() -> Iterator:
        for g in range(ng):
            for h in range(nh):
                dg = int(co.mixed_defect_table[h, g])  # ^L[h, g]
                bg = int(co.bracket[h, g])
                f1 = tm[G.inverses[bg]][dh]
                f2 = tm[G.inverses[dg]][bh]
                f3 = tm[G.inverses[dg]][dh]
                pref = act_g[G.inverses[dg]][act_h[bh, f1]]
                yield (g, h), D[tm[g, h]][tm] != T[T[pref, f2], f3]

    at, checked = scan("tensor-lie-commutator", slabs())
    return CheckReport("tensor-lie-commutator", at is None, checked, at)


def tensor_ideal(t: TensorAlgebra, I: Subgroup, J: Subgroup) -> Ideal:
    """Ideal generated by the symbols over I×J; the factor subgroups must be
    ideals, each invariant under the other factor's group action."""
    pair = t.pair
    G, H = pair.G.group, pair.H.group
    if I.parent is not G or J.parent is not H:
        raise InputError("factor subgroups must live in the pair's groups")
    for name, alg, sub in (("left", pair.G, I), ("right", pair.H, J)):
        try:
            validate_ideal(alg, sub)
        except IdealityFailure as ex:
            raise PreconditionFailed(
                f"{name} subgroup is not an ideal of its factor", which=f"{name}-ideal"
            ) from ex
    # each factor ideal against the other factor's action: [actor, member index]
    sides = {"left": (I, pair.h_on_g, "right"), "right": (J, pair.g_on_h, "left")}
    slabs = (
        ((name,), ~sub.mask[act.phi[:, sub.member_array]]) for name, (sub, act, _) in sides.items()
    )
    at = scan("tensor ideal", slabs)[0]
    if at is not None:
        name, actor, k = at
        sub, _, other = sides[name]
        raise PreconditionFailed(
            f"{name} ideal is not invariant under the {other} factor's action",
            which=f"{name}-invariance",
            witness=(actor, int(sub.member_array[k])),
        )
    gens = np.unique(t.tensor_map[np.ix_(I.member_array, J.member_array)])
    S = subgroup_closure(t.group, gens.tolist())
    return validate_ideal(t.algebra, S)


def canonical_tensor_ideal(t: TensorAlgebra) -> tuple[Subgroup, Subgroup, Ideal]:
    """I = the defect ideal of the right-on-left action, J = the bracket ideal
    of the left-on-right action, and the ideal of the tensor their symbols
    generate; built once per tensor."""

    def build() -> tuple[Subgroup, Subgroup, Ideal]:
        I = mixed_lie_ideal(t.pair, side="h-on-g").carrier
        J = bracket_ideal(t.pair, side="g-on-h").subgroup
        return I, J, tensor_ideal(t, I, J)

    return memoized(t._canonical, "ideal", build)


def _nilpotency_quotient(t: TensorAlgebra) -> tuple[MultLieAlg, Ideal]:
    """The tensor modulo its canonical ideal, and that ideal; built once per tensor."""

    def build() -> tuple[MultLieAlg, Ideal]:
        ideal = canonical_tensor_ideal(t)[2]
        return quotient_algebra(t.algebra, ideal)[0], ideal

    return memoized(t._canonical, "quotient", build)


def _quotient_bound(t: TensorAlgebra, measure, adjective: str, noun: str, unit: str) -> CheckReport:
    """The tensor modulo its canonical ideal: its measure (class or length)
    exceeds the right factor's by at most one."""
    n = measure(t.pair.H)
    if n is None:
        raise Inapplicable(f"the right factor is not Lie {adjective}")
    Q, ideal = _nilpotency_quotient(t)
    q = measure(Q)
    if q is None or q > n + 1:
        raise BoundViolation(
            f"tensor quotient exceeds the {noun} bound",
            claimed=n + 1,
            computed=q,
            ideal_order=len(ideal.members),
        )
    return CheckReport(f"tensor-quotient-{noun}", True, Q.order, None, f"{unit} {q} <= {n}+1")


def quotient_nilpotency_bound(t: TensorAlgebra) -> CheckReport:
    """Quotient by (defect ideal of the right-on-left action) ⊗ (bracket ideal):
    its class exceeds the right factor's class by at most one."""
    return _quotient_bound(t, nilpotency_class, "nilpotent", "nilpotency", "class")


def quotient_solvability_bound(t: TensorAlgebra) -> CheckReport:
    return _quotient_bound(t, solvable_length, "solvable", "solvability", "length")


def _self_star_pair_measures(pair: CompatiblePair) -> tuple[int | None, int | None]:
    """Class and length of the factor of a self pair whose two actions are
    conjugation with the star as bracket; Inapplicable for any other pair or
    when the factor has neither."""
    M = pair.G
    if pair.H is not M or any(
        (a.phi != M.group.conj_table).any() or (a.bracket != M.star).any()
        for a in (pair.g_on_h, pair.h_on_g)
    ):
        raise Inapplicable("requires a self pair whose bracket is the star")
    n_cl, n_sl = nilpotency_class(M), solvable_length(M)
    if n_cl is None and n_sl is None:
        raise Inapplicable("the factor is neither Lie nilpotent nor Lie solvable")
    return n_cl, n_sl


def self_pair_quotient_check(t: TensorAlgebra) -> CheckReport:
    """Square of a self-paired algebra whose bracket is its star: the standard
    quotient inherits nilpotency and solvability outright."""
    n_cl, n_sl = _self_star_pair_measures(t.pair)
    Q, _ = _nilpotency_quotient(t)
    notes = []
    if n_cl is not None:
        q = nilpotency_class(Q)
        if q is None:
            raise BoundViolation(
                "square quotient lost nilpotency", claimed="nilpotent", computed=None
            )
        notes.append(f"class {q}")
    if n_sl is not None:
        q = solvable_length(Q)
        if q is None:
            raise BoundViolation(
                "square quotient lost solvability", claimed="solvable", computed=None
            )
        notes.append(f"length {q}")
    return CheckReport("tensor-square-closure", True, Q.order, None, ", ".join(notes))


def defect_square_bound(t: TensorAlgebra) -> CheckReport:
    """Square of a self-paired algebra, quotient by (defect ideal ⊗ defect ideal):
    the class does not grow at all."""
    n_cl, n_sl = _self_star_pair_measures(t.pair)
    M = t.pair.G
    everything = range(M.order)
    D = lie_commutator_ideal(M, everything, everything).subgroup
    ideal = tensor_ideal(t, D, D)
    Q, _ = quotient_algebra(t.algebra, ideal)
    notes = []
    if n_cl is not None:
        q = nilpotency_class(Q)
        if q is None or q > n_cl:
            raise BoundViolation(
                "defect-square quotient exceeds the class of the factor",
                claimed=n_cl,
                computed=q,
            )
        notes.append(f"class {q} <= {n_cl}")
    if n_sl is not None:
        q = solvable_length(Q)
        if q is None:
            raise BoundViolation(
                "defect-square quotient lost solvability", claimed="solvable", computed=None
            )
        notes.append(f"length {q}")
    return CheckReport("tensor-defect-square", True, Q.order, None, ", ".join(notes))


def _trivial_tensor(pair: CompatiblePair, seed_order: str) -> TensorAlgebra:
    ng, nh = pair.G.order, pair.H.order
    labels = _pair_labels(pair)
    pres = make_presentation(labels, [(i + 1,) for i in range(len(labels))])
    K = validate_cayley(["1"], [[0]])
    res = EnumerationResult(
        pres, K, np.zeros(len(labels), dtype=np.int64), EnumerationStats(1, 0, 1)
    )
    alg = make_trivial_star(K)
    return TensorAlgebra(
        alg,
        pair,
        np.zeros((ng, nh), dtype=np.int64),
        res,
        seed_order,
        0,
        (),
        act_g=np.zeros((ng, 1), dtype=np.int64),
        act_h=np.zeros((nh, 1), dtype=np.int64),
    )


def build_tensor_algebra(
    pair: CompatiblePair,
    max_cosets: int = DEFAULT_MAX_COSETS,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    seed_order: str = "default",
) -> TensorAlgebra:
    """Full pipeline: presentation, enumeration, star fixpoint, induced actions."""
    if pair.G.order == 1 or pair.H.order == 1:
        return _trivial_tensor(pair, seed_order)
    pres = build_tensor_presentation(pair)
    res = coset_enumerate(pres, max_cosets)
    t = induce_star(res, pair, max_rounds, max_cosets, seed_order)
    return induce_actions(t)


def compare_seed_orders(
    pair: CompatiblePair,
    max_cosets: int = DEFAULT_MAX_COSETS,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> CheckReport:
    """The star table must not depend on the normal-form letter order: the
    generator-word identification of the two runs is a star isomorphism."""
    td = build_tensor_algebra(pair, max_cosets, max_rounds, "default")
    ta = build_tensor_algebra(pair, max_cosets, max_rounds, "alt")
    if td.order != ta.order:
        return CheckReport(
            "seed-order-independence", False, 0, (td.order, ta.order), "orders differ"
        )
    Kd, Ka = td.group, ta.group
    if td.order == 1:
        return CheckReport("seed-order-independence", True, 1)
    tree = _normal_forms(Kd, td.result.gen_image, "default")
    psi = _extend_hom(Ka, ta.result.gen_image[None, :], *tree)[0]
    bad = star_iso_failure(td.algebra, ta.algebra, psi)
    if bad is not None:
        reason, w = bad
        checked, detail = {
            "not-bijective": (0, "not a bijection"),
            "product": (Kd.order ** 2, "not multiplicative"),
            "star": (2 * Kd.order ** 2, "star differs"),
        }[reason]
        return CheckReport("seed-order-independence", False, checked, w, detail)
    checked = 2 * Kd.order ** 2 + td.tensor_map.size
    w = first_true(psi[td.tensor_map] != ta.tensor_map)
    if w is not None:
        return CheckReport("seed-order-independence", False, checked, w, "symbols differ")
    return CheckReport("seed-order-independence", True, checked)
