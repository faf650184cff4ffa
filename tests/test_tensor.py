"""Tensor construction, its check battery, and the quotient bounds.

Three oracles anchor this module: the classical gcd formula for tensor
products of finite abelian groups (trivial pairs build exactly those), the
published orders of non-abelian tensor squares, and frozen reference
orders for the three bundled pairs that were first obtained from the
enumeration itself and then pinned.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from math import gcd, log, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlacalc.actions import (
    check_compatibility,
    conjugation_self_action,
    trivial_action,
    validate_action,
)
from mlacalc import mla, util
from mlacalc.corpus import cyclic, direct_product, get_group, group_names
from mlacalc.errors import (
    AxiomViolation,
    BudgetExceeded,
    CosetCapExceeded,
    Inapplicable,
    InducedActionIllDefined,
    InputError,
    PreconditionFailed,
)
from mlacalc.groups import subgroup_closure, validate_cayley
from mlacalc.harness import Instance, run_suite
from mlacalc.mla import (
    MultLieAlg,
    axiom_sides,
    broken_axioms,
    check_axioms,
    check_lie_identities,
    make_improper_star,
    make_trivial_star,
    quotient_algebra,
    validate_ideal,
)
from mlacalc.tensor import (
    RELATOR_BATCH,
    _nilpotency_quotient,
    _offending_values,
    build_tensor_algebra,
    canonical_tensor_ideal,
    build_tensor_presentation,
    check_defining_relations,
    check_induced_action_formulas,
    check_tensor_identities,
    check_tensor_lie_commutator,
    compare_seed_orders,
    defect_square_bound,
    induce_actions,
    quotient_nilpotency_bound,
    quotient_solvability_bound,
    self_pair_quotient_check,
    tensor_ideal,
)
from mlacalc.coset import coset_enumerate, make_presentation
from mlacalc.util import first_true


# --- frozen reference values ------------------------------------------------------


FROZEN = {
    # name -> (order, defined, collapsed, live)
    "z2-trivial": (2, 3, 1, 2),
    "s3-improper-star": (6, 8, 2, 6),
    "q8-trivial": (64, 66, 2, 64),
}


def test_reference_tensors_frozen(tensors):
    for name, t in tensors.items():
        order, defined, collapsed, live = FROZEN[name]
        assert t.order == order
        st = t.result.stats
        assert (st.cosets_defined, st.cosets_collapsed, st.live) == (defined, collapsed, live)
        assert t.rounds == 1
        assert t.extra_relators == ()
        assert t.algebra.star_is_trivial
        assert t.tensor_map.shape == (t.pair.G.order, t.pair.H.order)


# the main theorem and the three remarks that follow it
MAIN_THEOREM_IDS = ("thm-3.13", "rem-3.15.1", "rem-3.15.2", "rem-3.15.3")


def test_reference_tensors_pass_all_checks(tensors):
    for t in tensors.values():
        assert check_defining_relations(t).passed
        assert check_induced_action_formulas(t).passed
        res = check_tensor_identities(t)
        assert set(res) == set(range(1, 7))
        assert all(rep.passed for rep in res.values())
        assert check_tensor_lie_commutator(t).passed
        led = run_suite(Instance.from_tensor(t), MAIN_THEOREM_IDS)
        for ident in MAIN_THEOREM_IDS:
            assert led.get(ident).status in ("pass", "inapplicable"), led.get(ident)


def test_builds_are_deterministic(pairs):
    a = build_tensor_algebra(pairs["s3-improper-star"])
    b = build_tensor_algebra(pairs["s3-improper-star"])
    assert (a.algebra.star == b.algebra.star).all()
    assert (a.tensor_map == b.tensor_map).all()
    assert a.group.labels == b.group.labels


def test_seed_order_independence(pairs):
    for pair in pairs.values():
        rep = compare_seed_orders(pair)
        assert rep.passed, rep


# --- abelian oracle -----------------------------------------------------------------


def _cyclic_factors(G):
    """The prime-power orders of a cyclic decomposition of the abelian group
    G, read from its element orders alone: the elements of order dividing p^j
    number p^(m_1 + ... + m_j), where m_i counts the factors of order at
    least p^i."""
    n, idx = G.order, np.arange(G.order)
    orders, power, k = np.zeros(n, dtype=np.int64), idx, 1  # power = x^k
    while (orders == 0).any():
        orders[(power == G.identity) & (orders == 0)] = k
        power, k = G.table[power, idx], k + 1
    factors = []
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    for p in primes:
        at_least, below = [], 1  # m_1, m_2, ...; elements of order dividing p^(j-1)
        while (count := int((p ** (len(at_least) + 1) % orders == 0).sum())) > below:
            at_least.append(round(log(count // below, p)))
            below = count
        for j, (m, m_next) in enumerate(zip(at_least, at_least[1:] + [0]), 1):
            factors += [p**j] * (m - m_next)
    return sorted(factors)


@pytest.mark.parametrize(
    "name,factors",
    [("C1", []), ("C12", [3, 4]), ("C4xC2", [2, 4]), ("C2xC2xC2", [2, 2, 2]), ("C6xC2", [2, 2, 3])],
)
def test_cyclic_factors_are_read_from_element_orders(name, factors):
    assert _cyclic_factors(get_group(name)) == factors


def _gcd_order(A, B):
    """|A ⊗ B| for abelian A and B acting trivially: Z_d ⊗ Z_e = Z_gcd(d, e)."""
    return prod(gcd(d, e) for d in _cyclic_factors(A) for e in _cyclic_factors(B))


def _group(name: str):
    # C4xC4 is not in the corpus; its tensor square C4^4 has order 256
    return direct_product(cyclic(4), cyclic(4)) if name == "C4xC4" else get_group(name)


def _trivial_pair(a: str, b: str):
    A = make_trivial_star(_group(a))
    B = make_trivial_star(_group(b))
    return check_compatibility(trivial_action(A, B), trivial_action(B, A))


@pytest.mark.parametrize(
    "a,b",
    [
        ("C4", "C6"),
        ("V4", "C2"),
        ("C3xC3", "C3"),
        ("C6xC2", "C4"),
        ("C2", "C3"),
        ("C4xC2", "V4"),
        ("C4xC4", "C4xC4"),
    ],
)
def test_abelian_tensor_matches_gcd_oracle(a, b):
    t = build_tensor_algebra(_trivial_pair(a, b))
    assert t.order == _gcd_order(_group(a), _group(b))
    assert t.group.is_abelian
    assert t.algebra.star_is_trivial
    assert check_defining_relations(t).passed


ABELIAN_GROUPS = [name for name in group_names() if get_group(name).is_abelian]


@pytest.mark.parametrize("star", ["trivial", "improper"])
@pytest.mark.parametrize("name", ABELIAN_GROUPS)
def test_abelian_self_tensor_matches_gcd_oracle(name, star):
    # the corpus self pairs; their star is recognized rather than scanned, so
    # the order is checked here by a formula that needs no enumeration.
    # C2xC2xC2 gives the order-512 tensor C2^9.
    G = get_group(name)
    M = (make_trivial_star if star == "trivial" else make_improper_star)(G)
    act = conjugation_self_action(M, np.full((G.order, G.order), G.identity) if star == "trivial" else M.star)
    t = build_tensor_algebra(check_compatibility(act, act))
    assert t.order == _gcd_order(G, G)


# G ⊗ G for the conjugation action with the trivial star and bracket, i.e. the
# non-abelian tensor square (Brown, Johnson and Robertson, J. Algebra 111, 1987)
TENSOR_SQUARE_ORDERS = {
    "S3": 6, "C4": 4, "V4": 16, "Q8": 64, "D4": 32,
    "D5": 10, "D6": 48, "Dic3": 12, "A4": 24, "C6xC2": 48,
}  # fmt: skip


@pytest.mark.parametrize("name", sorted(TENSOR_SQUARE_ORDERS))
def test_tensor_squares_match_known_orders(name):
    G = get_group(name)
    act = conjugation_self_action(make_trivial_star(G), np.full((G.order, G.order), G.identity))
    t = build_tensor_algebra(check_compatibility(act, act))
    assert t.order == TENSOR_SQUARE_ORDERS[name]
    assert check_defining_relations(t).passed


def test_trivial_factor_short_circuits():
    t = build_tensor_algebra(_trivial_pair("C1", "S3"))
    assert t.order == 1 and t.rounds == 0
    assert check_defining_relations(t).passed
    assert check_tensor_lie_commutator(t).passed


def _gl2_f2_self_pair():
    """gl2(F2): the 2x2 matrices over F2 under addition (C2^4 under XOR, a
    matrix read from the bits of its index), star [A, B] = AB + BA, paired
    with itself by conjugation and bracket = star."""
    idx = np.arange(16)
    mats = ((idx[:, None] >> np.arange(4)) & 1).reshape(16, 2, 2)
    ab = mats[:, None] @ mats[None, :]
    star = (((ab + ab.transpose(1, 0, 2, 3)) % 2).reshape(16, 16, 4) << np.arange(4)).sum(-1)
    G = validate_cayley([f"m{i}" for i in idx], idx[:, None] ^ idx[None, :])
    M = mla.make_algebra(G, star)
    act = conjugation_self_action(M, M.star)
    return check_compatibility(act, act)


def test_gl2_star_fixpoint_takes_a_second_round():
    # the first enumeration is too large for the star: the axioms force
    # three relators, and the second round's group carries a valid star
    pair = _gl2_f2_self_pair()
    t = build_tensor_algebra(pair)
    assert (t.order, t.rounds) == (16, 2)
    assert t.extra_relators == ((35,), (69,), (103,))
    assert check_defining_relations(t).passed
    assert compare_seed_orders(pair).passed
    ledger = run_suite(Instance.from_tensor(t, "gl2"))
    assert ledger.counts() == {"pass": 36, "fail": 0, "inapplicable": 1, "skipped": 0}
    assert ledger.get("thm-3.13").status == "inapplicable"
    assert "not Lie nilpotent" in ledger.get("thm-3.13").detail


# --- presentation robustness ----------------------------------------------------------


def test_relator_order_does_not_change_the_group(pairs):
    pres = build_tensor_presentation(pairs["s3-improper-star"])
    flipped = make_presentation(pres.generator_labels, list(reversed(pres.relators)))
    assert coset_enumerate(flipped).group.order == coset_enumerate(pres).group.order == 6


def _swap_symbols(t, i, j):
    """t with the symbols at flat positions i and j of its tensor map swapped."""
    tm = t.tensor_map.reshape(-1).copy()
    tm[[i, j]] = tm[[j, i]]
    return replace(t, tensor_map=tm.reshape(t.tensor_map.shape))


def _reindex_action(t, side, rows):
    """t whose pair's ``side`` action reads phi[rows[g]] for each actor g."""
    act = getattr(t.pair, side)
    return replace(t, pair=replace(t.pair, **{side: replace(act, phi=act.phi[rows])}))


def _null_action_row(t, side, g):
    """t whose pair's ``side`` action sends everything to 1 under actor g."""
    act = getattr(t.pair, side)
    phi = act.phi.copy()
    phi[g] = act.acted.group.identity
    return replace(t, pair=replace(t.pair, **{side: replace(act, phi=phi)}))


def _constant_star(t, c):
    """t whose tensor algebra has the (axiom-breaking) constant star c."""
    K = t.group
    return replace(t, algebra=MultLieAlg(K, np.full((K.order, K.order), c)))


_INDUCED_FAILURES = [
    ("z2-trivial", lambda t: _swap_symbols(t, 0, 3),
     "induced map of left-factor element 0 is not a bijection",
     {"side": "left-factor", "element": 0}),
    ("q8-trivial", lambda t: _swap_symbols(t, 0, 9),
     "induced map of left-factor element 0 is not a bijection",
     {"side": "left-factor", "element": 0}),
    ("s3-improper-star", lambda t: _null_action_row(t, "h_on_g", 1),
     "induced map of right-factor element 1 is not a bijection",
     {"side": "right-factor", "element": 1}),
    ("q8-trivial", lambda t: _swap_symbols(t, 9, 11),
     "induced map of left-factor element 0 breaks multiplication",
     {"side": "left-factor", "element": 0, "witness": (1, 4)}),
    ("s3-improper-star", lambda t: _reindex_action(t, "g_on_h", [0, 1, 2, 3, 5, 4]),
     "induced map of left-factor element 4 breaks multiplication",
     {"side": "left-factor", "element": 4, "witness": (3, 3)}),
    ("s3-improper-star", lambda t: _reindex_action(t, "h_on_g", [0, 1, 2, 3, 5, 4]),
     "induced map of right-factor element 4 breaks multiplication",
     {"side": "right-factor", "element": 4, "witness": (3, 3)}),
    ("q8-trivial", lambda t: _constant_star(t, 4),
     "induced map of left-factor element 1 breaks the star",
     {"side": "left-factor", "element": 1, "witness": (0, 0)}),
    ("q8-trivial", lambda t: _constant_star(_reindex_action(t, "h_on_g", [5, 0, 1, 4, 2, 6, 3, 7]), 1),
     "induced map of right-factor element 0 breaks the star",
     {"side": "right-factor", "element": 0, "witness": (0, 0)}),
    ("q8-trivial", lambda t: _reindex_action(t, "g_on_h", [2, 4, 3, 6, 5, 0, 1, 7]),
     "left-factor images do not compose as a group action",
     {"side": "left-factor", "witness": (1, 1)}),
    ("q8-trivial", lambda t: _reindex_action(t, "h_on_g", [0, 4, 1, 6, 3, 2, 5, 7]),
     "right-factor images do not compose as a group action",
     {"side": "right-factor", "witness": (1, 1)}),
]


@pytest.mark.parametrize("name, spoil, message, payload", _INDUCED_FAILURES)
def test_ill_defined_induced_actions_name_side_element_and_witness(tensors, name, spoil, message, payload):
    # each failure kind on each side: a bijection, multiplication, the star,
    # then composition of the rows
    with pytest.raises(InducedActionIllDefined) as exc:
        induce_actions(spoil(tensors[name]))
    assert str(exc.value) == message
    assert exc.value.payload == payload


def test_tiny_coset_cap_raises(pairs):
    with pytest.raises(CosetCapExceeded):
        build_tensor_algebra(pairs["s3-improper-star"], max_cosets=4)


# --- the central ideal of the q8 square ---------------------------------------------


def test_q8_center_tensor_ideal(tensors):
    t = tensors["q8-trivial"]
    center = subgroup_closure(t.pair.G.group, [2])  # {1, -1}
    assert center.order == 2
    ideal = tensor_ideal(t, center, center)
    # symbols over the factor subgroups generate it
    for a in center.members:
        for b in center.members:
            assert t.sym(a, b) in ideal.members
    # and it satisfies the full ideal contract independently re-checked
    validate_ideal(t.algebra, ideal.subgroup)
    # the central symbols all collapse: (-1 x -1) = (i x i)^4 = 1 in this K
    assert ideal.members == frozenset({t.group.identity})
    Q, _ = quotient_algebra(t.algebra, ideal)
    assert Q.order * len(ideal.members) == t.order


def test_tensor_ideal_rejects_foreign_parent(tensors):
    t = tensors["q8-trivial"]
    alien = subgroup_closure(get_group("C2"), [1])
    with pytest.raises(InputError):
        tensor_ideal(t, alien, alien)


def test_tensor_ideal_rejects_non_ideal_factor(tensors):
    t = tensors["s3-improper-star"]
    G = t.pair.G.group
    refl = next(x for x in range(6) if x != G.identity and G.table[x, x] == G.identity)
    crooked = subgroup_closure(G, [refl])
    full = subgroup_closure(G, range(6))
    with pytest.raises(PreconditionFailed) as exc:
        tensor_ideal(t, full, crooked)
    assert exc.value.payload["which"] == "right-ideal"
    with pytest.raises(PreconditionFailed) as exc:
        tensor_ideal(t, crooked, full)
    assert exc.value.payload["which"] == "left-ideal"


def test_tensor_ideal_lets_a_spent_budget_through(tensors, monkeypatch):
    # a spent budget is not a precondition failure: it keeps its own exit code
    t = tensors["q8-trivial"]
    center = subgroup_closure(t.pair.G.group, [2])
    monkeypatch.setenv("MLACALC_BUDGET_SECS", "-1")
    with pytest.raises(BudgetExceeded) as exc, util.run_budget():
        tensor_ideal(t, center, center)
    assert exc.value.payload == {"stage": "ideal check"}


def _swap_pair():
    """C2 acting on the Klein group by swapping two generators; both stars
    and brackets trivial.  Every subgroup is an ideal here, but a swapped
    generator spans a subgroup that the action refuses to preserve."""
    A = make_trivial_star(get_group("C2"))
    B = make_trivial_star(get_group("V4"))
    eB = B.group.identity
    v, w = [x for x in range(4) if x != eB][:2]
    u = int(B.group.table[v, w])
    swap = np.arange(4)
    swap[v], swap[w] = w, v
    phi = np.stack([np.arange(4), swap])
    bracket = np.full((2, 4), eB)
    a_on_b = validate_action(A, B, phi, bracket)
    b_on_a = trivial_action(B, A)
    return check_compatibility(a_on_b, b_on_a), v, u


def test_tensor_ideal_invariance_preconditions():
    pair, v, u = _swap_pair()
    t = build_tensor_algebra(pair)
    G, H = pair.G.group, pair.H.group
    moved = subgroup_closure(H, [v])
    fixed = subgroup_closure(H, [u])
    whole = subgroup_closure(G, range(2))
    with pytest.raises(PreconditionFailed) as exc:
        tensor_ideal(t, whole, moved)
    assert exc.value.payload["which"] == "right-invariance"
    tensor_ideal(t, whole, fixed)  # the swap-fixed line is fine

    sw = pair.swapped()
    tsw = build_tensor_algebra(sw)
    with pytest.raises(PreconditionFailed) as exc:
        tensor_ideal(tsw, moved, whole)
    assert exc.value.payload["which"] == "left-invariance"


# --- quotient bounds -------------------------------------------------------------------


def test_quotient_bounds_on_references(tensors):
    for t in tensors.values():
        rep = quotient_nilpotency_bound(t)
        assert rep.passed and "class" in rep.detail
        rep = quotient_solvability_bound(t)
        assert rep.passed and "length" in rep.detail


def test_tensor_builds_its_canonical_quotient_once(tensors):
    t = tensors["q8-trivial"]
    Q, ideal = _nilpotency_quotient(t)
    assert _nilpotency_quotient(t)[0] is Q and canonical_tensor_ideal(t)[2] is ideal
    assert quotient_nilpotency_bound(t).passed and self_pair_quotient_check(t).passed
    assert _nilpotency_quotient(t)[0] is Q
    # a copy is a new tensor with its own, equal, quotient
    Q2, ideal2 = _nilpotency_quotient(replace(t))
    assert Q2 is not Q and ideal2.members == ideal.members
    assert (Q2.star == Q.star).all()


def test_self_pair_checks_applicability(tensors):
    with pytest.raises(Inapplicable):
        self_pair_quotient_check(tensors["z2-trivial"])
    with pytest.raises(Inapplicable):
        defect_square_bound(tensors["z2-trivial"])
    for name in ("s3-improper-star", "q8-trivial"):
        assert self_pair_quotient_check(tensors[name]).passed
        assert defect_square_bound(tensors[name]).passed


# --- the star fixpoint's collector ---------------------------------------------------


def _brute_force_offending(K, S, images, seed_elem):
    """lhs·rhs⁻¹ at every failing seed cell and axiom tuple, by loops over
    the formulas of the mla module docstring."""
    T, inv, e = K.table, K.inverses, K.identity
    conj = lambda z, x: T[T[z, x], inv[z]]
    found = set()

    def note(lhs, rhs):
        if lhs != rhs:
            found.add(int(T[lhs, inv[rhs]]))

    for a, ga in enumerate(images):
        for b, gb in enumerate(images):
            note(S[ga, gb], seed_elem[a, b])
    for x in range(K.order):
        note(S[x, x], e)
        for y in range(K.order):
            for z in range(K.order):
                note(S[x, T[y, z]], T[S[x, y], conj(y, S[x, z])])
                note(S[T[x, y], z], T[conj(x, S[y, z]), S[x, z]])
                p1 = S[S[x, y], conj(y, z)]
                p2 = S[S[y, z], conj(z, x)]
                p3 = S[S[z, x], conj(x, y)]
                note(T[T[p1, p2], p3], e)
                note(conj(z, S[x, y]), S[conj(z, x), conj(z, y)])
    found.discard(int(e))
    return sorted(found)[:RELATOR_BATCH]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_star_fixpoint_collects_every_offending_value(data):
    # every corpus tensor passes the fixpoint in its first round, so only
    # perturbed stars reach the branch that turns values into relators
    name = data.draw(st.sampled_from([n for n in group_names() if 2 <= get_group(n).order <= 8]))
    K = get_group(name)
    n = K.order
    base = data.draw(st.sampled_from([make_trivial_star, make_improper_star]))(K).star
    S = base.copy()
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    S[i, j] = data.draw(st.integers(0, n - 1).filter(lambda v: v != base[i, j]))
    images = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    seed_elem = base[images[:, None], images[None, :]]
    got = _offending_values(K, S, images, seed_elem)
    want = _brute_force_offending(K, S, images, seed_elem)
    assert want, "a single changed cell always breaks an axiom"
    assert [int(v) for v in got] == want


def _full_collection(K, S, images, seed_elem):
    """lhs·rhs⁻¹ over the seed and the exhaustive rows of all five axioms."""
    T, inv = K.table, K.inverses
    seed = S[images[:, None], images[None, :]]
    found = {int(T[a, inv[b]]) for a, b in zip(seed.ravel(), seed_elem.ravel()) if a != b}
    for _, _, lhs, rhs in axiom_sides(K, S, range(1, 6)):
        rhs = np.broadcast_to(rhs, lhs.shape)
        bad = lhs != rhs
        found.update(int(v) for v in T[lhs[bad], inv[rhs[bad]]])
    found.discard(int(K.identity))
    return sorted(found)[:RELATOR_BATCH]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_offending_values_scan_only_broken_axioms_and_lose_nothing(data):
    name = data.draw(st.sampled_from([n for n in group_names() if 2 <= get_group(n).order <= 12]))
    K = get_group(name)
    n = K.order
    base = data.draw(st.sampled_from([make_trivial_star, make_improper_star]))(K).star
    S = base.copy()
    for _ in range(data.draw(st.integers(1, 2))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        S[i, j] = data.draw(st.integers(0, n - 1).filter(lambda v: v != base[i, j]))
    images = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    seed_elem = base[images[:, None], images[None, :]]
    got = _offending_values(K, S, images, seed_elem)
    assert [int(v) for v in got] == _full_collection(K, S, images, seed_elem)


# --- the flat table reads, on algebras of 32 or more elements -----------------------


def _self_tensor(name):
    G = get_group(name)
    act = conjugation_self_action(make_trivial_star(G), np.full((G.order, G.order), G.identity))
    return build_tensor_algebra(check_compatibility(act, act)).algebra


def _heisenberg_c2_5():
    """The F2 Heisenberg Lie algebra on C2^5: basis x1, x2, y1, y2, z, with
    [x1, y1] = [x2, y2] = z and every other bracket of basis vectors 0."""
    K = functools.reduce(direct_product, [get_group("C2")] * 5)
    r = np.arange(32)
    assert (K.table == r[:, None] ^ r[None, :]).all()  # elements are bit vectors
    bit = lambda v, k: (v >> k) & 1
    u, v = r[:, None], r[None, :]
    x1, x2, y1, y2 = 4, 3, 2, 1  # bit positions; z is bit 0
    form = sum(bit(u, a) * bit(v, b) + bit(u, b) * bit(v, a) for a, b in ((x1, y1), (x2, y2)))
    return MultLieAlg(K, form % 2)


# the trivial-star self-pair tensors of order 32-64 are abelian with the
# trivial star; the two improper products are not abelian; the Heisenberg
# star is neither trivial nor a commutator, so only it reaches the scans
# unperturbed
FLAT_ALGEBRAS = {
    **{f"{name}-tensor": functools.partial(_self_tensor, name) for name in ("D4", "C6xC2", "D6", "Q8")},
    "D4xC4-improper": lambda: make_improper_star(direct_product(get_group("D4"), get_group("C4"))),
    "A4xC4-improper": lambda: make_improper_star(direct_product(get_group("A4"), get_group("C4"))),
    "C2^5-heisenberg": _heisenberg_c2_5,
}


@functools.lru_cache(maxsize=None)
def _flat_algebra(name):
    return FLAT_ALGEBRAS[name]()


def _plain_axiom_sides(K, S):
    """Both sides of axioms 1-5 over every tuple by direct int64 indexing of
    the tables: [x] for axiom 1 and [x, y, z] for 2-5, axiom 4 as the whole
    product against the identity."""
    T, C, e = K.table, K.conj_table, K.identity
    r = np.arange(K.order)
    x, y, z = np.ix_(r, r, r)
    P1, P2, P3 = S[S[x, y], C[y, z]], S[S[y, z], C[z, x]], S[S[z, x], C[x, y]]
    sides = {
        1: (np.diagonal(S), e),
        2: (S[x, T[y, z]], T[S[x, y], C[y, S[x, z]]]),
        3: (S[T[x, y], z], T[C[x, S[y, z]], S[x, z]]),
        4: (T[T[P1, P2], P3], e),
        5: (C[z, S[x, y]], S[C[z, x], C[z, y]]),
    }
    return {num: (lhs, np.broadcast_to(rhs, lhs.shape)) for num, (lhs, rhs) in sides.items()}


def _plain_identity_masks(K, S):
    """Failure masks of defect identities 3-5 over every (a, b, c), by direct
    int64 indexing of the tables."""
    T, C, Kc = K.table, K.conj_table, K.comm_table
    L = T[K.inverses[S], Kc]
    r = np.arange(K.order)
    a, b, c = np.ix_(r, r, r)
    return {
        3: L[T[a, b], c] != T[L[a, c], C[C[c, a], L[b, c]]],
        4: L[a, T[b, c]] != T[C[b, L[a, c]], C[Kc[C[b, c], C[b, a]], L[a, b]]],
        5: C[a, L[b, c]] != L[C[a, b], C[a, c]],
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flat_reads_agree_with_plain_indexing(data):
    # the corpus algebras have fewer than 32 elements and never reach the
    # flat reads; these algebras do, with one or two star cells changed
    M = _flat_algebra(data.draw(st.sampled_from(sorted(FLAT_ALGEBRAS))))
    K, base = M.group, M.star
    n = K.order
    assert 32 <= n <= 64
    S = base.copy()
    for _ in range(data.draw(st.integers(1, 2))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        S[i, j] = data.draw(st.integers(0, n - 1).filter(lambda v: v != base[i, j]))

    # every law with each variable in turn fixed, the other two over a plane
    sides = _plain_axiom_sides(K, S)
    masks = _plain_identity_masks(K, S)
    axiom_laws, identity_laws = mla._axiom_laws(K, S), mla._identity_laws(MultLieAlg(K, S))
    v, lo = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    for pos in range(3):
        at = [slice(None)] * 3
        at[pos] = v
        xyz = list(mla._plane(n))
        xyz.insert(pos, v)
        for num in (2, 3, 4, 5):
            lhs, rhs = axiom_laws[num](*xyz)
            assert ((lhs != rhs) == (sides[num][0] != sides[num][1])[tuple(at)]).all()
        for num in (3, 4, 5):
            assert (identity_laws[num](*xyz) == masks[num][tuple(at)]).all()
    lhs, rhs = axiom_laws[4](v, *mla._plane(n, lo))  # the rotation pass's planes
    assert ((lhs != rhs) == (sides[4][0] != sides[4][1])[v, lo:, lo:]).all()

    failing = [num for num, (lhs, rhs) in sides.items() if (lhs != rhs).any()]
    assert list(broken_axioms(K, S)) == failing
    if failing:
        num = failing[0]
        mask = sides[num][0] != sides[num][1]
        witness = list(first_true(mask.transpose(0, 2, 1) if num == 5 else mask))
        with pytest.raises(AxiomViolation) as exc:
            check_axioms(MultLieAlg(K, S))
        assert exc.value.payload == {"axiom": num, "witness": witness}
    else:
        check_axioms(MultLieAlg(K, S))

    images = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)))
    seed_elem = base[images[:, None], images[None, :]]
    seed = S[images[:, None], images[None, :]]
    found = {int(v) for v in K.table[seed, K.inverses[seed_elem]][seed != seed_elem]}
    for lhs, rhs in sides.values():
        bad = lhs != rhs
        found.update(int(v) for v in K.table[lhs[bad], K.inverses[rhs[bad]]])
    found.discard(int(K.identity))
    got = [int(v) for v in _offending_values(K, S, images, seed_elem)]
    assert got == _full_collection(K, S, images, seed_elem) == sorted(found)[:RELATOR_BATCH]

    assert check_lie_identities(MultLieAlg(K, S), only=(3, 4, 5)) == {
        num: list(first_true(m)) if m.any() else None for num, m in masks.items()
    }


def test_heisenberg_star_passes_the_reduced_scans():
    M = _flat_algebra("C2^5-heisenberg")
    K, S = M.group, M.star
    assert not M.star_is_trivial and not M.star_is_commutator
    assert list(broken_axioms(K, S)) == []
    assert all((lhs == rhs).all() for lhs, rhs in _plain_axiom_sides(K, S).values())
    assert not any(mask.any() for mask in _plain_identity_masks(K, S).values())
    assert check_lie_identities(M, only=(3, 4, 5)) == {3: None, 4: None, 5: None}
