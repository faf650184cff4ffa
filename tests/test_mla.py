"""Star axioms, defect identities, ideals, and the two series.

The series oracle recomputes everything with naive set arithmetic; the
frozen ground truths (S3 and Q8 under both canonical stars) were first
computed with that oracle and are asserted exactly.
"""

from __future__ import annotations

import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlacalc.actions import bracket_ideal, mixed_lie_ideal
from mlacalc.corpus import direct_product, get_group, group_names
from mlacalc.errors import (
    AxiomViolation,
    BudgetExceeded,
    IdealityFailure,
    MathViolation,
    QuotientStarIllDefined,
)
from mlacalc.mla import (
    AXIOM_NAMES,
    Ideal,
    MultLieAlg,
    axiom_sides,
    broken_axioms,
    check_axioms,
    check_lie_identities,
    compose_failure,
    derived_series,
    ideal_closure,
    lie_commutator_ideal,
    lower_central_series,
    make_algebra,
    make_improper_star,
    make_trivial_star,
    nilpotency_class,
    quotient_algebra,
    solvable_length,
    star_iso_failure,
    sub_algebra,
    validate_ideal,
)
from mlacalc import groups, mla, util
from mlacalc.groups import Subgroup, subgroup_closure
from mlacalc.tensor import build_tensor_algebra, tensor_ideal
from .self_pairs import self_pair


# --- naive oracle -------------------------------------------------------------


def oracle_axiom_failures(G, S):
    """All five axioms by triple loops; returns set of failing axiom numbers."""
    n = G.order
    T, inv, e = G.table, G.inverses, G.identity
    conj = lambda z, x: T[T[z, x], inv[z]]
    bad = set()
    for x in range(n):
        if S[x, x] != e:
            bad.add(1)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if S[x, T[y, z]] != T[S[x, y], conj(y, S[x, z])]:
                    bad.add(2)
                if S[T[x, y], z] != T[conj(x, S[y, z]), S[x, z]]:
                    bad.add(3)
                a = conj(S[x, y], S[T[y, x], z])
                b = conj(S[z, x], S[T[x, z], y])
                c = conj(S[y, z], S[T[z, y], x])
                if T[T[a, b], c] != e:
                    bad.add(4)
                if conj(z, S[x, y]) != S[conj(z, x), conj(z, y)]:
                    bad.add(5)
    return bad


def oracle_least_failure(G, S):
    """(axiom, witness) of the least axiom oracle_axiom_failures reports, at
    its least witness by loops over the formula of the mla module docstring;
    coordinates are (x, y, z), and (x, z, y) for axiom 5.  None if all hold."""
    bad = oracle_axiom_failures(G, S)
    if not bad:
        return None
    num = min(bad)
    n = G.order
    T, inv, e = G.table, G.inverses, G.identity
    conj = lambda z, x: T[T[z, x], inv[z]]
    if num == 1:
        return 1, [min(x for x in range(n) if S[x, x] != e)]
    holds = {
        2: lambda x, y, z: S[x, T[y, z]] == T[S[x, y], conj(y, S[x, z])],
        3: lambda x, y, z: S[T[x, y], z] == T[conj(x, S[y, z]), S[x, z]],
        4: lambda x, y, z: T[
            T[S[S[x, y], conj(y, z)], S[S[y, z], conj(z, x)]], S[S[z, x], conj(x, y)]
        ] == e,
        5: lambda x, z, y: conj(z, S[x, y]) == S[conj(z, x), conj(z, y)],
    }[num]
    for w in product(range(n), repeat=3):
        if not holds(*w):
            return num, list(w)
    raise AssertionError(f"axiom {num} holds on every tuple of the docstring formula")


def oracle_identity_witness(G, S, num):
    """Least (a, b, c) breaking defect identity 3, 4 or 5, by loops over the
    formula in IDENTITY_NAMES."""
    T, inv = G.table, G.inverses
    conj = lambda z, x: T[T[z, x], inv[z]]
    comm = lambda x, y: T[T[T[x, y], inv[x]], inv[y]]
    M = MultLieAlg(G, S)
    L = lambda a, b: oracle_defect(M, a, b)
    holds = {
        3: lambda a, b, c: L(T[a, b], c) == T[L(a, c), conj(conj(c, a), L(b, c))],
        4: lambda a, b, c: L(a, T[b, c])
        == T[conj(b, L(a, c)), conj(comm(conj(b, c), conj(b, a)), L(a, b))],
        5: lambda a, b, c: conj(a, L(b, c)) == L(conj(a, b), conj(a, c)),
    }[num]
    for w in product(range(G.order), repeat=3):
        if not holds(*w):
            return list(w)
    return None


def oracle_normal_star_closure(M, seed):
    """Smallest set containing seed closed under products, inverses,
    conjugation, and star against the whole algebra, by loops."""
    G, S = M.group, M.star
    T, inv = G.table, G.inverses
    members = {G.identity} | set(seed)
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


def oracle_defect(M, a, b):
    """(a*b)^-1 · a b a^-1 b^-1 by explicit multiplications."""
    T, inv = M.group.table, M.group.inverses
    comm = T[T[T[a, b], inv[a]], inv[b]]
    return int(T[inv[M.star[a, b]], comm])


def oracle_series_orders(M, kind):
    """Derived or lower-central orders via the naive closure."""
    G = M.group
    terms = [set(range(G.order))]
    while True:
        cur = terms[-1]
        left = cur if kind == "derived" else set(range(G.order))
        gens = {oracle_defect(M, a, b) for a in left for b in cur}
        nxt = oracle_normal_star_closure(M, gens) if gens - {G.identity} else {G.identity}
        if nxt == cur:
            break
        terms.append(nxt)
        if nxt == {G.identity}:
            break
    return [len(t) for t in terms]


# --- axioms -------------------------------------------------------------------


def test_canonical_stars_validate_everywhere(corpus_algebras):
    for name, M in corpus_algebras.items():
        check_axioms(M)


def test_axioms_against_oracle_on_small_groups():
    for name in ("C4", "S3", "Q8"):
        G = get_group(name)
        for M in (make_trivial_star(G), make_improper_star(G)):
            assert oracle_axiom_failures(G, M.star) == set()


def test_perturbed_star_agrees_with_oracle():
    G = get_group("S3")
    S = make_improper_star(G).star.copy()
    S[1, 2] = (S[1, 2] + 1) % 6
    expected = oracle_axiom_failures(G, S)
    assert expected
    with pytest.raises(AxiomViolation) as exc:
        check_axioms(MultLieAlg(G, S))
    assert exc.value.payload["axiom"] in expected
    assert len(exc.value.payload["witness"]) >= 1


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_single_entry_star_perturbation_always_fails(data):
    # star rows satisfy a cocycle equation, so one changed cell cannot be
    # absorbed; every perturbation must trip some axiom with a witness
    name = data.draw(st.sampled_from([n for n in group_names() if 2 <= get_group(n).order <= 9]))
    G = get_group(name)
    base = data.draw(st.sampled_from(["trivial", "improper"]))
    M = make_trivial_star(G) if base == "trivial" else make_improper_star(G)
    S = M.star.copy()
    i = data.draw(st.integers(0, G.order - 1))
    j = data.draw(st.integers(0, G.order - 1))
    old = int(S[i, j])
    S[i, j] = data.draw(st.integers(0, G.order - 1).filter(lambda v: v != old))
    with pytest.raises(AxiomViolation) as exc:
        check_axioms(MultLieAlg(G, S))
    assert exc.value.payload["witness"] is not None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reduced_checks_agree_with_exhaustive_scans(data):
    # pass is decided on generators (and axiom 4 on one rotation per orbit);
    # each law must pass there exactly when the full scan passes, and a
    # failure must still report the least witness of the full scan
    name = data.draw(st.sampled_from([n for n in group_names() if 2 <= get_group(n).order <= 12]))
    G = get_group(name)
    n = G.order
    base = data.draw(st.sampled_from([make_trivial_star, make_improper_star]))(G).star
    S = base.copy()
    for _ in range(data.draw(st.integers(1, 2))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        old = int(S[i, j])
        S[i, j] = data.draw(st.integers(0, n - 1).filter(lambda v: v != old))

    exhaustive = {num for num, _, lhs, rhs in axiom_sides(G, S, range(1, 6)) if np.any(lhs != rhs)}
    assert set(broken_axioms(G, S)) == exhaustive

    want = oracle_least_failure(G, S)
    if want is None:
        check_axioms(MultLieAlg(G, S))
    else:
        num, witness = want
        with pytest.raises(AxiomViolation) as exc:
            check_axioms(MultLieAlg(G, S))
        labels = ", ".join(G.labels[i] for i in witness)
        assert exc.value.payload == {"axiom": num, "witness": witness}
        assert str(exc.value) == f"axiom {num} ({AXIOM_NAMES[num]}) fails at ({labels})"

    got = check_lie_identities(MultLieAlg(G, S), only=(3, 4, 5))
    assert got == {num: oracle_identity_witness(G, S, num) for num in (3, 4, 5)}


def oracle_plain_identity_failures(G, S):
    """The defect identities 1, 2, 6 and 7 that fail on S, by loops over the
    formulas in IDENTITY_NAMES."""
    T, inv, e = G.table, G.inverses, G.identity
    conj = lambda z, x: T[T[z, x], inv[z]]
    comm = lambda x, y: T[T[T[x, y], inv[x]], inv[y]]
    M = MultLieAlg(G, S)
    L = lambda a, b: oracle_defect(M, a, b)
    pairs = list(product(range(G.order), repeat=2))
    defects, stars = {L(a, b) for a, b in pairs}, {int(v) for v in S.ravel()}
    holds = {
        1: all(L(a, a) == e for a in range(G.order)),
        2: all(T[L(a, b), L(b, a)] == e for a, b in pairs),
        6: all(
            L(inv[a], b) == conj(inv[a], L(b, a)) and L(a, inv[b]) == conj(inv[b], L(b, a))
            for a, b in pairs
        ),
        7: all(comm(d, s) == e for d in defects for s in stars),
    }
    return {num for num, ok in holds.items() if not ok}


def test_recognized_stars_hold_every_law_by_the_full_scans():
    # broken_axioms and check_lie_identities pass these two stars without a
    # scan; the exhaustive scans and the loop oracles must agree, and one
    # changed cell must take the scanning route to the oracle's least witness
    rng = np.random.default_rng(11)
    for name in group_names():
        G = get_group(name)
        n = G.order
        for make in (make_trivial_star, make_improper_star):
            S = make(G).star
            assert not any((lhs != rhs).any() for _, _, lhs, rhs in axiom_sides(G, S, range(1, 6)))
            assert all(oracle_identity_witness(G, S, num) is None for num in (3, 4, 5)), name
            assert oracle_plain_identity_failures(G, S) == set(), name
            assert all(w is None for w in check_lie_identities(MultLieAlg(G, S)).values())
            if n == 1:
                continue
            bent = S.copy()
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            bent[i, j] = (bent[i, j] + int(rng.integers(1, n))) % n
            num, witness = oracle_least_failure(G, bent)
            with pytest.raises(AxiomViolation) as exc:
                check_axioms(MultLieAlg(G, bent))
            assert exc.value.payload == {"axiom": num, "witness": witness}, (name, i, j)


def _one_cell_perturbations():
    for name in ("C4", "S3", "Q8"):
        G = get_group(name)
        for make in (make_trivial_star, make_improper_star):
            for i, j in product(range(G.order), repeat=2):
                S = make(G).star.copy()
                S[i, j] = (S[i, j] + 1) % G.order
                yield G, S
    # order 32: the laws read flat int32 tables
    G = direct_product(get_group("D4"), get_group("C4"))
    for i, j in ((1, 2), (5, 17), (31, 0), (9, 9)):
        S = make_improper_star(G).star.copy()
        S[i, j] = (S[i, j] + 1) % G.order
        yield G, S


def test_a_failing_check_builds_the_laws_once(monkeypatch):
    # the reduced checks' laws serve the exhaustive rescan; the least witness
    # and the message are those of the reference that built them twice
    from . import slab_oracles

    built, laws = [], mla._axiom_laws
    monkeypatch.setattr(mla, "_axiom_laws", lambda G, S: built.append(1) or laws(G, S))
    for G, S in _one_cell_perturbations():
        with pytest.raises(AxiomViolation) as want:
            slab_oracles.check_axioms(MultLieAlg(G, S))
        built.clear()
        with pytest.raises(AxiomViolation) as got:
            check_axioms(MultLieAlg(G, S))
        assert (str(got.value), got.value.payload) == (str(want.value), want.value.payload)
        assert len(built) == (got.value.payload["axiom"] != 1)


def _no_laws(*args):
    raise AssertionError("a law table was built")


def test_recognized_stars_build_no_laws(groups, monkeypatch):
    monkeypatch.setattr(mla, "_axiom_laws", _no_laws)
    monkeypatch.setattr(mla, "_identity_laws", _no_laws)
    # two groups of order 32, where the laws would read flat tables
    d4c4 = direct_product(get_group("D4"), get_group("C4"))
    c4c4c2 = direct_product(get_group("C4xC2"), get_group("C4"))
    for G in (*groups.values(), d4c4, c4c4c2):
        for make in (make_trivial_star, make_improper_star):
            M = make_algebra(G, make(G).star)
            assert M._verified
            # on an abelian group the trivial star is the commutator star;
            # elsewhere L is the group commutator and the identities are scanned
            if M.star_is_commutator:
                assert all(w is None for w in check_lie_identities(M).values())
    # nor does the tensor fixpoint on the order-512 rung, whose star it recognizes
    assert build_tensor_algebra(self_pair("C2xC2xC2", "trivial")).order == 512


def test_an_expired_budget_stops_both_recognitions(monkeypatch):
    G = get_group("S3")
    monkeypatch.setenv("MLACALC_BUDGET_SECS", "-1")
    for make in (make_trivial_star, make_improper_star):
        with pytest.raises(BudgetExceeded) as exc, util.run_budget():
            make_algebra(G, make(G).star)
        assert exc.value.payload == {"stage": "axiom scan"}
    with pytest.raises(BudgetExceeded) as exc, util.run_budget():
        check_lie_identities(make_improper_star(G), only=(1,))
    assert exc.value.payload == {"stage": "identity scan"}


def test_row_keys_hold_every_order_the_cap_admits():
    # a flat read indexes n * i + j < n * n; raising ORDER_CAP past what the
    # key dtype holds would wrap those indices around
    assert groups.ORDER_CAP**2 <= np.iinfo(mla._KEY).max
    n = 32
    A = np.arange(n * n).reshape(n, n) % n
    x, y = mla._plane(n)
    read = mla._gather(A, keyed=True)[3, mla._gather(A)[x, y]]
    assert read.dtype == mla._KEY
    assert (read == n * A[3, A]).all()


def test_make_algebra_is_the_validating_constructor():
    G = get_group("C4")
    S = make_trivial_star(G).star.copy()
    S[1, 2] = 3
    with pytest.raises(AxiomViolation):
        make_algebra(G, S)


# --- defect identities ----------------------------------------------------------


def test_identities_pass_on_reference_algebras(corpus_algebras):
    for name in ("S3-improper", "Q8-trivial", "D6-trivial", "A4-improper"):
        res = check_lie_identities(corpus_algebras[name])
        assert set(res) == set(range(1, 8))
        assert all(w is None for w in res.values()), (name, res)


def test_identity_seven_commutator_form_oracle():
    # every defect value must group-commute with every star value
    M = make_trivial_star(get_group("Q8"))
    G, L, S = M.group, M.lie_defect_table, M.star
    for li in set(int(v) for v in L.ravel()):
        for si in set(int(v) for v in S.ravel()):
            assert G.comm_table[li, si] == G.identity
    assert check_lie_identities(M, only=(7,))[7] is None


def test_identities_detect_perturbation():
    G = get_group("Q8")
    S = make_trivial_star(G).star.copy()
    S[2, 3] = 1
    res = check_lie_identities(MultLieAlg(G, S))
    assert any(w is not None for w in res.values())


# --- ideals ---------------------------------------------------------------------


def test_validate_ideal_accepts_a3_and_rejects_reflections():
    M = make_trivial_star(get_group("S3"))
    G = M.group
    e = G.identity
    three = next(x for x in range(6) if x != e and G.table[G.table[x, x], x] == e)
    a3 = subgroup_closure(G, [three])
    validate_ideal(M, a3)
    refl = next(x for x in range(6) if x != e and G.table[x, x] == e)
    with pytest.raises(MathViolation):
        validate_ideal(M, subgroup_closure(G, [refl]))


def test_ideal_closure_matches_naive_oracle(corpus_algebras):
    for name in ("S3-trivial", "Q8-trivial", "D4-improper"):
        M = corpus_algebras[name]
        for seed in ([1], [2, 3]):
            got = ideal_closure(M, seed)
            assert got.subgroup.members == frozenset(oracle_normal_star_closure(M, seed))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_normal_and_ideal_closures_match_the_loop_oracle(corpus_algebras, data):
    name = data.draw(st.sampled_from(group_names()))
    M = corpus_algebras[f"{name}-{data.draw(st.sampled_from(['trivial', 'improper']))}"]
    G = M.group
    seed = data.draw(st.sets(st.integers(0, G.order - 1), max_size=3))
    assert ideal_closure(M, seed).members == frozenset(oracle_normal_star_closure(M, seed))
    # the trivial star adds only the identity, so its oracle is the normal closure
    normal = oracle_normal_star_closure(corpus_algebras[f"{name}-trivial"], seed)
    assert groups.normal_closure(G, seed).members == frozenset(normal)


def oracle_ideal_failure(M, members):
    """validate_ideal's verdict by nested loops: None, or (kind, witness,
    message) of the first failing kind at its least witness."""
    G, S = M.group, M.star
    T, inv, lab = G.table, G.inverses, G.labels
    mem = sorted(members)
    for z in range(G.order):
        for x in mem:
            if int(T[T[z, x], inv[z]]) not in members:
                return "normality", [z, x], f"not normal: ^{lab[z]} {lab[x]} escapes"
    for g in range(G.order):
        for x in mem:
            if int(S[g, x]) not in members:
                return "star-right", [g, x], f"not absorbed: {lab[g]} * {lab[x]} escapes"
    for x in mem:
        for g in range(G.order):
            if int(S[x, g]) not in members:
                return "star-left", [x, g], f"not absorbed: {lab[x]} * {lab[g]} escapes"
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_ideal_matches_the_loop_oracle(data):
    G = get_group(data.draw(st.sampled_from(group_names())))
    n = G.order
    # any star table: validate_ideal reads * without assuming the axioms
    star = data.draw(st.sampled_from(["trivial", "improper", "random"]))
    if star == "random":
        cells = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
        M = MultLieAlg(G, np.array(cells, dtype=np.int64).reshape(n, n))
    else:
        M = (make_trivial_star if star == "trivial" else make_improper_star)(G)
    S = subgroup_closure(G, data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)))
    want = oracle_ideal_failure(M, S.members)
    if want is None:
        assert validate_ideal(M, S).subgroup is S
        return
    with pytest.raises(IdealityFailure) as exc:
        validate_ideal(M, S)
    kind, witness, message = want
    assert exc.value.payload == {"kind": kind, "witness": witness}
    assert str(exc.value) == message


def test_lie_commutator_ideal_of_everything():
    M = make_trivial_star(get_group("S3"))
    full = range(M.order)
    got = lie_commutator_ideal(M, full, full)
    # with the trivial star the defect is the group commutator, so this is
    # the derived subgroup
    assert len(got.members) == 3


# --- series ground truths ---------------------------------------------------------


def test_series_s3_trivial_frozen():
    M = make_trivial_star(get_group("S3"))
    ds = derived_series(M)
    lc = lower_central_series(M)
    assert [len(t) for t in ds.terms] == [6, 3, 1]
    assert ds.verdict == "terminated-at-trivial" and ds.class_or_length == 2
    assert [len(t) for t in lc.terms] == [6, 3]
    assert lc.verdict == "stabilized-nontrivial" and lc.class_or_length is None
    assert nilpotency_class(M) is None
    assert solvable_length(M) == 2


def test_series_of_the_order_one_algebra_end_at_once():
    M = make_trivial_star(get_group("C1"))
    for series, kind in ((derived_series, "derived"), (lower_central_series, "lower-central")):
        assert series(M) == mla.SeriesReport(kind, ((0,),), "terminated-at-trivial", 0, 0)


def test_each_series_is_built_once_per_algebra(monkeypatch):
    M = make_trivial_star(get_group("S3"))
    monkeypatch.setenv("MLACALC_BUDGET_SECS", "-1")
    for _ in range(2):  # a spent budget stores nothing, so it raises again
        with pytest.raises(BudgetExceeded) as exc, util.run_budget():
            derived_series(M)
        assert exc.value.payload == {"stage": "derived series"}
    monkeypatch.delenv("MLACALC_BUDGET_SECS")
    built, run = [], mla._run_series
    monkeypatch.setattr(mla, "_run_series", lambda M, step, kind: built.append(kind) or run(M, step, kind))
    ds, lc = derived_series(M), lower_central_series(M)
    assert (nilpotency_class(M), solvable_length(M)) == (None, 2)
    assert derived_series(M) is ds and lower_central_series(M) is lc
    assert built == ["derived", "lower-central"]
    # another algebra on the same group builds its own
    assert derived_series(make_improper_star(get_group("S3"))) is not ds


def test_series_q8_trivial_frozen():
    M = make_trivial_star(get_group("Q8"))
    assert nilpotency_class(M) == 2
    assert solvable_length(M) == 2


def test_series_match_oracle():
    for name in ("S3", "Q8", "D4", "C12"):
        M = make_trivial_star(get_group(name))
        assert [len(t) for t in derived_series(M).terms] == oracle_series_orders(M, "derived")
        assert [len(t) for t in lower_central_series(M).terms] == oracle_series_orders(
            M, "lower-central"
        )


def _bilinear_star_v4():
    """Star on the Klein group from the symmetric form (u,v) -> x^(u1 v2 + u2 v1).

    Bilinearity gives axioms 2 and 3, the zero diagonal gives axiom 1, and
    symmetry kills the triple product in axiom 4, so this validates even
    though it is neither the trivial nor the improper star.
    """
    G = get_group("V4")
    e = G.identity
    x, y = [v for v in range(4) if v != e][:2]
    coords = {e: (0, 0), x: (1, 0), y: (0, 1), int(G.table[x, y]): (1, 1)}
    S = np.empty((4, 4), dtype=np.int64)
    for u, (u1, u2) in coords.items():
        for v, (v1, v2) in coords.items():
            S[u, v] = x if (u1 * v2 + u2 * v1) % 2 else e
    return make_algebra(G, S), x


def test_bilinear_star_departs_from_group_series():
    M, x = _bilinear_star_v4()
    assert not M.star_is_trivial and not M.star_is_commutator
    ds = derived_series(M)
    # the group is abelian, yet the algebra has honest length-2 structure
    assert [len(t) for t in ds.terms] == [4, 2, 1]
    assert solvable_length(M) == 2
    assert nilpotency_class(M) is None
    assert [len(t) for t in ds.terms] == oracle_series_orders(M, "derived")
    assert [len(t) for t in lower_central_series(M).terms] == oracle_series_orders(
        M, "lower-central"
    )


def test_improper_star_always_class_at_most_one(corpus_algebras):
    for name, M in corpus_algebras.items():
        if not name.endswith("-improper"):
            continue
        # improper star == group commutator, so the defect vanishes and the
        # first lower-central term is already trivial
        assert (M.lie_defect_table == M.group.identity).all()
        c = nilpotency_class(M)
        assert c is not None and c <= 1, name


# --- substructures ------------------------------------------------------------------


def test_sub_and_quotient_algebra():
    M = make_trivial_star(get_group("S3"))
    I = lie_commutator_ideal(M, range(6), range(6))
    sub = sub_algebra(M, I.subgroup)
    assert sub.order == 3
    check_axioms(sub)
    Q, onto = quotient_algebra(M, I)
    assert Q.order == 2
    check_axioms(Q)
    for a in range(6):
        for b in range(6):
            assert onto.image[M.star[a, b]] == Q.star[onto.image[a], onto.image[b]]


def test_quotient_by_full_algebra_is_trivial():
    M = make_improper_star(get_group("D4"))
    I = ideal_closure(M, range(M.order))
    Q, _ = quotient_algebra(M, I)
    assert Q.order == 1


def oracle_quotient_star(img, S, q):
    """The pushed-forward star by two loops, or the witness (a, b) of the
    first disagreement: row by row, a coset's least element fills its row
    (a later b of the same coset overwriting an earlier one) and every later
    element of the coset is read against it; only then is every pair read."""
    n = len(img)
    Sq = np.full((q, q), -1, dtype=np.int64)
    for a in range(n):
        qa = img[a]
        if (Sq[qa] < 0).all():
            for b in range(n):
                Sq[qa, img[b]] = img[S[a, b]]
            continue
        for b in range(n):
            if Sq[qa, img[b]] != img[S[a, b]]:
                return [a, b]
    for a, b in product(range(n), repeat=2):
        if Sq[img[a], img[b]] != img[S[a, b]]:
            return [a, b]
    return Sq


@pytest.mark.parametrize(
    "cells, witness",
    [
        ({(2, 1): 1}, [2, 1]),  # a later element of a coset clashes with the least one
        ({(0, 0): 1}, [0, 0]),  # the least element's own row disagrees with itself
        ({(0, 0): 1, (2, 1): 1}, [2, 1]),  # a clash at a later element is reported first
        ({(0, 2): 1}, [2, 0]),  # the least element's row is filled from each coset's last element
    ],
)
def test_quotient_star_that_does_not_descend_names_its_witness(cells, witness):
    # C4 over {0, 2}: the cosets are {0, 2} and {1, 3}
    G = get_group("C4")
    S = np.zeros((4, 4), dtype=np.int64)
    for at, v in cells.items():
        S[at] = v
    M = MultLieAlg(G, S)
    with pytest.raises(QuotientStarIllDefined) as exc:
        quotient_algebra(M, Ideal(M, Subgroup(G, frozenset({0, 2}))))
    assert str(exc.value) == "star does not descend: representatives disagree"
    assert exc.value.payload == {"witness": witness}


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_quotient_star_matches_the_loop_oracle(data):
    G = get_group(data.draw(st.sampled_from(["C4", "V4", "S3", "D4", "Q8", "C6xC2"])))
    n = G.order
    N = groups.normal_closure(G, data.draw(st.sets(st.integers(0, n - 1), max_size=2)))
    Q, pi = groups.quotient(G, N)
    img = pi.image
    # a star lifted from a random quotient star through random coset members,
    # then a few cells overwritten
    lifted = data.draw(st.lists(st.integers(0, Q.order - 1), min_size=Q.order**2, max_size=Q.order**2))
    cosets = [np.flatnonzero(img == c) for c in range(Q.order)]
    S = np.array(
        [[data.draw(st.sampled_from(cosets[lifted[img[a] * Q.order + img[b]]].tolist())) for b in range(n)]
         for a in range(n)],
        dtype=np.int64,
    )
    for _ in range(data.draw(st.integers(0, 2))):
        S[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = data.draw(
            st.integers(0, n - 1)
        )
    M = MultLieAlg(G, S)
    expected = oracle_quotient_star(img, S, Q.order)
    ideal = Ideal(M, N)
    if isinstance(expected, list):
        with pytest.raises(QuotientStarIllDefined) as exc:
            quotient_algebra(M, ideal)
        assert exc.value.payload == {"witness": expected}
    else:
        # the pushed-forward table itself, before the axiom scan of the quotient
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mla, "_image_algebra", lambda M, G, star: star)
            star, _ = quotient_algebra(M, ideal)
        assert (star == expected).all()


# --- proof-carrying algebras ---------------------------------------------------------


def test_series_quotients_and_subalgebras_inherit_verification(groups):
    # quotient_algebra and sub_algebra of a verified algebra are recorded as
    # verified without a scan; the oracle re-checks every one of them
    for name, G in groups.items():
        for base in (make_trivial_star(G), make_improper_star(G)):
            M = make_algebra(G, base.star)
            terms = {t for s in (derived_series(M), lower_central_series(M)) for t in s.terms}
            for members in sorted(terms):
                I = validate_ideal(M, Subgroup(G, frozenset(members)))
                for X in (quotient_algebra(M, I)[0], sub_algebra(M, I.subgroup)):
                    assert X._verified
                    assert oracle_axiom_failures(X.group, X.star) == set(), (name, members)


def test_a_quotient_by_the_trivial_ideal_is_the_algebra_itself(corpus_algebras):
    for built in corpus_algebras.values():
        for M in (make_algebra(built.group, built.star), built):
            Q, pi = quotient_algebra(M, validate_ideal(M, subgroup_closure(M.group, [])))
            assert pi.target is M.group and Q._verified
            assert (Q is M) == M._verified  # a hand-built one is scanned into a new algebra
    # a hand-built algebra with a broken star is still scanned, and fails as
    # make_algebra does on its group and star
    for name, make, (i, j) in (("S3", make_improper_star, (1, 2)), ("Q8", make_trivial_star, (2, 3))):
        G = get_group(name)
        S = make(G).star.copy()
        S[i, j] = (S[i, j] + 1) % G.order
        M = MultLieAlg(G, S)
        with pytest.raises(AxiomViolation) as want:
            make_algebra(G, S)
        with pytest.raises(AxiomViolation) as exc:
            quotient_algebra(M, Ideal(M, subgroup_closure(G, [])))
        assert (str(exc.value), exc.value.payload) == (str(want.value), want.value.payload)


def test_canonical_q8_tensor_quotient_holds_the_axioms(tensors):
    t = tensors["q8-trivial"]
    assert t.algebra._verified
    I = mixed_lie_ideal(t.pair, side="h-on-g").carrier
    J = bracket_ideal(t.pair, side="g-on-h").subgroup
    Q, _ = quotient_algebra(t.algebra, tensor_ideal(t, I, J))
    assert Q._verified
    assert oracle_axiom_failures(Q.group, Q.star) == set()


def test_hand_built_algebras_are_always_scanned():
    for name, make, (i, j) in (("S3", make_improper_star, (1, 2)), ("Q8", make_trivial_star, (2, 3))):
        G = get_group(name)
        S = make(G).star.copy()
        S[i, j] = (S[i, j] + 1) % G.order
        M = MultLieAlg(G, S)
        expected = oracle_axiom_failures(G, S)
        # a failed scan records nothing, so every later scan fails the same way
        for _ in range(2):
            with pytest.raises(AxiomViolation) as exc:
                check_axioms(M)
            assert exc.value.payload["axiom"] in expected
        assert not M._verified
    valid = make_improper_star(get_group("S3"))
    check_axioms(valid)
    assert not valid._verified  # only the constructors named in mla record it
    # and no caller can hand the record to a constructor
    with pytest.raises(TypeError):
        MultLieAlg(valid.group, valid.star, _verified=True)
    with pytest.raises(ValueError):
        dataclasses.replace(valid, _verified=True)


# --- maps and actions -------------------------------------------------------------


SMALL_GROUPS = [n for n in group_names() if get_group(n).order <= 12]


def oracle_star_iso_failure(M, N, row):
    if sorted(row) != list(range(N.order)):
        return "not-bijective", None
    for reason, A, B in (("product", M.group.table, N.group.table), ("star", M.star, N.star)):
        for a, b in product(range(M.order), repeat=2):
            if row[A[a, b]] != B[row[a], row[b]]:
                return reason, (a, b)
    return None


def oracle_compose_failure(G, rows):
    for a, b, x in product(range(G.order), range(G.order), range(rows.shape[1])):
        if rows[G.table[a, b], x] != rows[a, rows[b, x]]:
            return (a, b, x)
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_map_checks_match_loops(data):
    # the conjugation action of a corpus group on itself, with one or two
    # row entries moved, row entries swapped, rows copied or star entries moved
    G = get_group(data.draw(st.sampled_from(SMALL_GROUPS)))
    n = G.order
    M = data.draw(st.sampled_from([make_trivial_star, make_improper_star]))(G)
    rows, star = G.conj_table.copy(), M.star.copy()
    for _ in range(data.draw(st.integers(1, 2))):
        a, i, j = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        kind = data.draw(st.sampled_from(["move", "swap", "copy", "star"]))
        if kind == "move":
            rows[a, i] = j
        elif kind == "swap":
            rows[a, [i, j]] = rows[a, [j, i]]
        elif kind == "copy":
            rows[a] = rows[i]
        else:
            star[i, j] = (star[i, j] + 1) % n
    N = MultLieAlg(G, star)
    # each row alone, then the whole stack: its first failing row
    each = [oracle_star_iso_failure(M, N, row) for row in rows]
    for row, want in zip(rows, each):
        assert star_iso_failure(M, N, row[None], "test") == (want and (0, *want))
    first = next(((r, *want) for r, want in enumerate(each) if want), None)
    assert star_iso_failure(M, N, rows, "test") == first
    assert compose_failure(G, rows, "test") == oracle_compose_failure(G, rows)


def test_compose_failure_reaches_the_last_slab():
    # C2 acting by rows e -> identity, a -> constant: only a·a = e breaks
    rows = np.array([[0, 1], [0, 0]])
    assert compose_failure(get_group("C2"), rows, "test") == (1, 1, 1)
