"""Tables the input fixes, stored as frozen stride-0 views of one row.

An abelian group's conjugation and commutator tables, the trivial star and
the commutator star's defect table repeat one row.  Each is checked here
against the gather it replaces, on every group and algebra that the corpus,
its 48 self-pair tensors, the order-512 rung and the D5 and A4 ledgers
build, and FiniteGroup.is_abelian, decided on generators, against the full
comparison of the table with its transpose.
"""

from __future__ import annotations

import numpy as np
import pytest

from mlacalc import groups, harness, mla
from mlacalc.corpus import all_groups, group_names
from mlacalc.mla import lie_commutator_ideal, make_improper_star, make_star_table, make_trivial_star
from mlacalc.tensor import build_tensor_algebra
from .self_pairs import self_pair

SELF_PAIRS = [(n, s) for n in group_names() if n != "C1" for s in ("trivial", "improper")]


def check_group(G):
    T, inv, n = G.table, G.inverses, G.order
    conj, comm, ones = G.conj_table, G.comm_table, G.identity_table
    assert G.is_abelian == bool((T == T.T).all())
    assert np.array_equal(conj, T[T, inv[:, None]])
    assert np.array_equal(comm, T[conj, inv[None, :]])
    assert np.array_equal(ones, np.full((n, n), G.identity))
    assert ones.strides[0] == 0
    if G.is_abelian:
        assert conj.strides[0] == comm.strides[0] == 0
    for table in (conj, comm, ones):
        assert not table.flags.writeable


def check_algebra(M):
    G = M.group
    check_group(G)
    L = M.lie_defect_table
    assert np.array_equal(L, G.table[G.inverses[M.star], G.comm_table])
    if M.star_is_commutator:
        assert L.strides[0] == 0
    assert not L.flags.writeable and not M.star.flags.writeable


def built(monkeypatch, cls) -> list:
    """Every instance of ``cls`` made from here on."""
    made, init = [], cls.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(cls, "__init__", spy)
    return made


def test_every_corpus_group_and_canonical_star():
    for G in all_groups().values():
        check_group(G)
        trivial, improper = make_trivial_star(G), make_improper_star(G)
        check_algebra(trivial)
        check_algebra(improper)
        assert trivial.star.strides[0] == 0
        assert improper.star is G.comm_table  # a frozen table is not copied


@pytest.mark.parametrize("name,star", SELF_PAIRS, ids=[f"{n}-{s}" for n, s in SELF_PAIRS])
def test_every_corpus_self_pair_tensor(name, star):
    t = build_tensor_algebra(self_pair(name, star))
    check_algebra(t.algebra)
    if t.algebra.star_is_trivial:
        assert t.algebra.star.strides[0] == 0


def test_the_order_512_rung_stores_no_dense_fixed_table():
    t = build_tensor_algebra(self_pair("C2xC2xC2", "trivial"))
    check_algebra(t.algebra)
    assert t.group.is_abelian and t.algebra.star_is_trivial
    for table in (t.group.conj_table, t.group.comm_table, t.algebra.star, t.algebra.lie_defect_table):
        assert table.strides[0] == 0


@pytest.mark.parametrize("name", ["D5", "A4"])
@pytest.mark.parametrize("star", ["trivial", "improper"])
def test_the_sub_algebras_and_quotients_of_a_ledger(monkeypatch, name, star):
    made_groups = built(monkeypatch, groups.FiniteGroup)
    made_algebras = built(monkeypatch, mla.MultLieAlg)
    t = build_tensor_algebra(self_pair(name, star))
    harness.run_suite(harness.Instance.from_tensor(t, f"{name}/{star}"))
    assert len(made_algebras) > 1
    for M in made_algebras:
        check_algebra(M)
    for G in made_groups:
        check_group(G)


def test_a_writeable_star_or_a_frozen_view_of_writeable_memory_is_copied():
    G = all_groups()["C4"]
    star = np.zeros((4, 4), dtype=np.int64)
    view = star[:]
    view.flags.writeable = False
    for given in (star, view):
        kept = make_star_table(G, given)
        assert kept is not given and not kept.flags.writeable
        star[1, 1] = 2
        assert (kept == 0).all()
        star[1, 1] = 0


def test_the_commutator_star_gathers_no_defect_table(monkeypatch):
    # L is 1 everywhere, so every Lie commutator ideal is {1}
    for G in all_groups().values():
        M = make_improper_star(G)
        monkeypatch.setattr(np, "ix_", lambda *a: pytest.fail("L was gathered"))
        members = lie_commutator_ideal(M, range(G.order), range(G.order)).members
        monkeypatch.undo()
        assert members == {G.identity} == set(np.unique(M.lie_defect_table).tolist())
