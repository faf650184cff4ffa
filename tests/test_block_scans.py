"""Every law family scanned in blocks of outer elements against its per-element form.

The references are the families as they stood with one util.scan slab per
outer element (tests/slab_oracles.py).  On the 48 corpus self pairs, the
perturbed pairs of test_actions.PERTURBED_BRACKETS, 240 inputs with one cell
of a phi, bracket, star, symbol or induced-action table changed, and an
algebra of order 96 built from two fixture algebras, each family must give
what its reference gives: the same return value or the same exception
(class, message and payload), and the same (witness, tuples) from each scan
it runs.  star_iso_failure reports no count, and a block of its rows builds
the product slab of every row once one row fails its generator check, so
only its return value is compared.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mlacalc import actions, mla, tensor, util
from mlacalc.actions import (
    CompatiblePair,
    _require_bracket_laws,
    _require_pair_conditions,
    check_bracket_conjugation,
    check_compatibility,
    check_lemma_commutator_bracket,
    check_partner_generators,
    conjugation_self_action,
)
from mlacalc.corpus import direct_product, get_group, group_names
from mlacalc.docs import load_document
from mlacalc.errors import MlaError
from mlacalc.mla import MultLieAlg, axiom_sides, check_axioms, compose_failure, make_algebra
from mlacalc.mla import star_iso_failure
from mlacalc.tensor import (
    build_tensor_algebra,
    check_tensor_identities,
    check_tensor_lie_commutator,
)

from . import slab_oracles as old
from .self_pairs import self_pair
from .test_actions import PERTURBED_BRACKETS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def outcome(fn, *args):
    """fn(*args): its return value, or its MlaError as (class, message,
    payload); with the (stage, (witness, tuples)) of every scan it ran."""
    scans = []

    def recording(stage, items):
        got = util.scan(stage, items)
        scans.append((stage, got))
        return got

    with contextlib.ExitStack() as stack:
        for module in (actions, mla, tensor, old):
            stack.enter_context(mock.patch.object(module, "scan", recording))
        try:
            result = fn(*args)
        except MlaError as exc:
            result = (type(exc).__name__, str(exc), exc.payload)
    return result, scans


def _sides(pair):
    return (("g-on-h", pair.g_on_h, pair.h_on_g), ("h-on-g", pair.h_on_g, pair.g_on_h))


def _each_side(check):
    """check(side, act, co) on both sides: a list of their results."""
    return lambda pair: [check(*s) for s in _sides(pair)]


# family -> (the block form, its per-element reference), each over a pair
PAIR_FAMILIES = {
    "bracket laws": (
        _each_side(lambda side, act, co: _require_bracket_laws(act, co, (1, 2, 3, 4), side)),
        _each_side(lambda side, act, co: old.require_bracket_laws(act, co, (1, 2, 3, 4), side)),
    ),
    "bracket law 2 alone": (
        _each_side(lambda side, act, co: _require_bracket_laws(act, None, (2,))),
        _each_side(lambda side, act, co: old.require_bracket_laws(act, None, (2,))),
    ),
    "pair conditions": (
        lambda pair: _require_pair_conditions(pair.g_on_h, pair.h_on_g),
        lambda pair: old.require_pair_conditions(pair.g_on_h, pair.h_on_g),
    ),
    "phi rows": (
        _each_side(lambda side, act, co: star_iso_failure(act.acted, act.acted, act.phi, "s")),
        _each_side(lambda side, act, co: old.star_iso_failure(act.acted, act.acted, act.phi, "s")),
    ),
    "phi composition": (
        _each_side(lambda side, act, co: compose_failure(act.actor.group, act.phi, "s")),
        _each_side(lambda side, act, co: old.compose_failure(act.actor.group, act.phi, "s")),
    ),
    "partner generators": (check_partner_generators, old.check_partner_generators),
    "commutator chain": (check_lemma_commutator_bracket, old.check_lemma_commutator_bracket),
    "bracket conjugation": (check_bracket_conjugation, old.check_bracket_conjugation),
}


TENSOR_FAMILIES = {
    "tensor identities": (check_tensor_identities, old.check_tensor_identities),
    "tensor lie commutator": (check_tensor_lie_commutator, old.check_tensor_lie_commutator),
    "induced rows": (
        lambda t: [star_iso_failure(t.algebra, t.algebra, r, "s") for r in (t.act_g, t.act_h)],
        lambda t: [old.star_iso_failure(t.algebra, t.algebra, r, "s") for r in (t.act_g, t.act_h)],
    ),
    "induced composition": (
        lambda t: [compose_failure(t.pair.G.group, t.act_g, "s"),
                   compose_failure(t.pair.H.group, t.act_h, "s")],
        lambda t: [old.compose_failure(t.pair.G.group, t.act_g, "s"),
                   old.compose_failure(t.pair.H.group, t.act_h, "s")],
    ),
}

# the families whose scan counts are reported nowhere (see the module docstring)
RESULT_ONLY = {"phi rows", "induced rows"}


def _failed(result):
    """Whether a family's result records a failure."""
    if isinstance(result, list):
        return any(_failed(r) for r in result)
    if isinstance(result, dict):
        return any(not r.passed for r in result.values())
    if isinstance(result, util.CheckReport):
        return not result.passed
    return result is not None


def _compare(name, new, ref, arg, seen):
    got, want = outcome(new, arg), outcome(ref, arg)
    if name in RESULT_ONLY:
        assert got[0] == want[0], name
    else:
        assert got == want, name
    seen.setdefault(name, set()).add(_failed(got[0]))


def _compare_pair(pair, seen, families=PAIR_FAMILIES):
    for name, (new, ref) in families.items():
        _compare(name, new, ref, pair, seen)


def _compare_tensor(t, seen):
    for name, (new, ref) in TENSOR_FAMILIES.items():
        _compare(name, new, ref, t, seen)


def _compare_star(G, S, seen):
    _compare("axioms", check_axioms, old.check_axioms, MultLieAlg(G, S), seen)
    got = list(axiom_sides(G, S, range(1, 6)))
    want = list(old.axiom_sides(G, S, range(1, 6)))
    for num in range(1, 6):
        # the blocks of each axiom, laid end to end, are its per-x slabs
        new_masks = [np.asarray(lhs != rhs).reshape(-1) for a, _, lhs, rhs in got if a == num]
        old_masks = [np.asarray(lhs != rhs).reshape(-1) for a, _, lhs, rhs in want if a == num]
        assert (np.concatenate(new_masks) == np.concatenate(old_masks)).all()
        keys = [k for a, p, _, _ in got if a == num for k in (p if isinstance(p, list) else [p])]
        assert keys == [p for a, p, _, _ in want if a == num]


def _cell(table, rng, n):
    """table with one cell moved to another value below n."""
    bad = table.copy()
    i, j = (int(rng.integers(0, s)) for s in bad.shape)
    bad[i, j] = (bad[i, j] + int(rng.integers(1, n))) % n
    return bad


CORPUS = [(name, star) for name in group_names() for star in ("trivial", "improper")]


@pytest.fixture(scope="module")
def self_pairs():
    return {key: self_pair(*key) for key in CORPUS}


@pytest.fixture(scope="module")
def self_tensors(self_pairs):
    return {key: build_tensor_algebra(pair) for key, pair in self_pairs.items()}


def test_corpus_self_pairs_scan_alike(self_pairs, self_tensors):
    assert len(CORPUS) == 48
    seen = {}
    for key, pair in self_pairs.items():
        _compare_pair(pair, seen)
        _compare_tensor(self_tensors[key], seen)
        _compare_star(pair.G.group, pair.G.star, seen)
    assert all(s == {False} for s in seen.values())  # every family passes them all


@pytest.mark.parametrize("where,failures", PERTURBED_BRACKETS)
def test_perturbed_brackets_scan_alike(pairs, where, failures):
    name, field_name, table, (i, j) = where
    pair = pairs[name]
    act = getattr(pair, field_name)
    bad = getattr(act, table).copy()
    bad[i, j] = (bad[i, j] + 1) % bad.shape[1]
    broken = replace(pair, **{field_name: replace(act, **{table: bad})})
    seen = {}
    _compare_pair(broken, seen)
    assert True in seen["bracket laws"] | seen["phi rows"]


def test_one_cell_perturbations_scan_alike(self_pairs, self_tensors):
    rng = np.random.default_rng(26)
    small = [key for key in CORPUS if 2 <= get_group(key[0]).order <= 12]
    tensors = [self_tensors[key] for key in small if self_tensors[key].order > 1]
    pick = lambda seq: seq[int(rng.integers(len(seq)))]
    seen = {}
    for _ in range(80):  # a phi or a bracket cell of one action
        pair = self_pairs[pick(small)]
        side, table = pick(("g_on_h", "h_on_g")), pick(("phi", "bracket"))
        act = getattr(pair, side)
        bad = replace(act, **{table: _cell(getattr(act, table), rng, act.acted.order)})
        _compare_pair(replace(pair, **{side: bad}), seen)
    for _ in range(80):  # a star cell of one algebra
        G = get_group(pick(small)[0])
        S = pick((mla.make_trivial_star, mla.make_improper_star))(G).star
        _compare_star(G, _cell(S, rng, G.order), seen)
    for _ in range(80):  # a symbol or an induced-action cell of one tensor
        t = pick(tensors)
        field_name = pick(("tensor_map", "act_g", "act_h"))
        bad = _cell(getattr(t, field_name), rng, t.order)
        _compare_tensor(replace(t, **{field_name: bad}), seen)
    assert all(True in s for s in seen.values()), seen  # each family fails on some


def _order_96():
    """D4 x C12 with the commutator star, the product of two fixture algebras."""
    A, B = (
        load_document(str(FIXTURES / "algebras" / f"{name}-improper.json")).algebra
        for name in ("D4", "C12")
    )
    K = direct_product(A.group, B.group)
    star = (A.star[:, None, :, None] * B.order + B.star[None, :, None, :]).reshape(K.order, K.order)
    return make_algebra(K, star)


def test_an_algebra_of_order_96_scans_alike_across_blocks():
    M = _order_96()
    assert M.order == 96 and M.star_is_commutator
    assert 96 * 96 * 96 > util.BLOCK_ENTRIES  # the per-x slabs of some families pass the cap
    act = conjugation_self_action(M, M.star)
    pair = check_compatibility(act, act)
    # prop-2.10 over 96^4 tuples a side is left to the corpus cases
    families = {k: v for k, v in PAIR_FAMILIES.items() if k != "bracket conjugation"}
    seen = {}
    _compare_pair(pair, seen, families)
    rng = np.random.default_rng(96)
    for table in ("phi", "bracket", "bracket"):
        bad = _cell(getattr(act, table), rng, 96)
        _compare_pair(CompatiblePair(replace(act, **{table: bad}), act), seen, families)
    for _ in range(3):
        _compare_star(M.group, _cell(M.star, rng, 96), seen)
    assert seen["axioms"] == {True} and True in seen["bracket laws"] | seen["phi rows"]
