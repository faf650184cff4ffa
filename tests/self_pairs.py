"""The corpus self pairs and the gl2(F2) self pair, shared by the tensor and
coset-enumeration tests (``from .self_pairs import self_pair``)."""

from __future__ import annotations

import numpy as np

from mlacalc.actions import check_compatibility, conjugation_self_action
from mlacalc.corpus import get_group
from mlacalc.groups import validate_cayley
from mlacalc.mla import make_algebra, make_improper_star, make_trivial_star


def self_pair(name, star):
    """A corpus group paired with itself by conjugation: the trivial star and
    bracket (``star == "trivial"``), or the commutator star as both."""
    G = get_group(name)
    if star == "trivial":
        M, bracket = make_trivial_star(G), np.full((G.order, G.order), G.identity)
    else:
        M = make_improper_star(G)
        bracket = M.star
    act = conjugation_self_action(M, bracket)
    return check_compatibility(act, act)


def gl2_f2_self_pair():
    """gl2(F2): the 2x2 matrices over F2 under addition (C2^4 under XOR, a
    matrix read from the bits of its index), star [A, B] = AB + BA, paired
    with itself by conjugation and bracket = star."""
    idx = np.arange(16)
    mats = ((idx[:, None] >> np.arange(4)) & 1).reshape(16, 2, 2)
    ab = mats[:, None] @ mats[None, :]
    star = (((ab + ab.transpose(1, 0, 2, 3)) % 2).reshape(16, 16, 4) << np.arange(4)).sum(-1)
    G = validate_cayley([f"m{i}" for i in idx], idx[:, None] ^ idx[None, :])
    M = make_algebra(G, star)
    act = conjugation_self_action(M, M.star)
    return check_compatibility(act, act)
