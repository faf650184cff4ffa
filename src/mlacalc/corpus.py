"""Built-in example groups: all 24 isomorphism types of order <= 12.

Builders return validated FiniteGroup values.  s3 and q8 carry the label
conventions used by the bundled fixtures (e, r, rr, ... and 1, i, -1, ...);
the generic dihedral/dicyclic builders use exponent-style labels instead.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, permutations

import numpy as np

from .groups import FiniteGroup, validate_cayley


def cyclic(n: int, labels: tuple[str, ...] | None = None) -> FiniteGroup:
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    idx = np.arange(n)
    return validate_cayley(labels, (idx[:, None] + idx[None, :]) % n)


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    na, nb = A.order, B.order
    labels = tuple(f"({a},{b})" for a in A.labels for b in B.labels)
    ta = A.table[:, None, :, None] * nb  # contributes a-part index * nb
    tb = B.table[None, :, None, :]
    table = (ta + tb).reshape(na * nb, na * nb)
    return validate_cayley(labels, table)


def _dihedral_table(m: int) -> np.ndarray:
    # element index f*m + k stands for s^f r^k; r s = s r^-1
    f, k = np.divmod(np.arange(2 * m), m)
    f1, k1, f2, k2 = f[:, None], k[:, None], f, k
    return (f1 ^ f2) * m + (np.where(f2, -k1, k1) + k2) % m


def dihedral(m: int) -> FiniteGroup:
    if m < 3:
        raise ValueError("dihedral builder expects m >= 3")
    labels = tuple(
        ("e" if k == 0 else "r" if k == 1 else f"r{k}") for k in range(m)
    ) + tuple(("s" if k == 0 else "sr" if k == 1 else f"sr{k}") for k in range(m))
    return validate_cayley(labels, _dihedral_table(m))


def s3() -> FiniteGroup:
    return validate_cayley(("e", "r", "rr", "s", "sr", "srr"), _dihedral_table(3))


def _dicyclic_table(m: int) -> np.ndarray:
    # element index f*2m + k stands for a^k x^f; x^2 = a^m, x a = a^-1 x
    f, k = np.divmod(np.arange(4 * m), 2 * m)
    f1, k1, f2, k2 = f[:, None], k[:, None], f, k
    return (f1 ^ f2) * 2 * m + np.where(f1, k1 - k2 + m * f2, k1 + k2) % (2 * m)


def dicyclic(m: int) -> FiniteGroup:
    if m < 2:
        raise ValueError("dicyclic builder expects m >= 2")
    labels = tuple(("e" if k == 0 else f"a{k}") for k in range(2 * m)) + tuple(
        ("x" if k == 0 else f"a{k}x") for k in range(2 * m)
    )
    return validate_cayley(labels, _dicyclic_table(m))


def q8() -> FiniteGroup:
    return validate_cayley(
        ("1", "i", "-1", "-i", "j", "k", "-j", "-k"), _dicyclic_table(2)
    )


def alternating4() -> FiniteGroup:
    # the even permutations of 0..3 in lexicographic order, composed as p∘q
    perms = [p for p in permutations(range(4)) if sum(a > b for a, b in combinations(p, 2)) % 2 == 0]
    pos = {p: i for i, p in enumerate(perms)}
    table = [[pos[tuple(p[x] for x in q)] for q in perms] for p in perms]
    return validate_cayley(tuple("".join(map(str, p)) for p in perms), table)


GROUP_BUILDERS = {
    **{f"C{n}": partial(cyclic, n) for n in range(1, 13)},
    "V4": lambda: direct_product(cyclic(2), cyclic(2)),
    "C4xC2": lambda: direct_product(cyclic(4), cyclic(2)),
    "C2xC2xC2": lambda: direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
    "C3xC3": lambda: direct_product(cyclic(3), cyclic(3)),
    "C6xC2": lambda: direct_product(cyclic(6), cyclic(2)),
    "S3": s3,
    "D4": lambda: dihedral(4),
    "D5": lambda: dihedral(5),
    "D6": lambda: dihedral(6),
    "Q8": q8,
    "Dic3": lambda: dicyclic(3),
    "A4": alternating4,
}


def group_names() -> tuple[str, ...]:
    return tuple(GROUP_BUILDERS)


def get_group(name: str) -> FiniteGroup:
    try:
        return GROUP_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown group name {name!r}; known: {', '.join(GROUP_BUILDERS)}")


def all_groups() -> dict[str, FiniteGroup]:
    return {name: build() for name, build in GROUP_BUILDERS.items()}


def corpus_pairs():
    """The three reference compatible pairs used across tests and fixtures."""
    from .actions import check_compatibility, conjugation_self_action, trivial_action
    from .mla import make_improper_star, make_trivial_star

    pairs = {}

    # distinct labels keep the factors structurally distinct: this is the
    # one reference pair that is not a self pair
    zg = make_trivial_star(cyclic(2, ("1", "a")))
    zh = make_trivial_star(cyclic(2, ("1", "b")))
    pairs["z2-trivial"] = check_compatibility(trivial_action(zg, zh), trivial_action(zh, zg))

    ms3 = make_improper_star(s3())
    a = conjugation_self_action(ms3, ms3.star)
    pairs["s3-improper-star"] = check_compatibility(a, a)

    mq8 = make_trivial_star(q8())
    tb = np.full((8, 8), mq8.group.identity)
    b = conjugation_self_action(mq8, tb)
    pairs["q8-trivial"] = check_compatibility(b, b)

    return pairs
