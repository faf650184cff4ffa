"""Finite groups as dense Cayley tables.

Elements are indices 0..order-1; labels are for presentation only.  Tables
are numpy int64 arrays frozen after validation, or stride-0 views of a row.
Everything here is sized for desk-scale instances (orders in the hundreds,
hard cap ORDER_CAP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    InputError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    NotNormal,
    ResourceError,
)
from .util import first_true, row_blocks

ORDER_CAP = 10_000


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _repeated_row(row: np.ndarray, n: int) -> np.ndarray:
    """n rows of ``row``, a fresh row frozen here, as a stride-0 view of it, so
    frozen too (np.ndarray costs a fifth of np.broadcast_to's time)."""
    return np.ndarray((n, len(row)), row.dtype, _freeze(row), strides=(0, row.itemsize))


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    labels: tuple[str, ...]
    table: np.ndarray
    identity: int
    inverses: np.ndarray
    # least generating set (least_generators); laws closed under products in
    # one variable are proven by checking that variable over these alone
    generators: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def conjugate(self, z: int, x: int) -> int:
        """z x z^-1."""
        return int(self.conj_table[z, x])

    def commutator(self, x: int, y: int) -> int:
        """x y x^-1 y^-1."""
        return int(self.comm_table[x, y])

    def label(self, a: int) -> str:
        return self.labels[a]

    @cached_property
    def conj_table(self) -> np.ndarray:
        # [z, x] = (z·x)·z^-1, which is x in an abelian group: each row is 0..n-1
        if self.is_abelian:
            return _repeated_row(np.arange(self.order), self.order)
        return _freeze(self.table[self.table, self.inverses[:, None]])

    @cached_property
    def comm_table(self) -> np.ndarray:
        # [x, y] = (x y x^-1)·y^-1, which is 1 in an abelian group
        if self.is_abelian:
            return self.identity_table
        return _freeze(self.table[self.conj_table, self.inverses[None, :]])

    @cached_property
    def identity_table(self) -> np.ndarray:  # every entry the identity
        return _repeated_row(np.full(self.order, self.identity), self.order)

    @cached_property
    def is_abelian(self) -> bool:
        """Read off the k^2 products of the k generators: if they commute
        pairwise, each generator's centralizer holds every generator, so it is
        the whole group; then the center holds every generator, so it is too."""
        T, g = self.table, self.generators.tolist()
        return all(T[a, b] == T[b, a] for i, a in enumerate(g) for b in g[:i])


def check_order_cap(n: int) -> None:
    """ResourceError when a group of order n would exceed ORDER_CAP; callers
    run it before allocating anything of size n x n."""
    if n > ORDER_CAP:
        raise ResourceError(f"order {n} exceeds cap {ORDER_CAP}", order=n, cap=ORDER_CAP)


def close_mask(
    inside: np.ndarray, images: Callable[[np.ndarray], Iterable[np.ndarray]]
) -> np.ndarray:
    """The least superset of the boolean mask ``inside`` that holds every
    index ``images(members)`` yields, adding the images of all members a round
    at once; ``inside`` is not written.  Nothing is assumed of the tables read:
    least_generators runs on a table before Light's test proves it associative."""
    while True:
        mem = inside.nonzero()[0]
        grown = inside.copy()
        for img in images(mem):
            grown[img] = True
        if np.count_nonzero(grown) == mem.size:
            return inside
        inside = grown


def least_generators(table: np.ndarray, identity: int) -> np.ndarray:
    """Greedy least generating set of a closed table with an identity.

    Each generator is the least element outside the span of the earlier ones,
    the span being the closure of {identity} under right multiplication by
    them (no inverses, no associativity assumed; in a finite group it is the
    subgroup generated, as is the closure under all products, so both spans
    give the same generators).  Every element is therefore a left-normed
    product (((g1·g2)·g3)···) of generators, which is all Light's test needs.
    Empty (int64) for the trivial group.
    """
    inside = np.zeros(len(table), dtype=bool)
    inside[identity] = True
    gens: list[int] = []
    while not inside.all():
        g = int(inside.argmin())
        gens.append(g)
        inside[g] = True
        inside = close_mask(inside, lambda mem: (table[mem[:, None], gens],))
    return np.asarray(gens, dtype=np.int64)


def spanning_tree(succ: np.ndarray, root: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Breadth-first tree of the graph x -> succ[x, j] from ``root``: the
    normal-form (shortlex-least) words in the letter order j.

    Returns (parent, letter, levels): x = succ[parent[x], letter[x]] for each
    reached x but the root (whose parent is itself and letter -1; unreached
    nodes keep -1), and ``levels[d]`` holds the nodes whose words have length
    d, the root alone first, so every parent lies in the level before."""
    n, k = succ.shape
    parent, letter = np.full((2, n), -1, dtype=np.int64)
    parent[root] = root
    levels = [np.array([root], dtype=np.int64)]
    while True:
        cand = succ[levels[-1]].ravel()  # a level's edges in queue order
        first = np.unique(cand, return_index=True)[1]
        first = np.sort(first[parent[cand[first]] < 0])
        if not first.size:
            return parent, letter, levels
        parent[cand[first]] = levels[-1][first // k]
        letter[cand[first]] = first % k
        levels.append(cand[first])


def tree_words(
    parent: np.ndarray, letter: np.ndarray, levels: list[np.ndarray]
) -> dict[int, tuple[int, ...]]:
    """Each node of a spanning_tree with its word, the letters on its path
    from the root; the nodes in level order, the root's word empty."""
    words: dict[int, tuple[int, ...]] = {int(levels[0][0]): ()}
    for level in levels[1:]:
        for x, q, c in zip(level.tolist(), parent[level].tolist(), letter[level].tolist()):
            words[x] = words[q] + (c,)
    return words


def validate_cayley(labels: Sequence[str], table) -> FiniteGroup:
    """Check the group axioms and return a frozen FiniteGroup.

    Raises NotClosed / NoIdentity / NoInverse / NotAssociative with the least
    witness, InputError on shape problems, ResourceError above ORDER_CAP.

    Associativity is proven by Light's test (Clifford and Preston, The
    Algebraic Theory of Semigroups I, 1961): the elements g with
    (x·g)·y = x·(g·y) for all x, y contain the identity and are closed under
    the product, since for such a and b
        (x·(a·b))·y = ((x·a)·b)·y = (x·a)·(b·y) = x·(a·(b·y)) = x·((a·b)·y).
    Checking g over least_generators therefore proves the law everywhere;
    only when that check fails does the exhaustive scan run, for the least
    witness.
    """
    labels = tuple(str(s) for s in labels)
    n = len(labels)
    if n == 0:
        raise InputError("element list is empty")
    if len(set(labels)) != n:
        raise InputError("element labels are not distinct")
    check_order_cap(n)
    try:  # a C-order copy of our own, frozen below: Light's test gathers its rows
        arr = np.array(table, dtype=np.int64, order="C")
    except (TypeError, ValueError) as exc:
        raise InputError(f"table is not an integer matrix: {exc}") from exc
    if arr.shape != (n, n):
        raise InputError(
            f"table shape {arr.shape} does not match {n} labels", shape=list(arr.shape)
        )

    at = first_true((arr < 0) | (arr >= n))
    if at is not None:
        i, j = at
        raise NotClosed(
            f"entry at ({labels[i]},{labels[j]}) is outside the element range",
            witness=[i, j],
            value=int(arr[i, j]),
        )

    idx = np.arange(n)
    is_identity = (arr == idx[None, :]).all(axis=1) & (arr.T == idx[None, :]).all(axis=1)
    candidates = np.flatnonzero(is_identity)
    if candidates.size == 0:
        raise NoIdentity("no two-sided identity element")
    e = int(candidates[0])

    # [i, j]: i·j = j·i = e; the inverse of i is the least such j
    two_sided = (arr == e) & (arr.T == e)
    at = first_true(~two_sided.any(axis=1))
    if at is not None:
        (i,) = at
        raise NoInverse(f"{labels[i]} has no two-sided inverse", witness=i)
    inv = two_sided.argmax(axis=1)

    gens = least_generators(arr, e)
    # (x·g)·y against x·(g·y) at [x, y] per generator g and row block of x, in int32 (< ORDER_CAP)
    a32 = arr.astype(np.int32)
    rows = row_blocks(n, n)
    if any((a32.take(a32[r, g], axis=0) != a32[r].take(a32[g], axis=1)).any() for g in gens for r in rows):
        for i in range(n):
            at = first_true(arr[arr[i], :] != arr[i][arr])  # (i·j)·k against i·(j·k)
            if at is not None:
                j, k = at
                raise NotAssociative(
                    f"associativity fails at ({labels[i]},{labels[j]},{labels[k]})",
                    witness=[i, j, k],
                )

    return FiniteGroup(labels, _freeze(arr), e, _freeze(inv), _freeze(gens))


@dataclass(frozen=True, eq=False)
class Subgroup:
    parent: FiniteGroup
    members: frozenset[int]

    def __post_init__(self) -> None:
        bad = [m for m in self.members if not 0 <= m < self.parent.order]
        if bad:
            raise InputError("subgroup member out of range", value=int(min(bad)))

    @cached_property
    def member_array(self) -> np.ndarray:
        """The members in increasing order."""
        return _freeze(np.fromiter(sorted(self.members), dtype=np.int64, count=self.order))

    @cached_property
    def mask(self) -> np.ndarray:
        """Membership over the parent's elements: ``mask[values]`` tests an array."""
        inside = np.zeros(self.parent.order, dtype=bool)
        inside[self.member_array] = True
        return _freeze(inside)

    @property
    def order(self) -> int:
        return len(self.members)


def _closure(
    G: FiniteGroup, seed: Iterable[int], conjugate: bool, star: np.ndarray | None = None
) -> frozenset[int]:
    """Least subgroup containing the seed; normal if ``conjugate``, and closed
    under ``star`` against every element when a star table is given.  In a
    finite group a product-closed set holds its inverses."""
    seed = {int(x) for x in seed}
    bad = [s for s in seed if not 0 <= s < G.order]
    if bad:
        raise InputError("seed element out of range", value=min(bad))
    inside = np.zeros(G.order, dtype=bool)
    inside[[G.identity, *seed]] = True
    T = G.table

    def images(mem: np.ndarray) -> Iterator[np.ndarray]:
        yield T[mem[:, None], mem]
        if conjugate:
            yield G.conj_table[:, mem]
        if star is not None:
            yield star[:, mem]
            yield star[mem]

    return frozenset(close_mask(inside, images).nonzero()[0].tolist())


def subgroup_closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    return Subgroup(G, _closure(G, seed, conjugate=False))


def normal_closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    return Subgroup(G, _closure(G, seed, conjugate=True))


@dataclass(frozen=True, eq=False)
class GroupMap:
    source: FiniteGroup
    target: FiniteGroup
    image: np.ndarray


def make_group_map(source: FiniteGroup, target: FiniteGroup, image) -> GroupMap:
    img = np.asarray(image, dtype=np.int64)
    if img.shape != (source.order,):
        raise InputError("image vector has wrong length")
    if ((img < 0) | (img >= target.order)).any():
        raise InputError("image vector out of range")
    at = first_true(img[source.table] != target.table[img[:, None], img[None, :]])
    if at is not None:
        raise InputError("map is not a homomorphism", witness=list(at))
    return GroupMap(source, target, _freeze(img.copy()))


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupMap]:
    """Quotient by a normal subgroup; coset labels come from least-index reps."""
    if N.parent is not G:
        raise InputError("subgroup does not belong to this group")
    if N.members == {G.identity}:  # each coset is one element, each element its least rep
        return G, GroupMap(G, G, _freeze(np.arange(G.order)))
    mem = N.member_array
    # a nonempty product-closed subset of a finite group is a subgroup
    if not N.mask[G.identity]:
        raise InputError(
            f"the set does not hold the identity {G.labels[G.identity]}", witness=G.identity
        )
    at = first_true(~N.mask[G.table[np.ix_(mem, mem)]])
    if at is not None:
        a, b = (int(mem[i]) for i in at)
        raise InputError(
            f"the set is not closed: {G.labels[a]}·{G.labels[b]} leaves it", witness=[a, b]
        )
    at = first_true(~N.mask[G.conj_table[:, mem]])
    if at is not None:
        z, k = at
        raise NotNormal(
            f"conjugating {G.labels[int(mem[k])]} by {G.labels[z]} leaves the subgroup",
            witness=[z, int(mem[k])],
        )

    # each coset g·N by its least element; the reps come out in increasing order
    reps, coset_of = np.unique(G.table[:, mem].min(axis=1), return_inverse=True)
    Q = validate_cayley([G.labels[r] for r in reps.tolist()], coset_of[G.table[np.ix_(reps, reps)]])
    return Q, make_group_map(G, Q, coset_of)
