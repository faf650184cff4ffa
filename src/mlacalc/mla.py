"""Groups carrying a second binary operation subject to five axioms.

The star table S is an order x order matrix over element indices.  Axioms
(numbered 1-5 throughout, also in reports):

  1  x*x = 1
  2  x*(y z)   = (x*y) · ^y(x*z)
  3  (x y)*z   = ^x(y*z) · (x*z)
  4  ((x*y) * ^y z) · ((y*z) * ^z x) · ((z*x) * ^x y) = 1
  5  ^z(x*y)   = ^z x * ^z y

with ^z x = z x z^-1, written once in _axiom_laws for the reduced and the
exhaustive checks alike, with one variable fixed and two over a plane
(_plane).  Tables of 32 or more columns are read from int32 copies, a value
that indexes rows from a copy scaled by n (_FlatTable): a read is a row, a
slice, or one add and one take.  Axiom 4's sides are P1·P2 and P3^-1 (from
the inverse-star table): they differ where P1·P2·P3 != 1, and lhs·rhs^-1 is
P1·P2·P3.
broken_axioms decides each axiom on a reduced set of tuples:

  Axioms 2, 3 and 5 are closed under products in one variable (y, x and z
  respectively), so they hold on all of G once they hold with that variable
  running over the least generating set G.generators: every element of a
  nontrivial finite group, the identity included, is a product of
  generators, and on the trivial group every law holds.  If 2 holds at y1
  and at y2, then
      x*(y1 y2 z) = (x*y1) · ^y1(x*(y2 z)) = (x*y1) · ^y1(x*y2) · ^(y1 y2)(x*z)
                  = (x*(y1 y2)) · ^(y1 y2)(x*z);
  if 3 holds at x1 and at x2, then
      (x1 x2 y)*z = ^x1((x2 y)*z) · (x1*z) = ^(x1 x2)(y*z) · ^x1(x2*z) · (x1*z)
                  = ^(x1 x2)(y*z) · ((x1 x2)*z);
  and ^(z1 z2) is ^z1 after ^z2, so it preserves * when both do.

  Axiom 4 has no such reduction.  Write J(x,y,z) = P1 P2 P3 for its left
  side; its rotation is J(y,z,x) = P2 P3 P1 = P1^-1 J(x,y,z) P1, so J is
  trivial on a whole cyclic orbit of (x,y,z) as soon as it is trivial at one
  rotation, and only triples with x = min(x,y,z) are checked.  These about
  n^3/3 tuples are the one cubic pass left in deciding an algebra: the
  defect identities are decided on generators too (check_lie_identities).

  Before any law is built, two stars are recognized as algebras on every
  group.  On the trivial star every side is 1.  On the commutator star
  [x,y] = x y x^-1 y^-1, axiom 1 is [x,x] = 1; 2 and 3 are the expansions
  [x, y z] = [x,y] · ^y[x,z] and [x y, z] = ^x[y,z] · [x,z]; 5 holds as ^z
  is an automorphism; and 4 is the Hall-Witt identity: with
  A(x,y,z) = x y x^-1 z x, [[x,y], ^y z] = A(x,y,z) · A(y,z,x)^-1, so the
  three factors telescope to 1.

Only an axiom whose reduced check fails is scanned exhaustively, by
axiom_sides, for its least witness (check_axioms) or its offending values
(the tensor fixpoint).  An algebra records that its axioms hold once a
check, the tensor fixpoint or a verified parent proves it, and check_axioms
skips it from then on.  The defect operator L[a,b] = (a*b)^-1 [a,b]
measures how far * sits from the commutator and drives the two series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import ne
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import (
    AxiomViolation,
    IdealityFailure,
    InputError,
    QuotientStarIllDefined,
)
from .groups import ORDER_CAP, FiniteGroup, GroupMap, Subgroup, _closure, _freeze, quotient
from .groups import validate_cayley
from .util import check_budget, first_true, scan

V = TypeVar("V")

AXIOM_NAMES = {
    1: "alternating (x*x = 1)",
    2: "right expansion over products",
    3: "left expansion over products",
    4: "twisted Jacobi product",
    5: "conjugation distributes over *",
}


@dataclass(frozen=True, eq=False)
class MultLieAlg:
    group: FiniteGroup
    star: np.ndarray
    # the five axioms are proven; set only by _record_verified, never by a caller
    _verified: bool = field(default=False, init=False, repr=False)

    @property
    def order(self) -> int:
        return self.group.order

    def op(self, a: int, b: int) -> int:
        return int(self.star[a, b])

    @cached_property
    def lie_defect_table(self) -> np.ndarray:
        # L[a,b] = (a*b)^-1 · [a,b]
        G = self.group
        return _freeze(G.table[G.inverses[self.star], G.comm_table])

    def lie_defect(self, a: int, b: int) -> int:
        return int(self.lie_defect_table[a, b])

    @cached_property
    def star_is_trivial(self) -> bool:
        return bool((self.star == self.group.identity).all())

    @cached_property
    def star_is_commutator(self) -> bool:
        return bool((self.star == self.group.comm_table).all())


def make_star_table(G: FiniteGroup, star) -> np.ndarray:
    arr = np.asarray(star, dtype=np.int64)
    n = G.order
    if arr.shape != (n, n):
        raise InputError(f"star table shape {arr.shape} does not match order {n}")
    at = first_true((arr < 0) | (arr >= n))
    if at is not None:
        raise InputError("star table entry out of range", witness=list(at))
    return _freeze(arr.copy())


def make_trivial_star(G: FiniteGroup) -> MultLieAlg:
    return MultLieAlg(G, make_star_table(G, np.full((G.order, G.order), G.identity)))


def make_improper_star(G: FiniteGroup) -> MultLieAlg:
    return MultLieAlg(G, make_star_table(G, G.comm_table))


# row keys reach n*n - 1: one dtype for every order the cap admits
_KEY = np.int32
assert ORDER_CAP**2 <= np.iinfo(_KEY).max


class _Range:
    """A law variable over range(lo, n) along one axis of the plane: as
    indices (col, shaped along that axis) and as row keys (key = n * col)."""

    __slots__ = ("lo", "col", "key")

    def __init__(self, n: int, lo: int, axis: int) -> None:
        r = np.arange(lo, n, dtype=_KEY)
        self.lo, self.col = lo, r.reshape((-1, 1) if axis == 0 else (1, -1))
        self.key = self.col * n


class _FlatTable:
    """An n x n table A of 32 or more columns, read as A[i, j], or as
    n * A[i, j] when keyed, so that its values can index rows.

    i and j are elements, _Range variables or int32 arrays; an array i is a
    row key, read from a keyed table.  A read at an element i takes from row
    i, one over _Range variables and elements only is a slice, and any other
    is one add and one take on an int32 copy of the read values.  A plain
    table is copied at once, a keyed one (often read by rows only) when a
    read first needs it."""

    __slots__ = ("A", "scale", "_grid")

    def __init__(self, A: np.ndarray, keyed: bool) -> None:
        self.A, self.scale = A, A.shape[1] if keyed else 1
        self._grid = None if keyed else self._values(A)

    def _values(self, v: np.ndarray) -> np.ndarray:
        """The read values at entries v of A, as a contiguous int32 copy."""
        out = v.astype(_KEY)
        if self.scale > 1:
            out *= self.scale
        return out

    @property
    def grid(self) -> np.ndarray:
        if self._grid is None:
            self._grid = self._values(self.A)
        return self._grid

    def __getitem__(self, ij):
        i, j = ij
        if not isinstance(i, (np.ndarray, _Range)):  # an element: read its row
            if isinstance(j, _Range):
                return self._values(self.A[i, j.lo :]).reshape(j.col.shape)
            return self._values(self.A[i]).take(j)
        if isinstance(i, _Range):
            if isinstance(j, _Range):
                plane = self.grid[i.lo :, j.lo :]
                return plane if i.col.shape[1] == 1 else plane.T
            if not isinstance(j, np.ndarray):  # an element: read its column
                return self._values(self.A[i.lo :, j]).reshape(i.col.shape)
            i = i.key
        at = i + (j.col if isinstance(j, _Range) else j)  # a fresh array: read into it
        return self.grid.ravel().take(at, out=at, mode="clip")


def _gather(A: np.ndarray, keyed: bool = False) -> np.ndarray | _FlatTable:
    """A for the laws; below 32 columns, where flat reads cost more than they
    save, indexed directly, with plain indices as row keys."""
    return A if A.shape[1] < 32 else _FlatTable(A, keyed)


def _plane(n: int, lo: int = 0) -> tuple:
    """The two law variables over range(lo, n), along axes 0 and 1."""
    if n < 32:
        r = np.arange(lo, n)
        return r[:, None], r[None, :]
    return _Range(n, lo, 0), _Range(n, lo, 1)


def _axiom_laws(G: FiniteGroup, S: np.ndarray) -> dict[int, Callable]:
    """Both sides (lhs, rhs) of axioms 2-5 at the law variables x, y, z (one
    an element, two from _plane); a table named with a trailing r is keyed.
    Axiom 4's sides are P1·P2 and P3^-1, no Pi kept alive past its use."""
    T, Tr = _gather(G.table), _gather(G.table, True)
    C, Cr = _gather(G.conj_table), _gather(G.conj_table, True)
    Si = _gather(G.inverses[S])
    S, Sr = _gather(S), _gather(S, True)
    return {
        2: lambda x, y, z: (S[x, T[y, z]], T[Sr[x, y], C[y, S[x, z]]]),
        3: lambda x, y, z: (S[Tr[x, y], z], T[Cr[x, S[y, z]], S[x, z]]),
        4: lambda x, y, z: (
            T[Sr[Sr[x, y], C[y, z]], S[Sr[y, z], C[z, x]]],  # P1·P2
            Si[Sr[z, x], C[x, y]],  # ((z*x) * ^x y)^-1
        ),
        5: lambda x, y, z: (C[z, S[x, y]], S[Cr[z, x], C[z, y]]),
    }


def broken_axioms(
    G: FiniteGroup,
    S: np.ndarray,
    stage: str = "axiom scan",
) -> Iterator[int]:
    """The axioms that fail on S, in increasing order, each decided on the
    reduced tuple set of the module docstring."""
    if (np.diagonal(S) != G.identity).any():
        yield 1
    check_budget(stage)
    if (S == G.identity).all() or (S == G.comm_table).all():
        return  # the trivial and the commutator star (module docstring)
    laws = _axiom_laws(G, S)
    col, row = _plane(G.order)
    gens = G.generators
    reduced = {
        2: ((col, y, row) for y in gens),
        3: ((x, col, row) for x in gens),
        4: ((x, *_plane(G.order, x)) for x in range(G.order)),
        5: ((col, row, z) for z in gens),
    }
    for num, tuples in reduced.items():
        if scan(stage, (((), ne(*laws[num](*xyz))) for xyz in tuples))[0] is not None:
            yield num


def axiom_sides(
    G: FiniteGroup, S: np.ndarray, axioms: Iterable[int]
) -> Iterator[tuple[int, tuple[int, ...], np.ndarray, np.ndarray | int]]:
    """The exhaustive evaluation of the given axioms on a star table S over G.

    Yields (axiom, prefix, lhs, rhs) in axiom order, for axioms 2-5 once per
    outer x in increasing order.  The axiom fails exactly where lhs != rhs (rhs
    may be the identity), with witness (*prefix, *position), so the first
    mismatch met is the least witness of the first failing axiom.  Positions
    are [y, z], and [z, y] for axiom 5.  Each row is built when it is pulled,
    so a consumer that checks the budget first (util.budgeted) builds none
    past it.
    """
    wanted = set(axioms)
    laws = _axiom_laws(G, S)
    col, row = _plane(G.order)
    if 1 in wanted:
        yield 1, (), np.diagonal(S), G.identity
    for num in sorted(wanted - {1}):
        yz = (row, col) if num == 5 else (col, row)
        for x in range(G.order):
            yield num, (x,), *laws[num](x, *yz)


def check_axioms(M: MultLieAlg) -> None:
    """Raise AxiomViolation on the first failing axiom (least witness).

    The reduced checks of broken_axioms run in axiom order, so the first one
    that fails names the first failing axiom; only that axiom is then scanned
    exhaustively.  Returns at once on a verified algebra; a hand-built one is
    always checked.
    """
    if M._verified:
        return
    num = next(broken_axioms(M.group, M.star), None)
    if num is None:
        return
    sides = axiom_sides(M.group, M.star, (num,))
    at = scan("axiom scan", ((prefix, lhs != rhs) for _, prefix, lhs, rhs in sides))[0]
    if at is None:
        raise AssertionError(f"axiom {num} failed on a reduced tuple the full scan missed")
    labels = [M.group.labels[i] for i in at]
    raise AxiomViolation(
        f"axiom {num} ({AXIOM_NAMES[num]}) fails at ({', '.join(labels)})",
        axiom=num,
        witness=list(at),
    )


def _record_verified(obj: V) -> V:
    """Set the proof flag of an algebra, an action or a compatible pair."""
    object.__setattr__(obj, "_verified", True)
    return obj


def make_algebra(G: FiniteGroup, star) -> MultLieAlg:
    """The validating constructor: a clean axiom check records the algebra as verified."""
    M = MultLieAlg(G, make_star_table(G, star))
    check_axioms(M)
    return _record_verified(M)


_ISO_FAILURES = ("not-bijective", "product", "star")


def star_iso_slabs(M: MultLieAlg, N: MultLieAlg, row: np.ndarray, prefix: tuple) -> Iterator:
    """The checks of star_iso_failure on ``row`` as scan slabs, each prefixed
    by (*prefix, its reason's index in _ISO_FAILURES); a later slab is built
    only once the earlier ones pass."""
    yield (*prefix, 0), np.sort(row) != np.arange(N.order)
    g, A, B = M.group.generators, M.group.table, N.group.table
    if not (row[A[:, g]] == B[row[:, None], row[g]]).all():
        yield (*prefix, 1), row[A] != B[row[:, None], row[None, :]]
    yield (*prefix, 2), row[M.star] != N.star[row[:, None], row[None, :]]


def star_iso_reason(at: Sequence[int]) -> tuple[str, tuple[int, ...] | None]:
    """(reason, least (a, b) or None) from the part of a scan witness that
    star_iso_slabs yielded."""
    return _ISO_FAILURES[at[0]], None if at[0] == 0 else tuple(at[1:])


def star_iso_failure(
    M: MultLieAlg, N: MultLieAlg, row: np.ndarray
) -> tuple[str, tuple[int, ...] | None] | None:
    """Why ``row`` (x -> row[x]) is not a bijection of M onto N preserving
    the product and the star: None if it is, ("not-bijective", None), or
    ("product" | "star", least (a, b) where row(a·b) != row(a)·row(b),
    respectively row(a*b) != row(a)*row(b)).  Products are first checked
    with b over the generators only: row(a·g) = row(a)·row(g) for every a and
    generator g gives row(e) = e (at a = e) and then, by induction on words,
    every product; only a failure is rescanned over all (a, b)."""
    at = scan("star isomorphism", star_iso_slabs(M, N, row, ()))[0]
    return None if at is None else star_iso_reason(at)


def compose_failure(G: FiniteGroup, rows: np.ndarray, stage: str) -> tuple[int, ...] | None:
    """Least (a, b, x) with rows[a·b][x] != rows[a][rows[b][x]], scanned one
    slab per a; None when the rows compose as an action of G."""
    return scan(stage, (((a,), rows[G.table[a]] != rows[a][rows]) for a in range(G.order)))[0]


IDENTITY_NAMES = {
    1: "L[a,a] = 1",
    2: "L[a,b]·L[b,a] = 1",
    3: "L[ab,c] = L[a,c] · ^(^c a) L[b,c]",
    4: "L[a,bc] = ^b L[a,c] · ^[^b c, ^b a] L[a,b]",
    5: "^a L[b,c] = L[^a b, ^a c]",
    6: "L[a^-1,b] = ^(a^-1) L[b,a] and L[a,b^-1] = ^(b^-1) L[b,a]",
    7: "L[a,b] commutes with every x*y",
}


def _identity_laws(M: MultLieAlg) -> dict[int, Callable]:
    """Failure masks of identities 3-5 at law variables a, b, c, as in _axiom_laws."""
    G = M.group
    T, Tr = _gather(G.table), _gather(G.table, True)
    C, Cr = _gather(G.conj_table), _gather(G.conj_table, True)
    L, Lr = _gather(M.lie_defect_table), _gather(M.lie_defect_table, True)
    Kr = _gather(G.comm_table, True)
    return {
        3: lambda a, b, c: L[Tr[a, b], c] != T[Lr[a, c], C[Cr[c, a], L[b, c]]],
        4: lambda a, b, c: L[a, T[b, c]] != T[Cr[b, L[a, c]], C[Kr[Cr[b, c], C[b, a]], L[a, b]]],
        5: lambda a, b, c: C[a, L[b, c]] != L[Cr[a, b], C[a, c]],
    }


def check_lie_identities(
    M: MultLieAlg,
    only: Iterable[int] | None = None,
) -> dict[int, list[int] | None]:
    """Test the seven defect-operator identities.

    Returns {identity number: least witness or None}; raises nothing.  The
    harness turns non-None entries into failures.

    Identities 3 and 5 are closed under products in a, and identity 4 under
    products in b, so each is proven by checking that variable over
    G.generators and the other two over all of G (as for the axioms, see the
    module docstring); only a failing identity is scanned over every tuple,
    for its least witness.  If 3 holds at a1 and at a2, then, as
    ^c(a1 a2) = ^c a1 · ^c a2,
        L[a1 a2 b, c] = L[a1,c] · ^(^c a1)L[a2 b, c]
                      = L[a1,c] · ^(^c a1)L[a2,c] · ^(^c a1 ^c a2)L[b,c]
                      = L[a1 a2, c] · ^(^c(a1 a2))L[b,c];
    and ^(a1 a2) is ^a1 after ^a2, so 5 holds at a1 a2.  If 4 holds at b1
    and at b2, write u = ^b1 b2, v = ^b1 a, w = ^b1 c, so that
    ^b1(b2 c) = u w, ^(b1 b2)c = ^u w and ^(b1 b2)a = ^u v.  Then 4 at b1
    (with b2 c, and with b2, in the place of c) and at b2 give
        L[a, b1 b2 c] = ^(b1 b2)L[a,c] · ^(b1 [^b2 c, ^b2 a])L[a,b2] · ^[u w, v]L[a,b1]
        L[a, b1 b2]   = ^b1 L[a,b2] · ^[u, v]L[a,b1].
    With X = [^u w, ^u v], the group identities b1 [p,q] = [^b1 p, ^b1 q] b1
    and [u w, v] = ^u[w,v] · [u,v] = X [u,v] turn the first line into
        L[a, b1 b2 c] = ^(b1 b2)L[a,c] · ^X(^b1 L[a,b2] · ^[u,v]L[a,b1])
                      = ^(b1 b2)L[a,c] · ^X L[a, b1 b2],
    which is 4 at b1 b2.  The other identities are quadratic or smaller.

    On the commutator star, (a*b)^-1 = [a,b]^-1 makes L 1 everywhere, and
    each of 1-7 reads 1 = 1 (7: 1 commutes with everything); they are then
    reported as holding with no scan.
    """
    G, S = M.group, M.star
    T, C, inv, e = G.table, G.conj_table, G.inverses, G.identity
    n = G.order
    wanted = set(only) if only is not None else set(IDENTITY_NAMES)
    if M.star_is_commutator:
        check_budget("identity scan")
        return {num: None for num in sorted(wanted & IDENTITY_NAMES.keys())}
    L = M.lie_defect_table
    results: dict[int, list[int] | None] = {}

    if 1 in wanted:
        at = first_true(np.diagonal(L) != e)
        results[1] = list(at) if at else None

    if 2 in wanted:
        at = first_true(T[L, L.T] != e)
        results[2] = list(at) if at else None

    laws = _identity_laws(M) if wanted & {3, 4, 5} else {}
    col, row = _plane(n)
    on_generator = {  # the variable closed under products set to g
        3: lambda g: (g, col, row),
        4: lambda g: (col, g, row),
        5: lambda g: (g, col, row),
    }
    for num in sorted(wanted & set(laws)):
        law = laws[num]
        at = scan("identity scan", (((), law(*on_generator[num](g))) for g in G.generators))[0]
        if at is not None:  # the least witness, by rows in a
            at = scan("identity scan", (((a,), law(a, col, row)) for a in range(n)))[0]
        results[num] = None if at is None else list(at)

    if 6 in wanted:
        m1 = L[inv, :] != C[inv[:, None], L.T]  # L[a^-1, b] vs ^(a^-1) L[b, a]
        m2 = L[:, inv] != C[inv[None, :], L.T]  # L[a, b^-1] vs ^(b^-1) L[b, a]
        at = first_true(m1 | m2)
        results[6] = list(at) if at else None

    if 7 in wanted:
        # distinct values suffice; recover a least witness pair afterwards
        stars = np.unique(S)
        slabs = (((li,), G.comm_table[li, stars] != e) for li in np.unique(L).tolist())
        at = scan("identity scan", slabs)[0]  # (an L value, a star value's index)
        results[7] = at and [*first_true(L == at[0]), *first_true(S == stars[at[1]])]

    return {k: results[k] for k in sorted(results)}


# ---------------------------------------------------------------------------
# ideals and series


@dataclass(frozen=True, eq=False)
class Ideal:
    algebra: MultLieAlg
    subgroup: Subgroup

    @property
    def members(self) -> frozenset[int]:
        return self.subgroup.members


def validate_ideal(M: MultLieAlg, S: Subgroup) -> Ideal:
    """Normal subgroup absorbing * from both sides."""
    G = M.group
    mem = np.fromiter(S.sorted_members, dtype=np.int64)
    at = first_true(~np.isin(G.conj_table[:, mem], mem))
    if at is not None:
        z, k = at
        raise IdealityFailure(
            f"not normal: ^{G.labels[z]} {G.labels[int(mem[k])]} escapes",
            kind="normality",
            witness=[z, int(mem[k])],
        )
    at = first_true(~np.isin(M.star[:, mem], mem))
    if at is not None:
        g, k = at
        raise IdealityFailure(
            f"not absorbed: {G.labels[g]} * {G.labels[int(mem[k])]} escapes",
            kind="star-right",
            witness=[g, int(mem[k])],
        )
    at = first_true(~np.isin(M.star[mem, :], mem))
    if at is not None:
        k, g = at
        raise IdealityFailure(
            f"not absorbed: {G.labels[int(mem[k])]} * {G.labels[g]} escapes",
            kind="star-left",
            witness=[int(mem[k]), g],
        )
    return Ideal(M, S)


def ideal_closure(M: MultLieAlg, seed: Iterable[int]) -> Ideal:
    """Smallest subset containing the seed that passes validate_ideal: the
    normal closure, also closed under * against the whole algebra."""
    return Ideal(M, Subgroup(M.group, _closure(M.group, seed, conjugate=True, star=M.star)))


def lie_commutator_ideal(M: MultLieAlg, A: Iterable[int], B: Iterable[int]) -> Ideal:
    """Ideal closure of { L[a,b] : a in A, b in B }."""
    L = M.lie_defect_table
    arrA = np.fromiter(sorted(set(A)), dtype=np.int64)
    arrB = np.fromiter(sorted(set(B)), dtype=np.int64)
    seed = np.unique(L[np.ix_(arrA, arrB)])
    return ideal_closure(M, (int(v) for v in seed))


@dataclass(frozen=True)
class SeriesReport:
    kind: str  # "derived" or "lower-central"
    terms: tuple[tuple[int, ...], ...]
    verdict: str  # "terminated-at-trivial" or "stabilized-nontrivial"
    at: int  # index of the final distinct term
    class_or_length: int | None  # None when the series stabilizes above 1


def _run_series(
    M: MultLieAlg,
    step: Callable[[tuple[int, ...]], Ideal],
    kind: str,
) -> SeriesReport:
    G = M.group
    terms: list[tuple[int, ...]] = [tuple(range(G.order))]
    while True:
        check_budget(f"{kind} series")
        nxt = step(terms[-1])
        ms = tuple(sorted(nxt.members))
        if ms == terms[-1]:
            if len(ms) == 1:
                # whole algebra was already trivial
                return SeriesReport(kind, tuple(terms), "terminated-at-trivial", len(terms) - 1, 0)
            return SeriesReport(kind, tuple(terms), "stabilized-nontrivial", len(terms) - 1, None)
        terms.append(ms)
        if len(ms) == 1:
            return SeriesReport(kind, tuple(terms), "terminated-at-trivial", len(terms) - 1, len(terms) - 1)


def derived_series(M: MultLieAlg) -> SeriesReport:
    return _run_series(M, lambda cur: lie_commutator_ideal(M, cur, cur), "derived")


def lower_central_series(M: MultLieAlg) -> SeriesReport:
    full = tuple(range(M.order))
    return _run_series(M, lambda cur: lie_commutator_ideal(M, full, cur), "lower-central")


def nilpotency_class(M: MultLieAlg) -> int | None:
    return lower_central_series(M).class_or_length


def solvable_length(M: MultLieAlg) -> int | None:
    return derived_series(M).class_or_length


# ---------------------------------------------------------------------------
# substructures and quotients


def _image_algebra(M: MultLieAlg, G: FiniteGroup, star: np.ndarray) -> MultLieAlg:
    """A quotient or sub-algebra of M: verified with M, else scanned."""
    if not M._verified:
        return make_algebra(G, star)
    return _record_verified(MultLieAlg(G, make_star_table(G, star)))


def sub_algebra(M: MultLieAlg, S: Subgroup) -> MultLieAlg:
    """Restrict to a subgroup closed under *; reindexes elements.

    Verified when M is: the axioms are equations that hold on every tuple of
    M, so on every tuple of a subgroup that * does not leave.
    """
    G = M.group
    mem = np.fromiter(S.sorted_members, dtype=np.int64)
    if not np.isin(M.star[np.ix_(mem, mem)], mem).all():
        raise InputError("subgroup is not closed under *")
    pos = {int(v): i for i, v in enumerate(mem)}
    remap = np.vectorize(pos.__getitem__, otypes=[np.int64])
    H = validate_cayley([G.labels[int(v)] for v in mem], remap(G.table[np.ix_(mem, mem)]))
    return _image_algebra(M, H, remap(M.star[np.ix_(mem, mem)]))


def quotient_algebra(M: MultLieAlg, I: Ideal) -> tuple[MultLieAlg, GroupMap]:
    """Quotient group with the star pushed forward; rejects ill-defined stars.

    Verified when M is: the descent check proves the projection preserves
    both operations, and equations pass to homomorphic images (Ellis,
    J. Austral. Math. Soc. A 54, 1993).
    """
    if I.algebra is not M:
        validate_ideal(M, I.subgroup)  # accept foreign but equivalent ideals
    Q, pi = quotient(M.group, I.subgroup)
    img = pi.image
    Sq = np.full((Q.order, Q.order), -1, dtype=np.int64)
    src = M.star
    # fill by first occurrence, then verify every occurrence agrees
    for a in range(M.order):
        qa = img[a]
        row = Sq[qa]
        vals = img[src[a]]
        cols = img
        cur = row[cols]
        fresh = cur < 0
        row[cols[fresh]] = vals[fresh]
        clash = first_true((~fresh) & (cur != vals))
        if clash is not None:
            (b,) = clash
            raise QuotientStarIllDefined(
                "star does not descend: representatives disagree",
                witness=[a, b],
            )
    # second pass: all pairs must agree with the filled table
    at = first_true(img[src] != Sq[img[:, None], img[None, :]])
    if at is not None:
        raise QuotientStarIllDefined(
            "star does not descend: representatives disagree", witness=list(at)
        )
    return _image_algebra(M, Q, Sq), pi
