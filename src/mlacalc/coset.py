"""Coset enumeration over the trivial subgroup of a finite presentation.

Definition-order (Felsch-style): the least undefined entry gets a fresh
coset, whose consequences are closed before the next definition.  Scanning
a rotation of a relator or its inverse from a coset deduces its one missing
edge, or a coincidence when it completes away from its start; coincidences
merge through a union-find into the smaller coset.  Output: the regular
representation as a validated Cayley table, plus the generator images.

The order of the scans does not matter.  Deductions and merges only add
information, and a class is always named by its least coset, so the
closure after a definition is the least fixed point above it, whatever
order the forced steps ran in.  A scan turns informative only through an
edge set or a coset merged since it last ran, and both push the edges they
set as deductions; scanning the rotations that start at pending deductions
thus reaches that fixed point, and definitions, stats and tables do not
depend on how the deductions are processed.  So _drain takes all pending
deductions as one wave and tests their length-3 rotations (all base tensor
relators) on a snapshot: T is a partial permutation, so a word (l, x, y) at
a deduction (a, l) = b closes iff T[b, x] == T[a, y^1], and where these
differ it forces the missing one, or a coincidence if both are set.  Such
a fill stays a consequence after the wave's other steps, which only add
information, between the classes of its cosets (rep() maps them after a
merge); _drain writes it if its slots are empty, else coincides it with
what a slot holds, as _scan does at its gap.  One fill per edge is kept:
the others share its slot, whose write or merge pushes what it changes.
As every written edge is pushed, the drain still ends at the least fixed
point.  Longer words go to _scan.

Letters encode generators as 2i (forward) and 2i+1 (inverse).  A presentation
stores its relators once, as rows of signed 1-based generator numbers grouped
by length, which the enumerator and the closure check read; the tuples of
Presentation.relators are built only when something reads them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import CosetCapExceeded, InputError
from .groups import FiniteGroup, check_order_cap, spanning_tree, validate_cayley
from .util import check_budget

DEFAULT_MAX_COSETS = 200_000


@dataclass(frozen=True, eq=False)
class Presentation:
    generator_labels: tuple[str, ...]
    # length -> (their positions in relator order, their (k, length) signed entries)
    by_length: dict[int, tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        """Every relator entry must name a generator: built here or by hand,
        a presentation that fails this raises InputError naming the relator."""
        n = len(self.generator_labels)
        bad = ((w == 0) | (np.abs(w, dtype=np.int64) > n) for _, w in self.by_length.values())
        if any(b.any() for b in bad):
            e, rel = next((e, w) for w in self.relators for e in w if e == 0 or abs(e) > n)
            raise InputError(f"relator entry {e} references no generator", relator=list(rel))

    @property
    def generator_count(self) -> int:
        return len(self.generator_labels)

    @cached_property
    def relators(self) -> tuple[tuple[int, ...], ...]:
        """The relators as tuples, in order; built on first read."""
        at = (zip(idx.tolist(), map(tuple, w.tolist())) for idx, w in self.by_length.values())
        return tuple(w for _, w in sorted(chain.from_iterable(at)))


def make_presentation(generator_labels, relators) -> Presentation:
    """Relators are words (or rows of a 2-D int array) of signed 1-based
    generator numbers; empty words and repeats after the first are dropped."""
    labels = tuple(str(s) for s in generator_labels)
    if len(set(labels)) != len(labels):
        raise InputError("generator labels are not distinct")
    if isinstance(relators, np.ndarray) and relators.ndim != 2:
        raise InputError("a relator array must be 2-D", shape=list(relators.shape))
    if isinstance(relators, np.ndarray) and relators.dtype.kind == "i" and relators.size:
        rows = np.ascontiguousarray(relators, dtype=np.int64)  # range-checked in int64
        first = np.unique(rows.view(np.dtype((np.void, 8 * rows.shape[1]))), return_index=True)[1]
        by_length = {rows.shape[1]: (np.arange(len(first)), rows[np.sort(first)])}  # in input order
    else:
        words = [w for w in dict.fromkeys(tuple(map(int, w)) for w in relators) if w]
        at: dict[int, list[int]] = {}
        for i, w in enumerate(words):
            at.setdefault(len(w), []).append(i)
        by_length = {k: (np.array(ix), np.array([words[i] for i in ix])) for k, ix in sorted(at.items())}
    return Presentation(labels, by_length)


@dataclass(frozen=True)
class EnumerationStats:
    cosets_defined: int
    cosets_collapsed: int
    live: int


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    presentation: Presentation
    group: FiniteGroup
    gen_image: np.ndarray
    stats: EnumerationStats


def _rotations(lets: np.ndarray, n: int) -> np.ndarray:
    """Every cyclic rotation of the (k, n) words and of their inverses, by fixed
    column permutations: [r, i] is word i's r-th rotation, [n + r, i] its inverse's."""
    cols = (np.arange(n)[:, None] + np.arange(n)) % n
    both = np.concatenate([lets.T, lets.T[::-1] ^ 1])  # the words' columns, then their inverses'
    return both[np.concatenate([cols, cols + n])].transpose(0, 2, 1)


def _rotation_words(by_length, nl: int):
    """Distinct cyclic rotations of the relators and their inverses, by first letter.

    Length-3 words come as CSR arrays (X, Yinv, start): the words starting
    with l are (l, X[k], Yinv[k] ^ 1) for start[l] <= k < start[l + 1].
    Words of every other length are listed per first letter, as tuples.
    """
    r3 = _rotations(by_length[3][1], 3) if 3 in by_length else np.empty((6, 0, 3), dtype=np.int64)
    key = np.sort((r3[..., 0] * nl + r3[..., 1]) * nl + r3[..., 2], axis=None)  # by first letter
    key = key[np.diff(key, prepend=-1) != 0]  # keys are >= 0
    start = np.searchsorted(key, np.arange(nl + 1) * nl * nl)
    X, Y = np.divmod(key % (nl * nl), nl)
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(nl)]
    longer = (_rotations(w, n).reshape(-1, n).tolist() for n, (_, w) in by_length.items() if n != 3)
    for rot in dict.fromkeys(map(tuple, chain.from_iterable(longer))):
        buckets[rot[0]].append(rot)
    return X, Y ^ 1, start, buckets


class _Enumerator:
    def __init__(self, pres: Presentation, max_cosets: int):
        self.nletters = 2 * pres.generator_count
        self.by_length = {  # letters, grouped as the presentation's relators
            n: (i, np.where(w > 0, 2 * w - 2, -2 * w - 1)) for n, (i, w) in pres.by_length.items()
        }
        self.X, self.Yinv, self.start, self.buckets = _rotation_words(self.by_length, self.nletters)
        self.longer = any(self.buckets)
        self.max_cosets = max_cosets
        # rows below `size` are cosets; the rest is room to grow
        self.table = np.full((min(16, max_cosets), self.nletters), -1, dtype=np.int64)
        self.mark = np.full_like(self.table, -1, np.int32).ravel()  # _wave's scratch, per slot
        self.size = 1
        self.p: list[int] = [0]
        self.deductions: list[tuple[int, int]] = []
        self.cqueue: deque[int] = deque()
        self.defined = 1
        self.collapsed = 0

    def rep(self, a: int) -> int:
        r = a
        while self.p[r] != r:
            r = self.p[r]
        while self.p[a] != r:
            self.p[a], a = r, self.p[a]
        return r

    def _merge(self, a: int, b: int) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        self.collapsed += 1
        self.cqueue.append(b)

    def _coincide(self, a: int, b: int) -> None:
        T = self.table
        self._merge(a, b)
        while self.cqueue:
            d = self.cqueue.popleft()
            for l in np.flatnonzero(T[d] >= 0).tolist():
                delta = int(T[d, l])
                if delta < 0:  # cleared above as the inverse of a loop at d
                    continue
                T[d, l] = -1
                if T[delta, l ^ 1] == d:
                    T[delta, l ^ 1] = -1
                u, v = self.rep(d), self.rep(delta)
                ex = int(T[u, l])
                if ex >= 0:
                    self._merge(ex, v)
                else:
                    exb = int(T[v, l ^ 1])
                    if exb >= 0:
                        self._merge(u, exb)
                    else:
                        T[u, l] = v
                        T[v, l ^ 1] = u
                        self.deductions.append((u, l))

    def _scan(self, alpha: int, word: tuple[int, ...]) -> None:
        T = self.table
        f, i = alpha, 0
        n = len(word)
        while i < n:
            nxt = int(T[f, word[i]])
            if nxt < 0:
                break
            f, i = nxt, i + 1
        if i == n:
            if f != alpha:
                self._coincide(f, alpha)
            return
        b, j = alpha, n - 1
        while j > i:
            prv = int(T[b, word[j] ^ 1])
            if prv < 0:
                break
            b, j = prv, j - 1
        if j > i:
            return  # gap longer than one edge: no information yet
        exb = int(T[b, word[i] ^ 1])
        if exb >= 0:
            self._coincide(f, exb)
        else:
            T[f, word[i]] = b
            T[b, word[i] ^ 1] = f
            self.deductions.append((f, word[i]))

    def _wave(self, a: np.ndarray, l: np.ndarray) -> list[tuple[int, int, int]]:
        """Fills (f, x, g), meaning T[f, x] = g, forced by the scans from deductions
        (a, l): one per edge, and every one whose slot is set (a coincidence)."""
        nl, Tf, mark = self.nletters, self.table.ravel(), self.mark  # T[i, j] is Tf[i * nl + j]
        cnt = self.start[l + 1] - self.start[l]
        k = np.arange(cnt.sum()) + (self.start[l] - cnt.cumsum() + cnt).repeat(cnt)
        r = np.arange(len(a)).repeat(cnt)  # the deduction of each scan
        sb = (Tf[a * nl + l] * nl)[r] + self.X[k]  # slot (b, x)
        sa = (a * nl)[r] + self.Yinv[k]  # slot (a, y^1)
        C, E = Tf[sb], Tf[sa]
        if not len(i := (C != E).nonzero()[0]):
            return []
        C, E = C[i], E[i]
        # fill (a, y^1) = C when E is missing, else (b, x) = E (a coincidence if C is set)
        s, g = np.where(E < 0, [sa[i], C], [sb[i], E])
        f, x = np.divmod(s, nl)
        edge = np.minimum(s, g * nl + (x ^ 1))  # either slot of the edge it writes
        coincide = np.minimum(C, E) >= 0  # both sides set
        fill = (~coincide).nonzero()[0]
        mark[edge[fill]] = fill
        keep = (coincide | (mark[edge] == np.arange(len(i)))).nonzero()[0]
        return list(zip(f[keep].tolist(), x[keep].tolist(), g[keep].tolist()))

    def _drain(self) -> None:
        T = self.table
        while self.deductions:
            check_budget("coset enumeration")
            a, l = np.array(self.deductions, dtype=np.int64).reshape(-1, 2).T
            self.deductions = []
            held = T[a, l] >= 0  # a merged coset's row is cleared
            a, l = a[held], l[held]
            collapsed = self.collapsed
            for f, x, g in self._wave(a, l):
                if self.collapsed != collapsed:  # the snapshot's cosets may be dead
                    f, g = self.rep(f), self.rep(g)
                if (h := int(T[f, x])) >= 0:
                    self._coincide(h, g)
                elif (h := int(T[g, x ^ 1])) >= 0:
                    self._coincide(f, h)
                else:
                    T[f, x], T[g, x ^ 1] = g, f
                    self.deductions.append((f, x))
            if self.longer:
                for ai, li in zip(a.tolist(), l.tolist()):
                    for word in self.buckets[li]:
                        if T[ai, li] < 0:
                            break
                        self._scan(ai, word)

    def _define(self, alpha: int, l: int) -> None:
        cap = self.max_cosets
        if self.defined >= cap:
            raise CosetCapExceeded(f"coset table would exceed {cap} rows", max_cosets=cap)
        new = self.size
        if new == len(self.table):  # double, up to the cap
            self.table = np.concatenate([self.table, np.full_like(self.table[: cap - new], -1)])
            self.mark = np.full_like(self.table, -1, np.int32).ravel()
        self.size = self.defined = new + 1
        self.p.append(new)
        self.table[alpha, l] = new
        self.table[new, l ^ 1] = alpha
        self.deductions.append((alpha, l))
        self._drain()

    def run(self) -> None:
        changed = True
        while changed:
            changed, alpha = False, 0
            while alpha < self.size:
                check_budget("coset enumeration")
                gaps = np.flatnonzero(self.table[alpha] < 0) if self.p[alpha] == alpha else ()
                if len(gaps):
                    self._define(alpha, int(gaps[0]))
                    changed = True
                else:
                    alpha += 1


def _check_relators_close(pres: Presentation, by_length, tbl: np.ndarray) -> None:
    """Defensive: every relator must close at every coset of the finished table."""
    m, nl = tbl.shape
    keyed = (tbl * nl).ravel()  # keyed[a * nl + l] = T[a, l] * nl
    bad = []
    for n, (idx, lets) in by_length.items():
        step = max(1, (1 << 14) // len(idx))  # cosets per block of (step, k) gathers
        for s in range(0, m, step):
            cur = start = np.arange(s * nl, min(s + step, m) * nl, nl)[:, None]
            for j in range(n):
                cur = keyed[cur + lets[:, j]]
            bad += idx[(cur != start).any(axis=0)].tolist()
    if bad:
        raise InputError("relator fails to close after enumeration", relator=[*pres.relators[min(bad)]])


def coset_enumerate(
    pres: Presentation,
    max_cosets: int = DEFAULT_MAX_COSETS,
    identity_label: str = "1",
) -> EnumerationResult:
    """Realize the presented group; raises CosetCapExceeded when it cannot."""
    if max_cosets < 1:
        raise InputError("max_cosets must be at least 1")
    if pres.generator_count == 0 and pres.by_length:
        raise InputError("relators over an empty generator set")

    eng = _Enumerator(pres, max_cosets)
    eng.run()

    p = np.array(eng.p, dtype=np.int64)
    live = np.flatnonzero(p == np.arange(len(p)))
    m = len(live)
    check_order_cap(m)  # before the m x m Cayley table exists
    raw = eng.table[live]
    eng.table = eng.mark = None  # freed before the Cayley assembly, which reads only raw
    if (raw < 0).any():
        raise InputError("enumeration finished with an incomplete row")
    while (p[p] != p).any():
        p = p[p]  # every coset to the live coset of its class
    tbl = (np.cumsum(p == np.arange(len(p))) - 1)[p[raw]]
    _check_relators_close(pres, eng.by_length, tbl)

    # normal forms: BFS over forward letters; then right multiplication by
    # each element, one gather from its parent's column
    parent, letter, order = spanning_tree(tbl[:, 0::2], 0)
    if len(order) != m:
        raise InputError("generator images do not generate the enumerated group")
    parent, letter, gl = parent.tolist(), letter.tolist(), pres.generator_labels
    cols = np.empty((m, m), dtype=np.int64)  # cols[b] = (x -> x·b)
    cols[0] = np.arange(m)
    labels = [identity_label] * m
    for b in order[1:]:
        q, g = parent[b], letter[b]
        cols[b] = tbl[cols[q], 2 * g]
        labels[b] = gl[g] if q == 0 else f"{labels[q]}·{gl[g]}"
    group = validate_cayley(labels, cols.T)
    stats = EnumerationStats(eng.defined, eng.collapsed, m)
    return EnumerationResult(pres, group, tbl[0, 0::2].copy(), stats)
