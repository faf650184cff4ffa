"""Coset enumeration over the trivial subgroup of a finite presentation.

Definition-order (Felsch-style) enumeration: the least undefined table
entry is filled with a fresh coset, every new edge is scanned against all
cyclic rotations of the relators and their inverses, and coincidences are
merged through a union-find with a processing queue.  Output is the regular
representation as a validated Cayley table plus the generator images.

Letters encode generators as 2i (forward) and 2i+1 (inverse); a relator is
stored as signed 1-based generator numbers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CosetCapExceeded, InputError
from .groups import FiniteGroup, check_order_cap, validate_cayley
from .util import check_budget

DEFAULT_MAX_COSETS = 200_000


@dataclass(frozen=True, eq=False)
class Presentation:
    generator_labels: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]

    @property
    def generator_count(self) -> int:
        return len(self.generator_labels)


def make_presentation(generator_labels, relators) -> Presentation:
    labels = tuple(str(s) for s in generator_labels)
    if len(set(labels)) != len(labels):
        raise InputError("generator labels are not distinct")
    n = len(labels)
    rels = []
    seen = set()
    for rel in relators:
        word = tuple(int(e) for e in rel)
        for e in word:
            if e == 0 or abs(e) > n:
                raise InputError(f"relator entry {e} references no generator", relator=list(word))
        if word and word not in seen:
            seen.add(word)
            rels.append(word)
    return Presentation(labels, tuple(rels))


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


def _letters_of(rel: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(2 * (e - 1) if e > 0 else 2 * (-e - 1) + 1 for e in rel)


def _invert(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(l ^ 1 for l in reversed(word))


def _rotation_buckets(relators, nletters: int) -> list[list[tuple[int, ...]]]:
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(nletters)]
    seen = set()
    for rel in relators:
        for base in (_letters_of(rel), _invert(_letters_of(rel))):
            for k in range(len(base)):
                rot = base[k:] + base[:k]
                if rot not in seen:
                    seen.add(rot)
                    buckets[rot[0]].append(rot)
    return buckets


class _Enumerator:
    def __init__(self, pres: Presentation, max_cosets: int):
        self.nletters = 2 * pres.generator_count
        self.buckets = _rotation_buckets(pres.relators, self.nletters)
        self.max_cosets = max_cosets
        self.table: list[list[int]] = [[-1] * self.nletters]
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

    def alive(self, a: int) -> bool:
        return self.p[a] == a

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
        self._merge(a, b)
        while self.cqueue:
            d = self.cqueue.popleft()
            row = self.table[d]
            for l in range(self.nletters):
                delta = row[l]
                if delta < 0:
                    continue
                row[l] = -1
                if self.table[delta][l ^ 1] == d:
                    self.table[delta][l ^ 1] = -1
                u, v = self.rep(d), self.rep(delta)
                ex = self.table[u][l]
                if ex >= 0:
                    self._merge(ex, v)
                else:
                    exb = self.table[v][l ^ 1]
                    if exb >= 0:
                        self._merge(u, exb)
                    else:
                        self.table[u][l] = v
                        self.table[v][l ^ 1] = u
                        self.deductions.append((u, l))

    def _scan(self, alpha: int, word: tuple[int, ...]) -> None:
        f, i = alpha, 0
        n = len(word)
        while i < n:
            nxt = self.table[f][word[i]]
            if nxt < 0:
                break
            f, i = nxt, i + 1
        if i == n:
            if f != alpha:
                self._coincide(f, alpha)
            return
        b, j = alpha, n - 1
        while j > i:
            prv = self.table[b][word[j] ^ 1]
            if prv < 0:
                break
            b, j = prv, j - 1
        if j > i:
            return  # gap longer than one edge: no information yet
        exb = self.table[b][word[i] ^ 1]
        if exb >= 0:
            self._coincide(f, exb)
        else:
            self.table[f][word[i]] = b
            self.table[b][word[i] ^ 1] = f
            self.deductions.append((f, word[i]))

    def _drain(self) -> None:
        while self.deductions:
            check_budget("coset enumeration")
            a, l = self.deductions.pop()
            if not self.alive(a) or self.table[a][l] < 0:
                continue
            for word in self.buckets[l]:
                self._scan(a, word)
                if not self.alive(a) or self.table[a][l] < 0:
                    break

    def _define(self, alpha: int, l: int) -> None:
        if self.defined >= self.max_cosets:
            raise CosetCapExceeded(
                f"coset table would exceed {self.max_cosets} rows",
                max_cosets=self.max_cosets,
            )
        new = len(self.table)
        self.table.append([-1] * self.nletters)
        self.p.append(new)
        self.defined += 1
        self.table[alpha][l] = new
        self.table[new][l ^ 1] = alpha
        self.deductions.append((alpha, l))
        self._drain()

    def run(self) -> None:
        changed = True
        while changed:
            changed = False
            alpha = 0
            while alpha < len(self.table):
                check_budget("coset enumeration")
                if not self.alive(alpha):
                    alpha += 1
                    continue
                for l in range(self.nletters):
                    while self.alive(alpha) and self.table[alpha][l] < 0:
                        self._define(alpha, l)
                        changed = True
                    if not self.alive(alpha):
                        break
                alpha += 1


def coset_enumerate(
    pres: Presentation,
    max_cosets: int = DEFAULT_MAX_COSETS,
    identity_label: str = "1",
) -> EnumerationResult:
    """Realize the presented group; raises CosetCapExceeded when it cannot."""
    if max_cosets < 1:
        raise InputError("max_cosets must be at least 1")
    if pres.generator_count == 0:
        if pres.relators:
            raise InputError("relators over an empty generator set")
        group = validate_cayley([identity_label], [[0]])
        return EnumerationResult(pres, group, np.zeros(0, dtype=np.int64), EnumerationStats(1, 0, 1))

    eng = _Enumerator(pres, max_cosets)
    eng.run()

    live = [a for a in range(len(eng.table)) if eng.alive(a)]
    m = len(live)
    check_order_cap(m)  # before the m x m Cayley table exists
    index = {a: i for i, a in enumerate(live)}
    nl = eng.nletters
    tbl = np.empty((m, nl), dtype=np.int64)
    for i, a in enumerate(live):
        for l in range(nl):
            t = eng.table[a][l]
            if t < 0:
                raise InputError("enumeration finished with an incomplete row")
            tbl[i, l] = index[eng.rep(t)]

    # defensive pass: every relator must close at every coset
    for rel in pres.relators:
        word = np.asarray(_letters_of(rel), dtype=np.int64)
        cur = np.arange(m)
        for l in word:
            cur = tbl[cur, l]
        if (cur != np.arange(m)).any():
            raise InputError("relator fails to close after enumeration", relator=list(rel))

    # normal forms: BFS over forward letters, then the Cayley table by tracing
    words: list[tuple[int, ...] | None] = [None] * m
    words[0] = ()
    queue = [0]
    qi = 0
    while qi < len(queue):
        c = queue[qi]
        qi += 1
        for g in range(pres.generator_count):
            nx = int(tbl[c, 2 * g])
            if words[nx] is None:
                words[nx] = words[c] + (g,)  # type: ignore[operator]
                queue.append(nx)
    if any(w is None for w in words):
        raise InputError("generator images do not generate the enumerated group")

    cayley = np.empty((m, m), dtype=np.int64)
    for b in range(m):
        cur = np.arange(m)
        for g in words[b]:  # type: ignore[union-attr]
            cur = tbl[cur, 2 * g]
        cayley[:, b] = cur

    labels = [
        identity_label if not w else "·".join(pres.generator_labels[g] for g in w)
        for w in words
    ]
    group = validate_cayley(labels, cayley)
    gen_image = np.asarray([int(tbl[0, 2 * g]) for g in range(pres.generator_count)], dtype=np.int64)
    stats = EnumerationStats(eng.defined, eng.collapsed, m)
    return EnumerationResult(pres, group, gen_image, stats)
