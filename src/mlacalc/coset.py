"""Coset enumeration over the trivial subgroup of a finite presentation.

Definition-order (Felsch-style): the least undefined entry gets a fresh
coset, and the scans close its consequences.  Scanning a rotation of a
relator or its inverse from a coset deduces its one missing edge, or a
coincidence when it completes away from its start; coincidences merge
through a union-find into the smaller coset.  Output: the regular
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
what a slot holds, as _scan does at its gap (_fill).  One fill per edge is
kept: the others share its slot, whose write or merge pushes what it
changes.  As every written edge is pushed, the drain still ends at the
least fixed point.  When the 2k slots of a wave's k fills, (f, x) and
(g, x^1), are distinct and empty, no fill is a coincidence or reads a slot
another writes, so the loop would write each and push (f, x) in turn:
_drain writes them at once and carries their slots (f, x) and (g, x^1)
into the next wave, in that order, where T[f, x] = g need not be read
again.  Longer words go to _scan.

After a wave written at once, _drain defines the next coset at the least
gap from run()'s row pointer (_gap), and the next wave scans it with the
closure.  This is exact: the closure only fills gaps, and a gap it would
fill, defined ahead, gets a second value, a coincidence; without one the
least gap of the partial closure is that of the finished one, and cosets
come in the same order.  A wave with a fresh definition that is not
written at once takes it back and is read again; a coincidence after a
kept one clears the drain's writes, and the drain and the rest of the
enumeration run one definition at a time.  No coset is defined ahead of a
wave of more than EAGER_SCANS scans, from a merge on, at the cap, or with
longer relators.

Letters encode generators as 2i (forward) and 2i+1 (inverse).  A presentation
stores its relators once, as rows of signed 1-based generator numbers grouped
by length, which the enumerator and the closure check read; the tuples of
Presentation.relators are built only when something reads them.

The set-up sorts packed int64 keys: a relator row is deduplicated on its
entries shifted by n, in (2n).bit_length()-bit fields (rows past 63 bits
take the list path), and a length-3 rotation (l, x, y) over nl letters is
l << 2B | x << B | y, B = (nl - 1).bit_length().  Three fields fit in 63
bits up to 2^21 letters: coset_enumerate refuses more than MAX_GENERATORS =
2^20 generators before any table exists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import Callable

import numpy as np

from .errors import CosetCapExceeded, InputError, MlaError, ResourceError
from .groups import FiniteGroup, check_order_cap, spanning_tree, tree_words, validate_cayley
from .util import check_budget

DEFAULT_MAX_COSETS = 200_000
MAX_GENERATORS = 1 << 20  # 2^21 letters: a rotation key's three fields fill 63 bits
EAGER_SCANS = 8192  # np.getbufsize(): the most scans a wave may hold when a coset is defined ahead


@dataclass(frozen=True, eq=False)
class Presentation:
    generator_labels: tuple[str, ...]
    # length -> (their positions in relator order, their (k, length) signed entries)
    by_length: dict[int, tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        """Each length k >= 1 must hold 1-D positions and a (positions, k) word
        array, and every relator entry must name a generator: built here or by
        hand, a presentation that fails this raises InputError."""
        for k, (idx, w) in self.by_length.items():
            if k < 1 or np.ndim(idx) != 1 or np.shape(w) != (len(idx), k):
                shape = f"1-D positions and a (positions, {k}) array"
                raise InputError(f"relators of length {k} are not {shape}", length=k)
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


def _row_keys(relators: np.ndarray, n: int) -> np.ndarray | None:
    """One key per row of a 2-D relator array, first entry highest; None if
    it is empty, not int, past 63 bits or has an entry outside [-n, n]."""
    bits = (2 * n).bit_length()
    if relators.dtype.kind != "i" or not relators.size or relators.shape[1] * bits > 63:
        return None
    rows = relators.astype(np.int64) + n  # range-checked in int64
    if rows.min() < 0 or rows.max() > 2 * n:
        return None
    return reduce(lambda key, col: key << bits | col, rows.T)


def make_presentation(generator_labels, relators) -> Presentation:
    """Relators are words (or rows of a 2-D int array) of signed 1-based
    generator numbers; empty words and repeats after the first are dropped."""
    labels = tuple(map(str, generator_labels))
    if len(set(labels)) != len(labels):
        raise InputError("generator labels are not distinct")
    if isinstance(relators, np.ndarray) and relators.ndim != 2:
        raise InputError("a relator array must be 2-D", shape=list(relators.shape))
    key = _row_keys(relators, len(labels)) if isinstance(relators, np.ndarray) else None
    if key is not None:
        rows = relators[np.sort(np.unique(key, return_index=True)[1])]  # first ones, in input order
        by_length = {rows.shape[1]: (np.arange(len(rows)), rows.astype(np.int64, copy=False))}
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
    # spanning_tree(tbl[:, 0::2], 0), kept when the coset table is proven the
    # group's regular representation (_closes_at_identity): it is then the
    # normal-form tree of the generator images in their own order.  An
    # enumerated table is always proven (complete, consistent, over the
    # trivial subgroup, every relator closing everywhere: the regular
    # representation), so None comes only of a table not made by _Enumerator
    tree: tuple[np.ndarray, np.ndarray, list[np.ndarray]] | None = None


def _rotations(lets: np.ndarray, n: int) -> np.ndarray:
    """Every cyclic rotation of the (k, n) words and of their inverses, by fixed
    column permutations: [r, i] is word i's r-th rotation, [n + r, i] its inverse's."""
    cols = (np.arange(n)[:, None] + np.arange(n)) % n
    both = np.concatenate([lets.T, lets.T[::-1] ^ 1])  # the words' columns, then their inverses'
    return both[np.concatenate([cols, cols + n])].transpose(0, 2, 1)


def _rotation_keys(w3: np.ndarray, B: int) -> np.ndarray:
    """The six rotations (l, x, y) of each word and its inverse, as keys l << 2B | x << B | y."""
    lets = np.empty((2, 5, len(w3)), dtype=np.int64)  # a b c a b, and c^1 b^1 a^1 c^1 b^1
    lets[0, :3], lets[1, :3] = w3.T, w3.T[::-1] ^ 1
    lets[:, 3:] = lets[:, :2]
    return ((lets[:, :3] << B | lets[:, 1:4]) << B | lets[:, 2:]).ravel()


def _rotation_words(by_length, nl: int):
    """Distinct cyclic rotations of the relators and their inverses, by first letter.

    Length-3 words come as one (2, k) int32 block per first letter l, and k
    as counts[l]: the words (l, x, y), in (x, y) order, as the offsets
    y^1 - l and x - (l^1), from the slots (a, l) and (b, l^1) of a deduction
    (a, l) = b to the slots (a, y^1) and (b, x) that its scan reads.  Words
    of every other length are listed per first letter, as tuples.
    """
    B = (nl - 1).bit_length()
    w3 = by_length[3][1] if 3 in by_length else np.empty((0, 3), dtype=np.int64)
    key = _rotation_keys(w3, B)  # its letters are freed before the sort
    key.sort()
    key, m = key[np.diff(key, prepend=-1) != 0], (1 << B) - 1  # distinct; keys are >= 0
    L = key >> 2 * B
    rel = np.empty((2, len(key)), dtype=np.int32)
    rel[0], rel[1] = (key & m ^ 1) - L, (key >> B & m) - (L ^ 1)
    starts = np.searchsorted(L, np.arange(nl + 1))
    blocks = [rel[:, s:e] for s, e in zip(starts.tolist(), starts[1:].tolist())]
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(nl)]
    longer = (_rotations(w, n).reshape(-1, n).tolist() for n, (_, w) in by_length.items() if n != 3)
    for rot in dict.fromkeys(map(tuple, chain.from_iterable(longer))):
        buckets[rot[0]].append(rot)
    return blocks, np.diff(starts), buckets


class _Enumerator:
    def __init__(self, pres: Presentation, max_cosets: int):
        self.nletters = 2 * pres.generator_count
        self.by_length = {  # letters, grouped as the presentation's relators
            n: (i, np.where(w > 0, 2 * w - 2, -2 * w - 1)) for n, (i, w) in pres.by_length.items()
        }
        self.blocks, self.counts, self.buckets = _rotation_words(self.by_length, self.nletters)
        self.longer = any(self.buckets)
        self.max_cosets = max_cosets
        # rows below `defined` are cosets; the rest is room to grow
        self.table = np.full((min(16, max_cosets), self.nletters), -1, dtype=np.int64)
        self.mark = np.full_like(self.table, -1, np.int32).ravel()  # _fills' scratch, per slot
        self.p: list[int] = [0]
        self.deductions: list[tuple[int, int]] = []
        self.cqueue: deque[int] = deque()
        self.defined = 1
        self.collapsed = 0
        self.row = 0  # where run()'s least-gap search resumes
        self.eager = True  # cosets may be defined ahead of a closure (_drain)
        self.waves = 0

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
                self._fill(self.rep(d), l, self.rep(delta), self._merge)

    def _fill(self, f: int, x: int, g: int, merge: Callable[[int, int], None]) -> None:
        """T[f, x] = g and T[g, x^1] = f, pushed as a deduction; where either
        slot is set, merge what it holds with the other end instead."""
        T = self.table
        if (h := int(T[f, x])) >= 0:
            merge(h, g)
        elif (h := int(T[g, x ^ 1])) >= 0:
            merge(f, h)
        else:
            T[f, x], T[g, x ^ 1] = g, f
            self.deductions.append((f, x))

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
        self._fill(f, word[i], b, self._coincide)  # T[f, word[i]] is empty

    def _fills(self, E: np.ndarray, C: np.ndarray, sa: np.ndarray, sb: np.ndarray):
        """The fills forced by a wave's informative scans, where T[a, y^1] = E
        and T[b, x] = C differ (at slots sa and sb): T[f, x] = g as the slots
        (f, x) and (g, x^1) and the value g, one per edge (its last scan's) and
        every coincidence, in scan order; and whether they can be written at
        once: no coincidence, their 2k slots distinct and each (g, x^1) empty."""
        nl, k, mark = self.nletters, np.arange(len(C), dtype=np.int32), self.mark
        # fill (a, y^1) = C when E is missing, else (b, x) = E (a coincidence if C is set)
        missing = E < 0
        fs, g = np.where(missing, sa, sb), np.where(missing, C, E)
        gs = g * nl + (fs % nl ^ 1)
        edge, other = np.minimum(fs, gs), np.maximum(fs, gs)
        coincide = np.minimum(C, E) >= 0
        # The slot pair {edge, other} names a write.  Each scan's index is
        # marked at its edge, then at its other, and read back at both: if no
        # slot lies in two pairs, both hold the pair's last scan.  A slot z of
        # pairs P != Q breaks that for P or Q: as both edges, their others
        # hold different scans; as both others, z holds one scan, whose edge
        # is P's or Q's; as P's edge and Q's other, z and P's other hold
        # scans with different others.
        mark[edge], mark[other] = k, k
        last = mark[edge]
        if not (coincide | (last != mark[other]) | (self.table.ravel()[gs] >= 0)).any():
            keep = (last == k).nonzero()[0]
            return fs[keep], gs[keep], g[keep], True
        fill = ~coincide
        mark[edge[fill]] = k[fill]
        keep = (coincide | (mark[edge] == k)).nonzero()[0]
        return fs[keep], gs[keep], g[keep], False

    def _drain(self, d: np.ndarray) -> None:
        """Close the table under the deductions (a, l) = b given as the slots
        (a, l) and (b, l^1), the columns of d, and those pushed meanwhile,
        defining cosets ahead where it may (see the module docstring)."""
        nl, row, size, first = self.nletters, self.row, self.defined, d
        collapsed, fresh, ahead, self.written = self.collapsed, None, True, []
        while self.deductions or d.size:
            check_budget("coset enumeration")
            self.waves += 1
            Tf = self.table.ravel()  # T[i, j] is Tf[i * nl + j]; a definition may grow T
            if self.deductions or self.collapsed != collapsed:  # else the last wave wrote b
                a, l = np.array(self.deductions, dtype=np.int64).reshape(-1, 2).T
                s = np.concatenate([d[0], a * nl + l])  # in the order they were pushed
                b = Tf[s]
                s, b = s[b >= 0], b[b >= 0]  # a merged coset's row is cleared
                d = np.array([s, b * nl + (s % nl ^ 1)])
                self.deductions, collapsed = [], self.collapsed
                if not d.size:
                    continue
            a, l = divmod(d[0], nl)
            slots = d.repeat(self.counts[l], axis=1)  # each scan's: (a, y^1) above (b, x)
            slots += np.concatenate([self.blocks[j] for j in l.tolist()], axis=1)
            EC = Tf.take(slots)
            i = (EC[0] != EC[1]).nonzero()[0]  # take(i, 1): EC[:, i] is a slower 2-d fancy index
            fills = self._fills(*EC.take(i, 1), *slots.take(i, 1)) if i.size else None
            if fresh is not None and fills and not fills[3]:  # take it back, read the rest again
                self._take_back(fresh, self.defined - 1, -1)
                d, fresh = d[:, :-1], None
                continue
            fresh, d = None, d[:, :0]
            if fills and not fills[3] and self.defined > size:  # undo, and define no more ahead
                self._take_back(row, size)
                d, self.eager = first, False
                continue
            if fills:
                fs, gs, g, at_once = fills
                if at_once:  # no fill reads a slot another one writes
                    Tf[fs], Tf[gs] = g, fs // nl
                    d = np.array([fs, gs])
                    self.written.append(d)
                else:
                    ahead, before, (f, x) = False, self.collapsed, divmod(fs, nl)
                    for f, x, g in zip(f.tolist(), x.tolist(), g.tolist()):
                        if self.collapsed != before:  # the snapshot's cosets may be dead
                            f, g = self.rep(f), self.rep(g)
                        self._fill(f, x, g, self._coincide)
            if self.longer:
                for ai, li in zip(a.tolist(), l.tolist()):
                    for word in self.buckets[li]:
                        if self.table[ai, li] < 0:
                            break
                        self._scan(ai, word)
            elif ahead and self.eager and d.size and self.defined < self.max_cosets:
                if self.counts[d[0] % nl].sum() <= EAGER_SCANS and (gap := self._gap()):
                    fresh, self.row = self.row, gap[0]  # the pointer to go back to
                    self.written.append(self._add(*gap))
                    d = np.concatenate([d, self.written[-1]], axis=1)

    def _take_back(self, row: int, size: int, since: int = 0) -> None:
        """Clear the drain's writes from the since-th on, and the cosets from size on."""
        self.table.ravel()[np.concatenate(self.written[since:], axis=1)] = -1  # none is empty
        del self.written[since:], self.p[size:]
        self.row, self.defined = row, size

    def _add(self, alpha: int, l: int) -> np.ndarray:
        """The next coset as T[alpha, l], as the deduction column of its two slots."""
        cap, new, nl = self.max_cosets, self.defined, self.nletters
        if new >= cap:
            raise CosetCapExceeded(f"coset table would exceed {cap} rows", max_cosets=cap)
        if new == len(self.table):  # double, up to the cap
            self.table = np.concatenate([self.table, np.full_like(self.table[: cap - new], -1)])
            self.mark = np.full_like(self.table, -1, np.int32).ravel()
        self.defined = new + 1
        self.p.append(new)
        self.table[alpha, l], self.table[new, l ^ 1] = new, alpha
        return np.array([[alpha * nl + l], [new * nl + (l ^ 1)]])

    def _gap(self) -> tuple[int, int] | None:
        """The least gap in a live row from the row pointer on, if any."""
        for a in range(self.row, self.defined):  # each drain checks the budget
            l = int(self.table[a].argmin())  # the least gap, if the row has one
            if self.p[a] == a and self.table[a, l] < 0:
                return a, l
        return None

    def run(self) -> None:
        changed = self.nletters > 0  # else the one coset has no gap
        while changed:
            changed, self.row = False, 0
            while gap := self._gap():
                self.row = gap[0]
                self._drain(self._add(*gap))
                changed = True


def _check_relators_close(pres: Presentation, by_length, tbl: np.ndarray) -> None:
    """Every relator must close at every coset of the finished table; raises
    InputError naming the least relator that does not.  Exhaustive: it runs
    only where _closes_at_identity cannot prove closure."""
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


def _closes_at_identity(by_length, tbl: np.ndarray, K: FiniteGroup) -> bool:
    """Whether the table is K's right regular representation and every relator
    closes at coset 0: then every relator closes at every coset.

    K is a group (validate_cayley) with identity 0, the coset of the empty
    word.  If tbl == K.table[:, tbl[0]], every letter l moves a coset a to
    a·g_l, g_l = tbl[0, l] being its image at 0, so a relator l1...lk replayed
    from a ends at a·g_l1···g_lk = a·w, w being where it ends from 0.  As
    a·w = a exactly when w = 1, a relator closes everywhere iff it closes at
    0."""
    if not (tbl == K.table[:, tbl[0]]).all():
        return False
    for _, lets in by_length.values():
        at = np.zeros(len(lets), dtype=np.int64)
        for col in lets.T:
            at = tbl[at, col]
        if at.any():
            return False
    return True


def _cayley(pres: Presentation, tbl: np.ndarray) -> tuple[FiniteGroup, tuple]:
    """The group of a complete coset table, labelled by normal forms, and
    the normal-form tree over its forward letters."""
    m = len(tbl)
    # normal forms: BFS over forward letters; then right multiplication by
    # the elements of one word length at a time, each column one gather from
    # its parent's
    tree = parent, letter, levels = spanning_tree(tbl[:, 0::2], 0)
    if sum(map(len, levels)) != m:
        raise InputError("generator images do not generate the enumerated group")
    cols = np.empty((m, m), dtype=np.int64)  # cols[b] = (x -> x·b)
    cols[0] = np.arange(m)
    for level in levels[1:]:
        cols[level] = tbl[cols[parent[level]], 2 * letter[level][:, None]]
    words = tree_words(*tree)
    gl = pres.generator_labels
    labels = ["·".join(gl[c] for c in words[b]) if words[b] else "1" for b in range(m)]
    return validate_cayley(labels, cols.T), tree


def coset_enumerate(pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS) -> EnumerationResult:
    """Realize the presented group; raises CosetCapExceeded when it cannot.

    Relator closure is proven at coset 0 of a table shown to be the group's
    regular representation (_closes_at_identity).  Where that proof or the
    Cayley assembly fails, the exhaustive _check_relators_close runs first,
    so its error and least relator come before any other."""
    if max_cosets < 1:
        raise InputError("max_cosets must be at least 1")
    if pres.generator_count == 0 and pres.by_length:
        raise InputError("relators over an empty generator set")
    if (n := pres.generator_count) > MAX_GENERATORS:  # before the (16, 2n) coset table exists
        msg = f"{n} generators exceed the {MAX_GENERATORS} that packed rotation keys hold"
        raise ResourceError(msg, generators=n, cap=MAX_GENERATORS)

    eng = _Enumerator(pres, max_cosets)
    eng.run()

    p = np.array(eng.p, dtype=np.int64)
    live = np.flatnonzero(p == np.arange(len(p)))
    m = len(live)
    check_order_cap(m)  # before the m x m Cayley table exists
    raw = eng.table[live]
    eng.table = eng.mark = eng.written = None  # freed before the Cayley assembly, which reads only raw
    if (raw < 0).any():
        raise InputError("enumeration finished with an incomplete row")
    while (p[p] != p).any():
        p = p[p]  # every coset to the live coset of its class
    tbl = (np.cumsum(p == np.arange(len(p))) - 1)[p[raw]]
    try:
        group, tree = _cayley(pres, tbl)
    except MlaError:
        _check_relators_close(pres, eng.by_length, tbl)
        raise
    if not _closes_at_identity(eng.by_length, tbl, group):
        _check_relators_close(pres, eng.by_length, tbl)
        tree = None
    stats = EnumerationStats(eng.defined, eng.collapsed, m)
    return EnumerationResult(pres, group, tbl[0, 0::2].copy(), stats, tree)
