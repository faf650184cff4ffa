"""The wave closure of coset.py against the scalar Felsch enumerator it replaced.

The reference below is the per-deduction enumerator and Cayley assembly
as they stood before deductions were drained in waves: every deduction
scans every rotation word in its letter's bucket, one Python scan at a
time.  Both must define the same cosets in the same order, collapse the
same ones and leave the same table, so that labels, Cayley tables and
generator images are byte-identical.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlacalc import coset, tensor
from mlacalc.corpus import group_names
from mlacalc.coset import coset_enumerate, make_presentation
from mlacalc.errors import CosetCapExceeded
from mlacalc.tensor import build_tensor_presentation
from .self_pairs import gl2_f2_self_pair, self_pair

# --- the scalar reference ------------------------------------------------------------


def _letters_of(rel):
    return tuple(2 * (e - 1) if e > 0 else 2 * (-e - 1) + 1 for e in rel)


def _invert(word):
    return tuple(l ^ 1 for l in reversed(word))


def _rotation_buckets(relators, nletters):
    buckets = [[] for _ in range(nletters)]
    seen = set()
    for rel in relators:
        for base in (_letters_of(rel), _invert(_letters_of(rel))):
            for k in range(len(base)):
                rot = base[k:] + base[:k]
                if rot not in seen:
                    seen.add(rot)
                    buckets[rot[0]].append(rot)
    return buckets


class _ScalarEnumerator:
    def __init__(self, pres, max_cosets):
        self.nletters = 2 * pres.generator_count
        self.buckets = _rotation_buckets(pres.relators, self.nletters)
        self.max_cosets = max_cosets
        self.table = [[-1] * self.nletters]
        self.p = [0]
        self.deductions = []
        self.cqueue = deque()
        self.defined = 1
        self.collapsed = 0

    def rep(self, a):
        r = a
        while self.p[r] != r:
            r = self.p[r]
        while self.p[a] != r:
            self.p[a], a = r, self.p[a]
        return r

    def alive(self, a):
        return self.p[a] == a

    def _merge(self, a, b):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        self.collapsed += 1
        self.cqueue.append(b)

    def _coincide(self, a, b):
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

    def _scan(self, alpha, word):
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
            return
        exb = self.table[b][word[i] ^ 1]
        if exb >= 0:
            self._coincide(f, exb)
        else:
            self.table[f][word[i]] = b
            self.table[b][word[i] ^ 1] = f
            self.deductions.append((f, word[i]))

    def _drain(self):
        while self.deductions:
            a, l = self.deductions.pop()
            if not self.alive(a) or self.table[a][l] < 0:
                continue
            for word in self.buckets[l]:
                self._scan(a, word)
                if not self.alive(a) or self.table[a][l] < 0:
                    break

    def _define(self, alpha, l):
        if self.defined >= self.max_cosets:
            raise CosetCapExceeded("cap", max_cosets=self.max_cosets)
        new = len(self.table)
        self.table.append([-1] * self.nletters)
        self.p.append(new)
        self.defined += 1
        self.table[alpha][l] = new
        self.table[new][l ^ 1] = alpha
        self.deductions.append((alpha, l))
        self._drain()

    def run(self):
        changed = True
        while changed:
            changed = False
            alpha = 0
            while alpha < len(self.table):
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


def _scalar_cayley(pres, eng):
    """Labels, Cayley table and generator images, assembled letter by letter."""
    live = [a for a in range(len(eng.table)) if eng.alive(a)]
    m = len(live)
    index = {a: i for i, a in enumerate(live)}
    tbl = np.array([[index[eng.rep(t)] for t in eng.table[a]] for a in live], dtype=np.int64)
    words = [None] * m
    words[0] = ()
    queue = [0]
    for c in queue:
        for g in range(pres.generator_count):
            nx = int(tbl[c, 2 * g])
            if words[nx] is None:
                words[nx] = words[c] + (g,)
                queue.append(nx)
    cayley = np.empty((m, m), dtype=np.int64)
    for b in range(m):
        cur = np.arange(m)
        for g in words[b]:
            cur = tbl[cur, 2 * g]
        cayley[:, b] = cur
    labels = tuple("1" if not w else "·".join(pres.generator_labels[g] for g in w) for w in words)
    return labels, cayley, tbl[0, 0::2]


# --- comparison ------------------------------------------------------------------------


def _run(cls, pres, max_cosets):
    eng = cls(pres, max_cosets)
    try:
        eng.run()
    except CosetCapExceeded:
        return eng, True
    return eng, False


def _assert_same_closure(pres, max_cosets=coset.DEFAULT_MAX_COSETS):
    ref, ref_capped = _run(_ScalarEnumerator, pres, max_cosets)
    new, new_capped = _run(coset._Enumerator, pres, max_cosets)
    assert new_capped == ref_capped
    assert (new.defined, new.collapsed) == (ref.defined, ref.collapsed)
    # the partition; the raw union-find differs wherever paths were compressed
    assert [new.rep(a) for a in range(new.defined)] == [ref.rep(a) for a in range(len(ref.p))]
    assert np.array_equal(new.table[: new.defined], np.array(ref.table, dtype=np.int64))
    if ref_capped:
        return
    labels, cayley, gen_image = _scalar_cayley(pres, ref)
    res = coset_enumerate(pres, max_cosets)
    assert (res.stats.cosets_defined, res.stats.cosets_collapsed) == (ref.defined, ref.collapsed)
    assert res.stats.live == len(labels)
    assert res.group.labels == labels
    assert np.array_equal(res.group.table, cayley)
    assert np.array_equal(res.gen_image, gen_image)


# C2xC2xC2 is the order-512 benchmark rung: seconds under the scalar reference
CORPUS_PAIRS = [(n, s) for n in group_names() if n != "C2xC2xC2" for s in ("trivial", "improper")]


@pytest.mark.parametrize("name,star", CORPUS_PAIRS, ids=[f"{n}-{s}" for n, s in CORPUS_PAIRS])
def test_corpus_pairs_match_the_scalar_closure(name, star):
    _assert_same_closure(build_tensor_presentation(self_pair(name, star)))


@pytest.mark.parametrize("name", group_names())
def test_tensor_relator_array_matches_its_list(name, monkeypatch):
    # the tensor presentation's rows, through the array path and as lists
    rows = []
    monkeypatch.setattr(tensor, "make_presentation", lambda labels, r: rows.append((labels, r)))
    for star in ("trivial", "improper"):
        build_tensor_presentation(self_pair(name, star))
    for labels, r in rows:
        arr, lst = make_presentation(labels, r), make_presentation(labels, r.tolist())
        assert arr.relators == lst.relators
        a, b = coset_enumerate(arr), coset_enumerate(lst)
        assert a.stats == b.stats and a.group.labels == b.group.labels
        assert np.array_equal(a.group.table, b.group.table)
        assert np.array_equal(a.gen_image, b.gen_image)


def test_reference_pairs_match_the_scalar_closure(pairs):
    for pair in pairs.values():
        _assert_same_closure(build_tensor_presentation(pair))


def test_longer_relators_match_the_scalar_closure():
    # fixpoint rounds append words longer than 3; these take the scalar path
    base = build_tensor_presentation(self_pair("S3", "improper"))
    rng = np.random.default_rng(7)
    n = base.generator_count
    extra = [
        tuple(int(e) for e in rng.choice([-1, 1], size=k) * rng.integers(1, n + 1, size=k))
        for k in rng.integers(4, 7, size=24)
    ]
    pres = make_presentation(base.generator_labels, base.relators + tuple(extra))
    assert {len(r) for r in pres.relators} >= {3, 4, 5, 6}
    _assert_same_closure(pres)


@st.composite
def _presentations(draw):
    ngen = draw(st.integers(1, 3))
    letter = st.integers(1, ngen).flatmap(lambda g: st.sampled_from((g, -g)))
    rels = draw(st.lists(st.lists(letter, min_size=1, max_size=6), min_size=1, max_size=5))
    return make_presentation([f"g{i}" for i in range(ngen)], rels)


def _pres(*rels):
    return make_presentation([f"g{i}" for i in range(max(abs(e) for r in rels for e in r))], rels)


@settings(max_examples=150, deadline=None)
@given(pres=_presentations(), max_cosets=st.integers(1, 60))
# each of these loses a deduction if two one-gap scans that fill different
# edges share a dedupe key
@example(pres=_pres((-1, -1, -3), (2, 3, 3), (-2, -3, 1), (-3, 2, -3)), max_cosets=224)
@example(
    pres=_pres(
        (-2,), (-2, -1, 1, 2, -1), (1, 2, -1, -1, -3, 1), (-1, 2, 1), (1, -1, -3),
        (2, -2, -2, 1, 1, -1),
    ),
    max_cosets=37,
)
def test_small_presentations_match_the_scalar_closure(pres, max_cosets):
    # infinite or large groups hit the cap, which must fall at the same definition
    _assert_same_closure(pres, max_cosets)


@st.composite
def _length3_presentations(draw):
    ngen = draw(st.integers(2, 4))
    letter = st.integers(1, ngen).flatmap(lambda g: st.sampled_from((g, -g)))
    rels = draw(st.lists(st.lists(letter, min_size=3, max_size=3), min_size=1, max_size=5))
    return make_presentation([f"g{i}" for i in range(ngen)], rels)


@settings(max_examples=150, deadline=None)
@given(pres=_length3_presentations(), max_cosets=st.integers(1, 200))
# two scans of one wave fill the same slot with different cosets
@example(pres=_pres((2, 1, 2), (2, 2, -1)), max_cosets=53)
# a merge, then fills in the same wave that name a coset it killed
@example(pres=_pres((1, -2, 2), (2, 2, 1)), max_cosets=8)
def test_length3_presentations_match_the_scalar_closure(pres, max_cosets):
    # every scan takes the wave path: no relator is longer than 3
    assert {len(r) for r in pres.relators} == {3}
    _assert_same_closure(pres, max_cosets)


# --- one-step wave writes ---------------------------------------------------------------


def _enumerated(pres):
    res = coset_enumerate(pres)
    return res.stats, res.group.labels, res.group.table.tobytes(), res.gen_image.tobytes()


ALL_PAIRS = [(n, s) for n in group_names() for s in ("trivial", "improper")]
PROOF_PAIRS = ALL_PAIRS + [("gl2(F2)", "bracket")]


@pytest.mark.parametrize("name,star", ALL_PAIRS, ids=[f"{n}-{s}" for n, s in ALL_PAIRS])
def test_one_step_wave_writes_match_the_sequential_loop(name, star, monkeypatch):
    # C2xC2xC2 included: the order-512 rung, where most waves are written at once
    pres = build_tensor_presentation(self_pair(name, star))
    at_once = _enumerated(pres)
    fills = coset._Enumerator._fills  # the same fills, each through the loop
    monkeypatch.setattr(coset._Enumerator, "_fills", lambda self, *scans: (*fills(self, *scans)[:3], False))
    assert _enumerated(pres) == at_once


def test_a_wave_with_a_coincidence_takes_the_sequential_loop(monkeypatch):
    fills, seen = coset._Enumerator._fills, []

    def spy(self, E, C, sa, sb):
        out = fills(self, E, C, sa, sb)
        seen.append((bool((np.minimum(E, C) >= 0).any()), out[3]))  # (a coincidence, at once)
        return out

    monkeypatch.setattr(coset._Enumerator, "_fills", spy)
    res = coset_enumerate(build_tensor_presentation(self_pair("D6", "trivial")))
    assert res.stats.cosets_collapsed == 7
    assert (True, False) in seen and (False, True) in seen
    assert (True, True) not in seen


def test_the_order_512_enumeration_is_frozen(monkeypatch):
    # the union-find, Cayley table, generator images and labels as the
    # enumerator of 89ee6ba left them
    engines, run = [], coset._Enumerator.run
    monkeypatch.setattr(coset._Enumerator, "run", lambda self: (engines.append(self), run(self))[1])
    res = coset_enumerate(build_tensor_presentation(self_pair("C2xC2xC2", "trivial")))
    assert astuple(res.stats) == (513, 1, 512)
    parts = (np.array(engines[0].p, dtype=np.int64), res.group.table, res.gen_image)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in parts) + "\n".join(res.group.labels).encode())
    assert digest.hexdigest() == "534a3f48239256dbdd9df5dbd503faa5415f07256dccaf4accba87fdb5e400e1"


# --- cosets defined ahead of a closure ---------------------------------------------------


def _one_at_a_time(monkeypatch):
    """Every closure ends before the next definition: no wave is small enough
    for a coset to be defined ahead of it."""
    monkeypatch.setattr(coset, "EAGER_SCANS", -1)


def _engine(pres, max_cosets=coset.DEFAULT_MAX_COSETS):
    """The enumerator's state where it stops: capped or not, the cap's payload,
    stats, the partition and the table."""
    eng = coset._Enumerator(pres, max_cosets)
    try:
        eng.run()
        payload = None
    except CosetCapExceeded as exc:
        payload = exc.payload
    reps = [eng.rep(a) for a in range(eng.defined)]
    return payload, eng.defined, eng.collapsed, reps, eng.table[: eng.defined].tobytes()


def _both(pres, read):
    """read(pres) with cosets defined ahead, and one definition at a time."""
    ahead = read(pres)
    with pytest.MonkeyPatch.context() as m:
        _one_at_a_time(m)
        return ahead, read(pres)


@pytest.mark.parametrize("name,star", PROOF_PAIRS, ids=[f"{n}-{s}" for n, s in PROOF_PAIRS])
def test_defining_ahead_matches_one_definition_at_a_time(name, star):
    # all 48 corpus self pairs (C2xC2xC2, the order-512 rung, included) and gl2(F2)
    pres = build_tensor_presentation(gl2_f2_self_pair() if star == "bracket" else self_pair(name, star))
    ahead, alone = _both(pres, _enumerated)
    assert ahead == alone


@settings(max_examples=150, deadline=None)
@given(pres=_length3_presentations(), max_cosets=st.integers(1, 200))
def test_defining_ahead_matches_on_small_presentations(pres, max_cosets):
    # length-3 relators only, so that cosets may be defined ahead; the cap
    # falls at the same definition, on the same table
    ahead, alone = _both(pres, lambda p: _engine(p, max_cosets))
    assert ahead == alone
    if ahead[0] is None:
        assert len(set(_both(pres, _enumerated))) == 1


def _take_backs(monkeypatch):
    """Spy on _take_back: "take-back" for one fresh definition (since=-1),
    "undo" for the whole drain (since=0)."""
    seen, take_back = [], coset._Enumerator._take_back

    def spy(self, row, size, since=0):
        seen.append("take-back" if since else "undo")
        take_back(self, row, size, since)

    monkeypatch.setattr(coset._Enumerator, "_take_back", spy)
    return seen


def test_the_order_512_enumeration_takes_definitions_back(monkeypatch):
    seen = _take_backs(monkeypatch)
    engines, run = [], coset._Enumerator.run
    monkeypatch.setattr(coset._Enumerator, "run", lambda self: (engines.append(self), run(self))[1])
    coset_enumerate(build_tensor_presentation(self_pair("C2xC2xC2", "trivial")))
    assert seen == ["take-back", "take-back"]
    # 1,675 waves when each definition waited for its closure to end; two
    # of the 523 read a wave again without its fresh definition
    assert engines[0].waves == 523 and engines[0].eager


@pytest.mark.parametrize("name,star", [("D6", "trivial"), ("Dic3", "improper")])
def test_a_coincidence_after_a_kept_definition_undoes_the_drain(name, star, monkeypatch):
    seen = _take_backs(monkeypatch)
    engines, run = [], coset._Enumerator.run
    monkeypatch.setattr(coset._Enumerator, "run", lambda self: (engines.append(self), run(self))[1])
    pres = build_tensor_presentation(self_pair(name, star))
    ahead = _enumerated(pres)
    assert "undo" in seen and not engines[0].eager  # none defined ahead after an undo
    _one_at_a_time(monkeypatch)
    assert _enumerated(pres) == ahead


@pytest.mark.parametrize("max_cosets", [1, 2, 50, 512, 513])
def test_the_order_512_cap_falls_where_it_did(max_cosets):
    pres = build_tensor_presentation(self_pair("C2xC2xC2", "trivial"))
    ahead, alone = _both(pres, lambda p: _engine(p, max_cosets))
    assert ahead == alone
    assert ahead[0] == (None if max_cosets == 513 else {"max_cosets": max_cosets})


# --- relator closure proven at coset 0, and the enumeration's normal-form tree ----------


@pytest.mark.parametrize("name,star", PROOF_PAIRS, ids=[f"{n}-{s}" for n, s in PROOF_PAIRS])
def test_closure_at_coset_0_agrees_with_the_exhaustive_check(name, star, monkeypatch):
    # C2xC2xC2 included: the order-512 rung
    proofs, closes, exhaustive = [], coset._closes_at_identity, coset._check_relators_close

    def spy(by_length, tbl, K):
        proofs.append((by_length, tbl, closes(by_length, tbl, K)))
        return proofs[-1][2]

    def refuse(*args):
        raise AssertionError("the exhaustive closure check ran")

    monkeypatch.setattr(coset, "_closes_at_identity", spy)
    monkeypatch.setattr(coset, "_check_relators_close", refuse)
    pres = build_tensor_presentation(gl2_f2_self_pair() if star == "bracket" else self_pair(name, star))
    res = coset_enumerate(pres)
    [(by_length, tbl, proven)] = proofs
    assert proven
    exhaustive(pres, by_length, tbl)  # every relator closes at every coset
    # the table is the regular representation: the tree over its forward
    # letters is the default normal-form tree over the generator images
    want = tensor._normal_forms(res.group, res.gen_image, "default")
    assert np.array_equal(res.tree[0], want[0]) and np.array_equal(res.tree[1], want[1])
    assert [lv.tolist() for lv in res.tree[2]] == [lv.tolist() for lv in want[2]]
