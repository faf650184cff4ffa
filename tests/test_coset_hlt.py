"""The tensor's coset enumeration against an independent method.

The reference below is a plain Haselgrove-Leech-Trotter enumerator: it
takes the live cosets in order, scans every relator from each one and
defines a coset at every gap the scan meets, then fills the rest of the
row.  It defines its cosets in another order than coset.py's
definition-order enumerator, so only the standardized tables can agree:
cosets renumbered by first appearance in a breadth-first search from
coset 0 over the letters g1, g1^-1, g2, g2^-1, ...  Since the product
already numbers its cosets that way, the reference's forward columns must
equal the product's regular representation, K.table[:, gen_image], byte
for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from mlacalc.corpus import group_names
from mlacalc.coset import coset_enumerate
from mlacalc.tensor import build_tensor_algebra, build_tensor_presentation
from .self_pairs import gl2_f2_self_pair, self_pair


MAX_COSETS = 20_000  # the order-512 tensor defines 2,000-5,000 cosets here, dead ones included


def _hlt_forward_table(pres):
    """The standardized forward-letter columns of the enumerated coset table."""
    nl = 2 * pres.generator_count  # letter 2i is generator i + 1, 2i + 1 its inverse
    rels = [[2 * (e - 1) if e > 0 else 2 * (-e - 1) + 1 for e in w] for w in pres.relators]
    table, p = [[-1] * nl], [0]

    def rep(c):
        while p[c] != c:
            p[c] = c = p[p[c]]
        return c

    def define(a, x):
        assert len(table) < MAX_COSETS, "coset cap"
        table.append([-1] * nl)
        p.append(len(p))
        table[a][x], table[-1][x ^ 1] = len(p) - 1, a

    def coincide(a, b):
        queue = []

        def merge(k, m):
            k, m = sorted((rep(k), rep(m)))
            if k != m:
                p[m] = k
                queue.append(m)

        merge(a, b)
        for dead in queue:  # grows while it is read
            for x, d in enumerate(table[dead]):
                if d < 0:
                    continue
                table[d][x ^ 1] = -1
                mu, nu = rep(dead), rep(d)
                if table[mu][x] >= 0:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] >= 0:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x], table[nu][x ^ 1] = nu, mu

    a = 0
    while a < len(table):
        for w in rels:
            if p[a] != a:
                break
            # scan w from a, defining a coset at each gap the scan meets
            f, i, b, j = a, 0, a, len(w) - 1
            while True:
                while i <= j and (g := table[f][w[i]]) >= 0:
                    f, i = g, i + 1
                if i > j:
                    if f != a:
                        coincide(f, a)
                    break
                while j >= i and (g := table[b][w[j] ^ 1]) >= 0:
                    b, j = g, j - 1
                if j < i:
                    coincide(f, b)
                    break
                if j == i:
                    table[f][w[i]], table[b][w[i] ^ 1] = b, f
                    break
                define(f, w[i])
        for x in range(nl):
            if p[a] == a and table[a][x] < 0:
                define(a, x)
        a += 1
    # renumber by first appearance: a BFS from coset 0 over the letters in order
    order, new = [0], {0: 0}
    for c in order:
        for d in table[c]:
            if d not in new:
                new[d] = len(order)
                order.append(d)
    return np.array([[new[table[c][x]] for x in range(0, nl, 2)] for c in order], dtype=np.int64)


# the 48 corpus self pairs; the two C1 pairs take the one-element shortcut
# and enumerate nothing.  C2xC2xC2 gives the order-512 tensor C2^9.
SELF_PAIRS = [(n, s) for n in group_names() if n != "C1" for s in ("trivial", "improper")]


def _assert_matches_hlt(res):
    want = np.ascontiguousarray(res.group.table[:, res.gen_image], dtype=np.int64)
    assert _hlt_forward_table(res.presentation).tobytes() == want.tobytes()


@pytest.mark.parametrize("name,star", SELF_PAIRS, ids=[f"{n}-{s}" for n, s in SELF_PAIRS])
def test_corpus_tensors_match_the_hlt_enumerator(name, star):
    # every corpus self tensor takes one star round, so this is its final table
    _assert_matches_hlt(coset_enumerate(build_tensor_presentation(self_pair(name, star))))


def test_reference_tensors_match_the_hlt_enumerator(tensors):
    for t in tensors.values():
        _assert_matches_hlt(t.result)


def test_second_round_presentation_matches_the_hlt_enumerator():
    t = build_tensor_algebra(gl2_f2_self_pair())
    assert t.rounds == 2 and t.extra_relators  # the final round's presentation
    _assert_matches_hlt(t.result)
