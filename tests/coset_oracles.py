"""The enumeration's set-up as it was built before its keys were packed.

``rotation_words`` keyed each rotation (l, x, y) as nl²·l + nl·x + y by an
integer matmul over a (6, R, 3) gather, split the sorted keys back with
divmod, % and //, and cut the blocks per letter with np.split.
``dedupe_rows`` kept the first occurrence of each relator row through
np.unique on a void view of the rows.  The packed forms in ``coset`` must
give byte-identical blocks, counts, buckets and rows
(``tests/test_coset_setup.py``).  A plain module, imported by that test.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from mlacalc.coset import _rotations


def rotation_words(by_length, nl):
    """(blocks, counts, buckets), as coset._rotation_words gives them."""
    w3 = by_length[3][1] if 3 in by_length else np.empty((0, 3), dtype=np.int64)
    key = np.sort(_rotations(w3, 3) @ [nl * nl, nl, 1], axis=None)  # (l, x, y) by first letter
    L, key = np.divmod(key[np.diff(key, prepend=-1) != 0], nl * nl)  # keys are >= 0
    rel = np.empty((2, len(key)), dtype=np.int32)
    rel[0], rel[1] = (key % nl ^ 1) - L, key // nl - (L ^ 1)
    blocks = np.split(rel, np.searchsorted(L, np.arange(1, nl)), axis=1)
    buckets = [[] for _ in range(nl)]
    longer = (_rotations(w, n).reshape(-1, n).tolist() for n, (_, w) in by_length.items() if n != 3)
    for rot in dict.fromkeys(map(tuple, chain.from_iterable(longer))):
        buckets[rot[0]].append(rot)
    counts = np.array([b.shape[1] for b in blocks], dtype=np.int64)
    return blocks, counts, buckets


def dedupe_rows(relators):
    """The first occurrence of each row of a non-empty 2-D int array, in
    input order, as int64."""
    rows = np.ascontiguousarray(relators, dtype=np.int64)
    first = np.unique(rows.view(np.dtype((np.void, 8 * rows.shape[1]))), return_index=True)[1]
    return rows[np.sort(first)]
