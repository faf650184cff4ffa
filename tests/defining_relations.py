"""The tensor's four defining relations and its star seed, evaluated on the
symbol table of a built tensor.

The program builds its presentation from these relations
(``tensor._defining_relations``) and never re-evaluates them, so this
check lives with the tests: a plain module, imported by the tensor tests.
"""

from __future__ import annotations

import numpy as np

from mlacalc.tensor import _defining_relations, star_seed_indices
from mlacalc.util import CheckReport, scan


def _first_failing(name, slabs):
    """A report over single slabs, each prefixed by its detail: the first
    failing slab names the detail and the witness, the tuples counted up to
    and including it."""
    at, checked = scan(name, slabs)
    if at is None:
        return CheckReport(name, True, checked)
    return CheckReport(name, False, checked, at[1:], at[0])


def check_defining_relations(t):
    """All four defining relations, evaluated on the symbol table, and the star seed."""
    K = t.group
    syms = t.tensor_map.ravel()

    def slabs():
        for detail, rel in _defining_relations(t.pair):
            v = syms[np.abs(rel) - 1]
            v = np.where(rel < 0, K.inverses[v], v)
            yield (detail,), K.table[K.table[v[..., 0], v[..., 1]], v[..., 2]] != K.identity

        img = t.result.gen_image
        lhs = t.algebra.star[img[:, None], img[None, :]]
        yield ("star seed",), lhs != img[star_seed_indices(t.pair)]

    return _first_failing("tensor-defining-relations", slabs())
