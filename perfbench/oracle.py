"""Axiom checks for the benchmark's correctness gate, written apart from mlacalc.

The formulas are the five axioms of the mla module docstring, evaluated on
plain integer tables (T the Cayley table, S the star, ^z x = z x z^-1):

  1  x*x = 1
  2  x*(y z)   = (x*y) · ^y(x*z)
  3  (x y)*z   = ^x(y*z) · (x*z)
  4  ((x*y) * ^y z) · ((y*z) * ^z x) · ((z*x) * ^x y) = 1
  5  ^z(x*y)   = ^z x * ^z y

``least_violation`` finds the first failing axiom and its least witness for
a star that differs from a valid one in a single entry (a, b).  A tuple whose
evaluation never reads S[a, b] evaluates as it did on the valid star, where
every axiom holds; so only tuples that read that entry can fail, and there
are O(n) of them for axioms 2, 3 and 5 and O(n^2) for axiom 4.  Checking all
of them gives the same answer as an exhaustive scan in far less time.
"""

from __future__ import annotations

import numpy as np


def _conj(T: np.ndarray, inv: np.ndarray, z, x):
    return T[T[z, x], inv[z]]


def violated(axiom: int, T: np.ndarray, S: np.ndarray, x, y=None, z=None):
    """True where the axiom fails at (x, y, z); arrays broadcast elementwise."""
    n = len(T)
    e = int(np.flatnonzero((T == np.arange(n)).all(axis=1))[0])
    inv = np.argmax(T == e, axis=1)
    x = np.asarray(x)
    if axiom == 1:
        return S[x, x] != e
    y, z = np.asarray(y), np.asarray(z)
    if axiom == 2:
        return S[x, T[y, z]] != T[S[x, y], _conj(T, inv, y, S[x, z])]
    if axiom == 3:
        return S[T[x, y], z] != T[_conj(T, inv, x, S[y, z]), S[x, z]]
    if axiom == 4:
        p1 = S[S[x, y], _conj(T, inv, y, z)]
        p2 = S[S[y, z], _conj(T, inv, z, x)]
        p3 = S[S[z, x], _conj(T, inv, x, y)]
        return T[T[p1, p2], p3] != e
    if axiom == 5:
        return _conj(T, inv, z, S[x, y]) != S[_conj(T, inv, z, x), _conj(T, inv, z, y)]
    raise ValueError(f"no axiom {axiom}")


def _candidates(axiom: int, T: np.ndarray, S: np.ndarray, a: int, b: int):
    """Every (x, y, z) whose evaluation of the axiom reads S[a, b]."""
    n = len(T)
    e = int(np.flatnonzero((T == np.arange(n)).all(axis=1))[0])
    inv = np.argmax(T == e, axis=1)
    every = np.arange(n)
    one = np.full(n, 0)

    def solve_conj(g, target):
        # the w with ^g w = target, i.e. w = g^-1 target g
        return T[T[inv[g], target], g]

    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if axiom == 2:  # reads (x, yz), (x, y), (x, z)
        A = one + a
        parts += [(A, one + b, every), (A, every, one + b), (A, every, T[inv[every], b])]
    elif axiom == 3:  # reads (xy, z), (y, z), (x, z)
        B = one + b
        parts += [(one + a, every, B), (every, one + a, B), (every, T[inv[every], a], B)]
    elif axiom == 4:  # reads (x, y), (x*y, ^y z) and their two rotations
        parts += [(one + a, one + b, every), (every, one + a, one + b), (one + b, every, one + a)]
        p, q = np.nonzero(S == a)
        parts += [
            (p, q, solve_conj(q, b)),  # (x*y, ^y z) = (a, b)
            (solve_conj(q, b), p, q),  # (y*z, ^z x) = (a, b)
            (q, solve_conj(q, b), p),  # (z*x, ^x y) = (a, b)
        ]
    elif axiom == 5:  # reads (x, y), (^z x, ^z y)
        parts += [(one + a, one + b, every), (solve_conj(every, a), solve_conj(every, b), every)]
    x, y, z = (np.concatenate(col) for col in zip(*parts))
    return x, y, z


def least_violation(T: np.ndarray, S: np.ndarray, entry: tuple[int, int]) -> tuple[int, list[int]] | None:
    """(axiom, least witness) of a star that is valid except at ``entry``."""
    a, b = entry
    if violated(1, T, S, a):
        return 1, [a]  # S[x, x] is read only at x = a
    n = len(T)
    for axiom in (2, 3, 4, 5):
        x, y, z = _candidates(axiom, T, S, a, b)
        bad = violated(axiom, T, S, x, y, z)
        if bad.any():
            key = (x[bad] * n + y[bad]) * n + z[bad]
            k = int(key.min())
            return axiom, [k // (n * n), (k // n) % n, k % n]
    return None


def first_violation(T: np.ndarray, S: np.ndarray) -> tuple[int, list[int]] | None:
    """Exhaustive version of least_violation, for small orders in tests."""
    n = len(T)
    d = np.flatnonzero(violated(1, T, S, np.arange(n)))
    if d.size:
        return 1, [int(d[0])]
    x, y, z = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    for axiom in (2, 3, 4, 5):
        bad = np.argwhere(violated(axiom, T, S, x, y, z))
        if bad.size:
            return axiom, [int(v) for v in bad[0]]
    return None
