"""Seeded algebra documents for the ``docs`` workload.

Each document is a direct product of two or three corpus groups, of order
96 to 160, with the trivial or the improper (commutator) star written out as
a full table.  Half of the documents have one star entry replaced by another
element; each pairs with a valid document on the same group and star.  Every
such replacement breaks an axiom, because the unperturbed star is a valid
algebra: for an entry (a, b) with a != b and b != 1, axiom 2 at
(a, y, y^-1 b) with y not in {1, b} reads the new entry on the left only;
for b = 1, axiom 2 at (a, 1, 1) gives v = v·v; on the diagonal, axiom 1.

The factor tables are read from the algebra fixtures as data and combined
here with numpy; nothing in this module calls mlacalc, so the program only
ever sees the files this module writes.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIN_ORDER, MAX_ORDER = 96, 160


@dataclass(frozen=True)
class Group:
    labels: tuple[str, ...]
    table: np.ndarray

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def identity(self) -> int:
        idx = np.arange(self.order)
        return int(np.flatnonzero((self.table == idx).all(axis=1))[0])

    @property
    def inverses(self) -> np.ndarray:
        return np.argmax(self.table == self.identity, axis=1)

    @property
    def commutators(self) -> np.ndarray:
        # [x, y] = x y x^-1 y^-1
        T, inv = self.table, self.inverses
        return T[T[T, inv[:, None]], inv[None, :]]


@dataclass(frozen=True)
class DocSpec:
    """What the generator decided for one document."""

    name: str
    factors: tuple[str, ...]
    star: str  # "trivial" or "improper"
    perturbation: tuple[int, int, int] | None  # (x, y, new value of x*y)


def load_factor_groups(fixtures_dir: Path) -> dict[str, Group]:
    """Cayley tables of the corpus groups, from ``<name>-trivial.json``."""
    groups = {}
    for path in sorted(fixtures_dir.glob("*-trivial.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        index = {s: i for i, s in enumerate(doc["elements"])}
        table = np.array([[index[c] for c in row] for row in doc["table"]], dtype=np.int64)
        groups[path.name[: -len("-trivial.json")]] = Group(tuple(doc["elements"]), table)
    return groups


def direct_product(factors: list[Group]) -> Group:
    labels: list[tuple[str, ...]] = [()]
    table = np.zeros((1, 1), dtype=np.int64)
    for f in factors:
        n, m = table.shape[0], f.order
        table = (table[:, None, :, None] * m + f.table[None, :, None, :]).reshape(n * m, n * m)
        labels = [(*lab, s) for lab in labels for s in f.labels]
    return Group(tuple("(" + ",".join(lab) + ")" for lab in labels), table)


def factor_choices(groups: dict[str, Group]) -> list[tuple[str, ...]]:
    """Multisets of 2 or 3 non-trivial factors whose product order is in range."""
    names = sorted(name for name, g in groups.items() if g.order > 1)
    out = []
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(names, k):
            if MIN_ORDER <= _order(combo, groups) <= MAX_ORDER:
                out.append(combo)
    return out


def plan(seed: int, count: int, groups: dict[str, Group]) -> list[DocSpec]:
    """``count`` documents in pairs: one valid, one perturbed, same group and star.

    The seed picks one factor choice from each of count/2 order strata, the
    star of each pair (half trivial, half improper), the row of each
    perturbation from its own stratum of rows, and the order of documents.
    So the sizes and the shares of pass and fail paths are the same for every
    seed, and only the concrete documents change.
    """
    rng = random.Random(seed)
    pairs = count // 2
    choices = sorted(factor_choices(groups), key=lambda c: (_order(c, groups), c))
    edges = [len(choices) * k // pairs for k in range(pairs + 1)]
    factors = [rng.choice(choices[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    stars = ["trivial", "improper"] * (pairs // 2) + ["trivial"] * (pairs % 2)
    rng.shuffle(stars)
    rows = list(range(pairs))
    rng.shuffle(rows)
    docs = []
    for f, star, row in zip(factors, stars, rows):
        n = _order(f, groups)
        x = int((row + rng.random()) * n / pairs)
        pert = (x, rng.randrange(n), rng.randrange(n - 1))  # last: index among the other values
        docs += [(f, star, None), (f, star, pert)]
    rng.shuffle(docs)
    return [
        DocSpec(f"doc{i:02d}-{'_'.join(f)}-{star}" + ("-perturbed" if pert else ""), f, star, pert)
        for i, (f, star, pert) in enumerate(docs)
    ]


def _order(factors: tuple[str, ...], groups: dict[str, Group]) -> int:
    return int(np.prod([groups[name].order for name in factors]))


def build(spec: DocSpec, groups: dict[str, Group]) -> tuple[dict, Group, np.ndarray]:
    """The document, its group, and its star table as element indices."""
    G = direct_product([groups[name] for name in spec.factors])
    n = G.order
    star = np.full((n, n), G.identity) if spec.star == "trivial" else G.commutators.copy()
    if spec.perturbation is not None:
        x, y, k = spec.perturbation
        old = int(star[x, y])
        star[x, y] = k if k < old else k + 1
    names = np.array(G.labels, dtype=object)
    doc = {
        "kind": "algebra",
        "name": spec.name,
        "elements": list(G.labels),
        "table": names[G.table].tolist(),
        "star": names[star].tolist(),
    }
    return doc, G, star


def write(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":"), ensure_ascii=False), encoding="utf-8")
