"""External JSON instance documents.

One hand-authorable format covers three kinds of instance:

  algebra  {"kind": "algebra", "name"?, "elements": [names...],
            "table": [[names]], "star": [[names]] | "trivial" | "improper"}
  pair     {"kind": "pair", "name"?, "g": <algebra>, "h": <algebra>,
            "g_on_h": {"phi": [[names]] | "conjugation" | "trivial",
                       "bracket": [[names]] | "star" | "trivial"},
            "h_on_g": {...}}
  tensor   {"kind": "tensor", "name"?, "pair": <pair>,
            "max_cosets"?, "max_rounds"?}

All tables are written with element names, never indices; ``table[i][j]``
is the name of the product of the i-th and j-th declared elements, and an
action table is indexed actor-major.  Shorthands expand here, before any
core module sees the data, and one reader (_read_table) reads every star,
phi and bracket table: a table of names, or a shorthand that names a builder.
"conjugation" and "star" require the two pair factors to be the same algebra
(their nodes must match element for element), in which case a single shared
object is built so downstream self-pair detection works.

Parsing separates structural problems (bad JSON, unknown names, shape
mismatches: InputError) from mathematical ones (a table that is not a
group, a star that breaks an axiom, an action law failure: MathViolation).
A top-level algebra document is checked only structurally so the validate
command can run and report the axiom suite itself; the factor algebras of
a pair are fully validated, since actions only mean anything on algebras
that satisfy the axioms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .actions import CompatiblePair, MlaAction, check_compatibility, validate_action
from .errors import InputError
from .groups import FiniteGroup, validate_cayley
from .harness import KINDS
from .mla import MultLieAlg, make_algebra


@dataclass(frozen=True)
class TensorJob:
    """A tensor build request; cap fields of None defer to CLI defaults."""

    pair: CompatiblePair
    name: str
    max_cosets: int | None = None
    max_rounds: int | None = None


@dataclass(frozen=True, eq=False)
class ParsedDocument:
    kind: str
    name: str
    algebra: MultLieAlg | None = None
    pair: CompatiblePair | None = None
    job: TensorJob | None = None


def load_document(path: str) -> ParsedDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise InputError(f"cannot read {path}: {ex}", path=path) from ex
    return parse_document(text)


def parse_document(data: str | Mapping[str, Any]) -> ParsedDocument:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except ValueError as ex:
            raise InputError(f"document is not valid JSON: {ex}") from ex
    if not isinstance(data, Mapping):
        raise InputError("document root must be a JSON object")

    kind = data.get("kind") or _infer_kind(data)
    if kind not in KINDS:
        raise InputError(f"unknown document kind {kind!r}; expected one of {', '.join(KINDS)}")
    name = _get_name(data, kind)

    if kind == "algebra":
        return ParsedDocument(kind, name, algebra=_parse_algebra(data, "algebra"))
    if kind == "pair":
        return ParsedDocument(kind, name, pair=_parse_pair(data, "pair"))

    node = data.get("pair")
    if not isinstance(node, Mapping):
        raise InputError("tensor document needs a 'pair' object")
    pair = _parse_pair(node, "tensor.pair")
    job = TensorJob(
        pair,
        name,
        max_cosets=_get_cap(data, "max_cosets"),
        max_rounds=_get_cap(data, "max_rounds"),
    )
    return ParsedDocument(kind, name, pair=pair, job=job)


def _infer_kind(data: Mapping[str, Any]) -> str:
    if "pair" in data:
        return "tensor"
    if "g" in data and "h" in data:
        return "pair"
    if "elements" in data:
        return "algebra"
    raise InputError("cannot infer document kind; add a 'kind' field")


def _get_name(data: Mapping[str, Any], fallback: str) -> str:
    name = data.get("name", fallback)
    if not isinstance(name, str) or not name:
        raise InputError("'name' must be a non-empty string")
    return name


def _get_cap(data: Mapping[str, Any], key: str) -> int | None:
    raw = data.get(key)
    if raw is None:
        return None
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
        raise InputError(f"'{key}' must be a positive integer", value=raw)
    return raw


def _name_table(node: Any, rows: Mapping[str, int], cols: Mapping[str, int], where: str) -> np.ndarray:
    """rows-by-cols table of column names -> index array."""
    if not isinstance(node, list) or len(node) != len(rows):
        raise InputError(f"{where} must be a list of {len(rows)} rows")
    out = np.empty((len(rows), len(cols)), dtype=np.int64)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != len(cols):
            raise InputError(f"{where}[{i}] must be a list of {len(cols)} names")
        for j, cell in enumerate(row):
            try:
                out[i, j] = cols[cell]
            except (KeyError, TypeError):
                raise InputError(
                    f"{where}[{i}][{j}] is {cell!r}, not a declared element name"
                ) from None
    return out


def _read_table(
    node: Any, rows: Mapping[str, int], cols: Mapping[str, int], where: str, shorthands: Mapping
) -> np.ndarray:
    """A table of names, or the table that ``shorthands[node]()`` builds: one
    zero-argument builder per shorthand string, so only the one used is made."""
    if isinstance(node, str) and node in shorthands:
        return shorthands[node]()
    return _name_table(node, rows, cols, where)


def _parse_algebra(node: Mapping[str, Any], where: str, check: bool = False) -> MultLieAlg:
    elements = node.get("elements")
    if not isinstance(elements, list) or not all(isinstance(s, str) for s in elements):
        raise InputError(f"{where}.elements must be a list of strings")
    index = {s: i for i, s in enumerate(elements)}
    if len(index) != len(elements):
        dupes = sorted({s for s in elements if elements.count(s) > 1})
        raise InputError(f"{where}.elements has duplicate names: {', '.join(dupes)}")

    table = _name_table(node.get("table"), index, index, f"{where}.table")
    group = validate_cayley(elements, table)

    if node.get("star") is None:
        raise InputError(f"{where}.star is required (a table, 'trivial', or 'improper')")
    n = group.order
    shorthands = {
        "trivial": lambda: np.full((n, n), group.identity, dtype=np.int64),
        "improper": lambda: group.comm_table.copy(),
    }
    star = _read_table(node["star"], index, index, f"{where}.star", shorthands)
    if check:
        return make_algebra(group, star)
    return MultLieAlg(group, star)


def _algebra_key(node: Mapping[str, Any]) -> Any:
    """Structural identity of an algebra node, shorthands included."""
    return json.dumps(
        {k: node.get(k) for k in ("elements", "table", "star")}, sort_keys=True
    )


def _refuse(where: str, name: str) -> np.ndarray:
    """What a self-pair-only shorthand builds on a pair of two algebras: an error."""
    raise InputError(f"{where}: '{name}' needs both factors to be the same algebra")


def _parse_action(
    node: Any, actor: MultLieAlg, acted: MultLieAlg, selfpair: bool, where: str
) -> MlaAction:
    if not isinstance(node, Mapping):
        raise InputError(f"{where} must be an object with 'phi' and 'bracket'")
    if "phi" not in node or "bracket" not in node:
        raise InputError(f"{where} needs both 'phi' and 'bracket'")
    H = acted.group
    rows = {s: i for i, s in enumerate(actor.group.labels)}
    cols = {s: i for i, s in enumerate(H.labels)}
    phi_at, bracket_at = f"{where}.phi", f"{where}.bracket"
    phi_shorthands = {
        "trivial": lambda: np.tile(np.arange(H.order, dtype=np.int64), (actor.order, 1)),
        "conjugation": lambda: H.conj_table if selfpair else _refuse(phi_at, "conjugation"),
    }
    bracket_shorthands = {
        "trivial": lambda: np.full((actor.order, H.order), H.identity, dtype=np.int64),
        "star": lambda: acted.star if selfpair else _refuse(bracket_at, "star"),
    }
    phi = _read_table(node["phi"], rows, cols, phi_at, phi_shorthands)
    bracket = _read_table(node["bracket"], rows, cols, bracket_at, bracket_shorthands)
    return validate_action(actor, acted, phi, bracket)


def _parse_pair(node: Mapping[str, Any], where: str) -> CompatiblePair:
    for key in ("g", "h", "g_on_h", "h_on_g"):
        if key not in node:
            raise InputError(f"{where} needs a '{key}' field")
    gnode, hnode = node["g"], node["h"]
    if not isinstance(gnode, Mapping) or not isinstance(hnode, Mapping):
        raise InputError(f"{where}.g and {where}.h must be algebra objects")
    selfpair = _algebra_key(gnode) == _algebra_key(hnode)
    G = _parse_algebra(gnode, f"{where}.g", check=True)
    H = G if selfpair else _parse_algebra(hnode, f"{where}.h", check=True)
    g_on_h = _parse_action(node["g_on_h"], G, H, selfpair, f"{where}.g_on_h")
    h_on_g = _parse_action(node["h_on_g"], H, G, selfpair, f"{where}.h_on_g")
    return check_compatibility(g_on_h, h_on_g)


# --- serialization -----------------------------------------------------------


def _names(group: FiniteGroup, table: np.ndarray) -> list[list[str]]:
    return [[group.labels[int(v)] for v in row] for row in table]


def algebra_document(M: MultLieAlg, name: str = "algebra") -> dict[str, Any]:
    G = M.group
    return {
        "kind": "algebra",
        "name": name,
        "elements": list(G.labels),
        "table": _names(G, G.table),
        "star": _names(G, M.star),
    }


def _action_document(act: MlaAction) -> dict[str, Any]:
    acted = act.acted.group
    return {
        "phi": _names(acted, act.phi),
        "bracket": _names(acted, act.bracket),
    }


def pair_document(pair: CompatiblePair, name: str = "pair") -> dict[str, Any]:
    return {
        "kind": "pair",
        "name": name,
        "g": algebra_document(pair.G, name=f"{name}.g"),
        "h": algebra_document(pair.H, name=f"{name}.h"),
        "g_on_h": _action_document(pair.g_on_h),
        "h_on_g": _action_document(pair.h_on_g),
    }


def tensor_job_document(
    pair: CompatiblePair,
    name: str = "tensor",
    max_cosets: int | None = None,
    max_rounds: int | None = None,
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "kind": "tensor",
        "name": name,
        "pair": pair_document(pair, name=f"{name}.pair"),
    }
    if max_cosets is not None:
        doc["max_cosets"] = max_cosets
    if max_rounds is not None:
        doc["max_rounds"] = max_rounds
    return doc


def document_to_json(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
