"""Command-line front end.

Five subcommands over JSON instance documents (see docs.py for the format):

  validate      structural and axiom checks for whatever the file declares
  series        derived and lower-central series of each declared algebra
  action-check  the action laws and pair conditions of a pair, proven as it loads
  tensor        build the tensor of a pair and report on it
  verify        run the statement catalogue and print the verdict ledger

Exit codes: 0 all checks pass, 1 a mathematical property failed (the output
carries a witness), 2 malformed input or selection, 3 a resource cap was
hit (cosets, rounds, or the MLACALC_BUDGET_SECS time budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from .actions import check_action_laws, check_pair_conditions
from .coset import DEFAULT_MAX_COSETS
from .docs import ParsedDocument, algebra_document, load_document
from .errors import InputError, MathViolation, MlaError, ResourceError
from .harness import Instance, VerdictLedger, run_suite, SUITES
from .mla import MultLieAlg, check_axioms, derived_series, lower_central_series
from .tensor import (
    DEFAULT_MAX_ROUNDS,
    SEED_ORDERS,
    TensorAlgebra,
    build_tensor_algebra,
    canonical_tensor_ideal,
)
from .util import run_budget


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlacalc",
        description="Validate, analyze, and tensor finite multiplicative Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, caps: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="path to a JSON instance document")
        p.add_argument("--json", action="store_true", help="emit a machine report")
        if caps:
            p.add_argument(
                "--max-cosets",
                type=int,
                default=None,
                metavar="N",
                help=f"coset cap for the enumeration (default {DEFAULT_MAX_COSETS})",
            )
            p.add_argument(
                "--max-rounds",
                type=int,
                default=None,
                metavar="N",
                help=f"star fixpoint round cap (default {DEFAULT_MAX_ROUNDS})",
            )
            p.add_argument(
                "--seed-order",
                choices=SEED_ORDERS,
                default="default",
                help="normal-form order used to seed the tensor star",
            )
        return p

    add("validate", "check the document's tables against the axioms")
    add("series", "derived and lower-central series of each declared algebra")
    add("action-check", "check action laws and pair conditions")
    add("tensor", "build the tensor of a compatible pair and report", caps=True)

    verify = add("verify", "run the statement catalogue", caps=True)
    sel = verify.add_mutually_exclusive_group()
    sel.add_argument("--suite", choices=SUITES, default="all", help="statement suite to run")
    sel.add_argument("--statement", metavar="ID", help="run a single statement by id")

    return parser


def _print_json(payload: dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _emit(args: argparse.Namespace, lines: list[str], payload: dict[str, Any]) -> None:
    if args.json:
        _print_json(payload)
    else:
        for line in lines:
            print(line)


# --- per-algebra series reporting --------------------------------------------


def _series_block(label: str, M: MultLieAlg) -> tuple[list[str], dict[str, Any]]:
    ds = derived_series(M)
    lc = lower_central_series(M)

    def orders(rep) -> list[int]:
        return [len(term) for term in rep.terms]

    def chain(rep) -> str:
        return " > ".join(str(len(term)) for term in rep.terms)

    c = lc.class_or_length
    nilp = f"yes, class {c}" if c is not None else f"no (stabilizes at order {len(lc.terms[-1])})"
    length = ds.class_or_length
    solv = (
        f"yes, length {length}"
        if length is not None
        else f"no (stabilizes at order {len(ds.terms[-1])})"
    )
    lines = [
        f"{label}: order {M.order}",
        f"  derived series orders: {chain(ds)}",
        f"  lower central series orders: {chain(lc)}",
        f"  Lie nilpotent: {nilp}; Lie solvable: {solv}",
    ]
    payload = {
        "label": label,
        "order": M.order,
        "derived": {"orders": orders(ds), "verdict": ds.verdict},
        "lower_central": {"orders": orders(lc), "verdict": lc.verdict},
        "nilpotency_class": c,
        "solvable_length": length,
    }
    return lines, payload


def _declared_algebras(pd: ParsedDocument) -> list[tuple[str, MultLieAlg]]:
    if pd.kind == "algebra":
        return [(pd.name, pd.algebra)]
    pair = pd.pair
    if pair.H is pair.G:
        return [(f"{pd.name}.g", pair.G)]
    return [(f"{pd.name}.g", pair.G), (f"{pd.name}.h", pair.H)]


# --- commands -----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    pd = load_document(args.file)
    if pd.kind == "algebra":
        check_axioms(pd.algebra)
        _emit(
            args,
            [f"algebra {pd.name}: order {pd.algebra.order}", "axioms: 5/5"],
            {
                "command": "validate",
                "kind": pd.kind,
                "name": pd.name,
                "ok": True,
                "axioms": {"checked": 5, "passed": 5},
            },
        )
        return 0
    # pair construction already verified factors, actions, and compatibility
    pair = pd.pair
    what = "pair" if pd.kind == "pair" else "tensor job's pair"
    _emit(
        args,
        [
            f"{pd.kind} {pd.name}: {what} valid",
            f"factors: order {pair.G.order} and {pair.H.order}"
            + (" (self pair)" if pair.H is pair.G else ""),
            "axioms: 5/5 on each factor; action laws and pair conditions hold",
        ],
        {
            "command": "validate",
            "kind": pd.kind,
            "name": pd.name,
            "ok": True,
            "factors": {
                "g_order": pair.G.order,
                "h_order": pair.H.order,
                "self_pair": pair.H is pair.G,
            },
        },
    )
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    pd = load_document(args.file)
    lines: list[str] = []
    blocks: list[dict[str, Any]] = []
    for label, M in _declared_algebras(pd):
        block_lines, payload = _series_block(label, M)
        lines.extend(block_lines)
        blocks.append(payload)
    _emit(args, lines, {"command": "series", "kind": pd.kind, "name": pd.name, "algebras": blocks})
    return 0


def cmd_action_check(args: argparse.Namespace) -> int:
    pd = load_document(args.file)
    if pd.pair is None:
        raise InputError("action-check needs a pair or tensor document, got an algebra")
    pair = pd.pair
    laws = check_action_laws(pair)
    conds = check_pair_conditions(pair)
    _emit(
        args,
        [
            f"pair {pd.name}: factors of order {pair.G.order} and {pair.H.order}"
            + (" (self pair)" if pair.H is pair.G else ""),
            f"action laws: pass ({laws.tuples_checked} tuples)",
            f"pair conditions: pass ({conds.tuples_checked} tuples)",
        ],
        {
            "command": "action-check",
            "kind": pd.kind,
            "name": pd.name,
            "ok": True,
            "action_laws": {"tuples": laws.tuples_checked},
            "pair_conditions": {"tuples": conds.tuples_checked},
        },
    )
    return 0


def _caps(args: argparse.Namespace, pd: ParsedDocument) -> tuple[int, int]:
    # a flag of 0 is refused below, not replaced; document caps are never 0
    max_cosets, max_rounds = args.max_cosets, args.max_rounds
    if max_cosets is None:
        max_cosets = pd.max_cosets or DEFAULT_MAX_COSETS
    if max_rounds is None:
        max_rounds = pd.max_rounds or DEFAULT_MAX_ROUNDS
    if max_cosets < 1 or max_rounds < 1:
        raise InputError("caps must be positive", max_cosets=max_cosets, max_rounds=max_rounds)
    return max_cosets, max_rounds


def _build_tensor(args: argparse.Namespace, pd: ParsedDocument) -> TensorAlgebra:
    max_cosets, max_rounds = _caps(args, pd)
    return build_tensor_algebra(
        pd.pair,
        max_cosets=max_cosets,
        max_rounds=max_rounds,
        seed_order=args.seed_order,
    )


def cmd_tensor(args: argparse.Namespace) -> int:
    pd = load_document(args.file)
    if pd.pair is None:
        raise InputError("tensor needs a pair or tensor document, got an algebra")
    t = _build_tensor(args, pd)
    pair = t.pair
    G, H = pair.G.group, pair.H.group

    I, J, big = canonical_tensor_ideal(t)

    ledger = run_suite(Instance.from_tensor(t, pd.name), "tensor")
    series_lines, series_payload = _series_block(f"{pd.name} tensor", t.algebra)
    stats = t.result.stats

    lines = [
        f"tensor {pd.name}: order {t.order} (factors {G.order} and {H.order})",
        f"seed order {t.seed_order}; {t.rounds} star round(s); "
        f"{stats.cosets_defined} cosets defined, {stats.cosets_collapsed} collapsed; "
        f"{len(t.extra_relators)} extra relator(s)",
        f"tensor star trivial: {'yes' if t.algebra.star_is_trivial else 'no'}",
        f"canonical ideals: defect ideal order {I.order} (left factor), "
        f"bracket ideal order {J.order} (right factor), "
        f"tensor ideal order {len(big.members)}",
    ]
    lines.extend(series_lines)
    lines.append("statement verdicts:")
    for v in ledger.verdicts:
        if v.detail == "not selected":
            continue
        lines.append(f"  {v.statement:<12} {v.status}" + (f"  [{v.detail}]" if v.detail else ""))

    payload = {
        "command": "tensor",
        "kind": pd.kind,
        "name": pd.name,
        "order": t.order,
        "factors": {"g_order": G.order, "h_order": H.order, "self_pair": pair.H is pair.G},
        "seed_order": t.seed_order,
        "rounds": t.rounds,
        "extra_relators": len(t.extra_relators),
        "stats": {
            "cosets_defined": stats.cosets_defined,
            "cosets_collapsed": stats.cosets_collapsed,
            "live": stats.live,
        },
        "star_trivial": bool(t.algebra.star_is_trivial),
        "symbols": {
            f"({G.labels[g]},{H.labels[h]})": t.group.labels[t.sym(g, h)]
            for g in range(G.order)
            for h in range(H.order)
        },
        "ideals": {
            "left_defect_order": I.order,
            "right_bracket_order": J.order,
            "tensor_ideal_order": len(big.members),
        },
        "series": series_payload,
        "algebra": algebra_document(t.algebra, name=f"{pd.name} tensor"),
        "ledger": ledger.as_dict(),
    }
    _emit(args, lines, payload)
    return 0 if ledger.ok else 1


def _verify_instance(args: argparse.Namespace, pd: ParsedDocument) -> Instance:
    if pd.kind == "algebra":
        return Instance.from_algebra(pd.algebra, pd.name)
    if pd.kind == "pair":
        return Instance.from_pair(pd.pair, pd.name)
    try:
        return Instance.from_tensor(_build_tensor(args, pd), pd.name)
    except ResourceError as ex:
        return Instance.from_failed_tensor(pd.pair, str(ex), pd.name)


def _ledger_exit(ledger: VerdictLedger) -> int:
    if not ledger.ok:
        return 1
    if any(v.status == "skipped" and v.detail.startswith("resource:") for v in ledger.verdicts):
        return 3
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    pd = load_document(args.file)
    inst = _verify_instance(args, pd)
    selection: str | list[str] = [args.statement] if args.statement else args.suite
    ledger = run_suite(inst, selection)

    counts = ledger.counts()
    lines = [
        f"instance {ledger.instance} ({ledger.kind}); "
        + (f"statement {args.statement}" if args.statement else f"suite {args.suite}"),
        f"{'statement':<12} {'status':<13} {'tuples':>10} {'ms':>6}  detail",
    ]
    for v in ledger.verdicts:
        lines.append(
            f"{v.statement:<12} {v.status:<13} {v.tuples:>10} {v.wall_ms:>6}  {v.detail}"
        )
    lines.append(
        f"pass {counts['pass']}, fail {counts['fail']}, "
        f"inapplicable {counts['inapplicable']}, skipped {counts['skipped']}"
    )
    payload = {"command": "verify", "selection": selection, **ledger.as_dict()}
    _emit(args, lines, payload)
    return _ledger_exit(ledger)


_DISPATCH = {
    "validate": cmd_validate,
    "series": cmd_series,
    "action-check": cmd_action_check,
    "tensor": cmd_tensor,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with run_budget():
            return _DISPATCH[args.command](args)
    except MlaError as ex:
        code = 2 if isinstance(ex, InputError) else 3 if isinstance(ex, ResourceError) else 1
        if getattr(args, "json", False):
            _print_json({"ok": False, "exit": code, "error": ex.as_dict()})
        else:
            print(f"error: {ex}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
