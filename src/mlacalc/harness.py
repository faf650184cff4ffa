"""Catalogue-driven verification.

Every statement this library can certify has a stable string id.  A run
produces exactly one verdict per catalogue id, whatever the selection, so
ledgers from different instances and versions diff row for row.  The ids
are opaque keys; the summary next to each one says what is checked.

An Instance wraps whatever was supplied (a single algebra, a compatible
pair, or a built tensor) and exposes the pieces each statement needs.
Neither declares a kind: an instance's kind is the richest piece it holds,
and a statement's is the one its suite fixes (SUITE_KIND).
Statements requiring a richer instance than the one supplied come back
``inapplicable`` under suite selection and raise SelectionMismatch when
selected explicitly by id.

Many statements reason about the same few ideals of a pair.  The pair
builds each of them once, when a statement first asks for it, and the
tensor does the same with its canonical ideal and quotient (thm-3.11,
thm-3.13, rem-3.15.1 and rem-3.15.2), so a ledger pays for each
construction once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping

from .actions import (
    SIDES,
    CompatiblePair,
    bracket_ideal,
    check_action_laws,
    check_bracket_conjugation,
    check_defect_centralizes_bracket_ideal,
    check_defect_fixes_opposite_bracket_ideal,
    check_lemma_commutator_bracket,
    check_lie_conjugation_transfer,
    check_pair_conditions,
    check_partner_closure_ops,
    check_partner_generators,
    check_partner_words,
    check_star_to_bracket_level,
    check_transfer_bounds,
    derived_action_ideal,
    mixed_lie_ideal,
)
from .errors import (
    Inapplicable,
    InputError,
    IdentityViolation,
    MathViolation,
    ResourceError,
    SelectionMismatch,
)
from .mla import IDENTITY_NAMES, MultLieAlg, check_axioms, check_lie_identities
from .tensor import (
    TENSOR_IDENTITY_NAMES,
    TensorAlgebra,
    canonical_tensor_ideal,
    check_induced_action_formulas,
    check_tensor_identities,
    check_tensor_lie_commutator,
    defect_square_bound,
    quotient_nilpotency_bound,
    quotient_solvability_bound,
    self_pair_quotient_check,
)
from .util import CheckReport, check_budget, run_budget

SUITES = ("axioms", "identities", "compat", "tensor", "all")
KINDS = ("algebra", "pair", "tensor")
SUITE_KIND = {"axioms": "algebra", "identities": "algebra", "compat": "pair", "tensor": "tensor"}

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"
SKIPPED = "skipped"


@dataclass(frozen=True, eq=False)
class Instance:
    """What a run receives: a named bundle of algebras, maybe a pair, maybe
    a tensor.  ``tensor_error`` records a tensor build that hit a resource
    cap so tensor statements can report skipped instead of inapplicable."""

    name: str
    algebras: tuple[tuple[str, MultLieAlg], ...]
    pair: CompatiblePair | None = None
    tensor: TensorAlgebra | None = None
    tensor_error: str | None = None

    @property
    def kind(self) -> str:
        """The richest of KINDS that the instance holds."""
        if self.tensor is not None or self.tensor_error is not None:
            return "tensor"
        return "algebra" if self.pair is None else "pair"

    @property
    def capabilities(self) -> tuple[str, ...]:
        return KINDS[: KINDS.index(self.kind) + 1]

    @staticmethod
    def from_algebra(M: MultLieAlg, name: str = "algebra") -> "Instance":
        return Instance(name, (("supplied", M),))

    @staticmethod
    def from_pair(pair: CompatiblePair, name: str = "pair") -> "Instance":
        return Instance(name, _pair_algebras(pair), pair=pair)

    @staticmethod
    def from_tensor(t: TensorAlgebra, name: str = "tensor") -> "Instance":
        algs = _pair_algebras(t.pair) + (("tensor", t.algebra),)
        return Instance(name, algs, pair=t.pair, tensor=t)

    @staticmethod
    def from_failed_tensor(pair: CompatiblePair, reason: str, name: str = "tensor") -> "Instance":
        return Instance(name, _pair_algebras(pair), pair=pair, tensor_error=reason)


def _pair_algebras(pair: CompatiblePair) -> tuple[tuple[str, MultLieAlg], ...]:
    if pair.H is pair.G:
        return (("left", pair.G),)
    return (("left", pair.G), ("right", pair.H))


@dataclass(frozen=True)
class Verdict:
    statement: str
    status: str
    detail: str = ""
    witness: Mapping[str, Any] | None = None
    tuples: int = 0
    wall_ms: int = 0

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "statement": self.statement,
            "status": self.status,
            "detail": self.detail,
            "tuples": self.tuples,
            "wall_ms": self.wall_ms,
        }
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        return out


@dataclass(frozen=True)
class VerdictLedger:
    instance: str
    kind: str
    verdicts: tuple[Verdict, ...]

    def get(self, statement: str) -> Verdict:
        for v in self.verdicts:
            if v.statement == statement:
                return v
        raise KeyError(statement)

    @property
    def failures(self) -> tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if v.status == FAIL)

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, INAPPLICABLE: 0, SKIPPED: 0}
        for v in self.verdicts:
            out[v.status] += 1
        return out

    def as_dict(self) -> dict[str, Any]:
        return {
            "instance": self.instance,
            "kind": self.kind,
            "ok": self.ok,
            "counts": self.counts(),
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


@dataclass(frozen=True)
class Statement:
    ident: str
    suite: str
    summary: str
    # receives the instance's algebras, pair or tensor, as ``kind`` says
    runner: Callable[[Any], CheckReport] = field(repr=False)

    @property
    def kind(self) -> str:
        """The least instance kind able to run it, fixed by its suite."""
        return SUITE_KIND[self.suite]


# --- runners ----------------------------------------------------------------

_IDENTITY_ARITY = {1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 2, 7: 4}


def _run_axioms(algebras: Iterable[tuple[str, MultLieAlg]]) -> CheckReport:
    total = 0
    for label, M in algebras:
        try:
            check_axioms(M)
        except MathViolation as exc:
            exc.payload.setdefault("algebra", label)
            raise
        n = M.group.order
        total += n + 4 * n * n * n
    return CheckReport("star-axioms", True, total)


def _run_identity(num: int, algebras: Iterable[tuple[str, MultLieAlg]]) -> CheckReport:
    total = 0
    for label, M in algebras:
        wit = check_lie_identities(M, only=(num,)).get(num)
        if wit is not None:
            names = ", ".join(M.group.labels[i] for i in wit)
            raise IdentityViolation(
                f"defect identity {num} ({IDENTITY_NAMES[num]}) fails on the "
                f"{label} algebra at ({names})",
                identity=num,
                algebra=label,
                witness=wit,
            )
        total += M.group.order ** _IDENTITY_ARITY[num]
    return CheckReport(f"defect-identity-{num}", True, total)


def _run_ideal_family(name: str, build, carrier_of, pair: CompatiblePair) -> CheckReport:
    total = 0
    notes = []
    for side in SIDES:
        check_budget("ideal construction")
        sub = carrier_of(build(pair, side))
        total += 3 * sub.parent.order * sub.order
        notes.append(f"{side}: order {sub.order}")
    return CheckReport(name, True, total, detail="; ".join(notes))


def _run_tensor_identity(num: int, t: TensorAlgebra) -> CheckReport:
    return check_tensor_identities(t, only=num)[num]


def _run_canonical_tensor_ideal(t: TensorAlgebra) -> CheckReport:
    I, J, ideal = canonical_tensor_ideal(t)
    m = len(ideal.members)
    return CheckReport(
        "tensor-ideal",
        True,
        3 * t.order * m,
        detail=f"factors of order {I.order} and {J.order} generate an ideal "
        f"of order {m} in a tensor of order {t.order}",
    )


# --- the frozen catalogue -----------------------------------------------------

CATALOGUE: tuple[Statement, ...] = (
    Statement(
        "def-2.1",
        "axioms",
        "the five star axioms hold on every algebra in the instance",
        _run_axioms,
    ),
    *(
        Statement(
            f"prop-2.3.{k}",
            "identities",
            f"defect identity: {IDENTITY_NAMES[k]}",
            partial(_run_identity, k),
        )
        for k in range(1, 8)
    ),
    Statement(
        "prop-2.6",
        "tensor",
        "both factors act on the tensor by the slotwise symbol formulas",
        check_induced_action_formulas,
    ),
    *(
        Statement(
            f"prop-2.7.{k}",
            "tensor",
            f"symbol identity: {TENSOR_IDENTITY_NAMES[k]}",
            partial(_run_tensor_identity, k),
        )
        for k in range(1, 7)
    ),
    Statement(
        "def-2.8",
        "compat",
        "both actions: star-preserving automorphisms, multiplicative in the "
        "actor, all four bracket laws",
        check_action_laws,
    ),
    Statement(
        "prop-2.10",
        "compat",
        "conjugating one bracket value by another matches bracketing the "
        "mixed-commutator conjugates",
        check_bracket_conjugation,
    ),
    Statement(
        "def-3.1",
        "compat",
        "the five mutual-compatibility laws hold on both displays",
        check_pair_conditions,
    ),
    Statement(
        "lem-3.2",
        "compat",
        "commutators of bracket values reduce to bracket and star forms",
        check_lemma_commutator_bracket,
    ),
    Statement(
        "prop-3.3.1",
        "compat",
        "the relative commutators ^g h · h^-1 generate an ideal, both sides",
        partial(
            _run_ideal_family, "derived-action-ideal", derived_action_ideal, lambda ideal: ideal.subgroup
        ),
    ),
    Statement(
        "prop-3.3.2",
        "compat",
        "the bracket values <g,h> generate an ideal, both sides",
        partial(_run_ideal_family, "bracket-ideal", bracket_ideal, lambda ideal: ideal.subgroup),
    ),
    Statement(
        "prop-3.3.3",
        "compat",
        "the mixed defects ^L[g,h] generate an ideal with a witness word "
        "for every element, both sides",
        partial(_run_ideal_family, "mixed-defect-ideal", mixed_lie_ideal, lambda wit: wit.carrier),
    ),
    Statement(
        "prop-3.4",
        "compat",
        "single-defect partners act identically on both groups",
        check_partner_generators,
    ),
    Statement(
        "prop-3.5",
        "compat",
        "every witnessed defect-ideal element has an identically acting "
        "partner built from its word",
        check_partner_words,
    ),
    Statement(
        "cor-3.6",
        "compat",
        "partner agreement survives inverses and commutators",
        check_partner_closure_ops,
    ),
    Statement(
        "lem-3.7",
        "compat",
        "star equals partnered bracket on level-0 defect witnesses",
        partial(check_star_to_bracket_level, level=0),
    ),
    Statement(
        "lem-3.8",
        "compat",
        "defects of agreeing pairs act identically on both groups",
        check_lie_conjugation_transfer,
    ),
    Statement(
        "lem-3.9",
        "compat",
        "star equals partnered bracket on level-1 defect witnesses",
        partial(check_star_to_bracket_level, level=1),
    ),
    Statement(
        "prop-3.10",
        "compat",
        "nilpotency class and solvable length transfer between the two "
        "defect ideals with slack one",
        check_transfer_bounds,
    ),
    Statement(
        "thm-3.11",
        "tensor",
        "mutually invariant ideal factors generate an ideal of the tensor",
        _run_canonical_tensor_ideal,
    ),
    Statement(
        "lem-3.12",
        "tensor",
        "the tensor defect of two symbols factors through mixed defects",
        check_tensor_lie_commutator,
    ),
    Statement(
        "thm-3.13",
        "tensor",
        "quotient by the canonical defect-bracket ideal raises the right "
        "factor's nilpotency class by at most one",
        quotient_nilpotency_bound,
    ),
    Statement(
        "rem-3.14.1",
        "compat",
        "defect-ideal elements group-commute with the bracket ideal",
        check_defect_centralizes_bracket_ideal,
    ),
    Statement(
        "rem-3.14.2",
        "compat",
        "defect-ideal elements act trivially on the opposite bracket ideal",
        check_defect_fixes_opposite_bracket_ideal,
    ),
    Statement(
        "rem-3.15.1",
        "tensor",
        "quotient by the canonical defect-bracket ideal raises the right "
        "factor's solvable length by at most one",
        quotient_solvability_bound,
    ),
    Statement(
        "rem-3.15.2",
        "tensor",
        "self-paired star-as-bracket: the canonical tensor quotient "
        "inherits nilpotency and solvability",
        self_pair_quotient_check,
    ),
    Statement(
        "rem-3.15.3",
        "tensor",
        "self-paired star-as-bracket: quotient by the squared defect ideal "
        "has exactly the factor's class",
        defect_square_bound,
    ),
)

CATALOGUE_IDS: tuple[str, ...] = tuple(st.ident for st in CATALOGUE)
_BY_ID: dict[str, Statement] = {st.ident: st for st in CATALOGUE}


def statement(ident: str) -> Statement:
    try:
        return _BY_ID[ident]
    except KeyError:
        raise InputError(f"unknown statement id {ident!r}", statement=ident) from None


def _ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def _evaluate(st: Statement, inst: Instance) -> Verdict:
    subject = {"algebra": inst.algebras, "pair": inst.pair, "tensor": inst.tensor}[st.kind]
    t0 = time.perf_counter()
    try:
        report = st.runner(subject)
    except Inapplicable as ex:
        return Verdict(st.ident, INAPPLICABLE, detail=str(ex), wall_ms=_ms(t0))
    except ResourceError as ex:
        return Verdict(st.ident, SKIPPED, detail=f"resource: {ex}", wall_ms=_ms(t0))
    except MathViolation as ex:
        return Verdict(st.ident, FAIL, detail=str(ex), witness=ex.as_dict(), wall_ms=_ms(t0))
    if report.passed:
        return Verdict(
            st.ident, PASS, detail=report.detail, tuples=report.tuples_checked, wall_ms=_ms(t0)
        )
    witness = {
        "check": report.name,
        "witness": list(report.witness) if report.witness is not None else [],
        "detail": report.detail,
    }
    return Verdict(
        st.ident,
        FAIL,
        detail=report.detail or f"{report.name} found a counterexample",
        witness=witness,
        tuples=report.tuples_checked,
        wall_ms=_ms(t0),
    )


def run_suite(inst: Instance, selection: str | Iterable[str] = "all") -> VerdictLedger:
    """One verdict per catalogue id.

    ``selection`` is a suite name or an iterable of statement ids.  Unselected
    statements report skipped("not selected").  A suite statement the instance
    cannot host reports inapplicable; an explicitly selected one raises
    SelectionMismatch.  One MLACALC_BUDGET_SECS budget covers the whole call,
    or the rest of the enclosing run's (util.run_budget).  A statement that
    finds it spent reports skipped("resource: ...").
    """
    explicit: set[str] | None = None
    if isinstance(selection, str):
        if selection not in SUITES:
            raise InputError(
                f"unknown suite {selection!r}; choose from {', '.join(SUITES)}",
                suite=selection,
            )
    else:
        explicit = set(selection)
        unknown = sorted(explicit - set(CATALOGUE_IDS))
        if unknown:
            raise InputError(
                f"unknown statement id(s): {', '.join(unknown)}", statements=unknown
            )

    verdicts: list[Verdict] = []
    with run_budget():
        for st in CATALOGUE:
            if explicit is not None:
                selected = st.ident in explicit
            else:
                selected = selection == "all" or st.suite == selection
            if not selected:
                verdicts.append(Verdict(st.ident, SKIPPED, detail="not selected"))
                continue
            if st.kind not in inst.capabilities:
                if explicit is not None:
                    raise SelectionMismatch(
                        f"statement {st.ident} requires a {st.kind} instance, "
                        f"got {inst.kind}",
                        statement=st.ident,
                        requires=st.kind,
                        got=inst.kind,
                    )
                verdicts.append(
                    Verdict(st.ident, INAPPLICABLE, detail=f"requires a {st.kind} instance")
                )
                continue
            if st.kind == "tensor" and inst.tensor is None:
                verdicts.append(
                    Verdict(
                        st.ident,
                        SKIPPED,
                        detail=f"resource: {inst.tensor_error or 'tensor was not built'}",
                    )
                )
                continue
            verdicts.append(_evaluate(st, inst))
    return VerdictLedger(inst.name, inst.kind, tuple(verdicts))
