"""Ledger semantics: one verdict per catalogue id, every selection mode."""

from __future__ import annotations

import contextlib
import io
import re

import pytest

from mlacalc import cli, util
from mlacalc.corpus import get_group
from mlacalc.errors import AxiomViolation, BudgetExceeded, InputError, SelectionMismatch
from mlacalc.harness import (
    CATALOGUE,
    CATALOGUE_IDS,
    FAIL,
    INAPPLICABLE,
    PASS,
    SKIPPED,
    SUITES,
    Instance,
    run_suite,
    statement,
)
from mlacalc.mla import (
    MultLieAlg,
    check_axioms,
    check_lie_identities,
    lie_commutator_ideal,
    make_improper_star,
    make_trivial_star,
    quotient_algebra,
)
from mlacalc.tensor import build_tensor_algebra


SUITE_SIZES = {"axioms": 1, "identities": 7, "compat": 16, "tensor": 13}


# --- catalogue shape ---------------------------------------------------------------


def test_catalogue_ids_unique_and_wellformed():
    assert len(CATALOGUE_IDS) == 37
    assert len(set(CATALOGUE_IDS)) == 37
    pat = re.compile(r"^(def|prop|lem|cor|thm|rem)-\d+\.\d+(\.\d+)?$")
    for ident in CATALOGUE_IDS:
        assert pat.match(ident), ident


def test_catalogue_suite_partition():
    got = {}
    for st in CATALOGUE:
        got[st.suite] = got.get(st.suite, 0) + 1
        assert st.suite in SUITES[:-1]
        assert st.kind in ("algebra", "pair", "tensor")
        assert st.summary
    assert got == SUITE_SIZES


STATEMENT_KINDS = {
    "algebra": ("def-2.1", *(f"prop-2.3.{k}" for k in range(1, 8))),
    "pair": (
        "def-2.8", "prop-2.10", "def-3.1", "lem-3.2", "prop-3.3.1", "prop-3.3.2",
        "prop-3.3.3", "prop-3.4", "prop-3.5", "cor-3.6", "lem-3.7", "lem-3.8",
        "lem-3.9", "prop-3.10", "rem-3.14.1", "rem-3.14.2",
    ),
    "tensor": (
        "prop-2.6", *(f"prop-2.7.{k}" for k in range(1, 7)), "thm-3.11", "lem-3.12",
        "thm-3.13", "rem-3.15.1", "rem-3.15.2", "rem-3.15.3",
    ),
}


def test_statement_kinds_are_frozen():
    got = {ident: statement(ident).kind for ident in CATALOGUE_IDS}
    want = {ident: kind for kind, ids in STATEMENT_KINDS.items() for ident in ids}
    assert got == want


def test_instance_kinds_follow_what_the_instance_holds(pairs, tensors, corpus_algebras):
    cases = [
        (Instance.from_algebra(corpus_algebras["S3-trivial"]), "algebra"),
        (Instance.from_pair(pairs["z2-trivial"]), "pair"),
        (Instance.from_tensor(tensors["z2-trivial"]), "tensor"),
        (Instance.from_failed_tensor(pairs["z2-trivial"], "cap"), "tensor"),
    ]
    for inst, kind in cases:
        assert inst.kind == kind
        assert run_suite(inst, ["def-2.1"]).kind == kind


def test_statement_lookup():
    st = statement("thm-3.13")
    assert st.kind == "tensor" and st.suite == "tensor"
    with pytest.raises(InputError):
        statement("thm-9.99")


# --- full-suite ledgers on the reference instances ------------------------------------


EXPECTED_COUNTS = {
    "z2-trivial": {PASS: 35, FAIL: 0, INAPPLICABLE: 2, SKIPPED: 0},
    "s3-improper-star": {PASS: 37, FAIL: 0, INAPPLICABLE: 0, SKIPPED: 0},
    "q8-trivial": {PASS: 37, FAIL: 0, INAPPLICABLE: 0, SKIPPED: 0},
}


def test_full_suite_on_reference_tensors(tensors):
    for name, t in tensors.items():
        ledger = run_suite(Instance.from_tensor(t, name=name))
        assert ledger.ok
        assert ledger.counts() == EXPECTED_COUNTS[name]
        assert [v.statement for v in ledger.verdicts] == list(CATALOGUE_IDS)
        for v in ledger.verdicts:
            if v.status == PASS:
                assert v.tuples > 0 or v.statement == "thm-3.11"


def test_z2_inapplicable_rows_are_the_self_pair_remarks(tensors):
    ledger = run_suite(Instance.from_tensor(tensors["z2-trivial"], name="z2"))
    off = [v.statement for v in ledger.verdicts if v.status == INAPPLICABLE]
    assert off == ["rem-3.15.2", "rem-3.15.3"]
    for ident in off:
        assert "self pair" in ledger.get(ident).detail


def test_pair_instance_runs_pair_statements(pairs):
    ledger = run_suite(Instance.from_pair(pairs["z2-trivial"], name="z2"))
    counts = ledger.counts()
    assert counts[PASS] == 24 and counts[INAPPLICABLE] == 13
    for v in ledger.verdicts:
        if v.status == INAPPLICABLE:
            assert statement(v.statement).kind == "tensor"
            assert "tensor instance" in v.detail


def test_algebra_instance_runs_algebra_statements(corpus_algebras):
    ledger = run_suite(Instance.from_algebra(corpus_algebras["D4-trivial"], name="d4"))
    counts = ledger.counts()
    assert counts[PASS] == 8 and counts[INAPPLICABLE] == 29
    ran = {v.statement for v in ledger.verdicts if v.status == PASS}
    assert ran == {"def-2.1"} | {f"prop-2.3.{k}" for k in range(1, 8)}


# --- selection modes ----------------------------------------------------------------


def test_suite_selection_skips_the_rest(corpus_algebras):
    inst = Instance.from_algebra(corpus_algebras["S3-improper"])
    ledger = run_suite(inst, "identities")
    assert len(ledger.verdicts) == 37
    for v in ledger.verdicts:
        if statement(v.statement).suite == "identities":
            assert v.status == PASS
        else:
            assert v.status == SKIPPED and v.detail == "not selected"


def test_explicit_id_selection(pairs):
    inst = Instance.from_pair(pairs["s3-improper-star"])
    ledger = run_suite(inst, ["def-2.1", "lem-3.2"])
    assert ledger.get("def-2.1").status == PASS
    assert ledger.get("lem-3.2").status == PASS
    rest = [v for v in ledger.verdicts if v.statement not in ("def-2.1", "lem-3.2")]
    assert all(v.status == SKIPPED for v in rest)


def test_explicit_selection_of_incapable_statement_raises(corpus_algebras):
    inst = Instance.from_algebra(corpus_algebras["S3-improper"])
    with pytest.raises(SelectionMismatch) as exc:
        run_suite(inst, ["thm-3.13"])
    assert exc.value.payload["statement"] == "thm-3.13"
    assert exc.value.payload["requires"] == "tensor"


def test_unknown_selection_is_input_error(corpus_algebras):
    inst = Instance.from_algebra(corpus_algebras["S3-improper"])
    with pytest.raises(InputError):
        run_suite(inst, "everything")
    with pytest.raises(InputError):
        run_suite(inst, ["def-2.1", "prop-0.0"])


# --- failed tensor builds ---------------------------------------------------------------


def test_failed_tensor_build_skips_tensor_statements(pairs):
    inst = Instance.from_failed_tensor(pairs["s3-improper-star"], "coset cap of 4 exceeded")
    ledger = run_suite(inst)
    counts = ledger.counts()
    assert counts[SKIPPED] == 13 and counts[FAIL] == 0
    for v in ledger.verdicts:
        if v.status == SKIPPED:
            assert v.detail == "resource: coset cap of 4 exceeded"
    # explicit selection cannot conjure the tensor either; it stays a skip
    ledger = run_suite(inst, ["thm-3.13"])
    assert ledger.get("thm-3.13").status == SKIPPED


# --- failures carry replayable witnesses ------------------------------------------------


def _broken_star_instance():
    G = get_group("S3")
    S = make_improper_star(G).star.copy()
    S[1, 2] = (S[1, 2] + 1) % 6
    return Instance.from_algebra(MultLieAlg(G, S), name="broken"), MultLieAlg(G, S)


def test_failures_have_replayable_witnesses():
    inst, M = _broken_star_instance()
    ledger = run_suite(inst)
    assert not ledger.ok
    axioms = ledger.get("def-2.1")
    assert axioms.status == FAIL and axioms.witness is not None
    with pytest.raises(AxiomViolation) as exc:
        check_axioms(M)
    assert exc.value.payload["axiom"] == axioms.witness["axiom"]
    assert exc.value.payload["witness"] == axioms.witness["witness"]
    # the identity suite flags the same corruption
    failed_ids = {v.statement for v in ledger.failures}
    assert any(s.startswith("prop-2.3.") for s in failed_ids)
    # pair and tensor statements stay inapplicable rather than failing
    for v in ledger.verdicts:
        assert v.status in (FAIL, PASS, INAPPLICABLE)


def test_ledgers_are_deterministic(tensors):
    inst = Instance.from_tensor(tensors["s3-improper-star"], name="s3")
    a = run_suite(inst).as_dict()
    b = run_suite(inst).as_dict()
    for d in (a, b):
        for v in d["verdicts"]:
            v["wall_ms"] = 0
    assert a == b


def test_zero_budget_skips_scanning_statements(pairs, monkeypatch):
    monkeypatch.setenv("MLACALC_BUDGET_SECS", "0.000001")
    ledger = run_suite(Instance.from_pair(pairs["q8-trivial"], name="q8"))
    resource = [v for v in ledger.verdicts if v.status == SKIPPED]
    assert resource, "an expired budget must surface as resource skips"
    for v in resource:
        assert v.detail.startswith("resource:")
    assert ledger.counts()[FAIL] == 0


@pytest.mark.parametrize("value", ["abc", "nan", "1e9s"])
def test_malformed_budget_raises_input_error(corpus_algebras, monkeypatch, value):
    monkeypatch.setenv("MLACALC_BUDGET_SECS", value)
    with pytest.raises(InputError) as exc:
        run_suite(Instance.from_algebra(corpus_algebras["S3-improper"]))
    assert exc.value.payload == {"value": value}


class _TickingClock:
    """Stands in for the time module: every monotonic() reading is a second later."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


def _clock_readings(inst, selection, monkeypatch):
    """Budget checks one run makes, under a budget it cannot exhaust."""
    clock = _TickingClock()
    monkeypatch.setattr(util, "time", clock)
    monkeypatch.setenv("MLACALC_BUDGET_SECS", "1e9")
    run_suite(inst, selection)
    return int(clock.now) - 1  # one reading arms the budget


def test_budget_covers_the_whole_ledger(corpus_algebras, monkeypatch):
    inst = Instance.from_algebra(corpus_algebras["D4-trivial"], name="d4")
    ran = [st.ident for st in CATALOGUE if st.kind == "algebra"]
    checks = {ident: _clock_readings(inst, [ident], monkeypatch) for ident in ran}
    # longer than any one statement needs, shorter than the ledger
    budget = max(checks.values()) + 1
    assert budget < sum(checks.values())
    monkeypatch.setattr(util, "time", _TickingClock())
    monkeypatch.setenv("MLACALC_BUDGET_SECS", str(budget))
    ledger = run_suite(inst)
    assert ledger.get(ran[0]).status == PASS
    skipped = [v for v in ledger.verdicts if v.statement in ran and v.status == SKIPPED]
    assert skipped, "statements past the budget must be skipped"
    for v in skipped:
        assert v.detail.startswith("resource:")
    assert ledger.counts()[FAIL] == 0


class _NoClock:
    """Stands in for the time module: any reading fails the test."""

    def monotonic(self):
        raise AssertionError("the clock was read outside a run")


def _hand_built_d4_and_ideal():
    G = get_group("D4")
    M = MultLieAlg(G, make_trivial_star(G).star)
    everything = range(G.order)
    return M, lie_commutator_ideal(M, everything, everything)


def test_library_calls_outside_a_run_read_no_clock(pairs, monkeypatch):
    monkeypatch.setattr(util, "time", _NoClock())
    monkeypatch.setenv("MLACALC_BUDGET_SECS", "-1")  # set, but no run has armed it
    t = build_tensor_algebra(pairs["s3-improper-star"])
    assert all(w is None for w in check_lie_identities(t.algebra).values())
    M, ideal = _hand_built_d4_and_ideal()
    Q, _ = quotient_algebra(M, ideal)
    assert Q.order == 4  # D4 over its derived subgroup


def test_expired_run_budget_reaches_the_quotient_scan(monkeypatch):
    # a quotient of an unverified algebra scans its axioms; the budget of the
    # enclosing run reaches that scan with no argument passed down to it
    M, ideal = _hand_built_d4_and_ideal()
    monkeypatch.setenv("MLACALC_BUDGET_SECS", "-1")
    with pytest.raises(BudgetExceeded) as exc, util.run_budget():
        quotient_algebra(M, ideal)
    assert str(exc.value) == "time budget exhausted during axiom scan"


@pytest.mark.parametrize("command", ["verify", "tensor"])
def test_one_budget_covers_a_cli_run(fixtures_dir, monkeypatch, command):
    # parsing and the tensor build spend the same budget as the ledger after
    # them; a ledger that armed its own would pass every statement here
    path = str(fixtures_dir / "tensors" / "s3-improper-star.json")
    ledgers = []

    def recording_run_suite(*args, **kwargs):
        start = clock.now
        ledger = run_suite(*args, **kwargs)
        ledgers.append((start, clock.now, ledger))
        return ledger

    monkeypatch.setattr(cli, "run_suite", recording_run_suite)

    def run(budget):
        nonlocal clock
        clock = _TickingClock()
        monkeypatch.setattr(util, "time", clock)
        monkeypatch.setenv("MLACALC_BUDGET_SECS", str(budget))
        ledgers.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([command, path])
        ((start, end, ledger),) = ledgers
        return start, end - start, ledger

    clock = _TickingClock()
    before, during, _ = run(1e9)
    # enough for the readings before the ledger, or for the ledger alone
    budget = max(before, during) + 1
    assert budget + 2 <= before + during
    _, _, ledger = run(budget)
    skipped = [v for v in ledger.verdicts if v.status == SKIPPED and v.detail.startswith("resource:")]
    assert skipped, "the ledger must spend what is left of the run's budget"
    assert ledger.counts()[FAIL] == 0
