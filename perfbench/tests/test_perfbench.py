"""Tests of the benchmark itself: its generator, its oracle and its gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from mlacalc import corpus
from perfbench import docgen, oracle, run


@pytest.fixture(scope="module")
def groups():
    return docgen.load_factor_groups(run.FIXTURES / "algebras")


def test_docgen_same_seed_same_documents(groups):
    def docs(seed):
        return [json.dumps(docgen.build(s, groups)[0]) for s in docgen.plan(seed, 6, groups)]

    assert docs(3) == docs(3)
    assert docs(3) != docs(4)


def test_docgen_plan_shape(groups):
    specs = docgen.plan(7, run.DOCS_PER_RUN, groups)
    assert sum(s.perturbation is not None for s in specs) == run.DOCS_PER_RUN // 2
    for s in specs:
        order = int(np.prod([groups[f].order for f in s.factors]))
        assert docgen.MIN_ORDER <= order <= docgen.MAX_ORDER


@pytest.mark.parametrize("name", ["S3", "Q8", "D4", "A4", "Dic3", "C6"])
def test_least_violation_matches_exhaustive_scan(groups, name):
    G = groups[name]
    rng = random.Random(name)
    for star in (np.full((G.order, G.order), G.identity), G.commutators):
        assert oracle.first_violation(G.table, star) is None
        for _ in range(25):
            S = star.copy()
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            S[a, b] = rng.choice([v for v in range(G.order) if v != S[a, b]])
            found = oracle.least_violation(G.table, S, (a, b))
            assert found is not None
            assert found == oracle.first_violation(G.table, S)


def test_wrong_frozen_order_counts_as_failed():
    bench = run.Bench(1, None, None)
    case = bench.tensor_case("C4/improper", corpus.get_group("C4"), "improper", None)
    out = case.run()
    assert run._report(case, out) == 0
    bench.expected["tensors"]["C4/improper"] = {**bench.expected["tensors"]["C4/improper"], "order": 5}
    case = bench.tensor_case("C4/improper", corpus.get_group("C4"), "improper", None)
    assert run._report(case, case.run()) == 1


def test_order_off_the_independent_value_counts_as_failed():
    bench = run.Bench(1, None, None)
    case = bench.tensor_case("S3/trivial", corpus.get_group("S3"), "trivial", run.HLT_ORDERS["S3"])
    order, codes = case.run()
    bench.expected["tensors"]["S3/trivial"] = {"order": order + 1, "ledger": codes}
    case = bench.tensor_case("S3/trivial", corpus.get_group("S3"), "trivial", run.HLT_ORDERS["S3"])
    assert "independently known" in case.check((order + 1, codes))


def test_wrong_witness_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    bench = run.Bench(2, None, None)
    monkeypatch.setattr(docgen, "MAX_ORDER", 100)  # small documents keep the test quick
    monkeypatch.setattr(run, "DOCS_PER_RUN", 2)
    cases = bench.docs()
    case = next(c for c in cases if c.witness)
    out = case.run()
    assert run._report(case, out) == 0
    (v_rc, v_out), series, verify = out
    payload = json.loads(v_out)
    x, y, z = payload["error"]["witness"]
    for other in ([x, y, (z + 1) % 96], [x, (y + 1) % 96, z]):
        payload["error"]["witness"] = other
        assert run._report(case, [(v_rc, json.dumps(payload)), series, verify]) == 1


def test_raised_instance_counts_as_failed():
    case = run.Case("boom", lambda: None, lambda out: None)
    assert run._report(case, run._RAISED) == 1


def test_calibration_scales_by_the_median_chunk():
    from perfbench import calibrate

    kernel = calibrate.document_kernel
    cal = calibrate.Calibrator([kernel])
    assert cal.scale(kernel) == 1.0
    nominal = calibrate.NOMINAL_S[kernel]
    cal.samples[kernel] = [nominal * f for f in (2.0, 0.5, 4.0, 1.0, 1.0)]
    cal.starts = [0.0, 0.1, 0.2, 10.0, 10.1]
    assert cal.scale(kernel) == pytest.approx(1.0)
    assert cal.scale(kernel, since=3) == pytest.approx(1.0)
    assert cal.scale_over(kernel, 0.05, 0.15) == pytest.approx(0.5)  # median of 2, 0.5, 4
    assert cal.scale_over(kernel, 5.0, 5.1) is None  # no chunk near
    assert kernel() == kernel()
    assert calibrate.table_kernel() == calibrate.table_kernel()


def test_hd_quantile():
    assert run.hd_quantile([7.0], 0.75) == 7.0
    assert run.hd_quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    values = [float(v) for v in range(1, 50)]
    assert run.hd_quantile(values, 0.5) == pytest.approx(25.0)
    assert 36 < run.hd_quantile(values, 0.75) < 38
