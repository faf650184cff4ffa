"""scripts/bench_pairs.py: each end-to-end metric's change beside the bound BENCHMARK.json declares."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_relative_change_is_summarized_beside_its_declared_bound():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in declared}
    line = lambda v: {"correct": True, "failed": 0, "metrics": {m: {"value": v} for m in bounds}}
    runs = [
        {"pair": pair, "side": side, "lines": [{}, line(v)]}
        for pair in range(1, 5)
        for side, v in (("parent", 2.0), ("change", 1.5))
    ]
    summary = _bench_pairs().summarize(runs)
    assert summary["correct_and_no_failures"]
    for metric, bound in bounds.items():
        assert summary[metric]["bound"] == bound
        assert summary[metric]["relative_change"] == -0.25
        assert summary[metric]["change_better_pairs"] == 4


@pytest.mark.parametrize("bad_trace", [None, 0, 1])  # a clean set, or one bad untraced or traced run
@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}])
def test_a_wrong_or_failed_run_makes_the_script_exit_1(tmp_path, monkeypatch, bad, bad_trace):
    bench = _bench_pairs()
    metrics = {m: {"value": 1.0} for m in bench.BOUNDS}
    seen = []

    def run(cwd, workload, seed, trace):
        seen.append(trace)
        line = {"correct": True, "failed": 0, "metrics": metrics}
        if trace == bad_trace and seen.count(trace) == 3:  # one run, in the second pair
            line |= bad
        return [{"info": {"rounds": 1}}, line]

    monkeypatch.setattr(bench, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench, "build", lambda parent: {"parent": tmp_path, "change": tmp_path})
    monkeypatch.setattr(bench, "src_lines", lambda root: 0)
    monkeypatch.setattr(bench, "run", run)
    out = tmp_path / "bench.json"
    args = ["--parent", "HEAD", "--seed", "1", "--workload", "corpus", "--traced", "corpus", "--out", str(out)]
    assert bench.main(args) == (0 if bad_trace is None else 1)
    assert json.loads(out.read_text())["summary"]["corpus"]["correct_and_no_failures"] is (bad_trace != 0)
