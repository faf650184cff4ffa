"""scripts/bench_pairs.py: each end-to-end metric's change beside the bound BENCHMARK.json declares,
and each side's median rounds beside peak_rss_mb."""

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


def test_each_run_keeps_its_rounds_and_peak_rss_is_printed_beside_the_median_rounds(tmp_path, monkeypatch, capsys):
    bench = _bench_pairs()
    rounds = {"parent": iter(range(10, 20)), "change": iter(range(13, 23))}

    def run(cwd, workload, seed, trace):
        side = "parent" if cwd.name == "p" else "change"
        metrics = {m: {"value": 1.0} for m in bench.BOUNDS}
        return [{"info": {"rounds": next(rounds[side])}}, {"correct": True, "failed": 0, "metrics": metrics}]

    monkeypatch.setattr(bench, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench, "build", lambda parent: {"parent": tmp_path / "p", "change": tmp_path / "c"})
    monkeypatch.setattr(bench, "src_lines", lambda root: 0)
    monkeypatch.setattr(bench, "run", run)
    out = tmp_path / "bench.json"
    assert bench.main(["--parent", "HEAD", "--seed", "1", "--workload", "rung-512", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    kept = {side: [r["rounds"] for r in result["runs"]["rung-512"] if r["side"] == side] for side in rounds}
    assert kept == {"parent": list(range(10, 20)), "change": list(range(13, 23))}
    assert result["summary"]["rung-512"]["median_rounds"] == {"parent": 14.5, "change": 17.5}
    printed = [line for line in capsys.readouterr().err.splitlines() if "median rounds" in line]
    assert printed == [
        "rung-512 peak_rss_mb: +0.0% against a bound of 10%, change better in 0 of 10 pairs, "
        "median rounds 14.5 parent, 17.5 change"
    ]
