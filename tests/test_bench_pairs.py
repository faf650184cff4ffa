"""scripts/bench_pairs.py: each end-to-end metric's change beside the bound BENCHMARK.json declares."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

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
