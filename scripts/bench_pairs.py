#!/usr/bin/env python3
"""Alternating before/after benchmark pairs: a parent commit against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --seed 12 \\
        --workload corpus --workload rung-512 --traced corpus --out BENCH_12.json

The parent is built from ``git archive <rev>`` and the change from the
working tree's tracked and untracked, not ignored, files; each goes into a
fresh directory under ``.bench_build/``.  For each workload, in the order
given, the script runs ``perfbench/run.py --trace 0`` once per side in each
of 10 pairs, alternating which side runs first (odd pairs: parent first).
Then come two traced pairs (``--trace 1``, seed 1) of each ``--traced``
workload, in the same alternation.  Every run starts in its side's
directory and lasts perfbench's default run length; perfbench is run,
never edited.

The output keeps each run's two result lines (info and metrics) as printed.
Its ``summary`` gives, per workload and end-to-end metric, the median and
interquartile range of each side (linear quantiles), the number of pairs in
which the change is better, and the relative change of the medians next to
the metric's ``bound`` as ``BENCHMARK.json`` declares it; the script also
prints that comparison per metric once a workload's pairs are done.  For a
traced workload it lists each layer metric per round (the metric summed
over the run, divided by the run's rounds) for both sides.  Its
``src_lines`` gives each side's line count of ``src/mlacalc/*.py`` (what
``cat src/mlacalc/*.py | wc -l`` prints).  The script exits 1 when any run,
traced or not, reports ``correct: false`` or ``failed > 0``, after writing
its output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# each end-to-end metric's bound on its relative change of medians, as BENCHMARK.json declares it
BOUNDS = {
    m["name"]: m["bound"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
}
PAIRS, TRACED_PAIRS, TRACED_SEED = 10, 2, 1
LAYERS = (
    "groups.validate_cayley.busy_s",
    "mla.check_axioms.busy_s",
    "actions.pair_build.busy_s",
    "coset.enumerate.busy_s",
    "coset.cosets_defined",
    "coset.cosets_collapsed",
    "tensor.build.busy_s",
    "tensor.presentation.busy_s",
    "tensor.presentation.relators",
    "tensor.presentation.letters",
    "tensor.induce_actions.busy_s",
    "tensor.order",
    "cli.subprocess.busy_s",
    "harness.axioms.busy_s",
    "harness.identities.busy_s",
    "harness.compat.busy_s",
    "harness.tensor.busy_s",
    "harness.tuples",
    "harness.statements_run",
)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def build(parent: str) -> dict[str, Path]:
    """Fresh copies of the parent commit and of the working tree."""
    dirs = {"parent": BUILD / "parent", "change": BUILD / "change"}
    for d in dirs.values():
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dirs["parent"])], input=archive, check=True)
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted in the tree is left out
            dst = dirs["change"] / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return dirs


def src_lines(root: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "mlacalc").glob("*.py"))


def run(cwd: Path, workload: str, seed: int, trace: int) -> list[dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=cwd, check=True, capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines()[-2:]]


def alternate(dirs, workload: str, seed: int, trace: int, pairs: int) -> list[dict]:
    runs = []
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            lines = run(dirs[side], workload, seed, trace)
            print(f"{workload} trace {trace} pair {pair} {side}: "
                  f"{json.dumps(lines[1]['metrics'].get('wall_s', {}).get('value'))}", file=sys.stderr)
            runs.append({"pair": pair, "side": side, "first": order[0], "workload": workload,
                         "seed": seed, "lines": lines})
    return runs


def values(runs: list[dict], side: str, metric: str) -> list[float]:
    by_pair = sorted((r["pair"], r["lines"][1]["metrics"][metric]["value"]) for r in runs if r["side"] == side)
    return [v for _, v in by_pair]


def iqr(xs: list[float]) -> float:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def sound(runs: list[dict]) -> bool:
    """Every run reports correct results and no failed instance."""
    return all(r["lines"][1]["correct"] and not r["lines"][1]["failed"] for r in runs)


def summarize(runs: list[dict]) -> dict:
    out = {}
    for metric, bound in BOUNDS.items():
        parent, change = values(runs, "parent", metric), values(runs, "change", metric)
        pm, cm = statistics.median(parent), statistics.median(change)
        out[metric] = {
            "parent_median": round(pm, 4),
            "parent_iqr": round(iqr(parent), 4),
            "change_median": round(cm, 4),
            "change_iqr": round(iqr(change), 4),
            "change_better_pairs": sum(c < p for p, c in zip(parent, change)),  # all lower-better
            "pairs": len(parent),
            "relative_change": round(cm / pm - 1, 4),
            "bound": bound,
        }
    out["correct_and_no_failures"] = sound(runs)
    return out


def per_round(run: dict) -> dict[str, float]:
    rounds = run["lines"][0]["info"]["rounds"]
    metrics = run["lines"][1]["metrics"]
    return {name: round(metrics[name]["value"] / rounds, 4) for name in LAYERS if name in metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append", required=True, help="untraced workload (repeatable)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="append", default=[], help="workload for traced pairs (repeatable)")
    ap.add_argument("--title", default="")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)

    parent = git("rev-parse", args.parent).strip()
    dirs = build(parent)
    result = {
        "title": args.title,
        "parent": parent,
        "method": (
            f"scripts/bench_pairs.py: parent from git archive of {parent[:7]}, change from the working "
            f"tree's tracked and new files, each in a fresh directory under .bench_build/. Pairs alternate "
            f"which side runs first (odd pairs: parent first). Untraced runs: python3 perfbench/run.py "
            f"--workload <w> --seed {args.seed} --trace 0 (perfbench's default run length), {PAIRS} pairs "
            f"per workload in the order {', '.join(args.workload)}. Traced runs: --seed {TRACED_SEED} "
            f"--trace 1, {TRACED_PAIRS} pairs per traced workload; their per_round values are each "
            f"layer metric summed over the run divided by the run's rounds, and are not scaled for host speed. "
            f"perfbench's presentation counter reads Presentation.relators, a tuple view that the untraced "
            f"program does not build, inside tensor.build; compare tensor.presentation.busy_s and "
            f"coset.enumerate.busy_s between the sides, not tensor.build.busy_s."
        ),
        "summary": {"src_lines": {side: src_lines(d) for side, d in dirs.items()}},
        "runs": {},
        "traced": [],
    }
    for w in args.workload:
        runs = alternate(dirs, w, args.seed, 0, PAIRS)
        result["runs"][w] = runs
        result["summary"][w] = summarize(runs)
        for metric in BOUNDS:
            m = result["summary"][w][metric]
            print(f"{w} {metric}: {m['relative_change']:+.1%} against a bound of {m['bound']:.0%}, "
                  f"change better in {m['change_better_pairs']} of {m['pairs']} pairs", file=sys.stderr)
    for w in args.traced:
        runs = alternate(dirs, w, TRACED_SEED, 1, TRACED_PAIRS)
        layers = {}
        for r in runs:
            r["per_round"] = per_round(r)
            for name, v in r["per_round"].items():
                layers.setdefault(name, {"parent": [], "change": []})[r["side"]].append(v)
        result["traced"] += runs
        result["summary"][f"{w}-traced"] = layers
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result["summary"], indent=1))
    if not sound([*chain.from_iterable(result["runs"].values()), *result["traced"]]):
        print("a run reported correct: false or failed > 0", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
