"""mlacalc benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see perfbench/README.md for why each exists):

  corpus    46 conjugation self pairs of the order <= 12 corpus groups: tensor
            build plus the 37-statement ledger, and three ``verify --json``
            CLI subprocesses on the tensor fixtures
  rung-512  the C2xC2xC2 self pair, a tensor of order 512, and its ledger
  docs      40 seeded algebra documents of order 96-160, each through
            ``validate``, ``series`` and ``verify --json``; half are perturbed
            (runs by hand; BENCHMARK.json leaves it out, see README.md)

corpus and rung-512 also time ``validate`` on three rejected fixtures
between their instances, for ``witness_p50_ms``.

A run sets up its inputs several times (the median is ``setup_s``), then
runs whole rounds over its instances: at least one, and another only while
it would end within ``--seconds``.  Every output is checked against values
frozen in expected.json or derived independently (oracle.py); an instance
that fails a check or raises counts in ``failed``.  The end-to-end times are
scaled to a reference host speed, timed through the run (calibrate.py).
With ``--trace 1`` the run wraps the package's public functions (tracing.py)
and reports per-layer metrics instead.  The last line of standard output is
the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".perfbench"

SETUP_REPS = 5
HASH_SEED = "0"
# probe calls per round, at least, in turn over the three probes; rung-512
# has only two slots for them, so it makes longer bursts
PROBE_CALLS = {"corpus": 60, "rung-512": 600, "docs": 0}
SUBPROCESS_TIMEOUT_S = 150
DOCS_PER_RUN = 40
SUITES = ("axioms", "identities", "compat", "tensor")
# thm-3.13 builds and re-validates an order-512 quotient; these three build
# it (or one like it) again, about 10 s each, which rung-512 cannot afford
RUNG_DROPPED = ("rem-3.15.1", "rem-3.15.2", "rem-3.15.3")
# tensor-square orders of the trivial-star, trivial-bracket conjugation self
# pairs, computed by an independent HLT coset enumerator (see ROADMAP)
HLT_ORDERS = {
    "S3": 6, "C4": 4, "V4": 16, "Q8": 64, "D4": 32,
    "D5": 10, "D6": 48, "Dic3": 12, "A4": 24, "C6xC2": 48,
}
CLI_FIXTURES = ("q8-trivial", "s3-improper-star", "z2-trivial")
PROBE_FIXTURES = ("star-perturbed-c4", "star-perturbed-s3", "bracket-perturbed-q8")
STATUS_CODES = {"pass": "P", "fail": "F", "inapplicable": "I", "skipped": "S"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_p50_ms": "ms",
    "instance_p75_ms": "ms",
    "witness_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Case:
    """One instance: ``run`` calls the program, ``check`` returns an error or None."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    witness: bool = False  # rejected with a witness when correct
    probe: bool = False  # counts toward witness_p50_ms only


class Bench:
    def __init__(self, seed: int, tracer, cal) -> None:
        self.seed = seed
        self.tracer = tracer
        self.cal = cal
        self.expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def child(self):
        """Around a wait on a child process: no calibration chunk runs inside."""
        return self.cal.paused() if self.cal else contextlib.nullcontext()

    # --- shared pieces --------------------------------------------------------

    def ledger_codes(self, inst, dropped: tuple[str, ...] = ()) -> str:
        """Run each suite once; one status letter per catalogue id ('-' = dropped)."""
        from mlacalc import harness

        codes = {ident: "-" for ident in harness.CATALOGUE_IDS}
        for suite in SUITES:
            ids = [st.ident for st in harness.CATALOGUE if st.suite == suite]
            selection = [i for i in ids if i not in dropped] if dropped else suite
            ledger = harness.run_suite(inst, selection)
            for v in ledger.verdicts:
                if v.statement in ids and v.statement not in dropped:
                    codes[v.statement] = STATUS_CODES[v.status]
        return "".join(codes[i] for i in harness.CATALOGUE_IDS)

    def tensor_case(
        self, key: str, group, star: str, known_order: int | None, dropped: tuple[str, ...] = ()
    ) -> Case:
        import numpy as np
        from mlacalc import actions, harness, mla, tensor

        def run():
            if star == "trivial":
                M = mla.make_trivial_star(group)
                bracket = np.full((group.order, group.order), group.identity)
            else:
                M = mla.make_improper_star(group)
                bracket = M.star
            act = actions.conjugation_self_action(M, bracket)
            pair = actions.check_compatibility(act, act)
            t = tensor.build_tensor_algebra(pair)
            return t.order, self.ledger_codes(harness.Instance.from_tensor(t, key), dropped)

        want = self.expected["tensors"].get(key, {})

        def check(out):
            order, codes = out
            if known_order is not None and order != known_order:
                return f"order {order}, independently known to be {known_order}"
            if [order, codes] != [want.get("order"), want.get("ledger")]:
                return f"order {order} ledger {codes}, expected {want}"
            return None

        return Case(key, run, check)

    def cli_case(self, fixture: str) -> Case:
        path = FIXTURES / "tensors" / f"{fixture}.json"
        env = {k: v for k, v in os.environ.items() if k != "MLACALC_BUDGET_SECS"}
        env["PYTHONPATH"] = str(ROOT / "src")

        def run():
            with self.span("cli.subprocess"), self.child():
                proc = subprocess.run(
                    [sys.executable, "-m", "mlacalc", "verify", str(path), "--json"],
                    cwd=ROOT, env=env, capture_output=True, text=True,
                    timeout=SUBPROCESS_TIMEOUT_S,
                )
            return proc.returncode, proc.stdout

        golden = ROOT / "tests" / "golden" / "verify-q8-tensor.json"

        def check(out):
            rc, stdout = out
            if rc != 0:
                return f"exit {rc}"
            text = normalize_cli_json(stdout)
            if fixture == "q8-trivial" and text != golden.read_text(encoding="utf-8"):
                return "output differs from tests/golden/verify-q8-tensor.json"
            if digest(text) != self.expected["cli"].get(fixture):
                return "output digest differs from expected.json"
            return None

        return Case(f"cli/{fixture}", run, check)

    def probe_case(self, fixture: str) -> Case:
        """A small document rejected with a witness: times the fail path."""
        from perfbench import oracle

        path = FIXTURES / "bad" / f"{fixture}.json"
        want = self.expected["probes"].get(fixture)

        def run():
            return call_cli(["validate", str(path), "--json"])

        def check(out):
            rc, text = out
            error = json.loads(text)["error"]
            got = {k: error.get(k) for k in ("error", "axiom", "condition", "witness")}
            if rc != 1 or got != want:
                return f"exit {rc} {got}, expected exit 1 {want}"
            if error.get("axiom"):
                T, S = doc_tables(json.loads(path.read_text(encoding="utf-8")))
                if not oracle.violated(error["axiom"], T, S, *error["witness"]):
                    return f"axiom {error['axiom']} holds at the reported witness"
            return None

        return Case(f"probe/{fixture}", run, check, witness=True, probe=True)

    # --- workloads --------------------------------------------------------------

    def corpus(self) -> list[Case]:
        from mlacalc import corpus

        cases = []
        for name in corpus.group_names():
            if name == "C2xC2xC2":
                continue
            G = corpus.get_group(name)
            cases += [
                self.tensor_case(f"{name}/{s}", G, s, HLT_ORDERS.get(name) if s == "trivial" else None)
                for s in ("trivial", "improper")
            ]
        cases += [self.cli_case(f) for f in CLI_FIXTURES]
        cases += [self.probe_case(f) for f in PROBE_FIXTURES]
        return cases

    def rung_512(self) -> list[Case]:
        from mlacalc import corpus

        G = corpus.get_group("C2xC2xC2")
        # trivial actions on an abelian group: G ⊗ G is G ⊗_Z G = C2^9
        cases = [self.tensor_case("C2xC2xC2/trivial", G, "trivial", 512, RUNG_DROPPED)]
        return cases + [self.probe_case(f) for f in PROBE_FIXTURES]

    def docs(self) -> list[Case]:
        from perfbench import docgen

        groups = docgen.load_factor_groups(FIXTURES / "algebras")
        folder = WORK / f"docs-{os.getpid()}"
        folder.mkdir(parents=True, exist_ok=True)
        cases = []
        for spec in docgen.plan(self.seed, DOCS_PER_RUN, groups):
            doc, G, star = docgen.build(spec, groups)
            path = folder / f"{spec.name}.json"
            docgen.write(doc, path)
            cases.append(self.doc_case(spec, path, G.table, star))
        return cases

    def doc_case(self, spec, path: Path, T, S) -> Case:
        from perfbench import oracle

        def run():
            return [call_cli([cmd, str(path), "--json"]) for cmd in ("validate", "series", "verify")]

        def check(out):
            (v_rc, v_out), (s_rc, _), (f_rc, f_out) = out
            if s_rc != 0:
                return f"series exit {s_rc}"
            if spec.perturbation is None:
                return None if v_rc == f_rc == 0 else f"valid document: exits {v_rc}, {f_rc}"
            if v_rc != 1 or f_rc != 1:
                return f"perturbed document: exits {v_rc}, {f_rc}"
            error = json.loads(v_out)["error"]
            axiom, witness = error.get("axiom"), error.get("witness")
            if not axiom or not oracle.violated(axiom, T, S, *witness):
                return f"reported axiom {axiom} holds at {witness}"
            least = oracle.least_violation(T, S, spec.perturbation[:2])
            if [axiom, witness] != list(least):
                return f"reported axiom {axiom} at {witness}, least is {least}"
            verdict = json.loads(f_out)["verdicts"][0]
            if verdict["status"] != "fail" or verdict["witness"].get("witness") != witness:
                return "verify does not reject def-2.1 with the validate witness"
            return None

        return Case(spec.name, run, check, witness=spec.perturbation is not None)


def call_cli(argv: list[str]) -> tuple[int, str]:
    from mlacalc import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def doc_tables(doc: dict):
    import numpy as np

    index = {s: i for i, s in enumerate(doc["elements"])}
    T = np.array([[index[c] for c in row] for row in doc["table"]])
    S = np.array([[index[c] for c in row] for row in doc["star"]])
    return T, S


def _zero_wall_ms(obj):
    if isinstance(obj, dict):
        return {k: (0 if k == "wall_ms" else _zero_wall_ms(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_zero_wall_ms(v) for v in obj]
    return obj


def normalize_cli_json(text: str) -> str:
    return json.dumps(_zero_wall_ms(json.loads(text)), indent=2, ensure_ascii=False) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def docs_digest(cases: list[Case], outputs: dict[str, Any]) -> str:
    """Verdicts, witnesses and series orders of every document, in order."""
    rows = []
    for case in cases:
        (v_rc, v_out), (s_rc, s_out), (f_rc, f_out) = outputs[case.id]
        error = json.loads(v_out).get("error", {})
        series = [
            [a["derived"]["orders"], a["lower_central"]["orders"]]
            for a in json.loads(s_out)["algebras"]
        ]
        verdicts = [
            [v["statement"], v["status"], (v.get("witness") or {}).get("witness")]
            for v in json.loads(f_out)["verdicts"]
        ]
        rows.append([case.id, v_rc, error.get("axiom"), error.get("witness"), s_rc, series, f_rc, verdicts])
    return digest(json.dumps(rows, separators=(",", ":")))


WORKLOADS = {"corpus": Bench.corpus, "rung-512": Bench.rung_512, "docs": Bench.docs}
# the host-speed kernel (calibrate.py) that does the dominant kind of work of
# each workload's instances; docs, like rung-512, is mostly axiom scans over
# larger tables.  Probe calls validate small documents: the document kernel
INSTANCE_KERNEL = {
    "corpus": "document_kernel", "rung-512": "table_kernel", "docs": "table_kernel",
}


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all the
    order statistics.  Unlike a single order statistic it does not jump when
    two instances of nearly equal time swap places.  One value is returned as is.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # the Beta(a, b) CDF at i/n, by the trapezoid rule on a fine grid; the
    # density is taken as 0 at the ends, exact for a, b > 1 (n >= 3)
    grid = np.linspace(0.0, 1.0, 20001)
    inner = grid[1:-1]
    pdf = np.zeros_like(grid)
    pdf[1:-1] = np.exp((a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner))
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mlacalc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def import_seconds(bench: Bench) -> float:
    """Time to import numpy and mlacalc, timed inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import numpy, mlacalc; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with bench.child():
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S, check=True,
        )
    return float(proc.stdout)


def measure(bench: Bench, workload: str, seconds: float) -> dict[str, Any]:
    from perfbench import calibrate

    build = WORKLOADS[workload]
    cal = bench.cal
    spent = (lambda: cal.spent_s) if cal else (lambda: 0.0)
    setups = []
    for _ in range(SETUP_REPS):
        t0, c0 = time.perf_counter(), spent()
        cases = build(bench)
        built = time.perf_counter() - t0 - (spent() - c0)
        setups.append(import_seconds(bench) + built)
    if bench.tracer:
        bench.tracer.reset()  # set-up calls are not part of the measured section

    samples: dict[str, list[float]] = {c.id: [] for c in cases}
    spans: dict[str, list[tuple[float, float]]] = {c.id: [] for c in cases}
    scaled: dict[str, list[float]] = {c.id: [] for c in cases}
    main = [c for c in cases if not c.probe]
    probes = [c for c in cases if c.probe]
    # probe calls go before and between instances, so they sample the whole round
    per_slot = -(-PROBE_CALLS[workload] // (len(main) + 1)) if probes else 0

    def timed(case: Case) -> Any:
        if bench.tracer:
            bench.tracer.instance = case.id
        t0, c0 = time.perf_counter(), spent()
        try:
            out = case.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = _RAISED
        t1 = time.perf_counter()
        samples[case.id].append(t1 - t0 - (spent() - c0))
        spans[case.id].append((t0, t1))
        return out

    walls: list[float] = []
    scaled_walls: list[float] = []
    round_scales: list[float] = []
    attempted = failed = calls = 0
    outputs: dict[str, Any] = {}
    started = time.perf_counter()
    while True:
        marks = {k: len(v) for k, v in samples.items()}
        first_chunk = len(cal.starts) if cal else 0
        for i in range(len(main) + 1):
            for _ in range(per_slot):
                probe = probes[calls % len(probes)]
                calls += 1
                attempted += 1
                failed += _report(probe, timed(probe))
            if i < len(main):
                outputs[main[i].id] = timed(main[i])
        # the host's speed drifts within a run and within a round, so each
        # time is scaled by the chunks timed around it, or in its round
        if cal:
            round_scales.append(cal.scale(cal.kernels[0], first_chunk))
        for case in cases:
            new = list(zip(samples[case.id], spans[case.id]))[marks[case.id]:]
            if not cal:
                scaled[case.id] += [t for t, _ in new]
                continue
            kernel = calibrate.document_kernel if case.probe else cal.kernels[0]
            for t, span in new:
                f = cal.scale_over(kernel, *span) or cal.scale(kernel, first_chunk)
                scaled[case.id].append(t * f)
        walls.append(sum(samples[c.id][-1] for c in main))
        scaled_walls.append(sum(scaled[c.id][-1] for c in main))
        for case in main:
            attempted += 1
            failed += _report(case, outputs[case.id])
        if time.perf_counter() - started + walls[-1] > seconds:
            break

    got = None
    if workload == "docs" and _RAISED not in outputs.values():
        got = docs_digest(cases, outputs)
        want = bench.expected["docs_digests"].get(str(bench.seed))
        if want is not None and got != want:
            print(f"docs digest {got} differs from expected {want}", file=sys.stderr)
            failed += 1
            attempted += 1

    def figures(times: dict[str, list[float]], round_walls: list[float], setup_s: float):
        # an instance's time is its median round
        inst = [statistics.median(times[c.id]) for c in main]
        wit = [t for c in cases if c.witness for t in times[c.id]]
        return {
            "setup_s": setup_s,
            "wall_s": statistics.median(round_walls),
            "instance_p50_ms": 1000 * hd_quantile(inst, 0.5),
            "instance_p75_ms": 1000 * hd_quantile(inst, 0.75),
            "witness_p50_ms": 1000 * statistics.median(wit),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    # set-up is not scaled: it is mostly the import child's time, which
    # followed the kernel's worse than it held still on its own
    setup_s = statistics.median(setups)
    return {
        "measured": figures(samples, walls, setup_s),
        "scaled": figures(scaled, scaled_walls, setup_s),
        "round_scales": round_scales,
        "traced_s": time.perf_counter() - started,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(walls),
        "instances": len(main),
        "witness_samples": sum(len(samples[c.id]) for c in cases if c.witness),
        "docs_digest": got,
        "samples": samples,
    }


_RAISED = object()


def _report(case: Case, out: Any) -> int:
    """1 if the instance raised or its output is wrong, else 0."""
    if out is _RAISED:
        print(f"FAILED {case.id}: raised", file=sys.stderr)
        return 1
    try:
        problem = case.check(out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        problem = "check raised"
    if problem:
        print(f"FAILED {case.id}: {problem}", file=sys.stderr)
        return 1
    return 0


def per_layer(tracer, m: dict[str, Any]) -> dict[str, tuple[float, str]]:
    from perfbench import tracing

    s = tracing.summarize(tracer, m["traced_s"])
    defined = s.get("coset.cosets_defined", 0)
    s["coset.live_per_defined"] = s.get("coset.live", 0) / defined if defined else 0.0
    s["trace.wall_s"] = m["measured"]["wall_s"]
    s["trace.traced_s"] = m["traced_s"]
    s["trace.spans"] = len(tracer.spans)
    s["trace.overhead_est_s"] = len(tracer.spans) * _span_cost()
    layers = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    return {x["name"]: (s.get(x["name"], 0), x["unit"]) for x in layers}


def _span_cost() -> float:
    """Seconds one traced call adds: a wrapped no-op against a bare one."""
    from perfbench import tracing

    def per_call(fn: Callable[[], None]) -> float:
        t0 = time.perf_counter()
        for _ in range(20000):
            fn()
        return (time.perf_counter() - t0) / 20000

    bare = lambda: None  # noqa: E731
    return max(per_call(tracing.Tracer().wrap(bare, "probe")) - per_call(bare), 0.0)


def write_out(name: str, data: Any) -> str:
    """Write JSON under the scratch directory; returns its path from the root."""
    path = WORK / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path.relative_to(ROOT))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1, help="docs generator seed")
    parser.add_argument("--seconds", type=float, default=50.0, help="measure whole rounds up to this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    os.environ.pop("MLACALC_BUDGET_SECS", None)
    import numpy

    import mlacalc  # noqa: F401  (fails early outside a source checkout)
    from perfbench import calibrate, tracing

    # a traced run reports per-layer figures, which are not scaled, so it
    # runs no calibration chunks inside the spans it times
    tracer = cal = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        kernels = [getattr(calibrate, INSTANCE_KERNEL[args.workload])]
        if PROBE_CALLS[args.workload] and calibrate.document_kernel not in kernels:
            kernels.append(calibrate.document_kernel)
        cal = calibrate.Calibrator(kernels)
        cal.start()
    bench = Bench(args.seed, tracer, cal)
    try:
        m = measure(bench, args.workload, args.seconds)
    finally:
        if cal:
            cal.stop()
        shutil.rmtree(WORK / f"docs-{os.getpid()}", ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        **{k: m[k] for k in ("rounds", "instances", "witness_samples", "docs_digest")},
    }
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info["samples_file"] = write_out(f"samples/{run_name}.json", m["samples"])
    if tracer:
        info["spans_file"] = write_out(f"spans/{run_name}.json", [vars(s) for s in tracer.spans])
        metrics = per_layer(tracer, m)
    else:
        # times at the reference host speed (calibrate.py); the measured
        # times and the factors stay in info
        info["host_scale"] = cal.scale(cal.kernels[0])
        info["round_scales"] = m["round_scales"]
        info["calibration_samples"] = len(cal.starts)
        info["measured"] = m["measured"]
        metrics = {k: (m["scaled"][k], unit) for k, unit in END_TO_END.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # the str hash seed sets dict and set order, which moved instance times by
    # up to a tenth from one interpreter to the next; so every run, and every
    # child it starts, uses the same seed
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
