"""Spans around calls into mlacalc's modules, for traced benchmark runs.

``install`` replaces each traced public function, wherever a module of the
package holds a reference to it, by a wrapper that records a span (name,
start, end, parent span, instance id) and adds counters read from the
returned value.  Spans stay in memory until the run ends.  An untraced run
never calls ``install``, so it measures the unmodified program.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

# layer names, in pipeline order; a span's layer is the part before the dot
LAYERS = ("groups", "mla", "actions", "coset", "tensor", "harness", "docs", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    instance: str | None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    instance: str | None = None
    _stack: list[int] = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def span(self, name: str) -> "_Open":
        return _Open(self, name)

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        count: Callable[[Counter, tuple, dict, Any], None] | None = None,
        on_error: Callable[[Counter, BaseException], None] | None = None,
    ) -> Callable:
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                try:
                    result = fn(*args, **kwargs)
                except Exception as ex:
                    if on_error:
                        on_error(self.counters, ex)
                    raise
            if count:
                count(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


class _Open:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        t._stack.append(len(t.spans))
        t.spans.append(Span(self.name, time.perf_counter(), 0.0, parent, t.instance))

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[t._stack.pop()].end = time.perf_counter()


def _suite_of(inst, selection="all") -> str:
    from mlacalc import harness

    if isinstance(selection, str):
        return f"harness.{selection}"
    return f"harness.{harness.statement(next(iter(selection))).suite}"


def _cli_name(argv=None) -> str:
    return f"cli.main.{argv[0] if argv else 'none'}"


def _count_enumeration(c: Counter, args, kwargs, res) -> None:
    c["coset.cosets_defined"] += res.stats.cosets_defined
    c["coset.cosets_collapsed"] += res.stats.cosets_collapsed
    c["coset.live"] += res.stats.live


def _count_presentation(c: Counter, args, kwargs, pres) -> None:
    c["tensor.presentation.generators"] += pres.generator_count
    c["tensor.presentation.relators"] += len(pres.relators)
    c["tensor.presentation.letters"] += sum(len(r) for r in pres.relators)


def _count_star(c: Counter, args, kwargs, t) -> None:
    c["tensor.star_rounds"] += t.rounds
    c["tensor.extra_relators"] += len(t.extra_relators)


def _count_build(c: Counter, args, kwargs, t) -> None:
    c["tensor.order"] += t.order


def _count_ledger(c: Counter, args, kwargs, ledger) -> None:
    for v in ledger.verdicts:
        if v.status in ("pass", "fail"):
            c["harness.statements_run"] += 1
            c["harness.tuples"] += v.tuples


def _count_axioms(c: Counter, args, kwargs, result) -> None:
    n = args[0].order
    c["mla.dense_table_bytes"] += 3 * 8 * n * n  # Cayley, conjugation, star


def _count_axiom_witness(c: Counter, ex: BaseException) -> None:
    if getattr(ex, "payload", {}).get("axiom") is not None:
        c["mla.check_axioms.witnesses"] += 1


def _count_parse(c: Counter, args, kwargs, result) -> None:
    data = args[0]
    if isinstance(data, str):
        c["docs.parse.bytes"] += len(data.encode("utf-8"))


def _targets():
    from mlacalc import actions, cli, coset, docs, groups, harness, mla, tensor

    return [
        (groups, "validate_cayley", "groups.validate_cayley", None, None),
        (mla, "check_axioms", "mla.check_axioms", _count_axioms, _count_axiom_witness),
        (mla, "check_lie_identities", "mla.check_lie_identities", None, None),
        (mla, "derived_series", "mla.series", None, None),
        (mla, "lower_central_series", "mla.series", None, None),
        (actions, "conjugation_self_action", "actions.pair_build", None, None),
        (actions, "check_compatibility", "actions.pair_build", None, None),
        (coset, "coset_enumerate", "coset.enumerate", _count_enumeration, None),
        (tensor, "build_tensor_algebra", "tensor.build", _count_build, None),
        (tensor, "build_tensor_presentation", "tensor.presentation", _count_presentation, None),
        (tensor, "induce_star", "tensor.induce_star", _count_star, None),
        (tensor, "induce_actions", "tensor.induce_actions", None, None),
        (harness, "run_suite", _suite_of, _count_ledger, None),
        (docs, "parse_document", "docs.parse", _count_parse, None),
        (cli, "main", _cli_name, None, None),
    ]


def install(tracer: Tracer) -> None:
    """Route every reference the package holds to a traced function through ``tracer``."""
    targets = _targets()
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "mlacalc"]
    for module, attr, name, count, on_error in targets:
        original = getattr(module, attr)
        traced = tracer.wrap(original, name, count, on_error)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)


def summarize(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics: calls and busy time per span name, counters, self-time shares."""
    spans = tracer.spans
    out: dict[str, float] = {}
    calls: Counter = Counter()
    busy: Counter = Counter()
    child: list[float] = [0.0] * len(spans)
    for i, s in enumerate(spans):
        d = s.end - s.start
        if s.parent >= 0:
            child[s.parent] += d
        calls[s.name] += 1
        # busy time counts the outermost span of a name, so recursion is not double counted
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            busy[s.name] += d
    layer_self: Counter = Counter()
    for i, s in enumerate(spans):
        layer_self[s.name.split(".")[0]] += (s.end - s.start) - child[i]
    for name in sorted(calls):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
    out.update(tracer.counters)
    traced = sum(layer_self.values())
    for layer in LAYERS:
        out[f"share.{layer}"] = layer_self[layer] / wall_s
    out["share.untraced"] = max(wall_s - traced, 0.0) / wall_s
    return out
