"""Work counts of a tensor build and its whole ledger: the order-512 rung and
D5 with the commutator star.

The rung's tensor (the C2xC2xC2 trivial self pair, C2^9) is built once and
proven along the way.  These counts are deterministic, so work that proves
again what is already proven fails here, without depending on a timing:

- one normal-form tree per enumeration (the enumeration's own tree serves
  the star extension and the induced actions);
- no axiom law table (the trivial star is recognized);
- no exhaustive relator-closure scan (closure is proven at coset 0);
- no np.unique without return_index (distinct values are read off a mask);
- the items util.scan pulls, from the pair through the ledger: the law
  families scan blocks of outer elements, not one slab per element (386
  items for the rung and 488 for D5 when they did), a self pair's action
  is scanned once, not once per side, and a factor ideal that arrives
  proven is not validated again (102 and 88 items before either);
- validate_ideal runs 8 times for D5 (12 when the tensor ideals re-checked
  their proven factors);
- D5's ledger builds each series once per algebra: 8 builds on 4 algebras
  (16 when derived_series and lower_central_series built on every call);
- the enumeration's set-up sorts packed int64 keys: no np.split per
  letter and no np.unique over void rows.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from mlacalc import actions, coset, harness, mla, tensor, util
from .self_pairs import self_pair


def count_scan_items(monkeypatch) -> Counter:
    """The items util.scan pulls, by stage, from here on."""
    pulled: Counter = Counter()

    def counting(stage, items):
        def each():
            for item in items:
                pulled[stage] += 1
                yield item

        return util.scan(stage, each())

    for module in (actions, mla, tensor):
        monkeypatch.setattr(module, "scan", counting)
    return pulled


def test_the_d5_improper_ledger_scans_in_blocks(monkeypatch):
    pulled = count_scan_items(monkeypatch)
    validated, validate = [], mla.validate_ideal
    for module in (actions, mla, tensor):  # each module calls its own import
        monkeypatch.setattr(module, "validate_ideal", lambda M, S: validated.append(S) or validate(M, S))
    built, run = [], mla._run_series  # (algebra, kind) per series build, the algebras kept alive
    monkeypatch.setattr(mla, "_run_series", lambda M, step, kind: built.append((M, kind)) or run(M, step, kind))
    t = tensor.build_tensor_algebra(self_pair("D5", "improper"))
    ledger = harness.run_suite(harness.Instance.from_tensor(t, "D5/improper"))
    assert ledger.counts() == {"pass": 37, "fail": 0, "inapplicable": 0, "skipped": 0}
    assert sum(pulled.values()) == 75
    assert len(validated) == 8
    assert len(built) == len({(id(M), kind) for M, kind in built}) == 8
    assert len({id(M) for M, _ in built}) == 4


def test_the_order_512_rung_proves_nothing_twice(monkeypatch):
    calls: Counter = Counter()

    def count(module, name, key=None):
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            calls[key or name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    count(tensor, "coset_enumerate")
    for module in (coset, tensor):  # where normal-form trees are grown
        count(module, "spanning_tree")
    count(mla, "_axiom_laws")
    count(coset, "_check_relators_close")
    unique = np.unique

    def unique_spy(*args, **kwargs):
        if not kwargs.get("return_index"):
            calls["np.unique without return_index"] += 1
        return unique(*args, **kwargs)

    def void_unique_spy(ar, *args, **kwargs):
        if np.asarray(ar).dtype.kind == "V":
            calls["np.unique over void rows"] += 1
        return unique_spy(ar, *args, **kwargs)

    def split_spy(*args, **kwargs):
        calls["np.split"] += 1
        return split(*args, **kwargs)

    split = np.split
    monkeypatch.setattr(np, "unique", void_unique_spy)
    monkeypatch.setattr(np, "split", split_spy)
    pulled = count_scan_items(monkeypatch)

    pair = self_pair("C2xC2xC2", "trivial")
    t = tensor.build_tensor_algebra(pair)
    ledger = harness.run_suite(harness.Instance.from_tensor(t, "rung-512"))
    assert (t.order, t.rounds, t.result.stats.cosets_defined) == (512, 1, 513)
    assert ledger.counts() == {"pass": 37, "fail": 0, "inapplicable": 0, "skipped": 0}
    assert calls == Counter(coset_enumerate=1, spanning_tree=1)
    assert sum(pulled.values()) == 89
