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
  items for the rung and 488 for D5 when they did).
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
    t = tensor.build_tensor_algebra(self_pair("D5", "improper"))
    ledger = harness.run_suite(harness.Instance.from_tensor(t, "D5/improper"))
    assert ledger.counts() == {"pass": 37, "fail": 0, "inapplicable": 0, "skipped": 0}
    assert sum(pulled.values()) == 88


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

    monkeypatch.setattr(np, "unique", unique_spy)
    pulled = count_scan_items(monkeypatch)

    pair = self_pair("C2xC2xC2", "trivial")
    t = tensor.build_tensor_algebra(pair)
    ledger = harness.run_suite(harness.Instance.from_tensor(t, "rung-512"))
    assert (t.order, t.rounds, t.result.stats.cosets_defined) == (512, 1, 513)
    assert ledger.counts() == {"pass": 37, "fail": 0, "inapplicable": 0, "skipped": 0}
    assert calls == Counter(coset_enumerate=1, spanning_tree=1)
    assert sum(pulled.values()) == 102
