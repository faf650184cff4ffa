"""Group layer: Cayley validation, closures, quotients.

Oracles here are deliberately naive: plain python loops and sets, no shared
code with the implementation under test.
"""

from __future__ import annotations

from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlacalc import util
from mlacalc.corpus import all_groups, direct_product, get_group, group_names
from mlacalc.errors import InputError, MathViolation, NotAssociative
from mlacalc.groups import (
    Subgroup,
    normal_closure,
    quotient,
    spanning_tree,
    subgroup_closure,
    tree_words,
    validate_cayley,
)
from mlacalc.mla import check_lie_identities, ideal_closure, make_trivial_star
from mlacalc.tensor import build_tensor_algebra
from .self_pairs import self_pair

EXPECTED_ORDERS = {
    "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7, "C8": 8,
    "C9": 9, "C10": 10, "C11": 11, "C12": 12, "V4": 4, "C4xC2": 8,
    "C2xC2xC2": 8, "C3xC3": 9, "C6xC2": 12, "S3": 6, "D4": 8, "D5": 10,
    "D6": 12, "Q8": 8, "Dic3": 12, "A4": 12,
}


def naive_closure(table, seed):
    """Subgroup generated by seed: repeated products only (finite group)."""
    members = {0} | set(seed)
    while True:
        nxt = {int(table[a, b]) for a in members for b in members}
        if nxt <= members:
            return members
        members |= nxt


def element_order(table, x):
    n, acc = 1, x
    while acc != 0:
        acc = int(table[acc, x])
        n += 1
    return n


def test_corpus_all_validate_with_expected_orders():
    got = all_groups()
    assert set(got) == set(EXPECTED_ORDERS)
    for name, G in got.items():
        assert G.order == EXPECTED_ORDERS[name], name
        assert int(G.identity) == 0
        assert len(set(G.labels)) == G.order


def test_corpus_covers_every_order_up_to_twelve():
    orders = sorted(EXPECTED_ORDERS.values())
    for k in range(1, 13):
        assert k in orders


def _loop_dihedral(m):
    # s^f r^k at index f*m + k; r s = s r^-1
    return [
        [(f1 ^ f2) * m + ((-k1 if f2 else k1) + k2) % m for f2 in (0, 1) for k2 in range(m)]
        for f1 in (0, 1)
        for k1 in range(m)
    ]


def _loop_dicyclic(m):
    # a^k x^f at index f*2m + k; x^2 = a^m, x a = a^-1 x
    def mul(f1, k1, f2, k2):
        if f1 == 0:
            return f2, (k1 + k2) % (2 * m)
        return (1, (k1 - k2) % (2 * m)) if f2 == 0 else (0, (k1 - k2 + m) % (2 * m))

    idx = [(f, k) for f in (0, 1) for k in range(2 * m)]
    return [[(lambda f, k: f * 2 * m + k)(*mul(*a, *b)) for b in idx] for a in idx]


def _loop_a4():
    # the even permutations of 0..3, sorted, under (p q)(x) = p(q(x))
    def inversions(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))

    even = sorted(p for p in permutations(range(4)) if inversions(p) % 2 == 0)
    pos = {p: i for i, p in enumerate(even)}
    return ["".join(map(str, p)) for p in even], [
        [pos[tuple(p[q[x]] for x in range(4))] for q in even] for p in even
    ]


def test_corpus_tables_match_their_loop_definitions():
    for m in range(3, 7):
        assert get_group(f"D{m}" if m > 3 else "S3").table.tolist() == _loop_dihedral(m)
    for name, m in (("Q8", 2), ("Dic3", 3)):
        assert get_group(name).table.tolist() == _loop_dicyclic(m)
    labels, table = _loop_a4()
    A4 = get_group("A4")
    assert list(A4.labels) == labels and A4.table.tolist() == table
    for n in range(1, 13):
        G = get_group(f"C{n}")
        assert G.labels == tuple(map(str, range(n)))
        assert G.table.tolist() == [[(a + b) % n for b in range(n)] for a in range(n)]


def test_element_order_multisets():
    # independent loop-based orders against two nonabelian groups
    q8 = get_group("Q8")
    orders = sorted(element_order(q8.table, x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    s3 = get_group("S3")
    orders = sorted(element_order(s3.table, x) for x in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_least_generators_generate_and_are_least():
    # every corpus group, two of order 32 and the order-512 rung, whose spans
    # least_generators closes under right multiplication by its generators
    more = {
        "D4xC4": direct_product(get_group("D4"), get_group("C4")),
        "Q8xC4": direct_product(get_group("Q8"), get_group("C4")),
        "rung-512": build_tensor_algebra(self_pair("C2xC2xC2", "trivial")).group,
    }
    for name, G in {**all_groups(), **more}.items():
        gens = G.generators
        assert gens.dtype == np.int64, name
        span = naive_closure(G.table, ())
        for g in gens:
            # the least element outside the span of the earlier generators
            assert int(g) == min(set(range(G.order)) - span), name
            span = naive_closure(G.table, span | {int(g)})
        assert span == set(range(G.order)), name
    C1 = get_group("C1")
    assert C1.generators.shape == (0,) and C1.generators.dtype == np.int64
    # the reduced checks index tables with the generators, also when there are none
    assert set(check_lie_identities(make_trivial_star(C1)).values()) == {None}


def oracle_associativity_witness(table):
    """Least (i, j, k) with (i·j)·k != i·(j·k), by a triple loop."""
    for i, j, k in product(range(len(table)), repeat=3):
        if table[table[i, j], k] != table[i, table[j, k]]:
            return [i, j, k]
    return None


def _perturbed_table_keeps_the_least_witness(data):
    # associativity is proven on the generators (Light's test); a table it
    # rejects must still report the least witness of the full scan
    name = data.draw(st.sampled_from([n for n in group_names() if EXPECTED_ORDERS[n] >= 2]))
    G = get_group(name)
    n = G.order
    table = G.table.copy()
    for _ in range(data.draw(st.integers(1, 2))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        old = int(table[i, j])
        table[i, j] = data.draw(st.integers(0, n - 1).filter(lambda v: v != old))
    want = oracle_associativity_witness(table)
    try:
        validate_cayley(G.labels, table)
    except NotAssociative as ex:
        assert ex.payload["witness"] == want
        i, j, k = want
        assert str(ex) == f"associativity fails at ({G.labels[i]},{G.labels[j]},{G.labels[k]})"
    except MathViolation:
        pass  # closure, identity or inverses fail before associativity is checked
    else:
        assert want is None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_perturbed_tables_raise_the_least_associativity_witness(data):
    _perturbed_table_keeps_the_least_witness(data)


def _least_associativity_witness(table):
    """Least (i, j, k) with (i·j)·k != i·(j·k), over every triple in blocks of i."""
    n, cols = len(table), np.arange(len(table))
    for lo in range(0, n, 8):
        rows = table[lo : lo + 8]  # i·j at [i - lo, j]
        at = np.argwhere(table[rows[:, :, None], cols] != rows[:, table])
        if len(at):
            i, j, k = at[0]
            return [lo + int(i), int(j), int(k)]
    return None


LARGE_TABLES = {
    "Q8-tensor": lambda: build_tensor_algebra(self_pair("Q8", "trivial")).group,  # 64
    "C3xC3-tensor": lambda: build_tensor_algebra(self_pair("C3xC3", "trivial")).group,  # 81
    "A4xC8": lambda: direct_product(get_group("A4"), get_group("C8")),  # 96, not abelian
    "C2xC2xC2-tensor": lambda: build_tensor_algebra(self_pair("C2xC2xC2", "trivial")).group,  # 512
}


def _perturbed_large_tables_keep_the_least_witness(G):
    # one entry (i, j) changed, with i, j, the old and the new value all not
    # the identity: the identity and every inverse survive, so only
    # associativity can fail, and it must, with the exhaustive least witness
    n, e = G.order, G.identity
    assert n >= 64
    rng = np.random.default_rng(21)
    for _ in range(3):
        table = G.table.copy()
        while True:
            i, j, v = (int(c) for c in rng.integers(0, n, 3))
            if e not in (i, j, table[i, j], v) and v != table[i, j]:
                break
        table[i, j] = v
        want = _least_associativity_witness(table)
        assert want is not None
        with pytest.raises(NotAssociative) as exc:
            validate_cayley(G.labels, table)
        assert exc.value.payload["witness"] == want


@pytest.mark.parametrize("name", LARGE_TABLES)
def test_light_test_on_large_tables_keeps_the_least_witness(name):
    _perturbed_large_tables_keep_the_least_witness(LARGE_TABLES[name]())


def _f_order(table):
    """The same values as a transposed view: F-order, as coset_enumerate's table."""
    return np.ascontiguousarray(table.T).T


def _failure(labels, table):
    with pytest.raises(MathViolation) as exc:
        validate_cayley(labels, table)
    return type(exc.value), exc.value.payload


def test_an_f_order_table_validates_as_its_c_order_copy(groups):
    for G in [G for G in groups.values() if G.order > 1] + [LARGE_TABLES["C2xC2xC2-tensor"]()]:
        F = _f_order(G.table)
        assert F.flags.f_contiguous and not F.flags.c_contiguous
        a, b = validate_cayley(G.labels, F), validate_cayley(G.labels, G.table.copy())
        assert a.table.flags.c_contiguous and not a.table.flags.writeable
        assert a.labels == b.labels and a.identity == b.identity
        for field in ("table", "inverses", "generators"):
            assert (getattr(a, field) == getattr(b, field)).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_an_f_order_table_fails_as_its_c_order_copy(data):
    name = data.draw(st.sampled_from([n for n in group_names() if EXPECTED_ORDERS[n] >= 2]))
    G = get_group(name)
    n = G.order
    table = G.table.copy()
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    table[i, j] = data.draw(st.integers(0, n - 1).filter(lambda v: v != G.table[i, j]))
    assert _failure(G.labels, _f_order(table)) == _failure(G.labels, table)


def _f_order_breaks_associativity_as_its_c_order_copy(G):
    # one entry changed away from the identity: only associativity fails
    table = G.table.copy()
    rng = np.random.default_rng(24)
    while True:
        i, j, v = (int(c) for c in rng.integers(0, G.order, 3))
        if G.identity not in (i, j, table[i, j], v) and v != table[i, j]:
            break
    table[i, j] = v
    cls, payload = _failure(G.labels, table)
    assert cls is NotAssociative and payload["witness"] == _least_associativity_witness(table)
    assert _failure(G.labels, _f_order(table)) == (cls, payload)


@pytest.mark.parametrize("name", ["A4xC8", "C2xC2xC2-tensor"])
def test_an_f_order_table_breaks_associativity_as_its_c_order_copy(name):
    _f_order_breaks_associativity_as_its_c_order_copy(LARGE_TABLES[name]())


# Light's test reads the table in blocks of rows of at most util.BLOCK_ENTRIES
# entries per generator: one block up to order 256, and here a few rows
FEW_ROWS = 24  # 3 rows at order 8, 2 at order 12, 1 from order 25 on


def _in_few_row_blocks(check, *args):
    with mock.patch.object(util, "BLOCK_ENTRIES", FEW_ROWS):
        assert len(util.row_blocks(64, 64)) == 64
        check(*args)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_light_test_in_few_row_blocks_keeps_the_least_witness(data):
    _in_few_row_blocks(_perturbed_table_keeps_the_least_witness, data)


@pytest.mark.parametrize("name", LARGE_TABLES)
def test_light_test_in_few_row_blocks_keeps_the_least_witness_on_large_tables(name):
    _in_few_row_blocks(_perturbed_large_tables_keep_the_least_witness, LARGE_TABLES[name]())


@pytest.mark.parametrize("name", ["A4xC8", "C2xC2xC2-tensor"])
def test_an_f_order_table_in_few_row_blocks_breaks_associativity_as_its_c_order_copy(name):
    _in_few_row_blocks(_f_order_breaks_associativity_as_its_c_order_copy, LARGE_TABLES[name]())


def test_every_corpus_group_passes_light_test_in_few_row_blocks(groups):
    def validate_all():
        for G in groups.values():
            H = validate_cayley(G.labels, G.table)
            assert (H.table == G.table).all() and (H.generators == G.generators).all()

    _in_few_row_blocks(validate_all)


def test_light_test_in_two_blocks_at_the_cap_finds_an_intercalate_swap():
    # Z300 with the intercalate (a, c), (a, c'), (a', c), (a', c') swapped, for
    # a' = a + 150 and c' = c + 150: still a Latin square with identity 0 and
    # every inverse, but not associative; 300 rows are two blocks at the cap
    n, a, c = 300, 7, 11
    table = (np.arange(n)[:, None] + np.arange(n)) % n
    rows, cols = [a, a, a + 150, a + 150], [c, c + 150, c, c + 150]
    table[rows, cols] = table[rows, cols[::-1]]
    assert len(util.row_blocks(n, n)) == 2
    want = _least_associativity_witness(table)
    assert want is not None
    with pytest.raises(NotAssociative) as exc:
        validate_cayley([f"z{i}" for i in range(n)], table)
    assert exc.value.payload["witness"] == want


def test_validate_cayley_rejects_shape_and_range():
    with pytest.raises(InputError):
        validate_cayley(["e"], [[0, 0]])
    # entries outside the element range are a closure failure, not a parse one
    with pytest.raises(MathViolation):
        validate_cayley(["e", "a"], [[0, 1], [1, 7]])
    with pytest.raises(InputError):
        validate_cayley(["e", "e"], [[0, 1], [1, 0]])


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_single_entry_table_perturbation_never_validates(data):
    # a Cayley table differing from a group table in one cell cannot satisfy
    # all four group axioms (cancellation would fail)
    name = data.draw(st.sampled_from([n for n in group_names() if 2 <= EXPECTED_ORDERS[n] <= 8]))
    G = get_group(name)
    n = G.order
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    old = int(G.table[i, j])
    new = data.draw(st.integers(0, n - 1).filter(lambda v: v != old))
    table = G.table.copy()
    table[i, j] = new
    with pytest.raises(MathViolation):
        validate_cayley(G.labels, table)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subgroup_closure_matches_naive_oracle(data):
    name = data.draw(st.sampled_from(["S3", "D4", "Q8", "A4", "C12"]))
    G = get_group(name)
    seed = data.draw(st.sets(st.integers(0, G.order - 1), max_size=3))
    got = subgroup_closure(G, seed)
    assert got.members == frozenset(naive_closure(G.table, seed))



@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_spanning_tree_levels_are_the_word_lengths(data):
    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, 3))
    succ = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n * k, max_size=n * k))).reshape(n, k)
    root = data.draw(st.integers(0, n - 1))
    parent, letter, levels = spanning_tree(succ, root)

    # naive BFS distances from the root
    dist, frontier = {root: 0}, [root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in succ[x].tolist():
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt

    assert levels[0].tolist() == [root]
    assert parent[root] == root and letter[root] == -1
    flat = np.concatenate(levels).tolist()
    assert len(flat) == len(set(flat)) and set(flat) == set(dist)  # a partition of the reached nodes
    for depth, level in enumerate(levels):
        assert level.size and level.dtype == np.int64
        for x in level.tolist():
            assert dist[x] == depth
            if depth:
                assert parent[x] in levels[depth - 1]
                assert succ[parent[x], letter[x]] == x
    unreached = sorted(set(range(n)) - set(dist))
    assert (parent[unreached] == -1).all() and (letter[unreached] == -1).all()

    # tree_words: the reached nodes in level order, each with a word of its
    # level's length that walks from the root to it
    words = tree_words(parent, letter, levels)
    assert list(words) == flat
    for x, word in words.items():
        y = root
        for c in word:
            y = succ[y, c]
        assert y == x and len(word) == dist[x]


def test_out_of_range_seed_names_the_least_bad_value():
    G = get_group("S3")
    ideal = lambda G, seed: ideal_closure(make_trivial_star(G), seed)
    for close in (subgroup_closure, normal_closure, ideal):
        with pytest.raises(InputError) as exc:
            close(G, [7, 2, -2, 6, -5])
        assert str(exc.value) == "seed element out of range"
        assert exc.value.payload == {"value": -5}
        with pytest.raises(InputError) as exc:
            close(G, iter([9, 6]))
        assert exc.value.payload == {"value": 6}


def test_hand_built_subgroup_checks_its_members():
    # a negative member would index a table from its end without complaint
    with pytest.raises(InputError) as exc:
        Subgroup(get_group("S3"), frozenset({0, 6, -1}))
    assert str(exc.value) == "subgroup member out of range"
    assert exc.value.payload == {"value": -1}


def test_normal_closure_s3():
    s3 = get_group("S3")
    # a 3-cycle generates the alternating part, already normal
    three = [x for x in range(6) if element_order(s3.table, x) == 3]
    assert normal_closure(s3, [three[0]]).members == frozenset({0, *three})
    # any transposition normally generates everything
    two = [x for x in range(6) if element_order(s3.table, x) == 2]
    assert len(normal_closure(s3, [two[0]]).members) == 6


def test_quotient_s3_by_a3():
    s3 = get_group("S3")
    a3 = normal_closure(s3, [next(x for x in range(6) if element_order(s3.table, x) == 3)])
    Q, onto = quotient(s3, a3)
    assert Q.order == 2
    # the projection is a homomorphism
    for a in range(6):
        for b in range(6):
            assert onto.image[s3.table[a, b]] == Q.table[onto.image[a], onto.image[b]]


def test_quotient_by_the_trivial_subgroup_is_the_group_itself(groups):
    for G in groups.values():
        Q, onto = quotient(G, subgroup_closure(G, []))
        assert Q is G and onto.source is G and onto.target is G
        assert (onto.image == np.arange(G.order)).all()


def test_quotient_rejects_non_normal():
    s3 = get_group("S3")
    refl = next(x for x in range(6) if element_order(s3.table, x) == 2)
    with pytest.raises(MathViolation):
        quotient(s3, subgroup_closure(s3, [refl]))


def _naive_subgroup_failure(table, members):
    """What quotient refuses a hand-built member set for: the missing
    identity (0 in the corpus), else the least (a, b) whose product leaves."""
    if 0 not in members:
        return "identity", 0
    for a, b in product(sorted(members), repeat=2):
        if int(table[a, b]) not in members:
            return "not closed", [a, b]
    return None


def test_quotient_refuses_a_set_that_is_not_a_subgroup():
    C4 = get_group("C4")
    with pytest.raises(InputError) as exc:
        quotient(C4, Subgroup(C4, frozenset({1})))
    assert str(exc.value) == "the set does not hold the identity 0"
    assert exc.value.payload == {"witness": 0}
    with pytest.raises(InputError) as exc:
        quotient(C4, Subgroup(C4, frozenset({0, 1})))
    assert str(exc.value) == "the set is not closed: 1·1 leaves it"
    assert exc.value.payload == {"witness": [1, 1]}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quotient_by_a_hand_built_set(data):
    G = get_group(data.draw(st.sampled_from(group_names())))
    members = data.draw(st.sets(st.integers(0, G.order - 1)))
    if data.draw(st.booleans()):  # often a subgroup, sometimes a normal one
        members = set(naive_closure(G.table, members))
    failure = _naive_subgroup_failure(G.table, members)
    if failure is not None:
        with pytest.raises(InputError) as exc:
            quotient(G, Subgroup(G, frozenset(members)))
        assert failure[0] in str(exc.value)
        assert exc.value.payload == {"witness": failure[1]}
        return
    try:
        Q, onto = quotient(G, Subgroup(G, frozenset(members)))
    except MathViolation:  # not normal
        assert normal_closure(G, members).members != frozenset(members)
    else:
        assert Q.order * len(members) == G.order


def test_conj_and_comm_tables_agree_with_loops():
    G = get_group("D4")
    for z in range(8):
        for x in range(8):
            c = G.table[G.table[z, x], G.inverses[z]]
            assert G.conj_table[z, x] == c
            k = G.table[G.table[G.table[z, x], G.inverses[z]], G.inverses[x]]
            assert G.comm_table[z, x] == k

