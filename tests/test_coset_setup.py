"""The enumeration's set-up on packed int64 keys, against the forms it replaced.

``coset._rotation_words`` packs each length-3 rotation (l, x, y) into one
int64 key and cuts the sorted keys into per-letter blocks; the array path
of ``coset.make_presentation`` deduplicates relator rows on one packed key
per row.  ``tests/coset_oracles.py`` keeps the matmul/divmod/np.split
rotation builder and the void-row np.unique dedupe; both set-ups must give
byte-identical blocks, counts, buckets and rows.  A rotation key holds
three fields of (nl - 1).bit_length() bits, so 2^21 letters (2^20
generators) is the largest alphabet it packs, and coset_enumerate refuses
a larger one before any table exists.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlacalc import coset, tensor
from mlacalc.corpus import group_names
from mlacalc.coset import MAX_GENERATORS, Presentation, coset_enumerate, make_presentation
from mlacalc.errors import ResourceError
from mlacalc.tensor import build_tensor_presentation
from . import coset_oracles
from .self_pairs import gl2_f2_self_pair, self_pair

# the 48 corpus self pairs (C2xC2xC2 trivial is the order-512 rung) and gl2(F2)
PAIRS = [(n, s) for n in group_names() for s in ("trivial", "improper")] + [("gl2(F2)", "bracket")]


def _pair(name, star):
    return gl2_f2_self_pair() if star == "bracket" else self_pair(name, star)


def _letters(by_length):
    """Signed 1-based generator numbers to letters, as _Enumerator reads them."""
    return {n: (i, np.where(w > 0, 2 * w - 2, -2 * w - 1)) for n, (i, w) in by_length.items()}


def _assert_same_rotation_words(by_length, nl):
    blocks, counts, buckets = coset._rotation_words(by_length, nl)
    want_blocks, want_counts, want_buckets = coset_oracles.rotation_words(by_length, nl)
    assert len(blocks) == len(want_blocks) == nl
    for got, want in zip(blocks, want_blocks):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert counts.dtype == want_counts.dtype and np.array_equal(counts, want_counts)
    assert buckets == want_buckets


@pytest.mark.parametrize("name,star", PAIRS, ids=[f"{n}-{s}" for n, s in PAIRS])
def test_rotation_words_match_the_reference(name, star):
    pres = build_tensor_presentation(_pair(name, star))
    _assert_same_rotation_words(_letters(pres.by_length), 2 * pres.generator_count)


@st.composite
def _mixed_words(draw):
    # alphabets on both sides of a power of two, and letters drawn from the
    # top of the key range as often as from the bottom
    nl = 2 * draw(st.sampled_from([1, 2, 3, 4, 31, 32, 33, 1 << 10, (1 << 10) + 1]))
    letter = st.one_of(st.integers(0, min(7, nl - 1)), st.integers(max(0, nl - 8), nl - 1))
    by_length = {}
    for k in draw(st.sets(st.integers(1, 6), min_size=1, max_size=4)):
        words = draw(st.lists(st.lists(letter, min_size=k, max_size=k), min_size=1, max_size=12))
        by_length[k] = (np.arange(len(words)), np.array(words, dtype=np.int64).reshape(-1, k))
    return by_length, nl


@settings(max_examples=150, deadline=None)
@given(case=_mixed_words())
def test_rotation_words_of_mixed_lengths_match_the_reference(case):
    _assert_same_rotation_words(*case)


def test_rotation_keys_round_trip_the_largest_letters():
    # 2^21 letters: three 21-bit fields fill 63 bits, the most an int64 key holds
    nl = 2 * MAX_GENERATORS
    B = (nl - 1).bit_length()
    assert 3 * B == 63
    w = np.array([[nl - 1, nl - 3, 4], [0, 2, nl - 2]], dtype=np.int64)
    key = np.unique(coset._rotation_keys(w, B))
    m = (1 << B) - 1
    got = list(zip((key >> 2 * B).tolist(), (key >> B & m).tolist(), (key & m).tolist()))
    want = set()
    for a, b, c in w.tolist():
        for word in ((a, b, c), (c ^ 1, b ^ 1, a ^ 1)):
            want |= {word[k:] + word[:k] for k in range(3)}
    assert len(got) == 12 and got == sorted(want)


class _Reached(Exception):
    pass


def test_enumeration_refuses_more_generators_than_keys_hold(monkeypatch):
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(coset, "_Enumerator", reached)
    relator = {1: (np.array([0]), np.array([[1]]))}
    with pytest.raises(_Reached):  # 2^20 generators pass the bound
        coset_enumerate(Presentation(("g",) * MAX_GENERATORS, relator))
    with pytest.raises(ResourceError) as exc:  # one more is refused before the table exists
        coset_enumerate(Presentation(("g",) * (MAX_GENERATORS + 1), relator))
    assert exc.value.payload == {"generators": MAX_GENERATORS + 1, "cap": MAX_GENERATORS}
    msg = f"{MAX_GENERATORS + 1} generators exceed the {MAX_GENERATORS} that packed rotation keys hold"
    assert str(exc.value) == msg


# --- relator rows -------------------------------------------------------------------------


@pytest.mark.parametrize("name,star", PAIRS, ids=[f"{n}-{s}" for n, s in PAIRS])
def test_relator_rows_match_the_void_row_dedupe(name, star, monkeypatch):
    calls = []
    monkeypatch.setattr(tensor, "make_presentation", lambda labels, rows: calls.append((labels, rows)))
    build_tensor_presentation(_pair(name, star))
    [(labels, rows)] = calls
    assert coset._row_keys(rows, len(labels)) is not None  # the packed path
    pres = make_presentation(labels, rows)
    [(width, (idx, got))] = pres.by_length.items()
    want = coset_oracles.dedupe_rows(rows)
    assert width == 3 and np.array_equal(idx, np.arange(len(want)))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def _unpackable_rows(draw):
    # 3 generators take 3-bit fields: up to 21 entries pack, 22 do not; an
    # entry out of [-3, 3] never packs
    width = draw(st.integers(19, 24))
    entry = st.sampled_from([-3, -2, -1, 1, 2, 3] * 8 + [0, 4, -4])
    pool = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=3))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return np.array(rows, dtype=np.int64)


def _presentation_or_error(labels, relators):
    try:
        pres = make_presentation(labels, relators)
    except Exception as ex:
        return type(ex), str(ex), ex.payload
    return {k: (i.tolist(), w.dtype, w.tolist()) for k, (i, w) in pres.by_length.items()}


@settings(max_examples=150, deadline=None)
@given(rows=_unpackable_rows())
def test_rows_that_do_not_pack_take_the_list_path(rows):
    labels = ("a", "b", "c")
    packs = rows.shape[1] <= 21 and np.abs(rows).max() <= 3
    assert (coset._row_keys(rows, 3) is not None) == packs
    got = _presentation_or_error(labels, rows)
    assert got == _presentation_or_error(labels, rows.tolist())
    if packs and isinstance(got, dict):  # else a 0 entry, refused on both paths
        want = coset_oracles.dedupe_rows(rows)
        assert make_presentation(labels, rows).by_length[rows.shape[1]][1].tobytes() == want.tobytes()
