"""JSON document parsing, shorthand expansion, and round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from mlacalc.docs import (
    ParsedDocument,
    algebra_document,
    document_to_json,
    load_document,
    pair_document,
    parse_document,
    tensor_job_document,
)
from mlacalc.errors import InputError, MathViolation
from mlacalc.mla import check_axioms


def _same_pair(p, q):
    assert p.G.group.labels == q.G.group.labels
    assert (p.G.star == q.G.star).all() and (p.H.star == q.H.star).all()
    for side in ("g-on-h", "h-on-g"):
        assert (p.action(side).phi == q.action(side).phi).all()
        assert (p.action(side).bracket == q.action(side).bracket).all()


# --- round trips -----------------------------------------------------------------


def test_algebra_round_trip(corpus_algebras):
    for name in ("S3-improper", "Q8-trivial", "C6xC2-trivial"):
        M = corpus_algebras[name]
        doc = algebra_document(M, name=name)
        text = document_to_json(doc)
        pd = parse_document(text)
        assert pd.kind == "algebra" and pd.name == name
        assert pd.algebra.group.labels == M.group.labels
        assert (pd.algebra.star == M.star).all()
        check_axioms(pd.algebra)


def test_pair_round_trip(pairs):
    for name, pair in pairs.items():
        pd = parse_document(document_to_json(pair_document(pair, name=name)))
        assert pd.kind == "pair" and pd.name == name
        _same_pair(pd.pair, pair)
        # self pairs must come back as one shared algebra object
        assert (pd.pair.H is pd.pair.G) == (pair.H is pair.G)


def test_tensor_job_round_trip(pairs):
    doc = tensor_job_document(pairs["s3-improper-star"], name="job", max_cosets=500)
    pd = parse_document(document_to_json(doc))
    assert pd.kind == "tensor" and pd.job.name == "job"
    assert pd.job.max_cosets == 500 and pd.job.max_rounds is None
    _same_pair(pd.pair, pairs["s3-improper-star"])


def test_caps_omitted_when_unset(pairs):
    doc = tensor_job_document(pairs["z2-trivial"])
    assert "max_cosets" not in doc and "max_rounds" not in doc


# --- shorthands ------------------------------------------------------------------


def _c4_doc(star):
    return {
        "kind": "algebra",
        "elements": ["e", "a", "b", "c"],
        "table": [
            ["e", "a", "b", "c"],
            ["a", "b", "c", "e"],
            ["b", "c", "e", "a"],
            ["c", "e", "a", "b"],
        ],
        "star": star,
    }


def test_star_shorthands_match_explicit_tables():
    trivial = parse_document(_c4_doc("trivial")).algebra
    explicit = parse_document(_c4_doc([["e"] * 4] * 4)).algebra
    assert (trivial.star == explicit.star).all()
    improper = parse_document(_c4_doc("improper")).algebra
    assert improper.star_is_commutator
    # abelian group: the improper star is the trivial one
    assert (improper.star == trivial.star).all()


def test_phi_and_bracket_shorthands(pairs):
    doc = pair_document(pairs["s3-improper-star"], name="s3")
    short = json.loads(document_to_json(doc))
    short["g_on_h"] = {"phi": "conjugation", "bracket": "star"}
    short["h_on_g"] = {"phi": "conjugation", "bracket": "star"}
    pd = parse_document(short)
    _same_pair(pd.pair, pairs["s3-improper-star"])
    assert pd.pair.H is pd.pair.G


def test_self_shorthands_need_identical_factors(pairs):
    doc = json.loads(document_to_json(pair_document(pairs["z2-trivial"], name="z2")))
    doc["g_on_h"] = {"phi": "conjugation", "bracket": "trivial"}
    with pytest.raises(InputError) as exc:
        parse_document(doc)
    assert "conjugation" in str(exc.value)
    doc["g_on_h"] = {"phi": "trivial", "bracket": "star"}
    with pytest.raises(InputError) as exc:
        parse_document(doc)
    assert "star" in str(exc.value)


def test_shorthand_error_messages_are_frozen(fixtures_dir):
    def message(doc):
        with pytest.raises(InputError) as exc:
            parse_document(doc)
        return str(exc.value)

    doc = _c4_doc("trivial")
    del doc["star"]
    assert message(doc) == "algebra.star is required (a table, 'trivial', or 'improper')"
    for star in ("foo", "conjugation"):
        assert message(_c4_doc(star)) == "algebra.star must be a list of 4 rows"

    z2 = json.loads((fixtures_dir / "pairs" / "z2-trivial.json").read_text(encoding="utf-8"))
    cases = [
        (
            "conjugation",
            "trivial",
            "pair.g_on_h.phi: 'conjugation' needs both factors to be the same algebra",
        ),
        (
            "trivial",
            "star",
            "pair.g_on_h.bracket: 'star' needs both factors to be the same algebra",
        ),
        ("star", "trivial", "pair.g_on_h.phi must be a list of 2 rows"),
        ("star", "improper", "pair.g_on_h.phi must be a list of 2 rows"),
        ("trivial", "improper", "pair.g_on_h.bracket must be a list of 2 rows"),
    ]
    for phi, bracket, want in cases:
        doc = json.loads(json.dumps(z2))
        doc["g_on_h"] = {"phi": phi, "bracket": bracket}
        assert message(doc) == want


# --- kind inference and structural errors ----------------------------------------------


def test_kind_inference(pairs):
    alg = algebra_document(pairs["z2-trivial"].G)
    del alg["kind"]
    assert parse_document(alg).kind == "algebra"
    pr = pair_document(pairs["z2-trivial"])
    del pr["kind"]
    assert parse_document(pr).kind == "pair"
    tj = tensor_job_document(pairs["z2-trivial"])
    del tj["kind"]
    assert parse_document(tj).kind == "tensor"
    with pytest.raises(InputError):
        parse_document({"something": 1})


def test_malformed_documents_are_input_errors():
    with pytest.raises(InputError):
        parse_document("{this is not json")
    with pytest.raises(InputError):
        parse_document("[1, 2, 3]")
    with pytest.raises(InputError):
        parse_document({"kind": "nonsense"})
    with pytest.raises(InputError):
        parse_document({"kind": "algebra", "elements": ["e", "e"], "table": [[]], "star": "trivial"})
    with pytest.raises(InputError):
        parse_document({"kind": "tensor", "pair": 3})
    bad_cap = {"kind": "tensor", "pair": {"g": {}, "h": {}}, "max_cosets": 0}
    with pytest.raises(InputError):
        parse_document(bad_cap)


def test_unknown_name_in_table_points_at_the_cell():
    doc = _c4_doc("trivial")
    doc["table"][1][2] = "z"
    with pytest.raises(InputError) as exc:
        parse_document(doc)
    assert "table[1][2]" in str(exc.value) and "'z'" in str(exc.value)


def test_missing_star_rejected():
    doc = _c4_doc("trivial")
    del doc["star"]
    with pytest.raises(InputError):
        parse_document(doc)


def test_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        load_document(str(tmp_path / "nope.json"))


# --- structural vs mathematical failures -------------------------------------------


def test_top_level_algebra_not_axiom_checked():
    # a structurally sound but axiom-breaking star parses; validation is a
    # separate step
    doc = _c4_doc([["e"] * 4] * 4)
    doc["star"][1][2] = "a"
    pd = parse_document(doc)
    assert isinstance(pd, ParsedDocument)
    with pytest.raises(MathViolation):
        check_axioms(pd.algebra)


def test_pair_factor_algebras_are_axiom_checked(pairs):
    doc = json.loads(document_to_json(pair_document(pairs["s3-improper-star"], name="s3")))
    doc["g"]["star"][1][2] = doc["g"]["elements"][3]
    doc["h"] = json.loads(json.dumps(doc["g"]))
    with pytest.raises(MathViolation):
        parse_document(doc)


def test_non_group_table_is_math_violation():
    doc = {
        "kind": "algebra",
        "elements": ["e", "a"],
        "table": [["e", "a"], ["a", "a"]],
        "star": "trivial",
    }
    with pytest.raises(MathViolation):
        parse_document(doc)


def test_fixture_documents_parse(fixtures_dir):
    for sub, kind in (("algebras", "algebra"), ("pairs", "pair"), ("tensors", "tensor")):
        found = sorted((fixtures_dir / sub).glob("*.json"))
        assert found
        for path in found[:3]:
            assert load_document(str(path)).kind == kind
