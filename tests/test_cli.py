"""CLI behavior: golden transcripts, exit codes, and crash-freedom."""

from __future__ import annotations

import contextlib
import copy
import functools
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlacalc.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def _zero_wall_ms(obj):
    if isinstance(obj, dict):
        return {k: (0 if k == "wall_ms" else _zero_wall_ms(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_zero_wall_ms(v) for v in obj]
    return obj


def normalize(text: str, as_json: bool) -> str:
    if as_json:
        return json.dumps(_zero_wall_ms(json.loads(text)), indent=2, ensure_ascii=False) + "\n"
    return re.sub(r"(?m)^(\S+ +\S+ +\d+ +)(\d+)", r"\g<1>0", text)


# --- golden transcripts ---------------------------------------------------------


GOLDEN_CASES = [
    ("validate-s3-improper.txt", ["validate", "algebras/S3-improper.json"], False),
    ("series-s3-trivial.txt", ["series", "algebras/S3-trivial.json"], False),
    ("action-check-z2.txt", ["action-check", "pairs/z2-trivial.json"], False),
    ("tensor-z2.json", ["tensor", "tensors/z2-trivial.json", "--json"], True),
    ("verify-s3-tensor.txt", ["verify", "tensors/s3-improper-star.json"], False),
    ("verify-q8-tensor.json", ["verify", "tensors/q8-trivial.json", "--json"], True),
    (
        "verify-s3-identities.txt",
        ["verify", "algebras/S3-improper.json", "--suite", "identities"],
        False,
    ),
]


@pytest.mark.parametrize("fname,argv,as_json", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_transcripts(fixtures_dir, golden_dir, fname, argv, as_json):
    argv = [argv[0], str(fixtures_dir / argv[1]), *argv[2:]]
    rc, out, _ = run_cli(argv)
    assert rc == 0
    assert normalize(out, as_json) == (golden_dir / fname).read_text(encoding="utf-8")


def test_fixture_script_reproduces_the_bundled_files(
    fixtures_dir, golden_dir, tmp_path, monkeypatch
):
    # scripts/gen_fixtures.py promises that a rerun leaves no diff
    script = fixtures_dir.parent / "scripts" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", script)
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "ROOT", tmp_path)
    monkeypatch.setattr(gen, "FIXTURES", tmp_path / "fixtures")
    monkeypatch.setattr(gen, "GOLDEN", tmp_path / "golden")
    for step in (gen.gen_algebras, gen.gen_pairs_and_tensors, gen.gen_bad, gen.gen_goldens):
        step()
    for made, bundled in ((gen.FIXTURES, fixtures_dir), (gen.GOLDEN, golden_dir)):
        files = lambda root: {p.relative_to(root): p for p in root.rglob("*") if p.is_file()}
        got, want = files(made), files(bundled)
        assert sorted(got) == sorted(want)
        for rel, path in want.items():
            assert got[rel].read_bytes() == path.read_bytes(), rel


# --- exit codes -------------------------------------------------------------------


BAD_CASES = [
    # (fixture, command, expected exit)
    ("bad/star-perturbed-c4.json", "validate", 1),
    ("bad/star-perturbed-s3.json", "validate", 1),
    ("bad/bracket-perturbed-q8.json", "validate", 1),
    ("bad/bracket-perturbed-q8.json", "action-check", 1),
    ("bad/not-a-group.json", "validate", 1),
    ("bad/unknown-name.json", "validate", 2),
    ("bad/malformed.json", "validate", 2),
    ("bad/tiny-cap-tensor.json", "tensor", 3),
    ("bad/tiny-cap-tensor.json", "verify", 3),
]


@pytest.mark.parametrize("fixture,command,expected", BAD_CASES)
def test_exit_codes_on_bad_fixtures(fixtures_dir, fixture, command, expected):
    rc, _, err = run_cli([command, fixtures_dir / fixture])
    assert rc == expected
    assert err.startswith("error:") or expected == 3 or command == "verify"


def test_missing_file_exit_code(tmp_path):
    rc, _, err = run_cli(["validate", tmp_path / "absent.json"])
    assert rc == 2 and "error:" in err


def test_json_error_envelope(fixtures_dir):
    rc, out, err = run_cli(["validate", fixtures_dir / "bad/star-perturbed-c4.json", "--json"])
    assert rc == 1 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is False and payload["exit"] == 1
    assert payload["error"]["error"] == "AxiomViolation"
    assert "witness" in payload["error"]


@pytest.mark.parametrize("value", ["abc", "nan"])
def test_malformed_budget_is_an_input_error(fixtures_dir, monkeypatch, value):
    monkeypatch.setenv("MLACALC_BUDGET_SECS", value)
    rc, out, err = run_cli(["validate", fixtures_dir / "bad/star-perturbed-c4.json", "--json"])
    assert rc == 2 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is False and payload["exit"] == 2
    assert payload["error"] == {
        "error": "InputError",
        "message": f"MLACALC_BUDGET_SECS must be a number of seconds, got {value!r}",
        "value": value,
    }


def test_verify_failure_exit_code(fixtures_dir):
    rc, out, _ = run_cli(["verify", fixtures_dir / "bad/star-perturbed-s3.json", "--json"])
    assert rc == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    statuses = {v["statement"]: v["status"] for v in payload["verdicts"]}
    assert statuses["def-2.1"] == "fail"


def test_verify_json_shape(fixtures_dir):
    rc, out, _ = run_cli(["verify", fixtures_dir / "pairs/q8-trivial.json", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["command"] == "verify" and payload["selection"] == "all"
    assert len(payload["verdicts"]) == 37
    assert payload["counts"]["fail"] == 0


def test_verify_statement_selection(fixtures_dir):
    rc, out, _ = run_cli(
        ["verify", fixtures_dir / "pairs/s3-improper-star.json", "--statement", "lem-3.2"]
    )
    assert rc == 0
    line = next(l for l in out.splitlines() if l.startswith("lem-3.2"))
    assert " pass" in line


def test_verify_statement_mismatch_is_input_error(fixtures_dir):
    rc, _, err = run_cli(
        ["verify", fixtures_dir / "algebras/S3-improper.json", "--statement", "thm-3.13"]
    )
    assert rc == 2 and "error:" in err


# --- flag handling -----------------------------------------------------------------


def test_max_cosets_flag_overrides_document(fixtures_dir):
    # the document has no cap; a tiny flag cap must take precedence and fail
    rc, _, _ = run_cli(["tensor", fixtures_dir / "tensors/s3-improper-star.json",
                        "--max-cosets", "4"])
    assert rc == 3
    # and a generous flag cap on the capped document overrides the tiny one
    rc, _, _ = run_cli(["tensor", fixtures_dir / "bad/tiny-cap-tensor.json",
                        "--max-cosets", "100000"])
    assert rc == 0


@pytest.mark.parametrize("flag", ["--max-cosets", "--max-rounds"])
def test_zero_cap_flag_is_an_input_error(fixtures_dir, flag):
    doc = fixtures_dir / "tensors/z2-trivial.json"
    rc, out, err = run_cli(["tensor", doc, flag, "0", "--json"])
    assert rc == 2 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is False and payload["exit"] == 2
    assert payload["error"]["error"] == "InputError"
    assert payload["error"]["message"] == "caps must be positive"


def test_seed_order_flag(fixtures_dir):
    base = ["tensor", str(fixtures_dir / "tensors/s3-improper-star.json"), "--json"]
    rc, out_d, _ = run_cli(base)
    rc_a, out_a, _ = run_cli(base + ["--seed-order", "alt"])
    assert rc == 0 and rc_a == 0
    d, a = json.loads(out_d), json.loads(out_a)
    assert d["order"] == a["order"] == 6
    assert d["seed_order"] == "default" and a["seed_order"] == "alt"


def test_tensor_json_payload(fixtures_dir):
    rc, out, _ = run_cli(["tensor", fixtures_dir / "tensors/q8-trivial.json", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["order"] == 64
    assert payload["rounds"] == 1 and payload["extra_relators"] == 0
    assert payload["star_trivial"] is True
    assert payload["ledger"]["ok"] is True
    assert len(payload["symbols"]) == 64
    assert payload["algebra"]["kind"] == "algebra"


def test_unknown_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "x.json", "--suite", "bogus"])
    assert exc.value.code == 2


# --- crash freedom through the real entry point ---------------------------------------


SMOKE = [
    ["validate", "algebras/A4-improper.json"],
    ["series", "algebras/Q8-trivial.json"],
    ["verify", "pairs/z2-trivial.json", "--suite", "compat"],
    ["validate", "bad/malformed.json"],
    ["tensor", "bad/tiny-cap-tensor.json", "--json"],
]


@pytest.mark.parametrize("argv", SMOKE, ids=[" ".join(a) for a in SMOKE])
def test_subprocess_never_tracebacks(fixtures_dir, argv):
    argv = [argv[0], str(fixtures_dir / argv[1]), *argv[2:]]
    proc = subprocess.run(
        [sys.executable, "-m", "mlacalc", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode in (0, 1, 2, 3)
    assert "Traceback" not in proc.stderr


# every bundled document with one to three mutations, under every budget form;
# a mutation replaces a value by a fixed JSON value or by a string of the
# document (often an element name, so a table stays well formed), deletes a
# key or drops a list item
MUTANT_VALUES = [None, True, 0, -1, 2.5, 10**6, "", "zz", [], [[]], {}, {"kind": "algebra"}, "trivial"]
BUDGETS = [None, "abc", "-1", "nan", "0", "1e-9", "inf"]
COMMANDS = ["validate", "series", "action-check", "tensor", "verify"]


def _json_or_none(path):
    try:
        return json.loads(path.read_text())
    except ValueError:  # bad/malformed.json is not JSON at all
        return None


DOCUMENTS = {
    str(p.relative_to(ROOT / "fixtures")): doc
    for p in sorted((ROOT / "fixtures").rglob("*.json"))
    if (doc := _json_or_none(p)) is not None
}


def _nodes(node, at=()):
    """(path, value) of every value in a JSON document, the document itself first."""
    yield at, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, (*at, key))


def _mutate(doc, data):
    nodes = list(_nodes(doc))
    strings = sorted({v for _, v in nodes if isinstance(v, str)})
    path = data.draw(st.sampled_from([p for p, _ in nodes]))
    # a copy, since a later mutation may edit the value in place
    value = copy.deepcopy(data.draw(st.sampled_from(MUTANT_VALUES + strings)))
    if not path:
        return value
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    if data.draw(st.booleans()):
        parent[path[-1]] = value
    else:
        del parent[path[-1]]  # a key of an object or an item of a list
    return doc


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_mutated_documents_never_crash(tmp_path_factory, data):
    doc = copy.deepcopy(DOCUMENTS[data.draw(st.sampled_from(sorted(DOCUMENTS)))])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json.dumps(doc))
    budget = data.draw(st.sampled_from(BUDGETS))
    with pytest.MonkeyPatch.context() as mp:
        if budget is None:
            mp.delenv("MLACALC_BUDGET_SECS", raising=False)
        else:
            mp.setenv("MLACALC_BUDGET_SECS", budget)
        for command in COMMANDS:
            rc, out, _ = run_cli([command, path, "--json"])
            assert rc in (0, 1, 2, 3), command
            assert isinstance(json.loads(out), dict), command


@pytest.mark.parametrize("script", ["tensor_demo.py", "run_corpus_suite.py"])
def test_readme_scripts_run(fixtures_dir, script):
    root = fixtures_dir.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "run_corpus_suite.py":
        for name in ("z2-trivial", "s3-improper-star", "q8-trivial"):
            assert re.search(rf"(?m)^{name} +full ledger: pass ", proc.stdout), name


# --- README examples ----------------------------------------------------------------


README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_quick_start_prints_its_comments():
    code = re.search(r"## Library quick start\n+```python\n(.*?)```", README, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = iter(out.getvalue().splitlines())
    commented = 0
    for line in code.splitlines():
        if line.startswith("print("):
            shown = next(printed)
            if "#" in line:  # the comment's value, before any ": explanation"
                assert shown == line.split("#", 1)[1].strip().split(": ")[0], line
                commented += 1
    assert commented == 4 and next(printed, None) is None


def _readme_transcripts():
    """(command, shown lines, exit code) for every `$ mlacalc ...` example in
    the README; a transcript ending in "..." shows only its first lines."""
    found = []
    for block in re.findall(r"```text\n(.*?)```", README, re.S):
        for chunk in block.strip().split("\n\n"):
            first, *lines = chunk.splitlines()
            if first.startswith("$ mlacalc "):
                exit_at = re.fullmatch(r"(.*?)\s+# exit (\d)", lines[-1])
                if exit_at:
                    lines[-1] = exit_at.group(1)
                command = first[len("$ mlacalc ") :]
                code = int(exit_at.group(2)) if exit_at else 0
                found.append(pytest.param(command, lines, code, id=command))
    return found


README_TRANSCRIPTS = _readme_transcripts()


def test_readme_shows_seven_transcripts():
    assert [p.values[0].split()[0] for p in README_TRANSCRIPTS] == [
        "validate", "series", "action-check", "tensor", "verify", "validate", "tensor"
    ]


@pytest.mark.parametrize("command,shown,code", README_TRANSCRIPTS)
def test_readme_transcripts_hold(monkeypatch, command, shown, code):
    monkeypatch.chdir(ROOT)  # the README's paths are relative to the repository
    argv, _, pipe = command.partition(" | ")
    rc, out, err = run_cli(argv.split())
    assert rc == code
    got = (out + err).splitlines()
    if pipe:
        assert pipe == "tail -1"
        got = got[-1:]
    if shown[-1] == "...":
        shown, got = shown[:-1], got[: len(shown) - 1]
    assert got == shown


def test_console_script_entry_point(fixtures_dir):
    proc = subprocess.run(
        ["mlacalc", "validate", str(fixtures_dir / "algebras/C12-trivial.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "axioms: 5/5" in proc.stdout
