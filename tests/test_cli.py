import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qrel import cli, config
from qrel import subspace as sp

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
ALL_FILES = sorted(CORPUS.glob("*.qrel"))
PASSING = [p for p in ALL_FILES if p.name != "surjectivity_gap.qrel"]
FAILING = CORPUS / "surjectivity_gap.qrel"
NEAR_BOUNDARY = Path(__file__).resolve().parent / "fixtures" / "near_boundary.qrel"


def qrel(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qrel.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def strip_timings(payload):
    for item in payload.get("items", []):
        item.pop("timings_ms", None)
    return payload


def test_corpus_is_large_enough():
    assert len(ALL_FILES) >= 6


@pytest.mark.parametrize("path", ALL_FILES, ids=lambda p: p.name)
def test_check_exit_zero(path):
    r = qrel("check", str(path))
    assert r.returncode == 0, r.stdout + r.stderr


@pytest.mark.parametrize("path", PASSING, ids=lambda p: p.name)
def test_verify_passing_corpus(path):
    r = qrel("verify", str(path))
    assert r.returncode == 0, r.stdout + r.stderr


def test_verify_failing_corpus_exit_one():
    r = qrel("verify", str(FAILING))
    assert r.returncode == 1
    assert "surjective" in r.stdout


def test_closed_stdout_exits_two_without_a_traceback():
    # The reader closes its end at once, before qrel writes its report.
    proc = subprocess.Popen(
        [sys.executable, "-m", "qrel.cli", "verify", str(CORPUS / "magic.qrel")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2 and err == b""


@pytest.mark.parametrize("tol, code", [("1e-12", 1), (None, 0), ("1e-4", 0)])
def test_near_boundary_verdicts_follow_the_tolerance(monkeypatch, capsys, tol, code):
    # R is a graph moved by about 6e-9: the same graph below the tolerance,
    # a new one above it, on both routes and in the assertion alike.
    monkeypatch.delenv("QREL_TOL", raising=False)
    argv = ["verify", str(NEAR_BOUNDARY), "--output", "json"]
    assert cli.main(argv + (["--tol", tol] if tol else [])) == code
    graph, symm = json.loads(capsys.readouterr().out)["items"]
    for c in graph["conditions"]:
        assert set(c["paths"].values()) == {c["passed"]}, c["id"]
    assert graph["passed"] == symm["passed"] == (code == 0)


def test_check_reports_errors_with_exit_two(tmp_path):
    bad = tmp_path / "bad.qrel"
    bad.write_text("qset X { atoms = [2] }\nrel R : (Y) { }\n")
    r = qrel("check", str(bad))
    assert r.returncode == 2
    assert "unknown quantum set" in r.stdout


def test_labels_that_would_collide_in_a_product_exit_two(tmp_path):
    # without the reserved separator, "a⊗b"⊗"c" and "a"⊗"b⊗c" would name
    # the same product atom
    ws = tmp_path / "collide.qrel"
    ws.write_text(
        'qset A { classical = ["a⊗b", "a"] }\n'
        'qset B { classical = ["c", "b⊗c"] }\n'
        'rel R : (A >< B) { tuples = [("a⊗b⊗c")] }\n'
    )
    r = qrel("check", str(ws))
    assert r.returncode == 2 and "Traceback" not in r.stderr


def test_eval_prints_truth():
    r = qrel("eval", str(CORPUS / "logic.qrel"), "--formula", "everyone_reaches")
    assert r.returncode == 0
    assert r.stdout.strip().endswith("true")


def test_eval_with_context_block_ranks():
    src = CORPUS / "graph.qrel"
    # refl has no free variables; build an open formula on the fly instead
    r = qrel(
        "eval", str(src), "--formula", "refl", "--output", "json"
    )
    payload = json.loads(r.stdout)
    assert payload["items"][0]["value"] is True
    assert payload["items"][0]["block_ranks"] == {"0,0": 1}


def test_eval_open_formula_requires_context(tmp_path):
    ws = tmp_path / "w.qrel"
    ws.write_text(
        'qset A { classical = ["a", "b"] }\n'
        'rel s : (A) { tuples = [("a")] }\n'
        "formula open := s(x)\n"
    )
    r = qrel("check", str(ws))
    assert r.returncode == 2  # unknown term x: open formulas need quantifiers


def test_json_reports_are_deterministic():
    runs = []
    for _ in range(2):
        r = qrel("verify", str(CORPUS / "magic.qrel"), "--output", "json",
                 "--seed", "7")
        assert r.returncode == 0
        runs.append(strip_timings(json.loads(r.stdout)))
    assert json.dumps(runs[0], sort_keys=True) == json.dumps(runs[1], sort_keys=True)


def test_json_schema_fields():
    r = qrel("verify", str(CORPUS / "graph.qrel"), "--output", "json")
    payload = json.loads(r.stdout)
    assert payload["version"] == "1"
    assert payload["command"] == "verify"
    assert "tolerance" in payload and "seed" in payload
    for item in payload["items"]:
        assert {"name", "kind", "passed"} <= set(item)
        assert item["timings_ms"] >= 0
        for cond in item.get("conditions", []):
            assert {"id", "formula", "passed", "margin", "paths"} <= set(cond)


def test_tolerance_env_and_flag():
    r = qrel("verify", str(CORPUS / "magic.qrel"), "--output", "json",
             env_extra={"QREL_TOL": "1e-6"})
    assert json.loads(r.stdout)["tolerance"] == 1e-6
    r = qrel("verify", str(CORPUS / "magic.qrel"), "--output", "json", "--tol",
             "1e-5", env_extra={"QREL_TOL": "1e-6"})
    assert json.loads(r.stdout)["tolerance"] == 1e-5
    r = qrel("verify", str(CORPUS / "magic.qrel"), "--tol", "1.0")
    assert r.returncode == 2


def test_ad_hoc_verify_kind():
    r = qrel("verify", str(CORPUS / "functions.qrel"), "--kind", "injective",
             "--names", "swap", "--output", "json")
    payload = json.loads(r.stdout)
    assert payload["items"][0]["kind"] == "injective"
    assert payload["items"][0]["passed"]
    assert r.returncode == 0


def test_selftest_passes():
    r = qrel("selftest", "--output", "json", "--seed", "1")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    names = {item["name"] for item in payload["items"]}
    assert {"subspace-laws", "dagger-compact", "classical-soundness",
            "hamming-metric", "equality-bruteforce"} <= names
    assert all(item["passed"] for item in payload["items"])


def test_missing_file_exit_two():
    r = qrel("check", "no-such-file.qrel")
    assert r.returncode == 2


@pytest.mark.parametrize("command", ["check", "verify", "eval"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_file_is_one_diagnostic(tmp_path, capsys, command, kind):
    if kind == "directory":
        path, reason = tmp_path, "cannot read the file"
    else:
        path, reason = tmp_path / "latin1.qrel", "not UTF-8 text"
        path.write_bytes(b"\xffqset X { atoms = [1] }\n")
    argv = [command, str(path)] + (["--formula", "f"] if command == "eval" else [])
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out.splitlines()[-1].startswith(f"{path}: error: {reason}")
    assert cli.main(argv + ["--output", "json"]) == 2
    (diag,) = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diag.startswith(f"{path}: error: {reason}") and diag.count("\n") == 1


def test_verify_keeps_the_items_before_a_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.qrel"
    bad.write_text("rel R : (Y) { }\n")
    good = str(CORPUS / "graph.qrel")
    assert cli.main(["verify", good, "--output", "json"]) == 0
    alone = json.loads(capsys.readouterr().out)["items"]
    assert alone
    assert cli.main(["verify", good, str(bad), "--output", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert strip_timings(payload)["items"] == strip_timings({"items": alone})["items"]
    (diag,) = payload["diagnostics"]
    assert diag.startswith(f"{bad}:1:10: error: unknown quantum set 'Y'")


def test_eval_json_reports_parse_errors_as_json(tmp_path, capsys):
    bad = tmp_path / "bad.qrel"
    bad.write_text("rel R : (Y) { }\n")
    assert cli.main(["eval", str(bad), "--formula", "f", "--output", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "eval" and payload["items"] == []
    assert payload["diagnostics"] == [f"{bad}:1:10: error: unknown quantum set 'Y'\n"]


def test_warn_band_exit_three(tmp_path):
    # distance-1 and distance-2 spans tilted off the self-adjoint cone by
    # 1e-7: they fail at the default tolerance but flip at the warn threshold
    src = (
        "qset Q { atoms = [2] }\n"
        "family M : metric on Q {\n"
        "  at 0 { block (0, 0) = [ [[ [1,0],[0,0] ], [ [0,0],[1,0] ]] ] }\n"
        "  at 1 { block (0, 0) = [\n"
        "    [[ [0,0.0000001],[1,0] ], [ [1,0],[0,-0.0000001] ]] ] }\n"
        "  at 2 { block (0, 0) = [\n"
        "    [[ [0,0],[0,-1] ], [ [0,1],[0,0] ]],\n"
        "    [[ [1,0],[0,0.0000001] ], [ [0,0.0000001],[-1,0] ]] ] }\n"
        "}\n"
        "verify metric M\n"
    )
    ws = tmp_path / "warn.qrel"
    ws.write_text(src)
    r = qrel("verify", str(ws))
    assert r.returncode == 3, r.stdout + r.stderr
    # at a looser tolerance the same family passes cleanly
    r2 = qrel("verify", str(ws), "--tol", "1e-6")
    assert r2.returncode == 0


def test_eval_open_formula_with_context(tmp_path):
    ws = tmp_path / "open.qrel"
    ws.write_text(
        'qset A { classical = ["a", "b"] }\n'
        'rel s : (A) { tuples = [("a")] }\n'
        "var x : A\n"
        "formula open := s(x)\n"
    )
    r = qrel("eval", str(ws), "--formula", "open", "--context", "x:A",
             "--output", "json")
    assert r.returncode == 0, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    item = payload["items"][0]
    assert "value" not in item  # open formulas report block ranks only
    assert item["block_ranks"] == {"0,0": 1}  # the "a" block, rank one


@pytest.mark.parametrize(
    "names", [["--names", "nosuch"], []], ids=["unknown-name", "no-names"]
)
def test_ad_hoc_verify_bad_names_exit_two(names):
    r = qrel("verify", str(CORPUS / "graph.qrel"), "--kind", "graph", *names)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "verify graph" in r.stderr
    assert "Traceback" not in r.stderr


def test_ragged_matrix_is_a_diagnostic(tmp_path):
    ws = tmp_path / "ragged.qrel"
    ws.write_text(
        "qset X { atoms = [2] }\n"
        "fn R : X -> X {\n"
        "  block (0, 0) = [ [[ [1,0],[0,0] ], [ [0,0] ]] ]\n"
        "}\n"
    )
    r = qrel("check", str(ws))
    assert r.returncode == 2, r.stdout + r.stderr
    assert "rows differ in length" in r.stdout
    assert "Traceback" not in r.stderr


def test_huge_block_entries_keep_their_span(tmp_path):
    # 1e300 * I once overflowed the norm of its one-row basis, so its span
    # came out zero and reflexivity failed with margin 1.
    ws = tmp_path / "huge.qrel"
    ws.write_text(
        "qset X { atoms = [2] }\n"
        "fn R : X -> X {\n"
        "  block (0, 0) = [ [[ [1e300,0],[0,0] ], [ [0,0],[1e300,0] ]] ]\n"
        "}\n"
        "verify preorder R\n"
    )
    r = qrel("verify", str(ws))
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stderr == ""


def test_tolerance_does_not_leak(tmp_path, capsys):
    assert cli.main(["check", str(CORPUS / "graph.qrel"), "--tol", "1e-5"]) == 0
    assert config.tolerance() == config.DEFAULT_TOL
    bad = tmp_path / "bad.qrel"
    bad.write_text("rel R : (Y) { }\n")
    assert cli.main(["check", str(bad), "--tol", "1e-5"]) == 2
    assert config.tolerance() == config.DEFAULT_TOL
    graph = str(CORPUS / "graph.qrel")
    argv = ["verify", graph, "--kind", "graph", "--names", "nosuch", "--tol", "1e-5"]
    assert cli.main(argv) == 2
    assert config.tolerance() == config.DEFAULT_TOL
    capsys.readouterr()


@pytest.mark.parametrize("sort", ["B", "A ><", "A B"], ids=["undeclared", "cut", "trailing"])
def test_eval_context_bad_sort_exit_two(tmp_path, capsys, sort):
    ws = tmp_path / "ctx.qrel"
    ws.write_text(
        'qset A { classical = ["a", "b"] }\n'
        "var y : A\n"
        "formula f := exists z in A* . E[A](y, z)\n"
    )
    assert cli.main(["eval", str(ws), "--formula", "f", "--context", f"y:{sort}"]) == 2
    err = capsys.readouterr().err
    assert f"bad sort in context entry 'y:{sort}'" in err
    if sort == "B":
        assert "unknown quantum set 'B'" in err


@pytest.mark.parametrize(
    "name,entry,message",
    [
        ("magic.qrel", "[0.5,0]", "entry ('a', 'x') is not a projection"),
        ("dual_s3.qrel", "[1,0]", "irrep matrices must be unitary"),
    ],
)
def test_overflowing_entry_is_rejected_without_warnings(tmp_path, name, entry, message):
    # An entry of modulus above 1 cannot belong to a projection or a unitary;
    # it is rejected before any product could overflow.
    ws = tmp_path / name
    ws.write_text((CORPUS / name).read_text().replace(entry, "[1e300,0]", 1))
    r = qrel("check", str(ws))
    assert r.returncode == 2, r.stdout + r.stderr
    assert message in r.stdout
    assert "Warning" not in r.stderr


def test_memory_error_is_a_diagnostic(monkeypatch, capsys):
    def exhausted(s):
        raise MemoryError
    monkeypatch.setattr(sp, "complement", exhausted)
    graph = str(CORPUS / "graph.qrel")
    assert cli.main(["verify", graph]) == 2
    err = capsys.readouterr().err
    assert err == f"qrel verify {graph}: the problem is too large for the available memory\n"


@pytest.mark.parametrize("body", [
    "not " * 3000 + "r(x, y)",
    "(" * 170 + "r(x, y)" + ")" * 170,
], ids=["not", "parentheses"])
def test_deep_nesting_is_a_diagnostic(tmp_path, body):
    ws = tmp_path / "deep.qrel"
    ws.write_text(
        'qset X { classical = ["a"] }\n'
        'rel r : (X, X) { tuples = [("a", "a")] }\n'
        f"formula f := exists x in X . exists y in X . {body}\n"
    )
    r = qrel("check", str(ws))
    assert r.returncode == 2
    assert r.stderr == f"qrel check {ws}: the input is nested too deeply\n"
