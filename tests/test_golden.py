"""The corpus outputs are pinned: `qrel verify --output json` of every
corpus file, at the default tolerance and at both ends of its range, and
`qrel eval --output json` of every corpus formula, without their
`timings_ms` fields, and the exit codes must match
`tests/golden/corpus.json` key for key, in order, type and value.

Malformed input is pinned too: for about a hundred seeded mutants of each
corpus file (`test_fuzz.mutate`), whether `parse_workspace` accepted it and
its formatted diagnostics must match `tests/golden/mutants.json`.

A margin at or below `config.TOL_MIN` is rounding noise that another BLAS
may move; there both sides need only be at most `TOL_MIN`.

After a deliberate change of output, regenerate the goldens with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import zlib

import numpy as np
from test_fuzz import mutate

from qrel import cli, config
from qrel import frontend as fe

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "corpus").glob("*.qrel"))
GOLDEN = ROOT / "tests" / "golden" / "corpus.json"
MUTANTS = ROOT / "tests" / "golden" / "mutants.json"
MUTANTS_PER_FILE = 100


def cases():
    """(case name, argv) for every verify and eval run of the corpus."""
    for path in CORPUS:
        yield f"verify {path.name}", ["verify", str(path), "--output", "json"]
    for tol in ("1e-12", "1e-4"):  # config.TOL_MIN and config.TOL_MAX
        for path in CORPUS:
            argv = ["verify", str(path), "--output", "json", "--tol", tol]
            yield f"verify {path.name} --tol {tol}", argv
    for path in CORPUS:
        ws, _ = fe.parse_workspace(path.read_text(encoding="utf-8"))
        for name in sorted(ws.formulas):
            argv = ["eval", str(path), "--formula", name, "--output", "json"]
            yield f"eval {path.name} {name}", argv


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    payload = json.loads(out.getvalue())
    for item in payload["items"]:
        del item["timings_ms"]
    return {"exit": code, "output": payload}


def outputs() -> dict:
    return {name: run(argv) for name, argv in cases()}


def mutants() -> dict:
    """(mutant name, mutant text) for the seeded mutants of every corpus
    file; a file's seed is the CRC-32 of its name."""
    out = {}
    for path in CORPUS:
        text = path.read_text(encoding="utf-8")
        rng = np.random.default_rng(zlib.crc32(path.name.encode()))
        for k in range(MUTANTS_PER_FILE):
            out[f"{path.name} mutant {k}"] = mutate(text, rng)
    return out


def mutant_outputs() -> dict:
    """Whether each mutant parsed, and its formatted diagnostics."""
    outs = {}
    for name, text in mutants().items():
        ws, diags = fe.parse_workspace(text)
        outs[name] = {"parsed": ws is not None,
                      "diagnostics": fe.format_diagnostics(diags, "m.qrel")}
    return outs


def assert_same(got, want, where: str) -> None:
    if isinstance(want, float) and where.endswith(".margin") and want <= config.TOL_MIN:
        assert isinstance(got, float) and got <= config.TOL_MIN, where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def test_corpus_outputs_match_the_goldens(monkeypatch):
    monkeypatch.delenv("QREL_TOL", raising=False)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert_same(outputs(), want, "corpus")


def test_mutant_diagnostics_match_the_goldens():
    want = json.loads(MUTANTS.read_text(encoding="utf-8"))
    got = mutant_outputs()
    assert list(got) == list(want)
    for name in want:  # the first differing mutant, with its text
        assert got[name] == want[name], f"{name}:\n{mutants()[name]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs(), indent=1) + "\n", encoding="utf-8")
    MUTANTS.write_text(json.dumps(mutant_outputs(), indent=1) + "\n", encoding="utf-8")
