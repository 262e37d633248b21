"""Seeded mutation fuzz over the corpus: whatever a mutated workspace says,
the frontend answers with diagnostics and the CLI with a documented exit
code, never a traceback.  Surviving mutants are also verified, and each of
their formulas is evaluated with no context and with a drawn context."""

import contextlib
import io
import pathlib

import numpy as np
import pytest

from qrel import cli
from qrel import frontend as fe

CORPUS = sorted((pathlib.Path(__file__).parent.parent / "corpus").glob("*.qrel"))

# Hostile numbers and stray tokens spliced into the text.  The list shapes
# (empty lists, trailing and doubled commas) aim at the parser's list rule.
NUMBERS = ("0", "1", "2", "-1", "7", "99", "1e300", "-1e300", "1e-300", "0.5", "inf")
SNIPPETS = (
    "(", ")", "[", "]", "{", "}", ",", "=", "*", "><", "->", ".", "1",
    '"a"', '"zz"', "[0,0]", "[[1,0]]", "block (0, 0) = [ [[ [1,0] ]] ]",
    "qset", "rel", "fn", "const", "var", "verify", "assert", "A", "X*",
    "[]", "()", ",]", ",)", ", ,",
)

# Malformed `eval --context` specs; `draw_context` adds well-formed ones.
BAD_CONTEXTS = ("y:", ":A", "y:A,y:A", "y:(A")


def mutate(text: str, rng: np.random.Generator) -> str:
    """Apply one to three random edits: splice a number or a snippet,
    delete a slice, or delete, duplicate or swap whole lines."""
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(6))
        pos = int(rng.integers(len(text) + 1))
        lines = text.split("\n")
        line = int(rng.integers(len(lines)))
        if op == 0:
            text = text[:pos] + str(rng.choice(NUMBERS)) + text[pos:]
        elif op == 1:
            text = text[:pos] + " " + str(rng.choice(SNIPPETS)) + " " + text[pos:]
        elif op == 2:
            text = text[:pos] + text[pos + int(rng.integers(1, 12)):]
        elif op == 3:
            del lines[line]
            text = "\n".join(lines)
        elif op == 4:
            lines.insert(line, lines[line])
            text = "\n".join(lines)
        else:
            other = int(rng.integers(len(lines)))
            lines[line], lines[other] = lines[other], lines[line]
            text = "\n".join(lines)
    return text


def sizes(ws: fe.Workspace) -> tuple[int, int]:
    """The largest atom dimension and the largest atom count of any sort."""
    sets = list(ws.qsets.values())
    return (
        max((a.dim for s in sets for a in s.atoms), default=0),
        max((len(s.atoms) for s in sets), default=0),
    )


def draw_context(ws: fe.Workspace, rng: np.random.Generator) -> str:
    """A context spec: malformed, or built from the workspace's own sorts."""
    specs = list(BAD_CONTEXTS)
    for name in sorted(ws.qsets):
        specs += [f"y:{name}", f"y:{name}*", f"y:{name} >< {name},z:{name}"]
    return str(rng.choice(specs))


def run_cli(*argv: str) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(list(argv))
    assert "Traceback" not in out.getvalue()
    return code


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_mutants_end_in_diagnostics(path, tmp_path):
    original = path.read_text(encoding="utf-8")
    ws, _ = fe.parse_workspace(original)
    limit = sizes(ws)
    rng = np.random.default_rng(sum(path.name.encode()))
    ctx_rng = np.random.default_rng(len(path.name))
    for k in range(12):
        text = mutate(original, rng)
        ws, diags = fe.parse_workspace(text)
        assert (ws is None) == any(d.severity == "error" for d in diags)
        target = tmp_path / f"m{k}.qrel"
        target.write_text(text, encoding="utf-8")
        assert run_cli("check", str(target)) == (0 if ws is not None else 2)
        if ws is not None and all(a <= b for a, b in zip(sizes(ws), limit)):
            assert run_cli("verify", str(target)) in (0, 1, 2, 3)
            for name in sorted(ws.formulas):
                argv = ("eval", str(target), "--formula", name)
                assert run_cli(*argv) in (0, 2)
                assert run_cli(*argv, "--context", draw_context(ws, ctx_rng)) in (0, 2)
