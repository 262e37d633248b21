"""Every verdict is its margin against the tolerance.

A condition's margin is the worst over the routes that ran, the condition
passes when that margin is within tolerance, and each route's flag is its
own margin against tolerance.  Checked over every verify directive in the
corpus and over seeded random instances, at two tolerances.  Near the
boundary, the two routes of a condition agree unless the input's noise is
within a decade of the tolerance.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from qrel import cli, config
from qrel import frontend as fe
from qrel import generators as gen
from qrel import qset as q
from qrel import structures as st
from qrel import subspace as sp

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
TOLERANCES = (config.DEFAULT_TOL, 1e-5)


@contextlib.contextmanager
def tolerance(value):
    token = config.set_tolerance(value)
    try:
        yield value
    finally:
        config.reset_tolerance(token)


def assert_margins_decide(report, tol):
    assert report.conditions
    for c in report.conditions:
        assert c.route_margins and set(c.route_margins) == set(c.paths), c.id
        assert c.margin == max(c.route_margins.values()), c.id
        assert c.passed == (c.margin <= tol), c.id
        for route, margin in c.route_margins.items():
            assert c.paths[route] == (margin <= tol), (c.id, route)
    assert report.passed == all(c.margin <= tol for c in report.conditions)


def corpus_directives():
    for path in sorted(CORPUS.glob("*.qrel")):
        ws, diags = fe.parse_workspace(path.read_text(encoding="utf-8"))
        assert ws is not None, fe.format_diagnostics(diags, str(path))
        for d in ws.verifies:
            yield pytest.param(ws, d, id=f"{path.stem}-{d.kind}-{'-'.join(d.names)}")


@pytest.mark.parametrize("ws, d", corpus_directives())
def test_corpus_conditions(ws, d):
    for tol in TOLERANCES:
        with tolerance(tol):
            assert_margins_decide(fe.bind_verify(ws, d.kind, d.names)(), tol)


ENDO_SETS = {
    "qubit": q.atoms([2], ["x"]),
    "two-atoms": q.atoms([1, 2], ["a", "b"]),
    "classical": q.classical(["u", "v", "w"]),
}


@pytest.mark.parametrize("name", sorted(ENDO_SETS))
def test_random_endo_relations(name):
    x = ENDO_SETS[name]
    for seed in range(4):
        r = gen.random_endo_relation(x, seed)
        checks = [st.check_graph, st.check_preorder, st.check_poset]
        if len(x.atoms) == 1:
            checks.append(lambda rel: st.check_poset(rel, "nilpotent"))
        for tol in TOLERANCES:
            with tolerance(tol):
                for check in checks:
                    assert_margins_decide(check(r), tol)
                # The direct margins are the inequalities themselves.
                graph = st.check_graph(r)
                direct = graph.condition("reflexivity").route_margins["direct"]
                assert direct == q.leq_margin(q.identity(x), r)[1]
                direct = graph.condition("symmetry").route_margins["direct"]
                assert direct == q.leq_margin(r, q.dagger(r))[1]


def random_functions(seed):
    """A lifted classical function, a packaged magic unitary, and a random
    relation between two small quantum sets (rarely a function)."""
    cs = gen.ClassicalStructure(
        sets={"A": ("a", "b", "c"), "B": ("x", "y")},
        relations={},
        functions={"f": (("A",), "B", {("a",): "x", ("b",): "y", ("c",): "x"})},
    )
    yield gen.lift(cs).functions["f"]
    yield st.family_to_function(gen.random_magic_unitary(seed))[0]
    x, y = q.atoms([2], ["x"]), q.atoms([1, 1], ["y0", "y1"])
    blocks = {key: gen.random_subspace((1, 2), 1, seed * 7 + k)
              for k, key in enumerate([(0, 0), (0, 1)])}
    yield q.Relation(x, y, blocks)


@pytest.mark.parametrize("seed", range(3))
def test_random_functions(seed):
    for f in random_functions(seed):
        for tol in TOLERANCES:
            with tolerance(tol):
                for mode in ("function", "injective", "surjective"):
                    assert_margins_decide(st.check_function(f, mode), tol)


def test_failing_verify_runs_its_checker_once(monkeypatch):
    calls = []
    check_function = st.check_function

    def counted(*args, **kwargs):
        calls.append(args)
        return check_function(*args, **kwargs)

    monkeypatch.setattr(st, "check_function", counted)
    cfg = cli.RunConfig("verify", [str(CORPUS / "surjectivity_gap.qrel")], output="json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(cfg) == 1
    assert len(calls) == 1


def test_warn_band_is_read_from_margins(tmp_path):
    # One self-adjointness failure by a margin of about 1e-7.
    ws = tmp_path / "warn.qrel"
    ws.write_text(
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
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(cli.RunConfig("verify", [str(ws)], output="json")) == 3
    (item,) = json.loads(buf.getvalue())["items"]
    failed = [c["margin"] for c in item["conditions"] if not c["passed"]]
    assert item["warn_band"] and failed
    assert all(config.DEFAULT_TOL < m <= config.WARN_TOL for m in failed)


def unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1
    return m


# Exact structures on one atom, by the generators of their single block, and
# the checks whose routes must agree: the graph span{1, flip} on a qubit,
# the operator system span{1, E01 + E10, E12 + E21} on a qutrit, and
# span{1, E01} on a qubit as a preorder and as a weaver poset.
NEAR_BOUNDARY = {
    "qubit-graph": (2, [np.eye(2), unit(2, 0, 1) + unit(2, 1, 0)], (st.check_graph,)),
    "qutrit-graph": (
        3,
        [np.eye(3), unit(3, 0, 1) + unit(3, 1, 0), unit(3, 1, 2) + unit(3, 2, 1)],
        (st.check_graph,),
    ),
    "qubit-order": (2, [np.eye(2), unit(2, 0, 1)], (st.check_preorder, st.check_poset)),
}


def noisy_relation(d, gens, seed):
    """The span of ``gens``, each moved by eps (G1 + i G2) with Gaussian G1,
    G2 and eps = 10^U(-14, -3); returns eps and the relation."""
    rng = np.random.default_rng(seed)
    eps = 10 ** rng.uniform(-14, -3)
    noisy = [g + eps * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for g in gens]
    x = q.atoms([d], ["x"])
    return eps, q.Relation(x, x, {(0, 0): sp.span(noisy, (d, d))})


@pytest.mark.parametrize("tol", [config.TOL_MIN, config.DEFAULT_TOL, config.TOL_MAX])
def test_routes_agree_away_from_the_tolerance(tol):
    # Every rank decision is made at the tolerance, so a direction moved by
    # eps is the same direction on both routes when eps < tol / 10 and a new
    # one on both when eps > 10 tol.
    checked, disagree = 0, []
    with tolerance(tol):
        for name, (d, gens, checks) in NEAR_BOUNDARY.items():
            for seed in range(40):
                eps, r = noisy_relation(d, gens, seed)
                if tol / 10 <= eps <= 10 * tol:
                    continue
                for check in checks:
                    for c in check(r).conditions:
                        if set(c.paths) == {"direct", "formula"}:
                            checked += 1
                            if c.paths["direct"] != c.paths["formula"]:
                                disagree.append((name, seed, eps, c.id, c.route_margins))
    assert checked >= 250 and not disagree
