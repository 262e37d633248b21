import json
import subprocess
import sys

import pytest

from qrel import cli
from qrel import frontend as fe
from qrel import logic as lg
from qrel import qset as q
from qrel import structures as st
from qrel.errors import QrelError

GRAPH_SRC = """
qset X { atoms = [2] }
fn R : X -> X {
  block (0, 0) = [
    [[ [1,0], [0,0] ], [ [0,0], [1,0] ]],
    [[ [0,0], [1,0] ], [ [1,0], [0,0] ]]
  ]
}
formula refl := forall x == xs in X . R(x, xs)
assert refl is true
verify graph R
"""


def parse_ok(src):
    ws, diags = fe.parse_workspace(src)
    assert ws is not None, fe.format_diagnostics(diags)
    return ws


def first_error(src):
    ws, diags = fe.parse_workspace(src)
    errors = [d for d in diags if d.severity == "error"]
    assert errors, "expected a diagnostic"
    return errors[0]


class TestParse:
    def test_qset_atoms(self):
        ws = parse_ok("qset X { atoms = [2] }")
        assert ws.qsets["X"].dims == (2,)

    def test_qset_classical(self):
        ws = parse_ok('qset A { classical = ["a", "b"] }')
        assert ws.qsets["A"].labels() == ("a", "b")

    def test_diagonal_formula(self):
        ws = parse_ok(GRAPH_SRC)
        f = ws.formulas["refl"]
        assert isinstance(f, lg.ForallDiag)
        assert f.dual_var.sort == ws.qsets["X"].dual()

    def test_sort_expressions(self):
        ws = parse_ok(
            'qset X { atoms = [2] }\nqset A { classical = ["a"] }\n'
            "rel R : (X >< A*, X) { }"
        )
        dom = q.product(q.product(ws.qsets["X"], ws.qsets["A"].dual()), ws.qsets["X"])
        assert ws.rels["R"].domain == dom

    def test_matrix_shape_error_span(self):
        d = first_error(
            "qset X { atoms = [2] }\n"
            "rel R : (X, X*) { block (0,0) = [[[ [1,0],[0,0] ],[ [0,0],[1,0] ]]] }"
        )
        assert "does not fit ambient 1x4" in d.message
        assert d.span.line == 2

    def test_unknown_sort(self):
        d = first_error("rel R : (Y) { }")
        assert "unknown quantum set" in d.message

    @pytest.mark.parametrize("decl", [
        'qset B { classical = ["b⊗c"] }',
        'family P : projections { dim = 1 rows = ["b⊗c"] cols = ["x"] '
        'p ("b⊗c", "x") = [[ [1,0] ]] }',
    ])
    def test_product_separator_in_a_label_is_refused_at_its_declaration(self, decl):
        d = first_error('qset A { classical = ["a"] }\n' + decl)
        assert "may not contain '⊗'" in d.message
        assert (d.span.line, d.span.col) == (2, 1)

    def test_duplicate_names(self):
        d = first_error("qset X { atoms = [1] }\nqset X { atoms = [2] }")
        assert "duplicate" in d.message

    def test_unterminated_string(self):
        d = first_error('qset A { classical = ["a, "b"] }')
        assert d.severity == "error"

    def test_nonduplication_diagnostic(self):
        d = first_error(
            'qset A { classical = ["a"] }\n'
            "rel r : (A, A) { tuples = [] }\n"
            "formula f := forall x in A . r(x, x)"
        )
        assert "duplicating" in d.message and "'x'" in d.message
        assert d.hint is not None

    def test_reserved_variable_names(self):
        d = first_error(
            'qset A { classical = ["a"] }\n'
            "rel r : (A) { tuples = [] }\n"
            "formula f := forall $v in A . r($v)"
        )
        assert d.severity == "error"

    def test_verify_kind_validation(self):
        d = first_error("verify not-a-kind R")
        assert "unknown verify kind" in d.message

    def test_verify_name_resolution(self):
        d = first_error("qset X { atoms = [2] }\nverify graph missing")
        assert "verify graph" in d.message


class TestResolution:
    def test_tuples_relation_and_graph(self):
        ws = parse_ok(
            'qset A { classical = ["u", "v"] }\n'
            'rel G : (A, A) { tuples = [("u","v"), ("v","u")] }'
        )
        assert ws.graphs["G"] == (("u", "v"), frozenset({("u", "v"), ("v", "u")}))

    def test_classical_map_function(self):
        ws = parse_ok(
            'qset A { classical = ["a", "b"] }\n'
            'fn swap : A -> A { map = [("a") -> "b", ("b") -> "a"] }'
        )
        assert st.check_function(ws.fns["swap"]).passed

    def test_product_domain_map(self):
        ws = parse_ok(
            'qset A { classical = ["0", "1"] }\n'
            'fn xor : A >< A -> A { map = [("0","0") -> "0", ("0","1") -> "1",'
            ' ("1","0") -> "1", ("1","1") -> "0"] }'
        )
        assert st.check_quantum_group(
            ws.fns["xor"],
            parse_ok(
                'qset A { classical = ["0", "1"] }\nconst z : A = "0"'
            ).fns["z"],
        ).passed

    def test_const(self):
        ws = parse_ok('qset A { classical = ["a", "b"] }\nconst c : A = "b"')
        fn = ws.fns["c"]
        assert fn.domain.is_unit and set(fn.blocks) == {(0, 1)}

    def test_classical_sugar_matches_lift(self):
        # tuples, map and const build the relations gen.lift builds
        from qrel import generators as gen

        ws = parse_ok(
            'qset A { classical = ["a", "b"] }\n'
            'qset B { classical = ["x", "y", "z"] }\n'
            'rel r : (A, B) { tuples = [("a","y"), ("b","x"), ("b","z")] }\n'
            'fn f : A >< B -> A { map = [("a","x") -> "b", ("a","y") -> "a",'
            ' ("a","z") -> "a", ("b","x") -> "a", ("b","y") -> "b", ("b","z") -> "b"] }\n'
            'const c : B = "z"'
        )
        fmap = {("a", "x"): "b", ("a", "y"): "a", ("a", "z"): "a",
                ("b", "x"): "a", ("b", "y"): "b", ("b", "z"): "b"}
        ls = gen.lift(gen.ClassicalStructure(
            sets={"A": ("a", "b"), "B": ("x", "y", "z")},
            relations={"r": (("A", "B"), frozenset({("a", "y"), ("b", "x"), ("b", "z")}))},
            functions={"f": (("A", "B"), "A", fmap), "c": ((), "B", {(): "z"})},
        ))
        pairs = [(ws.rels["r"], ls.relations["r"]), (ws.fns["f"], ls.functions["f"]),
                 (ws.fns["c"], ls.functions["c"])]
        for ours, lifted in pairs:
            assert set(ours.blocks) == set(lifted.blocks)
            assert q.rel_equal(ours, lifted)
            assert ours.origin == lifted.origin
        a, b = lg.Variable("a", ws.qsets["A"]), lg.Variable("b", ws.qsets["B"])
        for r, f, c in ((ws.rels["r"], ws.fns["f"], ws.fns["c"]),
                        (ls.relations["r"], ls.functions["f"], ls.functions["c"])):
            # forall a . exists b . r(f(a, b), c)
            body = lg.Atomic(r, (lg.App(f, (lg.Var(a), lg.Var(b))), lg.App(c, ())))
            sentence = lg.Forall(a, lg.Exists(b, body))
            assert gen.fol_eval(ls, sentence) is True
            assert lg.truth(sentence)

    def test_partial_map_rejected(self):
        d = first_error(
            'qset A { classical = ["a", "b"] }\n'
            'fn f : A -> A { map = [("a") -> "a"] }'
        )
        assert "cover every domain element" in d.message

    def test_metric_family(self):
        ws = parse_ok(
            "qset Q { atoms = [2] }\n"
            "family M : metric on Q {\n"
            "  at 0 { block (0, 0) = [ [[ [1,0],[0,0] ], [ [0,0],[1,0] ]] ] }\n"
            "  at 1 { block (0, 0) = [ [[ [0,0],[1,0] ], [ [1,0],[0,0] ]],"
            " [[ [0,0],[0,-1] ], [ [0,1],[0,0] ]],"
            " [[ [1,0],[0,0] ], [ [0,0],[-1,0] ]] ] }\n"
            "}"
        )
        fam = ws.families["M"]
        assert st.check_metric(fam, "metric").passed

    def test_projection_family_validation(self):
        d = first_error(
            "family P : projections {\n"
            "  dim = 1\n  rows = [\"a\"]\n  cols = [\"x\"]\n"
            '  p ("a", "x") = [[ [0.5,0] ]]\n'
            "}"
        )
        assert "not a projection" in d.message

    def test_conjugated_heads(self):
        ws = parse_ok(
            "qset X { atoms = [2] }\n"
            "fn F : X -> X {\n"
            "  block (0, 0) = [ [[ [1,0],[0,0] ], [ [0,0],[1,0] ]] ]\n"
            "}\n"
            "formula g := forall x1 in X . forall x2s in X* . "
            "F(x1, x2s) -> not ~F(x2s, x1)\n"
        )
        assert "g" in ws.formulas

    def test_term_conjugation_of_variable_rejected(self):
        d = first_error(
            "qset X { atoms = [2] }\n"
            "fn F : X -> X { block (0,0) = [ [[ [1,0],[0,0] ], [ [0,0],[1,0] ]] ] }\n"
            "formula g := forall x in X . forall ys in X* . E[X](~x, ys)"
        )
        assert "cannot conjugate" in d.message


class TestFormatting:
    def test_empty_diagnostics(self):
        assert fe.format_diagnostics([]) == ""

    def test_single_line_format(self):
        d = fe.Diagnostic("error", fe.Span(3, 7, 3, 9), "boom")
        assert fe.format_diagnostics([d], "f.qrel") == "f.qrel:3:7: error: boom\n"

    def test_ordering_by_span(self):
        d1 = fe.Diagnostic("error", fe.Span(5, 1, 5, 2), "later")
        d2 = fe.Diagnostic("error", fe.Span(2, 4, 2, 5), "sooner")
        text = fe.format_diagnostics([d1, d2])
        assert text.index("sooner") < text.index("later")

    def test_spans_inside_input(self):
        src = "qset X { atoms = [0] }"
        _, diags = fe.parse_workspace(src)
        for d in diags:
            assert 1 <= d.span.line <= src.count("\n") + 1


class TestPrintReparse:
    def test_fixpoint_on_corpus_like_source(self):
        big = GRAPH_SRC + (
            '\nqset A { classical = ["a", "b"] }'
            '\nrel r : (A, A) { tuples = [("a","b")] }'
            '\nfn swap : A -> A { map = [("a") -> "b", ("b") -> "a"] }'
            '\nconst c : A = "a"'
            "\nfamily P : projections {"
            "\n  dim = 1"
            '\n  rows = ["a"]'
            '\n  cols = ["x"]'
            '\n  p ("a", "x") = [[ [1,0] ]]'
            "\n}"
            "\nformula mix := forall x in A . (exists y in A . r(x, y) or r(y, x))"
            " -> (not r(x, x) <-> r(x, x))"
        )
        ws, diags = fe.parse_workspace(big)
        # note: mix is duplicating (r(x,x)); parse only, resolution reports it
        tokens_ok = [d for d in diags if "duplicating" in d.message]
        assert tokens_ok
        self.assert_fixpoint(big)

    def test_fixpoint_on_bent_heads_and_sasaki(self):
        src = GRAPH_SRC + (
            "formula s := forall x1 in X . forall x2s in X* . "
            "sasaki(R~(x1, x2s), ~R~(x2s, x1) or not (R(x1, x2s) -> ~R(x2s, x1)))"
            " -> E[X](x1, x2s)\n"
        )
        parse_ok(src)
        printed = self.assert_fixpoint(src)
        assert "sasaki(R~(x1, x2s), ~R~(x2s, x1) or not " in printed

    def test_fixpoint_on_infinite_distances(self):
        src = (
            "qset X { atoms = [1] }\n"
            "family M : metric on X {\n"
            "  at -1e400 { block (0, 0) = [ [[ [1,0] ]] ] }\n"
            "  at 1e400 { block (0, 0) = [ [[ [1,0] ]] ] }\n"
            "}\n"
        )
        printed = self.assert_fixpoint(src)
        assert "at -1e999 {" in printed and "at inf {" in printed

    @staticmethod
    def assert_fixpoint(src):
        """Parse, print, reparse and reprint with the pure parser: the trees
        and the printed texts must agree.  Returns the printed text."""
        tokens, lex_diags = fe._lex(src)
        parser = fe._Parser(tokens, list(lex_diags))
        decls = parser.workspace()
        printed = fe.print_workspace(decls)
        tokens2, _ = fe._lex(printed)
        parser2 = fe._Parser(tokens2, [])
        decls2 = parser2.workspace()
        assert decls2 == decls
        assert fe.print_workspace(decls2) == printed
        return printed


class TestGroupDecl:
    SRC = (
        'group Z2 {\n'
        '  elements = ["e", "g"]\n'
        '  mult = [("e","e") -> "e", ("e","g") -> "g",'
        ' ("g","e") -> "g", ("g","g") -> "e"]\n'
        '  irrep triv = [ [[ [1,0] ]], [[ [1,0] ]] ]\n'
        '  irrep sgn = [ [[ [1,0] ]], [[ [-1,0] ]] ]\n'
        '}\n'
        'verify quantum-group Z2_mul Z2_unit\n'
    )

    def test_registers_dual_structure(self):
        ws = parse_ok(self.SRC)
        assert ws.qsets["Z2"].dims == (1, 1)
        assert "Z2_mul" in ws.fns and "Z2_unit" in ws.fns
        assert st.check_quantum_group(ws.fns["Z2_mul"], ws.fns["Z2_unit"]).passed

    def test_print_reparse_fixpoint(self):
        tokens, _ = fe._lex(self.SRC)
        decls = fe._Parser(tokens, []).workspace()
        printed = fe.print_workspace(decls)
        tokens2, _ = fe._lex(printed)
        decls2 = fe._Parser(tokens2, []).workspace()
        assert decls2 == decls

    def test_invalid_irreps_reported(self):
        bad = self.SRC.replace('[[ [-1,0] ]]', '[[ [2,0] ]]')
        d = first_error(bad)
        assert "unitary" in d.message or "homomorphism" in d.message


def test_empty_sort_quantification_warns():
    ws, diags = fe.parse_workspace(
        "qset N { classical = [] }\n"
        'qset A { classical = ["a"] }\n'
        "rel s : (A) { tuples = [(\"a\")] }\n"
        "formula f := forall x in A . exists z in N . s(x)\n"
    )
    assert ws is not None
    warnings = [d for d in diags if d.severity == "warning"]
    assert warnings and "empty sort" in warnings[0].message


def test_var_declarations_allow_open_formulas():
    ws = parse_ok(
        'qset A { classical = ["a", "b"] }\n'
        'rel s : (A) { tuples = [("a")] }\n'
        "var x : A\n"
        "formula open := s(x)\n"
    )
    f = ws.formulas["open"]
    assert lg.free_variables(f) == (ws.variables["x"],)


def test_assert_rejects_open_formula():
    d = first_error(
        'qset A { classical = ["a"] }\n'
        'rel s : (A) { tuples = [("a")] }\n'
        "var x : A\nformula open := s(x)\nassert open is true\n"
    )
    assert "free variables" in d.message


def test_parser_never_raises_on_mutated_inputs():
    import numpy as np
    from pathlib import Path

    rng = np.random.default_rng(42)
    corpus = [p.read_text() for p in (Path(__file__).parent.parent / "corpus").glob("*.qrel")]
    alphabet = list("qselrfn{}()[]<>*~=.,:#\"0123456789abcxyz \n-")
    for trial in range(150):
        base = corpus[int(rng.integers(len(corpus)))]
        chars = list(base)
        for _ in range(int(rng.integers(1, 10))):
            pos = int(rng.integers(len(chars))) if chars else 0
            op = rng.integers(3)
            if op == 0 and chars:
                del chars[pos]
            elif op == 1:
                chars.insert(pos, str(rng.choice(alphabet)))
            elif chars:
                chars[pos] = str(rng.choice(alphabet))
        ws, diags = fe.parse_workspace("".join(chars))
        fe.format_diagnostics(diags, "fuzz.qrel")


class TestRaggedMatrices:
    """A matrix whose rows differ in length is a diagnostic, not a crash."""

    def test_block_entry(self):
        d = first_error(
            "qset X { atoms = [2] }\n"
            "fn R : X -> X {\n"
            "  block (0, 0) = [ [[ [1,0],[0,0] ], [ [0,0] ]] ]\n"
            "}\n"
        )
        assert "rows differ in length" in d.message
        assert d.span.line == 3

    def test_projection_family(self):
        d = first_error(
            "family P : projections {\n"
            "  dim = 1\n"
            '  rows = ["a"]\n'
            '  cols = ["x"]\n'
            '  p ("a", "x") = [[ [1,0] ], [ [0,0], [1,0] ]]\n'
            "}\n"
        )
        assert "rows differ in length" in d.message
        assert d.span.line == 1

    def test_group_irrep(self):
        d = first_error(
            "group Z2 {\n"
            '  elements = ["e", "g"]\n'
            '  mult = [("e","e") -> "e", ("e","g") -> "g",'
            ' ("g","e") -> "g", ("g","g") -> "e"]\n'
            "  irrep triv = [ [[ [1,0] ]], [[ [1,0] ]] ]\n"
            "  irrep sgn = [ [[ [1,0] ]], [[ [-1,0], [0,0] ], [ [0,0] ]] ]\n"
            "}\n"
        )
        assert "rows differ in length" in d.message


def test_infinite_matrix_entry_is_a_diagnostic():
    d = first_error(
        "qset X { atoms = [1] }\n"
        "fn R : X -> X { block (0, 0) = [ [[ [1e999,0] ]] ] }\n"
    )
    assert d.message == "matrix entries must be finite"
    assert d.span.line == 2


def test_irrep_matrices_of_different_shapes_are_a_diagnostic():
    d = first_error(
        "group Z2 {\n"
        '  elements = ["e", "g"]\n'
        '  mult = [("e","e") -> "e", ("e","g") -> "g",'
        ' ("g","e") -> "g", ("g","g") -> "e"]\n'
        "  irrep triv = [ [[ [1,0] ]], [[ [1,0] ]] ]\n"
        "  irrep sgn = [ [[ [1,0] ]], [[ [-1,0], [0,0] ], [ [0,0], [-1,0] ]] ]\n"
        "}\n"
    )
    assert d.message == "irrep matrices must share a shape"


@pytest.mark.parametrize(
    "src, expected",
    [
        ("qset X { atoms = [1] }\nfnn R : X -> X {}\n",
         "2:1: error: unknown declaration 'fnn' (hint: expected one of qset, rel, "
         "fn, const, var, family, group, formula, assert, verify)"),
        ("qset X { atoms = [1] }\nfn R : X -> X { block (0) = [ [[ [1,0] ]] ] }\n",
         "2:17: error: fn blocks use (domain atom, codomain atom) indices"),
        ("qset X { atoms = [1] }\nfn R : X -> X { block (0, 1) = [ [[ [1,0] ]] ] }\n",
         "2:17: error: atom index out of range"),
        ("qset Q { atoms = [1] }\n"
         "family M : metric on Q { at 0 { block (0, 0, 0) = [ [[ [1,0] ]] ] } }\n",
         "2:33: error: metric blocks use (i, j) indices"),
        ("qset Q { atoms = [1] }\n"
         "family M : metric on Q { at 0 { block (1, 0) = [ [[ [1,0] ]] ] } }\n",
         "2:33: error: atom index out of range"),
        # a declaration keyword ends the names of a verify directive
        ("qset Q { atoms = [1] }\nverify metric M N\nqset R { atoms = [1] }\n",
         "2:1: error: verify metric needs 1 name(s) (a metric family), got 2"),
    ],
)
def test_declaration_and_block_diagnostics(src, expected):
    _, diags = fe.parse_workspace(src)
    assert fe.format_diagnostics(diags, "t.qrel") == f"t.qrel:{expected}\n"


A1 = 'qset A { classical = ["a"] }\n'
X1 = "qset X { atoms = [1] }\n"


# Every bracketed list is read by one rule: comma-separated, possibly empty,
# no trailing comma.  Empty matrices, rows and block indices parse and meet
# the resolver's shape and index checks; an empty rel arity is still refused.
@pytest.mark.parametrize(
    "src, expected",
    [
        (A1 + 'rel r : (A) { tuples = [("a") ("a")] }\n',
         "2:31: error: expected ], found '('"),
        (A1 + 'rel r : (A) { tuples = [("a"),] }\n',
         "2:31: error: expected (, found ']'"),
        (A1 + 'fn f : A -> A { map = [("a") -> "a" ("a") -> "a"] }\n',
         "2:37: error: expected ], found '('"),
        (A1 + 'fn f : A -> A { map = [("a") -> "a",] }\n',
         "2:37: error: expected (, found ']'"),
        (X1 + "fn R : X -> X { block (0, 0) = [ [] ] }\n",
         "2:17: error: matrix of shape (0,) does not fit ambient 1x1"),
        (X1 + "fn R : X -> X { block (0, 0) = [ [[]] ] }\n",
         "2:17: error: matrix of shape (1, 0) does not fit ambient 1x1"),
        (X1 + "fn R : X -> X { block () = [ [[ [1,0] ]] ] }\n",
         "2:17: error: fn blocks use (domain atom, codomain atom) indices"),
        (X1 + "rel P : (X) { block () = [ [[ [1,0] ]] ] }\n",
         "2:15: error: block index has 0 positions, arity has 1"),
        (X1 + "rel R : () { }\n", "2:10: error: expected a sort, found ')'"),
        ("group G { elements = [] mult = [] irrep I = [] }\n",
         "1:1: error: group needs at least one element"),
    ],
    ids=["tuples-comma", "tuples-trailing", "map-comma", "map-trailing", "empty-matrix",
         "empty-row", "empty-index", "empty-rel-index", "nullary-rel", "empty-group"],
)
def test_list_rule_diagnostics(tmp_path, capsys, src, expected):
    path = tmp_path / "t.qrel"
    path.write_text(src)
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().out.endswith(f"{path}:{expected}\n")


PROJ = 'family P : projections { dim = 1 rows = ["a"] cols = ["x"]\n'
GROUP = 'group G { elements = ["e"] mult = [("e","e") -> "e"]\n'


# A repeated entry is one diagnostic at its second occurrence, whose hint
# names the first; before, the last entry silently replaced the others.
@pytest.mark.parametrize(
    "src, expected",
    [
        (X1 + "fn R : X -> X { block (0, 0) = [ [[ [1,0] ]] ]\n"
         "  block (0, 0) = [ [[ [0,0] ]] ] }\nverify function R\n",
         "3:3: error: repeated block (0, 0) (hint: the first is at 2:17)"),
        (X1 + "rel P : (X) { block (0) = [ [[ [1,0] ]] ]\n"
         "  block (0) = [ [[ [1,0] ]] ] }\n",
         "3:3: error: repeated block (0) (hint: the first is at 2:15)"),
        (X1 + "family M : metric on X { at 0 { block (0, 0) = [ [[ [1,0] ]] ]\n"
         "  block (0, 0) = [ [[ [1,0] ]] ] } }\n",
         "3:3: error: repeated block (0, 0) (hint: the first is at 2:33)"),
        (PROJ + '  p ("a", "x") = [[ [1,0] ]]\n  p ("a", "x") = [[ [0,0] ]] }\n',
         "3:5: error: repeated projection ('a', 'x') (hint: the first is at 2:5)"),
        (PROJ + '  dim = 2 p ("a", "x") = [[ [1,0] ]] }\n',
         "2:3: error: repeated 'dim' in projection family (hint: the first is at 1:26)"),
        (PROJ + '  rows = ["b"] p ("a", "x") = [[ [1,0] ]] }\n',
         "2:3: error: repeated 'rows' in projection family (hint: the first is at 1:34)"),
        (PROJ + '  cols = ["x"] p ("a", "x") = [[ [1,0] ]] }\n',
         "2:3: error: repeated 'cols' in projection family (hint: the first is at 1:47)"),
        (GROUP + '  elements = ["e"] irrep t = [ [[ [1,0] ]] ] }\n',
         "2:3: error: repeated 'elements' in group (hint: the first is at 1:11)"),
        (GROUP + '  mult = [("e","e") -> "e"] irrep t = [ [[ [1,0] ]] ] }\n',
         "2:3: error: repeated 'mult' in group (hint: the first is at 1:28)"),
    ],
    ids=["fn-block", "rel-block", "metric-block", "projection", "dim", "rows", "cols",
         "elements", "mult"],
)
def test_repeated_entries_are_diagnosed(tmp_path, capsys, src, expected):
    path = tmp_path / "t.qrel"
    path.write_text(src)
    assert cli.main(["check", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.endswith(f"\n{path}:{expected}\n") and out.count("error:") == 1


# A fn on one atom of dimension 2 whose graph does not commute with the
# graph's conjugate, so a Sasaki projection of the two is not their meet.
BENT_SRC = """
qset X { atoms = [2] }
fn R : X -> X {
  block (0, 0) = [
    [[ [1,0], [1,0] ], [ [0,0], [0,0] ]],
    [[ [0,0], [0,0] ], [ [0,0], [1,0] ]]
  ]
}
rel P : (X, X*) {
  block (0, 0) = [ [[ [1,0], [0,0], [0,0], [1,0] ]] ]
}
"""


def test_bent_head_evaluates_like_the_plain_fn_head(capsys, tmp_path):
    path = tmp_path / "bent.qrel"
    path.write_text(
        BENT_SRC
        + "formula bent := forall x in X . exists ys in X* . R~(x, ys)\n"
        + "formula plain := forall x in X . exists ys in X* . R(x, ys)\n"
        + "formula bent_conj := forall x == xs in X . ~R~(xs, x)\n"
        + "formula plain_conj := forall x == xs in X . ~R(xs, x)\n"
    )
    ws = parse_ok(path.read_text())
    for a, b in (("bent", "plain"), ("bent_conj", "plain_conj")):
        assert lg.truth_margin(ws.formulas[a]) == lg.truth_margin(ws.formulas[b])
        items = []
        for name in (a, b):
            argv = ["eval", str(path), "--formula", name, "--output", "json"]
            assert cli.main(argv) == 0
            (item,) = json.loads(capsys.readouterr().out)["items"]
            del item["name"], item["timings_ms"]
            items.append(item)
        assert items[0] == items[1]


@pytest.mark.parametrize(
    "head, what", [("P", "a rel"), ("Q", "not a declared fn")], ids=["rel", "unknown"]
)
def test_bent_head_needs_a_fn(tmp_path, head, what):
    path = tmp_path / "bad.qrel"
    path.write_text(
        BENT_SRC + f"formula f := forall x in X . forall ys in X* . {head}~(x, ys)\n"
    )
    r = subprocess.run(
        [sys.executable, "-m", "qrel.cli", "check", str(path)],
        capture_output=True, text=True,
    )
    assert r.returncode == 2, r.stdout + r.stderr
    # the diagnostic points at the '~', line 12 column 49
    diag = (
        f"{path}:12:49: error: '~' after {head!r} marks the graph of a fn, "
        f"and {head!r} is {what}\n"
    )
    assert r.stdout.endswith(diag), r.stdout
    assert "Traceback" not in r.stderr


def test_sasaki_evaluates_as_the_sasaki_projection():
    ws = parse_ok(
        BENT_SRC
        + "var x : X\nvar ys : X*\n"
        + "formula s := sasaki(R(x, ys), ~R(ys, x))\n"
        + "formula t := (R(x, ys) or not ~R(ys, x)) and ~R(ys, x)\n"
        + "formula s_closed := forall x1 in X . forall x2s in X* . "
        "sasaki(R(x1, x2s), P(x1, x2s))\n"
        + "formula t_closed := forall x1 in X . forall x2s in X* . "
        "(R(x1, x2s) or not P(x1, x2s)) and P(x1, x2s)\n"
    )
    ctx = (ws.variables["x"], ws.variables["ys"])
    s, t = (lg.interpret(ws.formulas[n], ctx) for n in ("s", "t"))
    assert q.rel_equal(s, t) and s.block_ranks() == t.block_ranks()
    # the graphs do not commute, so the projection is not the meet
    meet = lg.interpret(lg.And(ws.formulas["t"].left.left, ws.formulas["t"].right), ctx)
    assert not q.rel_equal(s, meet)
    assert lg.truth_margin(ws.formulas["s_closed"]) == lg.truth_margin(
        ws.formulas["t_closed"]
    )


def test_sentence_reader_resolves_against_its_table():
    x = q.atoms([2])
    read = fe.sentence_reader({"X": x}, {"R": q.identity(x)})
    assert lg.truth(read("forall x == xs in X . R~(x, xs)"))
    for text, message in [
        ("forall x in X . R~(x", "expected ), found 'end of input'"),
        ("forall x in X . Q(x)", "unknown relation 'Q'"),
        ("forall y in Y . E[Y](y, y)", "unknown quantum set 'Y'"),
    ]:
        with pytest.raises(QrelError) as e:
            read(text)
        assert str(e.value) == message


def lexed(text):
    """The tokens of ``text`` as (kind, text, span) and its lexer diagnostics
    as (message, span), each span as (line, col, end_line, end_col)."""
    tokens, diags = fe._lex(text)

    def at(s):
        return (s.line, s.col, s.end_line, s.end_col)

    return [(t.kind, t.text, at(t.span)) for t in tokens], [(d.message, at(d.span)) for d in diags]


def test_token_spans_across_lines_and_tabs():
    text = 'x\t"s t"\n\t-1.5e+2 <-> # c\n  a-b ->'
    assert lexed(text) == ([
        ("NAME", "x", (1, 1, 1, 2)),
        ("STRING", "s t", (1, 3, 1, 8)),
        ("NUMBER", "-1.5e+2", (2, 2, 2, 9)),
        ("<->", "<->", (2, 10, 2, 13)),
        ("NAME", "a-b", (3, 3, 3, 6)),
        ("->", "->", (3, 7, 3, 9)),
        ("EOF", "", (3, 9, 3, 9)),
    ], [])


@pytest.mark.parametrize("op", ["<->", "->", ":=", "==", "><", *"{}()[],.:*~="])
def test_operator_spans(op):
    assert lexed(f"\t{op}") == (
        [(op, op, (1, 2, 1, 2 + len(op))), ("EOF", "", (1, 2 + len(op), 1, 2 + len(op)))],
        [],
    )


@pytest.mark.parametrize(
    "text, tokens, diags",
    [
        # unterminated strings end at the end of the input or of the line
        ('"abc', [("EOF", "", (1, 5, 1, 5))], [("unterminated string", (1, 1, 1, 5))]),
        ('"abc\nx', [("NAME", "x", (2, 1, 2, 2)), ("EOF", "", (2, 2, 2, 2))],
         [("unterminated string", (1, 1, 1, 5))]),
        # a number runs over digits, dots and exponent marks, then float checks it
        ("1e", [("EOF", "", (1, 3, 1, 3))], [("bad number '1e'", (1, 1, 1, 3))]),
        ("1.2.3", [("EOF", "", (1, 6, 1, 6))], [("bad number '1.2.3'", (1, 1, 1, 6))]),
        ("1e+", [("EOF", "", (1, 4, 1, 4))], [("bad number '1e+'", (1, 1, 1, 4))]),
        # a minus starts a number only before a digit or a dot
        ("-", [("EOF", "", (1, 2, 1, 2))], [("unexpected character '-'", (1, 1, 1, 2))]),
        ("->", [("->", "->", (1, 1, 1, 3)), ("EOF", "", (1, 3, 1, 3))], []),
        ("-1", [("NUMBER", "-1", (1, 1, 1, 3)), ("EOF", "", (1, 3, 1, 3))], []),
        ("-.5", [("NUMBER", "-.5", (1, 1, 1, 4)), ("EOF", "", (1, 4, 1, 4))], []),
        # a hyphen continues a name only before a letter
        ("poset-weaver", [("NAME", "poset-weaver", (1, 1, 1, 13)),
                          ("EOF", "", (1, 13, 1, 13))], []),
        ("a-1", [("NAME", "a", (1, 1, 1, 2)), ("NUMBER", "-1", (1, 2, 1, 4)),
                 ("EOF", "", (1, 4, 1, 4))], []),
        ("a-_b", [("NAME", "a", (1, 1, 1, 2)), ("NAME", "_b", (1, 3, 1, 5)),
                  ("EOF", "", (1, 5, 1, 5))], [("unexpected character '-'", (1, 2, 1, 3))]),
        # comments, carriage returns and trailing blanks leave one EOF
        ("x # c", [("NAME", "x", (1, 1, 1, 2)), ("EOF", "", (1, 6, 1, 6))], []),
        ("x\r\ny\r\n", [("NAME", "x", (1, 1, 1, 2)), ("NAME", "y", (2, 1, 2, 2)),
                        ("EOF", "", (3, 1, 3, 1))], []),
        ("x  \t", [("NAME", "x", (1, 1, 1, 2)), ("EOF", "", (1, 5, 1, 5))], []),
        ("x\n# c\n\n", [("NAME", "x", (1, 1, 1, 2)), ("EOF", "", (4, 1, 4, 1))], []),
        ("", [("EOF", "", (1, 1, 1, 1))], []),
        # Unicode letters name, Unicode decimal digits count
        ("Ω", [("NAME", "Ω", (1, 1, 1, 2)), ("EOF", "", (1, 2, 1, 2))], []),
        ("٣", [("NUMBER", "٣", (1, 1, 1, 2)), ("EOF", "", (1, 2, 1, 2))], []),
    ],
    ids=["string-eof", "string-newline", "1e", "1.2.3", "1e+", "minus", "arrow",
         "-1", "-.5", "hyphen-name", "a-1", "a-_b", "comment-eof", "crlf",
         "trailing-blanks", "trailing-comment", "empty", "omega", "arabic-three"],
)
def test_lexer_edge_cases(text, tokens, diags):
    assert lexed(text) == (tokens, diags)


@pytest.mark.parametrize("text", ["²", "a-²", "1²", "½", "Ⅻ"])
def test_numerals_that_are_not_digits_are_rejected(text):
    # ², ½ and Ⅻ are numeric to str.isalnum, but neither letters nor decimal
    # digits: none starts a name, continues a number or is a number alone.
    assert fe._lex(text)[1]
    assert fe.parse_workspace(f"qset X {{ atoms = [{text}] }}\n")[0] is None
