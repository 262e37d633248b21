
from qrel import frontend as fe
from qrel import logic as lg
from qrel import qset as q
from qrel import structures as st

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
        # use the pure parser for the fixpoint check
        tokens, lex_diags = fe._lex(big)
        parser = fe._Parser(tokens, list(lex_diags))
        decls = parser.workspace()
        printed = fe.print_workspace(decls)
        tokens2, _ = fe._lex(printed)
        parser2 = fe._Parser(tokens2, [])
        decls2 = parser2.workspace()
        assert decls2 == decls
        assert fe.print_workspace(decls2) == printed


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
