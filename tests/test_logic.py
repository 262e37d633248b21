import numpy as np
import pytest

from qrel import generators as gen
from qrel import logic as lg
from qrel import qset as q
from qrel import subspace as sp
from qrel.errors import FreeVariableNotInContext, HasFreeVariables, SortError

X = q.atoms([2], ["x"])
Y = q.atoms([1, 2], ["y0", "y1"])
A = q.classical(["a", "b"])


def rand_pred(sorts, seed, density=0.85):
    rng = np.random.default_rng(seed)
    dom = q.product_all(list(sorts))
    blocks = {}
    for flat, _idx, dims in q.atom_tuples(list(sorts)):
        if rng.random() > density:
            continue
        d = 1
        for x in dims:
            d *= x
        k = int(rng.integers(0, d + 1))
        blocks[(flat, 0)] = sp.span(
            [rng.normal(size=(1, d)) + 1j * rng.normal(size=(1, d)) for _ in range(k)],
            (1, d),
        )
    return q.Relation(dom, q.unit(), blocks)


def exists_by_composition(inner, bound_sort, ctx_sorts, diag):
    """The quantifier as the paper writes it: ``inner`` composed with the cup
    of top (of equality when ``diag``) crossed with the context's identity."""
    cup = q.equality(bound_sort) if diag else q.top_pred(bound_sort)
    rest = q.identity(q.product_all(ctx_sorts))
    return q.compose(inner, q.cross(q.dagger(cup), rest))


def random_quantum_formula(rng, sorts_pool, depth, scope):
    """Random nonduplicating formula over quantum sorts with fresh relations."""
    if depth <= 0 or (scope and rng.random() < 0.3):
        usable = list(scope)
        rng.shuffle(usable)
        k = int(rng.integers(1, min(2, len(usable)) + 1)) if usable else 0
        args = tuple(usable[:k])
        if not args:
            rel = rand_pred([], int(rng.integers(1 << 30)))
            return lg.Atomic(rel, ())
        rel = rand_pred([v.sort for v in args], int(rng.integers(1 << 30)))
        return lg.Atomic(rel, tuple(lg.Var(v) for v in args))
    roll = rng.random()
    if roll < 0.3:
        sort = sorts_pool[int(rng.integers(len(sorts_pool)))]
        name = f"q{int(rng.integers(1 << 30))}"
        if rng.random() < 0.5:
            v, vd = lg.Variable(name, sort), lg.Variable(name + "s", sort.dual())
            body = random_quantum_formula(rng, sorts_pool, depth - 1, scope + [v, vd])
            cls = lg.ForallDiag if rng.random() < 0.5 else lg.ExistsDiag
            return cls(v, vd, body)
        v = lg.Variable(name, sort)
        body = random_quantum_formula(rng, sorts_pool, depth - 1, scope + [v])
        cls = lg.Forall if rng.random() < 0.5 else lg.Exists
        return cls(v, body)
    if roll < 0.45:
        return lg.Not(random_quantum_formula(rng, sorts_pool, depth - 1, scope))
    cls = (lg.And, lg.Or, lg.Implies, lg.Iff)[int(rng.integers(4))]
    return cls(
        random_quantum_formula(rng, sorts_pool, depth - 1, scope),
        random_quantum_formula(rng, sorts_pool, depth - 1, scope),
    )


class TestNondup:
    def test_distinct_ok(self):
        r = rand_pred([X, Y], 0)
        x, y = lg.Variable("x", X), lg.Variable("y", Y)
        assert lg.nondup_check(lg.Atomic(r, (lg.Var(x), lg.Var(y)))) is None

    def test_repeated_variable_rejected(self):
        r = rand_pred([X, X], 1)
        x = lg.Variable("x", X)
        v = lg.nondup_check(lg.Atomic(r, (lg.Var(x), lg.Var(x))))
        assert v is not None and "x" in v.message

    def test_repetition_across_atomics_allowed(self):
        r = rand_pred([X, Y], 2)
        s = rand_pred([X, A], 3)
        x, y, z = lg.Variable("x", X), lg.Variable("y", Y), lg.Variable("z", A)
        f = lg.And(
            lg.Atomic(r, (lg.Var(x), lg.Var(y))),
            lg.Atomic(s, (lg.Var(x), lg.Var(z))),
        )
        assert lg.nondup_check(f) is None


class TestTranslate:
    def test_primitive_fixed(self):
        r = rand_pred([X], 4)
        x = lg.Variable("x", X)
        f = lg.Forall(x, lg.Not(lg.Atomic(r, (lg.Var(x),))))
        assert lg.translate(f) == f

    def test_exists_becomes_not_forall_not(self):
        r = rand_pred([X], 5)
        x = lg.Variable("x", X)
        f = lg.Exists(x, lg.Atomic(r, (lg.Var(x),)))
        t = lg.translate(f)
        assert isinstance(t, lg.Not) and isinstance(t.body, lg.Forall)

    def test_function_application_expansion(self):
        # P(F(x)) expands through a fresh diagonal pair and graph membership.
        cs = gen.ClassicalStructure(
            sets={"A": ("a", "b"), "B": ("u", "v")},
            relations={"P": (("B",), frozenset({("u",)}))},
            functions={"F": (("A",), "B", {("a",): "u", ("b",): "v"})},
        )
        ls = gen.lift(cs)
        x = lg.Variable("x", ls.sorts["A"])
        f = lg.Atomic(ls.relations["P"], (lg.App(ls.functions["F"], (lg.Var(x),)),))
        t = lg.translate(f)
        assert isinstance(t, lg.Not)  # diagonal-exists unfolds to a negation
        assert lg.free_variables(t) == (x,)
        ctx = (x,)
        assert q.rel_equal(lg.interpret(f, ctx), lg.interpret(t, ctx))

    @pytest.mark.parametrize("sorts", [[X], [Y, A], [X, q.dual(X)]])
    def test_negated_arrows_agree_with_their_expansion(self, sorts):
        # not (p -> r) and not (p <-> r) read in closed form, and p <-> r by
        # De Morgan, against the lattice expansion
        ctx = tuple(lg.Variable(f"v{i}", s) for i, s in enumerate(sorts))
        args = tuple(lg.Var(v) for v in ctx)
        for k in range(8):
            p = lg.Atomic(rand_pred(sorts, 40 + k), args)
            r = lg.Atomic(rand_pred(sorts, 60 + k), args)
            for f in [lg.Not(lg.Implies(p, r)), lg.Not(lg.Iff(p, r)), lg.Iff(p, r)]:
                expanded = lg.interpret(lg.translate(f), ctx)
                assert q.rel_equal(lg.interpret(f, ctx), expanded)

    def test_translated_agrees_randomly(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            f = random_quantum_formula(rng, [X, A], 3, [])
            ctx = lg.free_variables(f)
            direct = lg.interpret(f, ctx)
            expanded = lg.interpret(lg.translate(f), ctx)
            assert q.rel_equal(direct, expanded)


class TestInterpret:
    def test_atomic_identity_case(self):
        e = q.equality(X)
        v, vs = lg.Variable("v", X), lg.Variable("vs", q.dual(X))
        r = lg.interpret(lg.Atomic(e, (lg.Var(v), lg.Var(vs))), (v, vs))
        assert q.rel_equal(r, e)

    def test_padding(self):
        p = rand_pred([X], 6)
        v, y = lg.Variable("v", X), lg.Variable("y", Y)
        assert q.rel_equal(
            lg.interpret(lg.Atomic(p, (lg.Var(v),)), (v, y)),
            q.cross(p, q.top_pred(Y)),
        )

    def test_free_variable_not_in_context(self):
        p = rand_pred([X], 7)
        v, w = lg.Variable("v", X), lg.Variable("w", X)
        with pytest.raises(FreeVariableNotInContext):
            lg.interpret(lg.Atomic(p, (lg.Var(v),)), (w,))

    def test_duplicating_rejected(self):
        p = rand_pred([X, X], 8)
        v = lg.Variable("v", X)
        with pytest.raises(SortError):
            lg.interpret(lg.Atomic(p, (lg.Var(v), lg.Var(v))), (v,))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        sorts = [X, Y, A]
        names = ["u", "v", "w"]
        ctx = tuple(lg.Variable(n, s) for n, s in zip(names, sorts))
        for k in range(10):
            m = int(rng.integers(1, 3))
            args = tuple(rng.permutation(3)[:m])
            rel = rand_pred([sorts[i] for i in args], 500 + k)
            f = lg.Atomic(rel, tuple(lg.Var(ctx[i]) for i in args))
            sigma = list(rng.permutation(3))
            permuted_ctx = tuple(ctx[sigma[i]] for i in range(3))
            lhs = lg.interpret(f, permuted_ctx)
            base = lg.interpret(f, ctx)
            inv = [0] * 3
            for i, s in enumerate(sigma):
                inv[s] = i
            rhs = q.permute(base, inv, [v.sort for v in permuted_ctx])
            assert q.rel_equal(lhs, rhs)


class TestTerms:
    def test_variable_projection(self):
        v = lg.Variable("v", X)
        assert q.rel_equal(lg.interpret_term(lg.Var(v), (v,)), q.identity(X))
        y = lg.Variable("y", Y)
        assert q.rel_equal(
            lg.interpret_term(lg.Var(v), (v, y)),
            q.cross(q.identity(X), q.top_pred(Y)),
        )
        assert q.rel_equal(
            lg.interpret_term(lg.Var(v), (y, v)),
            q.cross(q.top_pred(Y), q.identity(X)),
        )

    def test_application(self):
        cs = gen.ClassicalStructure(
            sets={"A": ("a", "b"), "B": ("u", "v")},
            functions={"F": (("A",), "B", {("a",): "u", ("b",): "v"})},
        )
        ls = gen.lift(cs)
        x = lg.Variable("x", ls.sorts["A"])
        t = lg.App(ls.functions["F"], (lg.Var(x),))
        assert q.rel_equal(lg.interpret_term(t, (x,)), ls.functions["F"])

    def test_atomic_composition_rule(self):
        # interpreting R(t1, t2) composes R with the term interpretations
        cs = gen.ClassicalStructure(
            sets={"A": ("a", "b")},
            relations={"r": (("A", "A"), frozenset({("a", "b"), ("b", "b")}))},
            functions={"F": (("A",), "A", {("a",): "b", ("b",): "a"})},
        )
        ls = gen.lift(cs)
        x, y = lg.Variable("x", ls.sorts["A"]), lg.Variable("y", ls.sorts["A"])
        t1 = lg.App(ls.functions["F"], (lg.Var(x),))
        f = lg.Atomic(ls.relations["r"], (t1, lg.Var(y)))
        lhs = lg.interpret(f, (x, y))
        rhs = q.compose(
            ls.relations["r"],
            q.cross(ls.functions["F"], q.identity(ls.sorts["A"])),
        )
        assert q.rel_equal(lhs, rhs)

    def test_argument_sorts_match_the_domain_as_a_product(self):
        # Unit arguments drop out, an empty argument sort empties the
        # product, and the order of the sorts counts.
        v, w = lg.Variable("v", X), lg.Variable("w", A)
        u, e = lg.Variable("u", q.unit()), lg.Variable("e", q.empty())
        accepted = [
            (q.product(X, A), (v, w)),
            (q.product(X, A), (v, u, w)),
            (X, (u, v)),
            (q.unit(), (u, u)),
            (q.unit(), ()),
            (q.empty(), (v, e)),
            (q.product(X, q.empty()), (e,)),
        ]
        rejected = [
            (q.product(A, X), (v, w)),
            (X, (v, w)),
            (X, ()),
            (q.unit(), (v,)),
            (q.empty(), (v,)),
            (X, (e,)),
        ]
        for ok, cases in ((True, accepted), (False, rejected)):
            for dom, args in cases:
                terms = tuple(map(lg.Var, args))
                for node, rel in ((lg.Atomic, q.bottom(dom, q.unit())),
                                  (lg.App, q.bottom(dom, X))):
                    if ok:
                        node(rel, terms)
                    else:
                        with pytest.raises(SortError):
                            node(rel, terms)

    def test_term_equality_bridge(self):
        # sentences E(s, t*) under diagonal quantifiers decide term equality
        cs = gen.ClassicalStructure(
            sets={"A": ("a", "b", "c")},
            functions={
                "F": (("A",), "A", {("a",): "b", ("b",): "c", ("c",): "a"}),
                "G": (("A",), "A", {("a",): "b", ("b",): "a", ("c",): "c"}),
            },
        )
        ls = gen.lift(cs)
        sortA = ls.sorts["A"]
        x, xs = lg.Variable("x", sortA), lg.Variable("xs", sortA.dual())
        e = q.equality(sortA)
        for name, expected in (("F", False), ("G", False)):
            t_s = lg.App(ls.functions["F"], (lg.Var(x),))
            t_t = lg.App(q.conjugate(ls.functions[name]), (lg.Var(xs),))
            sent = lg.ForallDiag(x, xs, lg.Atomic(e, (t_s, t_t)))
            same = q.rel_equal(ls.functions["F"], ls.functions[name])
            assert lg.truth(sent) == same == (name == "F")


class TestQuantifiers:
    def test_truth_requires_sentence(self):
        p = rand_pred([X], 10)
        v = lg.Variable("v", X)
        with pytest.raises(HasFreeVariables):
            lg.truth(lg.Atomic(p, (lg.Var(v),)))

    def test_reflexivity_sentence(self):
        for carrier in (X, Y, A):
            v = lg.Variable("v", carrier)
            vs = lg.Variable("vs", carrier.dual())
            f = lg.ForallDiag(v, vs, lg.Atomic(q.equality(carrier), (lg.Var(v), lg.Var(vs))))
            assert lg.truth(f)

    def test_forall_residual_paths(self):
        rng = np.random.default_rng(11)
        for k in range(10):
            s = rand_pred([X, Y], 600 + k)
            res = lg.forall_residual(s, 1, [X, Y])
            a, b = lg.Variable("a", X), lg.Variable("b", Y)
            f = lg.Forall(a, lg.Atomic(s, (lg.Var(a), lg.Var(b))))
            assert q.rel_equal(res, lg.interpret(f, (b,)))

    def test_forall_residual_full_quantification(self):
        s = q.top_pred(q.product(X, Y))
        res = lg.forall_residual(s, 2, [X, Y])
        assert q.rel_equal(res, q.top(q.unit(), q.unit()))

    def test_residual_adjunction_example(self):
        r = rand_pred([Y], 12)
        s = q.cross(q.top_pred(X), r)
        assert q.rel_equal(lg.forall_residual(s, 1, [X, Y]), r)

    def test_implication_order_bridge(self):
        rng = np.random.default_rng(13)
        for k in range(15):
            p = rand_pred([X, A], 700 + k)
            r = rand_pred([X, A], 800 + k)
            u, w = lg.Variable("u", X), lg.Variable("w", A)
            fp = lg.Atomic(p, (lg.Var(u), lg.Var(w)))
            fr = lg.Atomic(r, (lg.Var(u), lg.Var(w)))
            sent = lg.Forall(w, lg.Forall(u, lg.Implies(fp, fr)))
            assert lg.truth(sent) == q.leq(p, r)

    def test_classical_quantification_is_disjunction(self):
        cs = gen.ClassicalStructure(
            sets={"A": ("a", "b", "c")},
            relations={"r": (("A", "A"), frozenset({("a", "b"), ("c", "c")}))},
        )
        ls = gen.lift(cs)
        sortA = ls.sorts["A"]
        x, y = lg.Variable("x", sortA), lg.Variable("y", sortA)
        f = lg.Exists(x, lg.Atomic(ls.relations["r"], (lg.Var(x), lg.Var(y))))
        via_exists = lg.interpret(f, (y,))
        joined = q.bottom(sortA, q.unit())
        for label in cs.sets["A"]:
            const = q.Relation(
                q.unit(),
                sortA,
                {(0, cs.sets["A"].index(label)): sp.span([np.ones((1, 1), complex)], (1, 1))},
            )
            subst = lg.Atomic(
                ls.relations["r"], (lg.App(const, ()), lg.Var(y))
            )
            joined = q.join(joined, lg.interpret(subst, (y,)))
        assert q.rel_equal(via_exists, joined)

    def test_diag_quantifier_laws(self):
        rng = np.random.default_rng(14)
        for k in range(10):
            # G.2: diagonal exists distributes over disjunction
            phi = rand_pred([X, q.dual(X), A], 900 + k)
            psi = rand_pred([X, q.dual(X), A], 1000 + k)
            v, vs, z = (
                lg.Variable("v", X),
                lg.Variable("vs", q.dual(X)),
                lg.Variable("z", A),
            )
            fphi = lg.Atomic(phi, (lg.Var(v), lg.Var(vs), lg.Var(z)))
            fpsi = lg.Atomic(psi, (lg.Var(v), lg.Var(vs), lg.Var(z)))
            lhs = lg.interpret(lg.ExistsDiag(v, vs, lg.Or(fphi, fpsi)), (z,))
            rhs = q.join(
                lg.interpret(lg.ExistsDiag(v, vs, fphi), (z,)),
                lg.interpret(lg.ExistsDiag(v, vs, fpsi), (z,)),
            )
            assert q.rel_equal(lhs, rhs)
            # G.1: diagonal exists commutes with a variable-disjoint conjunct
            chi = rand_pred([A], 1100 + k)
            fchi = lg.Atomic(chi, (lg.Var(z),))
            lhs = lg.interpret(lg.ExistsDiag(v, vs, lg.And(fphi, fchi)), (z,))
            rhs = q.meet(lg.interpret(lg.ExistsDiag(v, vs, fphi), (z,)),
                         lg.interpret(fchi, (z,)))
            assert q.rel_equal(lhs, rhs)
            # G.4: combination with a variable-free disjunct
            lhs = lg.interpret(lg.ExistsDiag(v, vs, lg.Or(fphi, fchi)), (z,))
            rhs = q.join(lg.interpret(lg.ExistsDiag(v, vs, fphi), (z,)),
                         lg.interpret(fchi, (z,)))
            assert q.rel_equal(lhs, rhs)

    def test_vacuous_diag_quantification(self):
        z = lg.Variable("z", A)
        psi = rand_pred([A], 15)
        fpsi = lg.Atomic(psi, (lg.Var(z),))
        v, vs = lg.Variable("v", X), lg.Variable("vs", q.dual(X))
        vac = lg.interpret(lg.ExistsDiag(v, vs, fpsi), (z,))
        assert q.rel_equal(vac, lg.interpret(fpsi, (z,)))

    @pytest.mark.parametrize("diag", [False, True])
    @pytest.mark.parametrize("bound", [
        q.atoms([3], ["s"]),
        q.atoms([2, 1], ["t0", "t1"]),
        q.classical(["c0", "c1", "c2"]),
        q.dual(q.atoms([2, 1], ["t0", "t1"])),
        q.empty(),
    ], ids=["[3]", "[2,1]", "classical", "dual", "empty"])
    def test_exists_is_composition_with_the_cup(self, bound, diag):
        # The interpreter contracts each block with the cup's vectors; the
        # composition with the cup is the oracle.  A context atom of
        # dimension 3 leaves the span of a low-rank block's rows short of it.
        v, vs = lg.Variable("v", bound), lg.Variable("vs", bound.dual())
        bound_vars = (v, vs) if diag else (v,)
        w = q.atoms([1, 3], ["w0", "w1"])
        for n_ctx in range(3):
            ctx = (lg.Variable("y", w), lg.Variable("z", A))[:n_ctx]
            ctx_sorts = [c.sort for c in ctx]
            for k in range(6):
                inner = rand_pred([b.sort for b in bound_vars] + ctx_sorts,
                                  3100 + 10 * n_ctx + k)
                body = lg.Atomic(inner, tuple(map(lg.Var, bound_vars + ctx)))
                f = lg.ExistsDiag(v, vs, body) if diag else lg.Exists(v, body)
                got = lg.interpret(f, ctx)
                assert q.rel_equal(got, exists_by_composition(inner, bound, ctx_sorts, diag))

    def test_empty_sort_exclusion(self):
        # quantifying over the empty quantum set collapses to bottom,
        # so the vacuous-quantification law genuinely needs nonemptiness
        nothing = q.empty()
        z = lg.Variable("z", A)
        psi = q.top_pred(A)
        fpsi = lg.Atomic(psi, (lg.Var(z),))
        v, vs = lg.Variable("v", nothing), lg.Variable("vs", q.dual(nothing))
        vac = lg.interpret(lg.ExistsDiag(v, vs, fpsi), (z,))
        assert q.rel_equal(vac, q.bottom(A, q.unit()))
        assert not q.rel_equal(vac, lg.interpret(fpsi, (z,)))
