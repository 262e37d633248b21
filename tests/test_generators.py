import numpy as np
import pytest

from qrel import generators as gen
from qrel import logic as lg
from qrel import qset as q
from qrel import structures as st
from qrel import subspace as sp
from qrel.errors import BadParams, InvariantViolation, NonClassicalSort, TooLarge


def small_structure():
    return gen.ClassicalStructure(
        sets={"A": ("a", "b"), "B": ("x", "y", "z")},
        relations={
            "r": (("A", "B"), frozenset({("a", "x"), ("b", "y")})),
            "s": (("A",), frozenset({("a",)})),
        },
        functions={"f": (("A",), "B", {("a",): "x", ("b",): "z"})},
    )


class TestLift:
    def test_relation_blocks(self):
        ls = gen.lift(small_structure())
        assert ls.relations["r"].block_ranks() == {(0, 0): 1, (4, 0): 1}

    def test_identity_function_lifts_to_identity(self):
        cs = gen.ClassicalStructure(
            sets={"A": ("a", "b")},
            functions={"id": (("A",), "A", {("a",): "a", ("b",): "b"})},
        )
        ls = gen.lift(cs)
        assert q.rel_equal(ls.functions["id"], q.identity(ls.sorts["A"]))

    def test_empty_relation_is_bottom(self):
        cs = gen.ClassicalStructure(
            sets={"A": ("a",)}, relations={"r": (("A",), frozenset())}
        )
        ls = gen.lift(cs)
        assert len(ls.relations["r"].blocks) == 0

    def test_functions_pass_function_check(self):
        ls = gen.lift(small_structure())
        assert st.check_function(ls.functions["f"]).passed

    def test_partial_function_rejected(self):
        with pytest.raises(InvariantViolation):
            gen.ClassicalStructure(
                sets={"A": ("a", "b")},
                functions={"f": (("A",), "A", {("a",): "a"})},
            )


class TestFolEval:
    def test_forall_exists(self):
        cs = gen.ClassicalStructure(
            sets={"A": ("a", "b")},
            relations={"r": (("A", "A"), frozenset({("a", "a"), ("b", "a")}))},
        )
        ls = gen.lift(cs)
        x, y = lg.Variable("x", ls.sorts["A"]), lg.Variable("y", ls.sorts["A"])
        f = lg.Forall(x, lg.Exists(y, lg.Atomic(ls.relations["r"], (lg.Var(x), lg.Var(y)))))
        assert gen.fol_eval(ls, f) is True
        g = lg.Exists(x, lg.Exists(y, lg.And(
            lg.Atomic(ls.relations["r"], (lg.Var(x), lg.Var(y))),
            lg.Atomic(ls.relations["r"], (lg.Var(y), lg.Var(x))),
        )))
        assert gen.fol_eval(ls, g) is True

    def test_non_classical_rejected(self):
        ls = gen.lift(small_structure())
        quantum = q.atoms([2], ["h"])
        v = lg.Variable("v", quantum)
        rel = q.top_pred(quantum).with_origin(None)
        with pytest.raises(NonClassicalSort):
            gen.fol_eval(ls, lg.Forall(v, lg.Atomic(rel, (lg.Var(v),))))

    def test_matches_interpreter_on_seeded_formulas(self):
        ls = gen.lift(small_structure())
        for seed in range(60):
            f = gen.random_formula(ls, depth=3, seed=seed)
            assert lg.nondup_check(f) is None
            assert gen.fol_eval(ls, f) == lg.truth(f)


class TestHamming:
    def test_rank_counts(self):
        fam1 = gen.quantum_hamming(1)
        assert fam1.relations[0.0].block(0, 0).rank == 1
        assert fam1.relations[1.0].block(0, 0).rank == 3
        fam2 = gen.quantum_hamming(2)
        ranks = {k: r.block(0, 0).rank for k, r in fam2.relations.items()}
        assert ranks == {0.0: 1, 1.0: 6, 2.0: 9}

    def test_pauli_counting_oracle(self):
        from math import comb

        for n in (1, 2, 3):
            fam = gen.quantum_hamming(n)
            for k in range(n + 1):
                assert fam.relations[float(k)].block(0, 0).rank == comb(n, k) * 3**k

    def test_self_adjoint_and_triangle(self):
        fam = gen.quantum_hamming(2)
        vals = list(fam.values)
        for v in vals:
            r = fam.relations[v]
            assert q.rel_equal(r, q.dagger(r))
        for a1 in vals:
            for a2 in vals:
                allowed = q.bottom(fam.base, fam.base)
                for v in vals:
                    if v <= a1 + a2:
                        allowed = q.join(allowed, fam.relations[v])
                assert q.leq(q.compose(fam.relations[a2], fam.relations[a1]), allowed)

    def test_size_limit(self):
        with pytest.raises(TooLarge):
            gen.quantum_hamming(5)


class TestDualGroup:
    def test_z2_is_classical_dual(self):
        x, f, c = gen.dual_group(gen.cyclic_group(2))
        assert x.dims == (1, 1)
        table, labels = {}, x.labels()
        # extract the induced classical multiplication and compare to Z2
        for i in range(2):
            for j in range(2):
                flat = i * 2 + j
                hits = [k for k in range(2) if (flat, k) in f.blocks]
                assert len(hits) == 1
                table[(i, j)] = hits[0]
        assert table == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}

    def test_abelian_dual_matches_character_group(self):
        for n in (2, 3, 4):
            x, f, c = gen.dual_group(gen.cyclic_group(n))
            table = {}
            for i in range(n):
                for j in range(n):
                    flat = i * n + j
                    hits = [k for k in range(n) if (flat, k) in f.blocks]
                    assert len(hits) == 1
                    table[(i, j)] = hits[0]
            assert all(table[(i, j)] == (i + j) % n for i in range(n) for j in range(n))

    def test_s3_intertwiner_dimensions(self):
        data = gen.symmetric_group_s3_irreps()
        x, f, c = gen.dual_group(data)
        assert x.dims == (1, 1, 2)
        # character oracle: dim Hom(std (x) std -> k) = <chi_std^2, chi_k>
        chars = []
        for mats in data.irreps:
            chars.append(np.array([np.trace(m) for m in mats]))
        sq = chars[2] * chars[2]
        for k in range(3):
            expected = int(round(np.real(np.mean(sq * np.conj(chars[k])))))
            blk = f.block(2 * 3 + 2, k)
            assert blk.rank == expected

    def test_s3_passes_group_conditions(self):
        x, f, c = gen.dual_group(gen.symmetric_group_s3_irreps())
        assert st.check_quantum_group(f, c).passed

    def test_irrep_validation(self):
        data = gen.cyclic_group(3)
        broken = gen.IrrepData(
            data.elements, data.mult, data.irreps[:2]
        )
        with pytest.raises(InvariantViolation):
            broken.validate()


class TestRandom:
    def test_determinism(self):
        a = gen.random_projection(3, 1, seed=7)
        b = gen.random_projection(3, 1, seed=7)
        assert np.allclose(a, b)
        s1 = gen.random_subspace((2, 2), 2, seed=9)
        s2 = gen.random_subspace((2, 2), 2, seed=9)
        assert sp.compare(s1, s2).equal

    def test_projection_properties(self):
        p = gen.random_projection(4, 2, seed=1)
        assert np.allclose(p, p.conj().T) and np.allclose(p @ p, p)
        assert abs(np.trace(p).real - 2) < 1e-9

    def test_magic_unitary_by_construction(self):
        for seed in range(4):
            fam = gen.random_magic_unitary(seed, 2)
            assert st.check_magic_unitary(fam).passed

    def test_formula_generator_nonduplicating(self):
        ls = gen.lift(small_structure())
        for seed in range(20):
            f = gen.random_formula(ls, depth=4, seed=seed)
            assert lg.nondup_check(f) is None
            assert not lg.free_variables(f)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            gen.random_projection(2, 5, seed=0)
