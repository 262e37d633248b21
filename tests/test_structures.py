import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest

from qrel import generators as gen
from qrel import qset as q
from qrel import structures as st
from qrel import subspace as sp
from qrel.errors import (
    FamilyInvariantViolation,
    LabelMismatch,
    ModeRequiresSingleAtom,
    NotAFunction,
    NotProjections,
)

X = q.atoms([2], ["x"])
SX = np.array([[0, 1], [1, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E11 = np.array([[1, 0], [0, 0]], dtype=complex)


def single_block(mats, x=X):
    d = x.atoms[0].dim
    return q.Relation(x, x, {(0, 0): sp.span(mats, (d, d))})


def paths_agree(report):
    return all(
        len(set(c.paths.values())) <= 1 for c in report.conditions if c.paths
    )


class TestGraph:
    def test_operator_system_passes(self):
        rep = st.check_graph(single_block([np.eye(2), SX]))
        assert rep.passed and paths_agree(rep)

    def test_matrix_unit_fails_reflexivity(self):
        rep = st.check_graph(single_block([E12]))
        assert not rep.condition("reflexivity").passed
        assert paths_agree(rep)

    def test_lifted_classical_graph(self):
        labels, edges = gen.cycle_graph(3, reflexive=True)
        a = q.classical(labels)
        lifted = q.classical_relation([a], [a], [((u,), (v,)) for u, v in edges])
        rep = st.check_graph(lifted)
        assert rep.passed and paths_agree(rep)


class TestPreorder:
    def test_upper_triangular_algebra(self):
        rep = st.check_preorder(single_block([np.eye(2), E12]))
        assert rep.passed and paths_agree(rep)

    def test_flip_span_closed_under_product(self):
        rep = st.check_preorder(single_block([np.eye(2), SX]))
        assert rep.passed

    def test_matrix_unit_fails(self):
        rep = st.check_preorder(single_block([E12]))
        assert not rep.condition("reflexivity").passed

    @pytest.mark.parametrize("kind", ["identity", "random"])
    def test_no_svd_of_a_non_square_input_computes_a_full_factor(self, kind, monkeypatch):
        # Complements come from QR and kernels from thin SVDs, so a full U or
        # V of a non-square input would only be thrown away.
        rng = np.random.default_rng(31)
        mats = [np.eye(3)] if kind == "identity" else [
            rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)
        ]
        x = q.atoms([3])
        r = q.Relation(x, x, {(0, 0): sp.span(mats, (3, 3))})
        svd, shapes, full_non_square = np.linalg.svd, [], []

        def counted(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            shape = np.shape(a)[-2:]
            shapes.append(shape)
            if full_matrices and compute_uv and shape[0] != shape[1]:
                full_non_square.append(shape)
            return svd(a, full_matrices, compute_uv, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        rep = st.check_preorder(r)
        passed = kind == "identity"
        assert [(c.id, c.passed) for c in rep.conditions] == [
            ("reflexivity", passed), ("transitivity", passed)
        ]
        assert shapes and not full_non_square


class TestPoset:
    def test_nilpotent_upper_triangular(self):
        rep = st.check_poset(single_block([np.eye(2), E12]), "nilpotent")
        assert rep.passed
        assert rep.condition("strict-part-traceless").passed
        assert rep.condition("strict-part-transitive").passed

    def test_weaver_upper_triangular(self):
        rep = st.check_poset(single_block([np.eye(2), E12]), "weaver")
        assert rep.passed and paths_agree(rep)

    def test_weaver_self_adjoint_projection_fails(self):
        rep = st.check_poset(single_block([np.eye(2), E11]), "weaver")
        assert not rep.condition("antisymmetry").passed
        assert paths_agree(rep)

    def test_nilpotent_single_atom_only(self):
        two = q.atoms([1, 1], ["p", "r"])
        with pytest.raises(ModeRequiresSingleAtom):
            st.check_poset(q.identity(two), "nilpotent")

    def test_nilpotent_decomposition_bijection(self):
        # the strictly-upper-triangular algebra splits as identity + strict part
        h = q.atoms([3], ["h"])
        strict = [np.zeros((3, 3), complex) for _ in range(3)]
        strict[0][0, 1] = 1
        strict[1][0, 2] = 1
        strict[2][1, 2] = 1
        r = single_block([np.eye(3)] + strict, h)
        rep = st.check_poset(r, "nilpotent")
        assert rep.passed
        ident = q.identity(r.domain)
        s = q.meet(r, q.neg(ident))
        assert q.rel_equal(q.join(s, ident), r)
        assert q.perp(s, ident)
        assert q.leq(q.compose(s, s), s)


class TestFunction:
    def test_identity_everything(self):
        for mode in ("function", "injective", "surjective"):
            rep = st.check_function(q.identity(X), mode)
            assert rep.passed and paths_agree(rep)

    def test_classical_constant_map(self):
        cs = gen.ClassicalStructure(
            sets={"A": ("a", "b"), "C": ("c",)},
            functions={"k": (("A",), "C", {("a",): "c", ("b",): "c"})},
        )
        k = gen.lift(cs).functions["k"]
        assert st.check_function(k).passed
        assert not st.check_function(k, "injective").condition("injective").passed
        assert st.check_function(k, "surjective").condition("surjective").passed

    def test_surjectivity_counterexample(self):
        d = single_block([np.diag([1.0, 2.0]).astype(complex)])
        rep = st.check_function(d, "surjective")
        assert rep.condition("image-spanning").passed
        assert not rep.condition("surjective").paths["direct"]
        assert rep.condition("surjective").paths["formula"]
        assert not rep.passed  # not a surjective function

    def test_unitary_line_is_bijection(self):
        u = single_block([SX])
        for mode in ("function", "injective", "surjective"):
            assert st.check_function(u, mode).passed


class TestMetric:
    def test_quantum_hamming_2(self):
        fam = gen.quantum_hamming(2)
        assert st.check_metric(fam, "metric").passed
        assert st.check_metric(fam, "pseudometric").passed

    def test_zero_block_not_identity(self):
        base = X
        r0 = single_block([np.eye(2), E11])
        r1 = q.Relation(base, base, {(0, 0): sp.complement(r0.block(0, 0))})
        fam = st.MetricFamily(base, (0.0, 1.0), {0.0: r0, 1.0: r1})
        rep = st.check_metric(fam, "metric")
        assert not rep.condition("zero-identity").passed
        pseudo = st.check_metric(fam, "pseudometric")
        assert pseudo.condition("zero-reflexive").passed

    def test_classical_path_metric(self):
        # shortest-path distances on a 3-cycle, lifted
        labels = ("v0", "v1", "v2")
        base = q.classical(labels)
        one = sp.span([np.ones((1, 1), complex)], (1, 1))
        at0 = q.identity(base)
        at1 = q.Relation(base, base, {
            (i, j): one for i in range(3) for j in range(3) if i != j
        })
        fam = st.MetricFamily(base, (0.0, 1.0), {0.0: at0, 1.0: at1})
        assert st.check_metric(fam, "metric").passed

    def test_family_invariants(self):
        with pytest.raises(FamilyInvariantViolation):
            st.MetricFamily(X, (1.0, 0.0), {})
        with pytest.raises(FamilyInvariantViolation):
            st.MetricFamily(X, (0.0,), {})

    def test_infinite_distance(self):
        base = q.atoms([1, 1], ["p", "r"])
        one = sp.span([np.ones((1, 1), complex)], (1, 1))
        at0 = q.identity(base)
        atinf = q.Relation(base, base, {(0, 1): one, (1, 0): one})
        fam = st.MetricFamily(base, (0.0, math.inf), {0.0: at0, math.inf: atinf})
        assert st.check_metric(fam, "metric").passed


def rotated_family(theta=np.pi / 4):
    c, s = np.cos(theta), np.sin(theta)
    p = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
    e = np.eye(2, dtype=complex)
    return st.ProjectionFamily(
        2,
        ("a", "b"),
        ("x", "y"),
        {("a", "x"): p, ("a", "y"): e - p, ("b", "x"): e - p, ("b", "y"): p},
    )


class TestMagicUnitary:
    def test_rotated_family(self):
        assert st.check_magic_unitary(rotated_family()).passed

    def test_classical_permutation(self):
        labels = ("a", "b")
        fam = st.ProjectionFamily(
            1, labels, labels,
            {(x, y): (np.ones((1, 1), complex) if x != y else np.zeros((1, 1), complex))
             for x in labels for y in labels},
        )
        assert st.check_magic_unitary(fam).passed

    def test_broken_row_margin(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        fam = st.ProjectionFamily(
            2, ("a", "b"), ("x", "y"),
            {("a", "x"): p, ("a", "y"): np.zeros((2, 2), complex),
             ("b", "x"): np.eye(2) - p, ("b", "y"): p},
        )
        rep = st.check_magic_unitary(fam)
        cond = rep.condition("row-sums")
        assert not cond.passed and abs(cond.margin - 1.0) < 1e-9

    def test_non_projection_rejected(self):
        fam = st.ProjectionFamily(
            2, ("a",), ("x",), {("a", "x"): np.array([[1, 1], [0, 1]], complex)}
        )
        with pytest.raises(NotProjections):
            st.check_magic_unitary(fam)

    def test_random_generator_valid(self):
        for seed in range(3):
            fam = gen.random_magic_unitary(seed, 3)
            assert st.check_magic_unitary(fam).passed


def perm_family(labels_a, labels_b, mapping):
    return st.ProjectionFamily(
        1, tuple(labels_a), tuple(labels_b),
        {(a, b): (np.ones((1, 1), complex) if mapping[a] == b else np.zeros((1, 1), complex))
         for a in labels_a for b in labels_b},
    )


class TestWitnesses:
    def test_identity_hom_k2(self):
        k2 = gen.complete_graph(2)
        fam = perm_family(k2[0], k2[0], {l: l for l in k2[0]})
        assert st.check_hom_witness(fam, k2, k2).passed

    def test_collapse_fails_adjacency(self):
        k2 = gen.complete_graph(2)
        fam = perm_family(k2[0], k2[0], {l: "v0" for l in k2[0]})
        rep = st.check_hom_witness(fam, k2, k2)
        assert not rep.condition("adjacency-orthogonality").passed
        assert not rep.condition("adjacency-formula").passed

    def test_rotated_family_edgeless(self):
        edgeless = (("a", "b"), frozenset())
        fam = rotated_family()
        fam = st.ProjectionFamily(
            2, ("a", "b"), ("a", "b"),
            {(r, "a" if c == "x" else "b"): m
             for (r, c), m in fam.projections.items()},
        )
        assert st.check_hom_witness(fam, edgeless, edgeless).passed

    def test_c4_rotation_iso(self):
        c4 = gen.cycle_graph(4)
        rot = {f"v{k}": f"v{(k + 1) % 4}" for k in range(4)}
        fam = perm_family(c4[0], c4[0], rot)
        rep = st.check_iso_witness(fam, c4, c4)
        assert rep.passed

    def test_c4_k4_mismatch(self):
        c4, k4 = gen.cycle_graph(4), gen.complete_graph(4)
        fam = perm_family(c4[0], k4[0], {l: l for l in c4[0]})
        rep = st.check_iso_witness(fam, c4, k4)
        assert not rep.passed
        # the identity embeds C4 edges into K4, so only the reverse
        # direction (K4 edges onto C4 non-edges) can break
        assert rep.condition("adjacency-forward").passed
        assert not rep.condition("adjacency-reverse").passed
        assert not rep.condition("adjacency-formula").passed

    def test_label_mismatch(self):
        c4 = gen.cycle_graph(4)
        fam = perm_family(("w0",), ("w0",), {"w0": "w0"})
        with pytest.raises(LabelMismatch):
            st.check_hom_witness(fam, c4, c4)


def lifted_group(table, labels, unit_label):
    cs = gen.ClassicalStructure(
        sets={"G": labels},
        functions={
            "mul": (("G", "G"), "G", table),
            "one": ((), "G", {(): unit_label}),
        },
    )
    ls = gen.lift(cs)
    return ls.functions["mul"], ls.functions["one"]


def cyclic_table(n):
    labels = tuple(f"g{k}" for k in range(n))
    table = {
        (labels[i], labels[j]): labels[(i + j) % n]
        for i in range(n)
        for j in range(n)
    }
    return table, labels


class TestQuantumGroup:
    def test_lifted_cyclic_groups(self):
        for n in (2, 3):
            table, labels = cyclic_table(n)
            f, c = lifted_group(table, labels, "g0")
            rep = st.check_quantum_group(f, c)
            assert rep.passed and paths_agree(rep)

    def test_lifted_s3(self):
        data = gen.symmetric_group_s3_irreps()
        labels = data.elements
        table = {
            (labels[g], labels[h]): labels[data.mult[g][h]]
            for g in range(6)
            for h in range(6)
        }
        f, c = lifted_group(table, labels, labels[0])
        assert st.check_quantum_group(f, c).passed

    def test_dual_s3(self):
        x, f, c = gen.dual_group(gen.symmetric_group_s3_irreps())
        assert st.check_function(f).passed and st.check_function(c).passed
        rep = st.check_quantum_group(f, c)
        assert rep.passed and paths_agree(rep)

    def test_max_monoid_fails_inverses_only(self):
        table = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"}
        f, c = lifted_group(table, ("0", "1"), "0")
        rep = st.check_quantum_group(f, c)
        outcome = {cond.id: cond.passed for cond in rep.conditions}
        assert outcome == {
            "associativity": True,
            "right-unit": True,
            "left-unit": True,
            "right-inverse": False,
            "left-inverse": False,
        }

    def test_requires_functions(self):
        bad = single_block([E12])
        c = q.Relation(q.unit(), X, {})
        with pytest.raises(NotAFunction):
            st.check_quantum_group(q.cross(bad, bad) if False else bad_pair(), c)


    def test_non_univalent_multiplication_rejected(self):
        # total but not univalent: ("0", "0") goes to both elements
        table, labels = cyclic_table(2)
        a = q.classical(labels)
        pairs = [((x, y), (z,)) for (x, y), z in table.items()]
        f = q.classical_relation([a, a], [a], pairs + [(("g0", "g0"), ("g1",))])
        _, c = lifted_group(table, labels, "g0")
        assert st.check_function(f).condition("total").passed
        with pytest.raises(NotAFunction):
            st.check_quantum_group(f, c)

    def test_gate_runs_no_function_check(self, monkeypatch):
        from qrel import cli

        calls = []
        original = st.check_function
        monkeypatch.setattr(
            st, "check_function", lambda *a, **k: calls.append(a) or original(*a, **k)
        )
        corpus = Path(__file__).resolve().parent.parent / "corpus"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", str(corpus / "group_z3.qrel")]) == 0
        assert len(calls) == 1  # the file's own `verify function` directive


def bad_pair():
    # a non-function multiplication X x X -> X
    dom = q.product(X, X)
    return q.Relation(dom, X, {})


class TestCorrespondences:
    def test_operator_system_iff_graph(self):
        # single atom: graph conditions hold exactly for operator systems
        rng = np.random.default_rng(21)
        h = q.atoms([3], ["h"])
        hits = {True: 0, False: 0}
        for k in range(40):
            rank = int(rng.integers(1, 9))
            mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                    for _ in range(rank)]
            if rng.random() < 0.5:
                # close up to an operator system
                mats = mats + [m.conj().T for m in mats] + [np.eye(3)]
            blk = sp.span(mats, (3, 3))
            r = q.Relation(h, h, {(0, 0): blk})
            is_op_system = (
                blk.contains(np.eye(3))
                and sp.compare(sp.star_image(blk, "dagger"), blk).equal
            )
            assert st.check_graph(r).passed == is_op_system
            hits[is_op_system] += 1
        assert hits[True] > 0 and hits[False] > 0

    def test_subalgebra_iff_conditions(self):
        rng = np.random.default_rng(22)
        h = q.atoms([3], ["h"])

        def unit_mat(i):
            m = np.zeros((3, 3), complex)
            m[divmod(i, 3)] = 1
            return m

        diag = [unit_mat(0), unit_mat(4), unit_mat(8)]
        corner = diag + [unit_mat(1), unit_mat(3)]
        candidates = [
            [np.eye(3)],
            diag,
            corner,
            [unit_mat(i) for i in range(9)],
        ]
        hits = {True: 0, False: 0}
        for k in range(12):
            if k < len(candidates):
                mats = candidates[k]
            else:
                rank = int(rng.integers(1, 6))
                mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                        for _ in range(rank)]
            blk = sp.span(mats, (3, 3))
            r = q.Relation(h, h, {(0, 0): blk})
            v = q.weaver_to_global(r)
            is_algebra = (
                v.contains(np.eye(3))
                and sp.compare(sp.star_image(v, "dagger"), v).equal
                and sp.compare(sp.mul_span(v, v), v).leq
            )
            cond = (
                st.check_graph(r).passed
                and st.check_preorder(r).condition("transitivity").passed
            )
            assert cond == is_algebra
            hits[is_algebra] += 1
        assert hits[True] > 0 and hits[False] > 0


class TestPathAgreement:
    """On random instances, the sentence route and the inequality route of
    every paired condition must reach the same verdict."""

    def test_endo_checkers_agree(self):
        carriers = [q.atoms([2], ["x"]), q.atoms([1, 2], ["u", "v"])]
        for k in range(20):
            carrier = carriers[k % 2]
            r = gen.random_endo_relation(carrier, seed=5000 + k)
            for rep in (
                st.check_graph(r),
                st.check_preorder(r),
                st.check_poset(r, "weaver"),
            ):
                assert paths_agree(rep), (rep.kind, k)

    def test_function_checkers_agree(self):
        x = q.atoms([2], ["x"])
        y = q.atoms([1, 2], ["u", "v"])
        rng = np.random.default_rng(77)
        for k in range(15):
            blocks = {}
            for i, a in enumerate(x.atoms):
                for j, b in enumerate(y.atoms):
                    n = int(rng.integers(0, a.dim * b.dim + 1))
                    blocks[(i, j)] = sp.span(
                        [rng.normal(size=(b.dim, a.dim))
                         + 1j * rng.normal(size=(b.dim, a.dim))
                         for _ in range(n)],
                        (b.dim, a.dim),
                    )
            f = q.Relation(x, y, blocks)
            is_function = st.check_function(f).passed
            for mode in ("function", "injective", "surjective"):
                rep = st.check_function(f, mode)
                for cond in rep.conditions:
                    if {"direct", "formula"} <= set(cond.paths):
                        if cond.id == "surjective":
                            # the sentence route to surjectivity coincides
                            # with image spanning on all relations, and with
                            # the composition inequality only on functions
                            spanning = rep.condition("image-spanning").passed
                            assert cond.paths["formula"] == spanning, k
                            if is_function:
                                assert (
                                    cond.paths["direct"] == cond.paths["formula"]
                                ), k
                        else:
                            assert cond.paths["direct"] == cond.paths["formula"], (
                                mode, cond.id, k,
                            )
