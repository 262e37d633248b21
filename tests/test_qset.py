import numpy as np
import pytest

from qrel import qset as q
from qrel import subspace as sp
from qrel.errors import (
    DuplicateLabel,
    NotAQuantumRelation,
    SortMismatch,
    ZeroDimension,
)


def rand_rel(a, b, seed, density=1.0):
    rng = np.random.default_rng(seed)
    blocks = {}
    for i, at in enumerate(a.atoms):
        for j, bt in enumerate(b.atoms):
            if rng.random() > density:
                continue
            k = int(rng.integers(0, at.dim * bt.dim + 1))
            blocks[(i, j)] = sp.span(
                [rng.normal(size=(bt.dim, at.dim)) + 1j * rng.normal(size=(bt.dim, at.dim))
                 for _ in range(k)],
                (bt.dim, at.dim),
            )
    return q.Relation(a, b, blocks)


X = q.atoms([2], ["x"])
Y = q.atoms([1, 2], ["y0", "y1"])
AB = q.classical(["a", "b"])


class TestBuild:
    def test_classical(self):
        assert AB.dims == (1, 1) and AB.is_classical

    def test_dual_atom(self):
        d = q.dual(q.atoms([2]))
        assert d.atoms[0].dim == 2 and d.atoms[0].dual_depth == 1

    def test_double_dual_identity(self):
        assert q.dual(q.dual(Y)) == Y
        assert q.dual(q.dual(Y)).atoms == Y.atoms

    def test_product_dims(self):
        p = q.product(q.atoms([2], ["u"]), q.atoms([3], ["v"]))
        assert len(p.atoms) == 1 and p.atoms[0].dim == 6

    def test_product_associates(self):
        a, b, c = q.atoms([2], ["a"]), q.atoms([3], ["b"]), q.atoms([2], ["c"])
        assert q.product(q.product(a, b), c) == q.product(a, q.product(b, c))

    def test_unit_absorption(self):
        assert q.product(X, q.unit()) == X
        assert q.product(q.unit(), X) == X

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabel):
            q.classical(["a", "a"])

    def test_zero_dimension_rejected(self):
        with pytest.raises(ZeroDimension):
            q.atoms([0])

    def test_empty_set_legal(self):
        e = q.empty()
        assert e.is_empty
        assert len(q.top(e, e).blocks) == 0


class TestConstants:
    def test_identity_block(self):
        ident = q.identity(X)
        assert ident.block(0, 0).contains(np.eye(2))

    def test_identity_needs_same_sorts(self):
        assert q.identity(AB).blocks.keys() == {(0, 0), (1, 1)}

    def test_top_classical_unit(self):
        t = q.top(AB, q.unit())
        assert t.block_ranks() == {(0, 0): 1, (1, 0): 1}

    def test_bottom_least(self):
        r = rand_rel(X, Y, 0)
        assert q.leq(q.bottom(X, Y), r)


class TestEquality:
    def test_dim2_block(self):
        e = q.equality(X)
        vec = e.block(0, 0).basis[0].reshape(4)
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        phase = vec[0] / expected[0]
        assert np.allclose(vec, phase * expected)

    def test_classical_diagonal(self):
        e = q.equality(AB)
        assert set(e.blocks) == {(0, 0), (3, 0)}

    def test_mixed_dims_cross_blocks_zero(self):
        e = q.equality(Y)
        assert set(e.blocks) == {(0, 0), (3, 0)}


class TestCompose:
    def test_identity_neutral(self):
        r = rand_rel(X, Y, 1)
        assert q.rel_equal(q.compose(q.identity(Y), r), r)
        assert q.rel_equal(q.compose(r, q.identity(X)), r)

    def test_bottom_absorbs(self):
        r = rand_rel(X, Y, 2)
        assert q.rel_equal(q.compose(q.bottom(Y, X), r), q.bottom(X, X))

    def test_top_composition(self):
        lhs = q.compose(q.top(Y, q.unit()), q.top(X, Y))
        assert q.rel_equal(lhs, q.top(X, q.unit()))

    def test_sort_mismatch(self):
        with pytest.raises(SortMismatch):
            q.compose(rand_rel(X, Y, 3), rand_rel(X, Y, 3))


class TestStar:
    def test_dagger_identity(self):
        assert q.rel_equal(q.dagger(q.identity(Y)), q.identity(Y))

    def test_dagger_involution(self):
        r = rand_rel(X, Y, 4)
        assert q.rel_equal(q.dagger(q.dagger(r)), r)

    def test_dagger_antihomomorphism(self):
        r, s = rand_rel(X, Y, 5), rand_rel(Y, X, 6)
        assert q.rel_equal(
            q.dagger(q.compose(s, r)), q.compose(q.dagger(r), q.dagger(s))
        )

    def test_conjugate_equality_rehoused(self):
        ce = q.conjugate(q.equality(X))
        assert ce.domain == q.product(q.dual(X), X)
        vec = ce.block(0, 0).basis[0].reshape(4)
        assert abs(abs(vec[0]) - abs(vec[3])) < 1e-12 and abs(vec[1]) < 1e-12

    def test_transpose_types(self):
        r = rand_rel(X, Y, 7)
        t = q.transpose(r)
        assert t.domain == q.dual(Y) and t.codomain == q.dual(X)

    def test_star_dispatch(self):
        r = rand_rel(X, Y, 8)
        assert q.rel_equal(q.star(r, "dagger"), q.dagger(r))
        assert q.rel_equal(
            q.star(r, "conjugate"), q.compose(q.transpose(q.dagger(r)), q.identity(q.dual(X)))
        )


class TestCross:
    def test_top_times_top(self):
        assert q.rel_equal(
            q.cross(q.top_pred(X), q.top_pred(Y)), q.top_pred(q.product(X, Y))
        )

    def test_identity_times_identity(self):
        assert q.rel_equal(
            q.cross(q.identity(X), q.identity(Y)), q.identity(q.product(X, Y))
        )

    def test_bottom_absorbing(self):
        r = rand_rel(X, Y, 9)
        c = q.cross(r, q.bottom(X, Y))
        assert len(c.blocks) == 0

    def test_monoidal(self):
        r1, r2 = rand_rel(X, Y, 10), rand_rel(AB, X, 11)
        s1, s2 = rand_rel(Y, X, 12), rand_rel(X, AB, 13)
        lhs = q.compose(q.cross(s1, s2), q.cross(r1, r2))
        rhs = q.cross(q.compose(s1, r1), q.compose(s2, r2))
        assert q.rel_equal(lhs, rhs)


class TestPermute:
    def test_identity_permutation(self):
        r = rand_rel(q.product(X, Y), q.unit(), 14)
        assert q.rel_equal(q.permute(r, [0, 1], [X, Y]), r)

    def test_classical_swap(self):
        one = sp.span([np.ones((1, 1), complex)], (1, 1))
        # the lifted pair (a, b) on AB x AB
        r = q.Relation(q.product(AB, AB), q.unit(), {(1, 0): one})
        swapped = q.permute(r, [1, 0], [AB, AB])
        assert set(swapped.blocks) == {(2, 0)}

    def test_composition_of_permutations(self):
        sorts = [X, Y, AB]
        rng = np.random.default_rng(15)
        for k in range(5):
            p1 = list(rng.permutation(3))
            p2 = list(rng.permutation(3))
            comp = [p2[p1[i]] for i in range(3)]
            src = [sorts[comp[i]] for i in range(3)]
            r = rand_rel(q.product_all(src), q.unit(), 20 + k)
            step = q.permute(r, p1, [sorts[p2[i]] for i in range(3)])
            two_step = q.permute(step, p2, sorts)
            direct = q.permute(r, comp, sorts)
            assert q.rel_equal(two_step, direct)

    def test_paths_agree(self):
        sorts = [X, Y, AB]
        pi = [2, 0, 1]
        src = [sorts[pi[k]] for k in range(3)]
        r = rand_rel(q.product_all(src), q.unit(), 16)
        direct = q.permute(r, pi, sorts)
        via_braids = q.compose(r, q.permutation_relation(sorts, pi))
        via_blocks = q.compose(r, q.canonical_shuffle(sorts, pi))
        assert q.rel_equal(direct, via_braids)
        assert q.rel_equal(direct, via_blocks)

    def test_blocks_keep_orthonormal_rows(self):
        # a factor shuffle permutes coordinates, so no re-orthonormalization
        sorts = [X, Y, AB]
        pi = [1, 2, 0]
        r = rand_rel(q.product_all([sorts[p] for p in pi]), q.unit(), 17)
        for blk in q.permute(r, pi, sorts).blocks.values():
            b = blk.vectors()
            assert np.linalg.norm(b @ b.conj().T - np.eye(blk.rank)) <= 1e-12
            assert sp.compare(blk, sp.span(blk.basis, blk.shape)).equal


class TestBend:
    def test_bend_identity_is_equality(self):
        assert q.rel_equal(q.bend(q.identity(X)), q.equality(X))

    def test_roundtrips(self):
        for seed in range(5):
            f = rand_rel(X, Y, 30 + seed)
            assert q.rel_equal(q.unbend(q.bend(f)), f)
            g = q.bend(rand_rel(Y, X, 40 + seed))
            assert q.rel_equal(q.bend(q.unbend(g)), g)

    def test_bend_bottom(self):
        b = q.bend(q.bottom(X, Y))
        assert len(b.blocks) == 0


class TestSasaki:
    P = q.Relation(X, q.unit(), {(0, 0): sp.span([np.array([[1, 0]], complex)], (1, 2))})
    Q = q.Relation(
        X, q.unit(),
        {(0, 0): sp.span([np.array([[1, 1]], complex) / np.sqrt(2)], (1, 2))},
    )

    def test_arrow_self_is_top(self):
        assert q.rel_equal(q.sasaki(self.P, self.P, "arrow"), q.top_pred(X))

    def test_arrow_from_bottom(self):
        assert q.rel_equal(
            q.sasaki(q.bottom(X, q.unit()), self.Q, "arrow"), q.top_pred(X)
        )

    def test_arrow_oblique_lines(self):
        arrow = q.sasaki(self.P, self.Q, "arrow")
        blk = arrow.block(0, 0)
        assert blk.rank == 1 and blk.contains(np.array([[0, 1]], complex))

    def test_hardegree_conditions(self):
        rng = np.random.default_rng(17)
        for k in range(20):
            p = rand_rel(X, q.unit(), 100 + k)
            r = rand_rel(X, q.unit(), 200 + k)
            arrow = q.sasaki(p, r, "arrow")
            assert q.leq(q.meet(p, arrow), r)
            assert q.leq(q.meet(arrow, q.neg(r)), q.neg(p))
            assert q.rel_equal(arrow, q.top_pred(X)) == q.leq(p, r)

    def test_adjunction(self):
        for k in range(20):
            p = rand_rel(X, q.unit(), 300 + k)
            r = rand_rel(X, q.unit(), 400 + k)
            s = rand_rel(X, q.unit(), 500 + k)
            lhs = q.leq(q.sasaki(p, r, "and"), s)
            rhs = q.leq(p, q.sasaki(r, s, "arrow"))
            assert lhs == rhs


class TestTrace:
    def test_identity_has_trace(self):
        assert q.rel_equal(q.trace_pred(q.identity(X)), q.top(q.unit(), q.unit()))

    def test_nilpotent_traceless(self):
        r = q.Relation(X, X, {(0, 0): sp.span([np.array([[0, 1], [0, 0]], complex)], (2, 2))})
        assert q.rel_equal(q.trace_pred(r), q.bottom(q.unit(), q.unit()))

    def test_orthogonality_via_trace(self):
        for k in range(10):
            r = rand_rel(X, Y, 600 + k)
            s = rand_rel(X, Y, 700 + k)
            via_trace = q.rel_equal(
                q.trace_pred(q.compose(q.dagger(s), r)), q.bottom(q.unit(), q.unit())
            )
            assert via_trace == q.perp(r, s)


class TestDelta:
    def test_matches_equality(self):
        for carrier in (X, q.classical(["a", "b", "c"]), Y):
            d = q.delta_bruteforce(carrier, seed=3)
            assert q.rel_equal(d, q.equality(carrier))

    def test_no_transpose_variant(self):
        assert len(q.delta_bruteforce(X, seed=3, pair_with_dual=False).blocks) == 0
        d = q.delta_bruteforce(AB, seed=3, pair_with_dual=False)
        assert set(d.blocks) == {(0, 0), (3, 0)}


class TestWeaver:
    def test_strict_rejects_global_identity_line(self):
        two = q.atoms([1, 1], ["p", "r"])
        v = sp.span([np.eye(2)], (2, 2))
        with pytest.raises(NotAQuantumRelation):
            q.weaver_to_blocks(v, two, two)

    def test_lenient_extracts_classical_identity(self):
        two = q.atoms([1, 1], ["p", "r"])
        v = sp.span([np.eye(2)], (2, 2))
        r = q.weaver_to_blocks(v, two, two, check=False)
        assert q.rel_equal(r, q.identity(two))

    def test_roundtrip_and_functoriality(self):
        a = q.atoms([1, 2], ["a1", "a2"])
        b = q.atoms([2, 1], ["b1", "b2"])
        c = q.atoms([2, 2], ["c1", "c2"])
        for k in range(10):
            rv = rand_rel(a, b, 800 + k)
            rw = rand_rel(b, c, 900 + k)
            gv, gw = q.weaver_to_global(rv), q.weaver_to_global(rw)
            assert q.rel_equal(q.weaver_to_blocks(gv, a, b), rv)
            assert sp.compare(
                q.weaver_to_global(q.weaver_to_blocks(gv, a, b)), gv
            ).equal
            lhs = q.weaver_to_blocks(sp.mul_span(gw, gv), a, c)
            assert q.rel_equal(lhs, q.compose(rw, rv))


def test_snake_equations_random():
    for seed in range(8):
        f = rand_rel(X, Y, 1000 + seed)
        assert q.rel_equal(q.unbend(q.bend(f)), f)
        g = q.bend(rand_rel(Y, AB, 1100 + seed))
        assert q.rel_equal(q.bend(q.unbend(g)), g)


def test_equality_matches_lifted_diagonal_blocks():
    labels = ("a", "b", "c")
    carrier = q.classical(labels)
    e = q.equality(carrier)
    # the lifted diagonal relation of the ordinary set has rank-1 blocks at
    # exactly the diagonal pair atoms, in the same flat enumeration
    diag_keys = {(i * len(labels) + i, 0) for i in range(len(labels))}
    assert set(e.blocks) == diag_keys
    assert all(blk.rank == 1 for blk in e.blocks.values())


def test_constants_and_lattice_dispatchers():
    r = rand_rel(X, Y, 77)
    s = rand_rel(X, Y, 78)
    assert q.rel_equal(q.constants("top", X, Y), q.top(X, Y))
    assert q.rel_equal(q.constants("bottom", X, Y), q.bottom(X, Y))
    assert q.rel_equal(q.constants("identity", X), q.identity(X))
    with pytest.raises(SortMismatch):
        q.constants("identity", X, Y)
    assert q.rel_equal(q.lattice("neg", q.lattice("neg", r)), r)
    assert q.rel_equal(q.lattice("meet", r, q.top(X, Y)), r)
    assert q.lattice("leq", q.bottom(X, Y), r) is True
    assert q.rel_equal(q.lattice("join", r, s), q.join(r, s))
    assert q.lattice("perp", r, q.neg(r)) is True


def test_delta_no_transpose_mixed_dims_keeps_scalar_corner():
    # without the dual pairing, the one-dimensional diagonal corner always
    # survives: the scalar corner of p (x) (1 - p) vanishes for every
    # projection, so nothing ever constrains it
    mixed = q.atoms([1, 2], ["u", "v"])
    d = q.delta_bruteforce(mixed, seed=11, pair_with_dual=False)
    assert d.block_ranks() == {(0, 0): 1}


def test_flat_index_layout():
    # the encoder, its inverse and the enumerator agree with product_all
    rng = np.random.default_rng(11)
    for trial in range(60):
        sorts = []
        for k in range(int(rng.integers(0, 5))):
            n = int(rng.integers(1, 4))
            if rng.random() < 0.5:
                s = q.classical([f"c{k}_{i}" for i in range(n)])
            else:
                s = q.atoms([int(d) for d in rng.integers(1, 3, size=n)],
                            [f"a{k}_{i}" for i in range(n)])
            sorts.append(s.dual() if rng.random() < 0.3 else s)
        prod = q.product_all(sorts)
        radices = [len(s.atoms) for s in sorts]
        tuples = list(q.atom_tuples(sorts))
        assert [flat for flat, _, _ in tuples] == list(range(len(prod.atoms)))
        for flat, idx, dims in tuples:
            assert q._flat_index(radices, idx) == flat
            assert q._atom_tuple(radices, flat) == idx
            atom = prod.atoms[flat]
            assert atom.dim == int(np.prod(dims))
            names = [s.atoms[i].name for s, i in zip(sorts, idx)]
            assert atom.name == ("⊗".join(names) if sorts else "1")


def test_factors():
    a, b = q.classical(["a0", "a1"]), q.atoms([2], ["b"])
    assert q.factors(q.unit()) == []
    assert q.factors(a) == [a]
    assert q.factors(q.product_all([a, b, a.dual()])) == [a, b, a.dual()]
