import numpy as np
import pytest

from qrel import config
from qrel import subspace as sp
from qrel.errors import ShapeMismatch

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def rand_subspace(rng, shape, rank):
    mats = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(rank)]
    return sp.span(mats, shape)


def test_span_collinear_rank_one():
    assert sp.span([I2, 2 * I2], (2, 2)).rank == 1


def test_span_empty_is_zero():
    s = sp.span([], (2, 2))
    assert s.rank == 0 and s.shape == (2, 2)


def test_span_matrix_units():
    assert sp.span([E11, E12], (2, 2)).rank == 2


def test_span_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        sp.span([np.eye(3)], (2, 2))


def test_join_orthogonal_summands():
    assert sp.join(sp.span([E11], (2, 2)), sp.span([E22], (2, 2))).rank == 2


def test_join_with_zero_is_identity():
    s = sp.span([E12, E21], (2, 2))
    j = sp.join(s, sp.span([], (2, 2)))
    assert sp.compare(j, s).equal


def test_join_contains_difference():
    j = sp.join(sp.span([E11], (2, 2)), sp.span([E11 + E22], (2, 2)))
    assert j.rank == 2 and j.contains(E22)


def test_meet_orthogonal_lines_zero():
    assert sp.meet(sp.span([E11], (2, 2)), sp.span([E22], (2, 2))).rank == 0


def test_meet_with_full_is_identity():
    s = sp.span([E11, E12 + E21], (2, 2))
    assert sp.compare(sp.meet(s, sp.full((2, 2))), s).equal


def test_meet_shared_line():
    m = sp.meet(sp.span([E11, E12], (2, 2)), sp.span([E12, E21], (2, 2)))
    assert m.rank == 1 and m.contains(E12)


def test_meet_against_projector_intersection_oracle():
    # Independent oracle: intersection via eigenspace of P_s + P_t at 2.
    rng = np.random.default_rng(5)
    for k in range(20):
        s = rand_subspace(rng, (2, 2), int(rng.integers(0, 5)))
        t = rand_subspace(rng, (2, 2), int(rng.integers(0, 5)))
        m = sp.meet(s, t)
        ps = s.vectors().T @ s.vectors().conj()
        pt = t.vectors().T @ t.vectors().conj()
        eigvals = np.linalg.eigvalsh(ps + pt)
        expected = int(np.sum(np.abs(eigvals - 2.0) < 1e-9))
        assert m.rank == expected


def test_complement_of_identity_line():
    assert sp.complement(sp.span([I2], (2, 2))).rank == 3


def test_complement_of_zero_is_full():
    c = sp.complement(sp.span([], (2, 2)))
    assert c.is_full()


def test_complement_involution():
    rng = np.random.default_rng(1)
    for k in range(10):
        s = rand_subspace(rng, (2, 3), int(rng.integers(0, 7)))
        assert sp.compare(sp.complement(sp.complement(s)), s).equal


def test_compare_basic():
    a = sp.span([E11], (2, 2))
    b = sp.span([E11, E12], (2, 2))
    c = sp.compare(a, b)
    assert c.leq and not c.geq and not c.equal
    assert sp.compare(a, a).equal
    assert sp.compare(a, sp.span([E22], (2, 2))).orthogonal


def test_mul_span_unit_and_zero():
    s = sp.span([E11], (2, 2))
    t = sp.span([E12], (2, 2))
    m = sp.mul_span(s, t)
    assert m.rank == 1 and m.contains(E12)
    assert sp.compare(sp.mul_span(sp.span([I2], (2, 2)), t), t).equal
    assert sp.mul_span(s, sp.span([], (2, 2))).rank == 0


def test_mul_span_associative():
    rng = np.random.default_rng(2)
    for k in range(10):
        s = rand_subspace(rng, (2, 2), 2)
        t = rand_subspace(rng, (2, 2), 1)
        u = rand_subspace(rng, (2, 2), 2)
        lhs = sp.mul_span(sp.mul_span(s, t), u)
        rhs = sp.mul_span(s, sp.mul_span(t, u))
        assert sp.compare(lhs, rhs).equal


def test_tensor_ranks_and_zero():
    t = sp.tensor(sp.span([E11], (2, 2)), sp.span([E11], (2, 2)))
    assert t.rank == 1 and t.shape == (4, 4)
    f = sp.tensor(sp.full((1, 2)), sp.full((1, 2)))
    assert f.is_full() and f.shape == (1, 4)
    assert sp.tensor(sp.span([E11], (2, 2)), sp.span([], (2, 2))).rank == 0


def test_star_images():
    assert sp.star_image(sp.span([E12], (2, 2)), "dagger").contains(E21)
    assert sp.star_image(sp.span([I2], (2, 2)), "dagger").contains(I2)
    s = sp.span([1j * E11], (2, 2))
    assert sp.star_image(s, "transpose").contains(E11)
    assert sp.star_image(s, "dagger").contains(E11)  # phases are absorbed
    rng = np.random.default_rng(3)
    for k in range(10):
        s = rand_subspace(rng, (2, 3), 2)
        back = sp.star_image(sp.star_image(s, "dagger"), "dagger")
        assert sp.compare(back, s).equal


def test_residual_factor_trivial_cases():
    rng = np.random.default_rng(4)
    v = rand_subspace(rng, (1, 2), 1)
    b_full = sp.full((1, 3))
    w = sp.tensor(v, b_full)
    r = sp.residual_factor(v, w)
    assert r.is_full()
    assert sp.residual_factor(v, sp.span([], (1, 6))).rank == 0


def test_residual_factor_forcing_zero():
    v = sp.span([np.array([[1, 0]], complex), np.array([[0, 1]], complex)], (1, 2))
    b1 = np.array([[1, 0, 0]], dtype=complex)
    w = sp.span([np.kron(np.array([[1, 0]], complex), b1)], (1, 6))
    assert sp.residual_factor(v, w).rank == 0


def test_residual_adjunction_random():
    rng = np.random.default_rng(6)
    for k in range(20):
        v = rand_subspace(rng, (1, 2), int(rng.integers(1, 3)))
        w = rand_subspace(rng, (1, 6), int(rng.integers(0, 7)))
        t = sp.residual_factor(v, w)
        probe = rand_subspace(rng, (1, 3), int(rng.integers(0, 4)))
        assert sp.compare(sp.tensor(v, t), w).leq
        lhs = sp.compare(sp.tensor(v, probe), w).leq
        rhs = sp.compare(probe, t).leq
        assert lhs == rhs


def test_orthomodularity_random():
    rng = np.random.default_rng(7)
    for k in range(30):
        shape = (2, 3)
        t = rand_subspace(rng, shape, int(rng.integers(1, 6)))
        # pick s below t
        coeffs = rng.normal(size=(2, t.rank)) + 1j * rng.normal(size=(2, t.rank))
        mats = [sum(c * b for c, b in zip(row, t.basis)) for row in coeffs]
        s = sp.span(mats, shape)
        assert sp.compare(s, t).leq
        rebuilt = sp.join(s, sp.meet(t, sp.complement(s)))
        assert sp.compare(rebuilt, t).equal


def test_meet_routes_agree():
    # the kernel route and the complement route compute the same meet
    rng = np.random.default_rng(11)
    for k in range(60):
        shape = [(2, 3), (2, 2), (1, 6), (3, 3)][k % 4]
        d = shape[0] * shape[1]
        s = rand_subspace(rng, shape, int(rng.integers(0, d + 1)))
        t = rand_subspace(rng, shape, int(rng.integers(0, d + 1)))
        fast = sp.meet(s, t)
        slow = sp.complement(sp.join(sp.complement(s), sp.complement(t)))
        assert sp.compare(fast, slow).equal


# -- the range/kernel primitives ------------------------------------------

KERNEL_SHAPES = [(3, 3), (1, 27), (9, 9)]


def edge_ranks(d):
    return [0, 1, d - 1, d]


def orthonormality_error(s):
    b = s.vectors()
    return float(np.linalg.norm(b @ b.conj().T - np.eye(s.rank)))


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_complement_is_an_orthonormal_orthocomplement(shape):
    rng = np.random.default_rng(21)
    d = shape[0] * shape[1]
    for r in edge_ranks(d):
        s = rand_subspace(rng, shape, r)
        c = sp.complement(s)
        assert c.rank == d - r
        assert orthonormality_error(c) <= 1e-12
        assert np.linalg.norm(s.vectors().conj() @ c.vectors().T) <= 1e-12
        assert sp.compare(sp.complement(c), s).equal


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_meet_of_overlapping_pairs_matches_de_morgan(shape):
    rng = np.random.default_rng(22)
    d = shape[0] * shape[1]
    for shared in edge_ranks(d // 2)[1:]:
        extra = (d - 2 * shared) // 2
        common = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(shared)]
        s = sp.join(sp.span(common, shape), rand_subspace(rng, shape, extra))
        t = sp.join(sp.span(common, shape), rand_subspace(rng, shape, extra))
        assert s.rank + t.rank <= d  # the kernel route
        fast = sp.meet(s, t)
        slow = sp.complement(sp.join(sp.complement(s), sp.complement(t)))
        assert fast.rank == shared
        assert orthonormality_error(fast) <= 1e-12
        assert sp.compare(fast, slow).equal


def residual_factor_by_loop(v, w):
    """The column-by-column construction that residual_factor's single einsum
    replaced, kept as an oracle: one probe v_i (x) e per basis pair."""
    b_shape = (w.rows // v.rows, w.cols // v.cols)
    b_dim = b_shape[0] * b_shape[1]
    wv = w.vectors()
    cols = []
    for e in np.eye(b_dim, dtype=complex).reshape(b_dim, *b_shape):
        stacked = []
        for vi in v.basis:
            x = np.einsum("ij,kl->ikjl", vi, e).reshape(w.ambient_dim)
            stacked.append(x - wv.T @ (wv.conj() @ x))
        cols.append(np.concatenate(stacked))
    _, s, vh = np.linalg.svd(np.array(cols).T, full_matrices=True)
    rank = int(np.sum(s > config.RANK_EPS * max(1.0, s[0])))
    return sp.Subspace(b_shape[0], b_shape[1], vh[rank:].conj().reshape(-1, *b_shape))


@pytest.mark.parametrize("v_shape,b_shape", [((1, 2), (1, 3)), ((2, 2), (1, 2)), ((1, 3), (3, 1))])
def test_residual_factor_matches_the_loop_oracle(v_shape, b_shape):
    rng = np.random.default_rng(23)
    w_shape = (v_shape[0] * b_shape[0], v_shape[1] * b_shape[1])
    dv, db = v_shape[0] * v_shape[1], b_shape[0] * b_shape[1]
    for k in range(12):
        v = rand_subspace(rng, v_shape, int(rng.integers(1, dv + 1)))
        t = rand_subspace(rng, b_shape, int(rng.integers(0, db + 1)))
        noise = rand_subspace(rng, w_shape, int(rng.integers(0, 3)))
        w = sp.join(sp.tensor(v, t), noise)
        fast, slow = sp.residual_factor(v, w), residual_factor_by_loop(v, w)
        assert fast.rank == slow.rank
        assert sp.compare(fast, slow).equal


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_transpose_keeps_orthonormal_rows(shape):
    rng = np.random.default_rng(24)
    d = shape[0] * shape[1]
    for r in edge_ranks(d):
        s = rand_subspace(rng, shape, r)
        tr = sp.star_image(s, "transpose")
        assert tr.shape == (shape[1], shape[0]) and tr.rank == r
        assert orthonormality_error(tr) <= 1e-12
        spanned = sp.span([m.T for m in s.basis], tr.shape)
        assert sp.compare(tr, spanned).equal


def stack_with_singular_values(rng, m, sigma):
    n = len(sigma)
    u, _ = np.linalg.qr(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (u * np.asarray(sigma)) @ v.conj().T


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("sigma_max", [1.0, 100.0])
@pytest.mark.parametrize("m,n", [(16, 1), (5, 5), (27, 9)])
def test_range_and_kernel_share_the_rank_cutoff(m, n, sigma_max, factor):
    # The cutoff is RANK_EPS * max(1, sigma_max); put the smallest singular
    # value just above or just below it.  A single column has only that
    # small singular value, so its cutoff is RANK_EPS.
    rng = np.random.default_rng(25)
    cutoff = config.RANK_EPS * max(1.0, sigma_max if n > 1 else 0.0)
    mat = stack_with_singular_values(rng, m, [sigma_max] * (n - 1) + [factor * cutoff])
    expected = n if factor > 1 else n - 1
    rank, nullity = len(sp._range(mat)), len(sp._kernel(mat))
    assert rank == expected and rank + nullity == n
    assert len(sp._range(mat.T)) == rank  # a single row takes the norm shortcut


def test_one_column_rank_is_decided_by_the_norm():
    # every entry is below the cutoff, but the singular value is twice it
    col = np.full((16, 1), 0.5 * config.RANK_EPS, dtype=complex)
    assert len(sp._range(col)) == len(sp._range(col.T)) == 1
    assert len(sp._kernel(col)) == 0
