import numpy as np
import pytest
from test_verdicts import tolerance

from qrel import config
from qrel import subspace as sp
from qrel.errors import ShapeMismatch

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# The rank cutoff follows the tolerance: tests that place a singular value
# against it run at both ends of the allowed range and at the default.
TOLERANCES = (config.TOL_MIN, config.DEFAULT_TOL, config.TOL_MAX)


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


def projector(s):
    return s.vectors().T @ s.vectors().conj()


def de_morgan_meet(s, t):
    return sp.complement(sp.join(sp.complement(s), sp.complement(t)))


def test_meet_against_projector_intersection_oracle():
    # Independent oracle: intersection via eigenspace of P_s + P_t at 2.
    rng = np.random.default_rng(5)
    for k in range(20):
        s = rand_subspace(rng, (2, 2), int(rng.integers(0, 5)))
        t = rand_subspace(rng, (2, 2), int(rng.integers(0, 5)))
        m = sp.meet(s, t)
        eigvals = np.linalg.eigvalsh(projector(s) + projector(t))
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
    # the De Morgan formula, complement(join(complement(s), complement(t))),
    # is the oracle for the one meet route
    rng = np.random.default_rng(11)
    for k in range(60):
        shape = [(2, 3), (2, 2), (1, 6), (3, 3)][k % 4]
        d = shape[0] * shape[1]
        s = rand_subspace(rng, shape, int(rng.integers(0, d + 1)))
        t = rand_subspace(rng, shape, int(rng.integers(0, d + 1)))
        fast = sp.meet(s, t)
        slow = de_morgan_meet(s, t)
        assert sp.compare(fast, slow).equal


def leaning_pair(shape, cos, sin, shared, extra_s, extra_t):
    """Two subspaces with ``shared`` common directions, plus a line u in s and
    a line cos.u + sin.w in t for a unit w orthogonal to u, plus ``extra_s``
    and ``extra_t`` directions orthogonal to everything else.  Returns (s, t,
    u, the line in t)."""
    d = shape[0] * shape[1]
    rng = np.random.default_rng(26)
    frame, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u, w = frame[:, 0], frame[:, 1]
    rest = iter(frame[:, 2:].T)
    common = [next(rest) for _ in range(shared)]
    own_s = [next(rest) for _ in range(extra_s)]
    own_t = [next(rest) for _ in range(extra_t)]
    tilted = cos * u + sin * w
    s = sp.span([v.reshape(shape) for v in [u, *common, *own_s]], shape)
    t = sp.span([v.reshape(shape) for v in [tilted, *common, *own_t]], shape)
    return s, t, u.reshape(shape), tilted.reshape(shape)


def tilted_pair(shape, angle, shared, extra_s, extra_t):
    """``leaning_pair`` with the two lines at ``angle``; returns (s, t, u)."""
    return leaning_pair(shape, np.cos(angle), np.sin(angle), shared, extra_s, extra_t)[:3]


@pytest.mark.parametrize("angle,kept", [(1e-3, False), (1e-6, False), (1e-12, True), (1e-14, True)])
@pytest.mark.parametrize("shared,extra_s,extra_t", [(0, 1, 2), (3, 2, 2)])
def test_meet_decides_on_the_principal_angle(angle, kept, shared, extra_s, extra_t):
    # The tilted line is in the meet iff its sine to the other operand is at
    # most the tolerance.  The second pair's ranks sum above the ambient.
    shape = (3, 3)
    s, t, u = tilted_pair(shape, angle, shared, extra_s, extra_t)
    m = sp.meet(s, t)
    assert m.rank == shared + kept
    assert orthonormality_error(m) <= 1e-12
    assert m.contains(u) == kept
    assert sp.compare(m, de_morgan_meet(s, t)).equal
    # P_s + P_t has eigenvalue 1 + cos(angle) on the pair of lines, so it
    # resolves only squared sines: decide it at 1e-14, between the cases.
    eigvals = np.linalg.eigvalsh(projector(s) + projector(t))
    assert int(np.sum(2.0 - eigvals <= 1e-14)) == m.rank


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("factor,kept", [(0.5, True), (2.0, False)])
@pytest.mark.parametrize("shared,extra_s,extra_t", [(0, 1, 2), (3, 2, 2)])
def test_meet_sine_cutoff_follows_the_tolerance(tol, factor, kept, shared, extra_s, extra_t):
    # The residual's singular values are sines, at most 1, so the cutoff is
    # the tolerance itself: a sine at half of it is kept, one at twice it not.
    # (The De Morgan route's join decides on other singular values, so within
    # a factor 2 of the cutoff it is no oracle.)
    with tolerance(tol):
        angle = np.arcsin(factor * tol)
        s, t, u = tilted_pair((3, 3), angle, shared, extra_s, extra_t)
        m = sp.meet(s, t)
        assert m.rank == shared + kept
        assert m.contains(u) == kept


def test_meet_guard_cases():
    rng = np.random.default_rng(27)
    shape = (3, 3)
    s = rand_subspace(rng, shape, 4)
    zero, top = sp.zero(shape), sp.full(shape)
    for a, b in [(s, zero), (zero, s), (zero, top), (top, zero)]:
        assert sp.meet(a, b).is_zero()
    assert sp.compare(sp.meet(s, top), s).equal
    assert sp.compare(sp.meet(top, s), s).equal
    assert sp.meet(top, top).is_full()
    assert sp.compare(sp.meet(s, s), s).equal
    for r in [1, 4, 5, 8]:  # equal ranks
        a, b = rand_subspace(rng, shape, r), rand_subspace(rng, shape, r)
        m = sp.meet(a, b)
        assert m.rank == max(0, 2 * r - 9)
        assert sp.compare(m, de_morgan_meet(a, b)).equal
        assert sp.compare(sp.meet(b, a), m).equal


@pytest.mark.parametrize("shared,extra", [(2, 1), (3, 2)])
def test_meet_takes_one_svd_and_no_qr(monkeypatch, shared, extra):
    # One thin SVD of the residual, whether the ranks sum to at most the
    # ambient (4 + 4) or above it (6 + 6); no second SVD to orthonormalise
    # the result and no complements.
    s, t, _ = tilted_pair((3, 3), 1e-3, shared, extra, extra)
    calls = count_linalg_calls(monkeypatch, ("svd", "qr"))
    m = sp.meet(s, t)
    assert calls == {"svd": 1, "qr": 0}
    assert m.rank == shared


# -- the Sasaki connectives in closed form --------------------------------
#
# The lattice formulas are the oracles: not (p -> q) = p and not (p and q),
# and the Sasaki projection (p or not q) and q.  The closed forms decide on
# the sines (not_implies) or cosines (sasaki_projection) of the principal
# angles, the lattice formulas on singular values of joins and complements,
# so near the cutoff only the angle rule is an oracle.


def lattice_not_implies(p, q):
    return sp.meet(p, sp.complement(sp.meet(p, q)))


def lattice_sasaki_projection(p, q):
    return sp.meet(sp.join(p, sp.complement(q)), q)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_sasaki_closed_forms_match_the_lattice_formulas(tol):
    rng = np.random.default_rng(31)
    with tolerance(tol):
        for k in range(60):
            shape = [(2, 3), (2, 2), (1, 6), (3, 3)][k % 4]
            d = shape[0] * shape[1]
            p = rand_subspace(rng, shape, int(rng.integers(0, d + 1)))
            r = rand_subspace(rng, shape, int(rng.integers(0, d + 1)))
            if k % 5 == 0:  # a shared part, so that p and r is not zero
                r = sp.join(r, sp.meet(p, rand_subspace(rng, shape, d - 1)))
            for fast, slow in [
                (sp.not_implies(p, r), lattice_not_implies(p, r)),
                (sp.sasaki_projection(p, r), lattice_sasaki_projection(p, r)),
            ]:
                assert sp.compare(fast, slow).equal
                assert orthonormality_error(fast) <= 1e-12


def test_sasaki_closed_forms_guard_cases():
    rng = np.random.default_rng(32)
    shape = (2, 3)
    s = rand_subspace(rng, shape, 3)
    zero, top = sp.zero(shape), sp.full(shape)
    for a, b in [(zero, s), (s, top), (s, s), (zero, zero), (top, top)]:
        assert sp.not_implies(a, b).is_zero()
    for a, b in [(s, zero), (top, zero), (top, s)]:
        assert sp.compare(sp.not_implies(a, b), lattice_not_implies(a, b)).equal
    for a, b in [(zero, s), (s, zero), (zero, top)]:
        assert sp.sasaki_projection(a, b).is_zero()
    assert sp.compare(sp.sasaki_projection(s, top), s).equal
    assert sp.compare(sp.sasaki_projection(top, s), s).equal
    assert sp.compare(sp.sasaki_projection(s, s), s).equal
    with pytest.raises(ShapeMismatch):
        sp.not_implies(s, sp.zero((3, 2)))
    with pytest.raises(ShapeMismatch):
        sp.sasaki_projection(s, sp.zero((3, 2)))


def same(a, b, angle):
    """Equal ranks and projectors within rounding: a line decided on a small
    sine or cosine is found to about the unit roundoff over that value, which
    exceeds the smallest tolerance."""
    margins = sp.compare(a, b).margins
    return a.rank == b.rank and max(margins["leq"], margins["geq"]) <= 1e-14 / angle


def holds(s, mat):
    """Whether a unit ``mat`` lies in ``s``; each line tested lies in it or
    is orthogonal to it."""
    return float(np.linalg.norm(sp._outside(mat.reshape(1, -1), s))) < 0.5


def near_cutoff_cases():
    # angles from 1e-3 down to 1e-14, plus half and twice the cutoff; a
    # value equal to the cutoff sits on it and decides by rounding alone
    cutoff = sp._cutoff(1.0)  # sines and cosines are at most 1
    values = [10.0**-e for e in range(3, 15)] + [0.5 * cutoff, 2.0 * cutoff]
    return cutoff, [v for v in values if not np.isclose(v, cutoff, rtol=1e-6)]


@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-4])
@pytest.mark.parametrize("shared,extra_s,extra_t", [(0, 1, 2), (3, 2, 2)])
def test_not_implies_decides_on_the_sine(tol, shared, extra_s, extra_t):
    # u is in not (s -> t) iff its sine to t exceeds the cutoff, and
    # everything of s orthogonal to t is in it.
    with tolerance(tol):
        cutoff, sines = near_cutoff_cases()
        for sine in sines:
            s, t, u, _ = leaning_pair((3, 3), np.sqrt(1 - sine**2), sine, shared, extra_s, extra_t)
            n = sp.not_implies(s, t)
            kept = sine > cutoff
            assert n.rank == extra_s + kept, sine
            assert holds(n, u) == kept, sine
            assert orthonormality_error(n) <= 1e-12
            inside = sp.meet(s, t)
            assert n.rank + inside.rank == s.rank
            assert sp.compare(n, inside).margins["orthogonal"] <= 1e-9
            if not cutoff / 10 <= sine <= 10 * cutoff:
                assert same(n, lattice_not_implies(s, t), sine), sine


@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-4])
@pytest.mark.parametrize("shared,extra_s,extra_t", [(0, 1, 2), (3, 2, 2)])
def test_sasaki_projection_decides_on_the_cosine(tol, shared, extra_s, extra_t):
    # t's leaning line is in the projection of s onto t iff its cosine to u
    # exceeds the cutoff; the shared part always is, s's own part never.
    with tolerance(tol):
        cutoff, cosines = near_cutoff_cases()
        for cosine in cosines:
            s, t, _, v = leaning_pair((3, 3), cosine, np.sqrt(1 - cosine**2), shared, extra_s, extra_t)
            phi = sp.sasaki_projection(s, t)
            kept = cosine > cutoff
            assert phi.rank == shared + kept, cosine
            assert holds(phi, v) == kept, cosine
            assert orthonormality_error(phi) <= 1e-12
            assert sp.compare(phi, t).margins["leq"] <= 1e-9
            if not cutoff / 10 <= cosine <= 10 * cutoff:
                assert same(phi, lattice_sasaki_projection(s, t), cosine), cosine


def count_linalg_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


@pytest.mark.parametrize("shared,extra", [(2, 1), (3, 2)])
def test_not_implies_takes_one_svd_and_no_qr(monkeypatch, shared, extra):
    # the SVD that meet keeps the zero half of, and no complement
    s, t, _ = tilted_pair((3, 3), 1e-3, shared, extra, extra)
    calls = count_linalg_calls(monkeypatch, ("svd", "qr"))
    n = sp.not_implies(s, t)
    assert calls == {"svd": 1, "qr": 0}
    assert n.rank == extra + 1


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
        assert s.rank + t.rank <= d  # the stacked bases fit the ambient
        fast = sp.meet(s, t)
        slow = de_morgan_meet(s, t)
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
    rank = int(np.sum(s > sp._cutoff(s[0])))
    return sp.Subspace(b_shape[0], b_shape[1], vh[rank:].conj().reshape(-1, *b_shape))


@pytest.mark.parametrize("v_shape,b_shape", [((1, 2), (1, 3)), ((2, 2), (1, 2)), ((1, 3), (3, 1))])
def test_residual_factor_matches_the_loop_oracle(v_shape, b_shape):
    w_shape = (v_shape[0] * b_shape[0], v_shape[1] * b_shape[1])
    dv, db = v_shape[0] * v_shape[1], b_shape[0] * b_shape[1]
    for tol in TOLERANCES:
        rng = np.random.default_rng(23)
        with tolerance(tol):
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
    # The cutoff is the tolerance times max(1, sigma_max); put the smallest
    # singular value just above or just below it, at each tolerance.  A single
    # column has only that small singular value, so its cutoff is the
    # tolerance itself.
    expected = n if factor > 1 else n - 1
    for tol in TOLERANCES:
        rng = np.random.default_rng(25)
        with tolerance(tol):
            cutoff = sp._cutoff(sigma_max if n > 1 else 0.0)
            sigma = [sigma_max] * (n - 1) + [factor * cutoff]
            mat = stack_with_singular_values(rng, m, sigma)
            rank, nullity = len(sp._range(mat)), len(sp._split(mat)[1])
            assert rank == expected and rank + nullity == n
            assert len(sp._range(mat.T)) == rank  # one row: the norm shortcut


def test_one_column_rank_is_decided_by_the_norm():
    # every entry is below the cutoff, but the singular value is twice it
    for tol in TOLERANCES:
        with tolerance(tol):
            col = np.full((16, 1), 0.5 * sp._cutoff(0.0), dtype=complex)
            assert len(sp._range(col)) == len(sp._range(col.T)) == 1
            assert len(sp._split(col)[1]) == 0


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("shape, scale", [((1, 4), 1e300), ((4, 1), 1e300), ((1, 1), 1e200)])
def test_huge_entries_span_what_unscaled_ones_span(shape, scale, count):
    # Squares of entries near 1e154 overflow.  The one-row and one-column
    # norm shortcut once took such a stack's span for zero.
    rng = np.random.default_rng(11)
    mats = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(count)]
    s = sp.span(mats, shape)
    big = sp.span([scale * m for m in mats], shape)
    assert big.rank == s.rank > 0 and sp.compare(big, s).equal
