"""Subspaces of finite-dimensional complex operator spaces.

A subspace of L(X, Y) is stored as an orthonormal basis of matrices under
the Hilbert-Schmidt inner product <a, b> = tr(a^dagger b).  Matrices are
vectorized row-major, so a subspace of an (r x c) ambient is equivalently a
row-orthonormal (rank x r*c) complex array.  Subspaces are compared through
their orthogonal projectors, never through basis identity.

Ranks follow one rule, ``_cutoff``: a singular value counts iff it exceeds
``tolerance() * max(1, sigma_max)``, the tolerance that decides every margin.
``_range``, ``_split`` and ``Subspace.contains`` apply it.  A complement is
the tail of a complete QR of the basis, whose rank is known.  ``_outside``
forms the one residual, the part of a stack of rows outside a subspace; for p
against q its singular values are the sines of their principal angles (Bjorck
and Golub, 1973).  ``_split`` cuts its one thin SVD into p and q (the zero
half) and not (p -> q) = p and not (p and q) = range(P_p (1 - P_q)).  The
Sasaki projection (p or not q) and q is range(P_q P_p): no complement.
Coordinate permutations (transpose, the factor shuffles of ``qset.permute``)
keep orthonormal rows orthonormal and need no SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import config
from .errors import ShapeMismatch

__all__ = [
    "Subspace",
    "span",
    "join",
    "meet",
    "not_implies",
    "sasaki_projection",
    "complement",
    "compare",
    "Comparison",
    "mul_span",
    "tensor",
    "star_image",
    "residual_factor",
]


def _as_matrix_stack(mats: Sequence[np.ndarray], shape: tuple[int, int]) -> np.ndarray:
    rows, cols = shape
    if len(mats) == 0:
        return np.zeros((0, rows, cols), dtype=complex)
    stack = np.asarray(mats, dtype=complex)
    if stack.ndim == 2:
        stack = stack[None, :, :]
    if stack.shape[1:] != (rows, cols):
        raise ShapeMismatch(
            f"matrix of shape {stack.shape[1:]} does not fit ambient {rows}x{cols}"
        )
    if not np.all(np.isfinite(stack.view(float))):
        raise ShapeMismatch("matrix entries must be finite")
    return stack


def _cutoff(sigma_max: float) -> float:
    """Singular values at or below this count as zero."""
    return config.tolerance() * max(1.0, sigma_max)


def _rank(sigma: np.ndarray) -> int:
    """Number of nonzero singular values in a descending, nonempty ``sigma``."""
    return int(np.count_nonzero(sigma > _cutoff(sigma[0])))


def _range(vecs: np.ndarray) -> np.ndarray:
    """Row-orthonormal basis of the row span of ``vecs``, rank-truncated."""
    if min(vecs.shape) <= 1:
        # at most one row or column: the norm is the only singular value.  Its
        # squares overflow from entries near 1e154 on, which ``vdot`` shows
        # without a warning (as inf, or as nan from inf - inf); only then is
        # the row first scaled by its largest part, as LAPACK scales an SVD's
        # input.
        if not np.vdot(vecs, vecs).real < np.inf:
            vecs = vecs / np.abs([vecs.real, vecs.imag]).max()
        norm = float(np.linalg.norm(vecs))
        if norm <= _cutoff(norm):
            return vecs[:0]
        # a nonzero column spans the whole one-dimensional ambient
        return np.ones((1, 1), dtype=complex) if vecs.shape[1] == 1 else vecs / norm
    _, s, vh = np.linalg.svd(vecs, full_matrices=False)
    return vh[: _rank(s)]


def _split(mat: np.ndarray) -> list[np.ndarray]:
    """The right singular vectors of a tall or square ``mat`` (all of V), split
    by ``_rank`` into the rows x with ``mat @ x`` nonzero and the kernel."""
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    return np.split(vh.conj(), [_rank(s)])


@dataclass(frozen=True)
class Subspace:
    """An orthonormally based subspace of the operator space L(X, Y).

    ``basis`` has shape (rank, rows, cols) with rows orthonormal under the
    Hilbert-Schmidt inner product.  Use :func:`span` to construct one from
    arbitrary spanning matrices.
    """

    rows: int
    cols: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch("ambient dimensions must be nonnegative")
        if self.basis.shape != (self.basis.shape[0], self.rows, self.cols):
            raise ShapeMismatch("basis stack does not match ambient shape")

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.rows * self.cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def vectors(self) -> np.ndarray:
        """Basis as a row-orthonormal (rank x rows*cols) array."""
        return self.basis.reshape(self.rank, self.ambient_dim)

    def is_zero(self) -> bool:
        return self.rank == 0

    def is_full(self) -> bool:
        return self.rank == self.ambient_dim

    def contains(self, mat: np.ndarray) -> bool:
        m = np.asarray(mat, dtype=complex).reshape(1, self.ambient_dim)
        norm = float(np.linalg.norm(m))
        return float(np.linalg.norm(_outside(m, self))) <= _cutoff(norm)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Subspace({self.rows}x{self.cols}, rank={self.rank})"


def zero(shape: tuple[int, int]) -> Subspace:
    rows, cols = shape
    return Subspace(rows, cols, np.zeros((0, rows, cols), dtype=complex))


def full(shape: tuple[int, int]) -> Subspace:
    rows, cols = shape
    basis = np.eye(rows * cols, dtype=complex).reshape(rows * cols, rows, cols)
    return Subspace(rows, cols, basis)


def span(mats: Iterable[np.ndarray], shape: tuple[int, int]) -> Subspace:
    """Orthonormal basis of the linear span of ``mats`` inside ``shape``."""
    stack = _as_matrix_stack(list(mats), shape)
    if stack.shape[0] == 0:
        return zero(shape)
    return _from_rows(shape, _range(stack.reshape(stack.shape[0], -1)))


def _outside(rows: np.ndarray, t: Subspace) -> np.ndarray:
    """``rows`` minus their orthogonal projections onto ``t``."""
    tv = t.vectors()
    return rows - (rows @ tv.conj().T) @ tv


def _from_rows(shape: tuple[int, int], vecs: np.ndarray) -> Subspace:
    """Subspace of ``shape`` on orthonormal rows: a basis, or orthonormal rows times one."""
    return Subspace(shape[0], shape[1], vecs.reshape(-1, *shape))


def _check_same_ambient(s: Subspace, t: Subspace) -> None:
    if s.shape != t.shape:
        raise ShapeMismatch(f"ambient mismatch: {s.shape} vs {t.shape}")


def join(s: Subspace, t: Subspace) -> Subspace:
    """Smallest subspace containing both operands."""
    _check_same_ambient(s, t)
    return _from_rows(s.shape, _range(np.concatenate([s.vectors(), t.vectors()], axis=0)))


def complement(s: Subspace) -> Subspace:
    """Orthocomplement under the Hilbert-Schmidt inner product."""
    if s.rank == 0:
        return full(s.shape)
    if s.rank == s.ambient_dim:
        return zero(s.shape)
    # Columns of Q beyond the rank are Hermitian-orthogonal to the basis.
    q, _ = np.linalg.qr(s.vectors().T, mode="complete")
    return _from_rows(s.shape, q[:, s.rank :].T)


def meet(s: Subspace, t: Subspace) -> Subspace:
    """Largest subspace in both: the kernel of the smaller one's residual."""
    _check_same_ambient(s, t)
    if s.rank > t.rank:
        s, t = t, s
    if s.is_zero() or t.is_full():
        return s
    return _from_rows(s.shape, _split(_outside(s.vectors(), t).T)[1] @ s.vectors())


def not_implies(p: Subspace, q: Subspace) -> Subspace:
    """p and not (p and q): the half of meet's ``_split`` that is not the meet."""
    _check_same_ambient(p, q)
    if p.is_zero() or q.is_full():
        return zero(p.shape)
    return _from_rows(p.shape, _split(_outside(p.vectors(), q).T)[0] @ p.vectors())


def sasaki_projection(p: Subspace, q: Subspace) -> Subspace:
    """(p or not q) and q: the span of p's basis projected onto q."""
    _check_same_ambient(p, q)
    return _from_rows(q.shape, _range(p.vectors() @ q.vectors().conj().T) @ q.vectors())


@dataclass(frozen=True)
class Comparison:
    leq: bool
    geq: bool
    equal: bool
    orthogonal: bool
    margins: dict[str, float]


def _spectral_norm(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    if min(mat.shape) == 1:
        return float(np.linalg.norm(mat))
    return float(np.linalg.norm(mat, 2))


def compare(s: Subspace, t: Subspace) -> Comparison:
    """Order and orthogonality of two subspaces via their HS projectors.

    ``leq`` holds iff ||(1 - P_t) P_s||_2 <= tol, ``orthogonal`` iff
    ||P_t P_s||_2 <= tol; the margins record all three norms.
    """
    _check_same_ambient(s, t)
    tol = config.tolerance()
    # ||(1 - P_t) P_s|| = ||(1 - P_t) S|| since S has orthonormal rows.
    m_leq = _spectral_norm(_outside(s.vectors(), t))
    m_geq = _spectral_norm(_outside(t.vectors(), s))
    m_orth = _spectral_norm(s.vectors() @ t.vectors().conj().T)
    return Comparison(
        leq=m_leq <= tol,
        geq=m_geq <= tol,
        equal=m_leq <= tol and m_geq <= tol,
        orthogonal=m_orth <= tol,
        margins={"leq": m_leq, "geq": m_geq, "orthogonal": m_orth},
    )


def mul_span(s: Subspace, t: Subspace) -> Subspace:
    """Span of all pairwise operator products s_i . t_j.

    ``s`` lives in L(Y, Z) and ``t`` in L(X, Y); the result lives in L(X, Z).
    """
    if s.cols != t.rows:
        raise ShapeMismatch(
            f"cannot multiply subspaces of shapes {s.shape} and {t.shape}"
        )
    out_shape = (s.rows, t.cols)
    if s.rank == 0 or t.rank == 0:
        return zero(out_shape)
    prods = np.einsum("aij,bjk->abik", s.basis, t.basis).reshape(
        s.rank * t.rank, s.rows, t.cols
    )
    return span(prods, out_shape)


def tensor(s: Subspace, t: Subspace) -> Subspace:
    """Span of Kronecker products of basis pairs, left factor major."""
    out_shape = (s.rows * t.rows, s.cols * t.cols)
    if s.rank == 0 or t.rank == 0:
        return zero(out_shape)
    krons = np.einsum("aij,bkl->abikjl", s.basis, t.basis).reshape(
        s.rank * t.rank, out_shape[0], out_shape[1]
    )
    # Kronecker products of orthonormal HS bases are orthonormal already.
    return Subspace(out_shape[0], out_shape[1], krons)


def star_image(s: Subspace, mode: str) -> Subspace:
    """Image of a subspace under dagger, transpose, or entrywise conjugation.

    Dagger and transpose swap the ambient shape; conjugation keeps it.  All
    three maps send subspaces to subspaces (the two antilinear ones because
    complex spans absorb conjugated scalars).
    """
    if mode == "dagger":
        return Subspace(s.cols, s.rows, np.conj(np.swapaxes(s.basis, 1, 2)))
    if mode == "transpose":
        return Subspace(s.cols, s.rows, np.swapaxes(s.basis, 1, 2))
    if mode == "conjugate":
        return Subspace(s.rows, s.cols, np.conj(s.basis))
    raise ValueError(f"unknown star mode {mode!r}")


def residual_factor(v: Subspace, w: Subspace) -> Subspace:
    """Largest T with v (x) T contained in w.

    ``w`` must live in an ambient that factors as (v ambient) (x) (B ambient)
    in left-factor-major Kronecker order; the result lives in B.  Computed as
    the joint kernel of t -> (1 - P_w)(v_i (x) t) over a basis v_i of v.
    """
    if v.rows == 0 or v.cols == 0 or w.rows % max(v.rows, 1) or w.cols % max(v.cols, 1):
        raise ShapeMismatch(
            f"ambient {w.shape} does not factor through {v.shape}"
        )
    b_shape = (w.rows // v.rows, w.cols // v.cols)
    b_dim = b_shape[0] * b_shape[1]
    if v.rank == 0:
        return full(b_shape)
    # Row (a, e) is v_a (x) e_e for the unit matrices e_e of B.
    eye = np.eye(b_dim, dtype=complex).reshape(b_dim, b_shape[0], b_shape[1])
    probes = np.einsum("aij,ekl->aeikjl", v.basis, eye).reshape(v.rank, b_dim, -1)
    residual = _outside(probes, w).transpose(0, 2, 1).reshape(-1, b_dim)
    return _from_rows(b_shape, _split(residual)[1])
