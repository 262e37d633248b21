"""Subspaces of finite-dimensional complex operator spaces.

A subspace of L(X, Y) is stored as an orthonormal basis of matrices under
the Hilbert-Schmidt inner product <a, b> = tr(a^dagger b).  Matrices are
vectorized row-major, so a subspace of an (r x c) ambient is equivalently a
row-orthonormal (rank x r*c) complex array.  Subspaces are compared through
their orthogonal projectors, never through basis identity.

Ranks follow one rule, ``_cutoff``: a singular value counts iff it exceeds
RANK_EPS * max(1, sigma_max).  ``_range`` and ``_kernel`` apply it to one thin
SVD each.  A complement is the tail of a complete QR of the basis, whose
rank is known.  Coordinate permutations (transpose, the factor shuffles of
``qset.permute``) keep orthonormal rows orthonormal and need no SVD.
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
    return config.RANK_EPS * max(1.0, sigma_max)


def _rank(sigma: np.ndarray) -> int:
    """Number of nonzero singular values in a descending, nonempty ``sigma``."""
    return int(np.count_nonzero(sigma > _cutoff(sigma[0])))


def _range(vecs: np.ndarray) -> np.ndarray:
    """Row-orthonormal basis of the row span of ``vecs``, rank-truncated."""
    if min(vecs.shape) <= 1:
        # at most one row or column: the norm is the only singular value
        norm = float(np.linalg.norm(vecs))
        if norm <= _cutoff(norm):
            return vecs[:0]
        # a nonzero column spans the whole one-dimensional ambient
        return np.ones((1, 1), dtype=complex) if vecs.shape[1] == 1 else vecs / norm
    _, s, vh = np.linalg.svd(vecs, full_matrices=False)
    return vh[: _rank(s)]


def _kernel(mat: np.ndarray) -> np.ndarray:
    """Row-orthonormal basis of the x with ``mat @ x = 0``; ``mat`` is tall or
    square, so the thin SVD holds all of V."""
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    return vh[_rank(s) :].conj()


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

    def project(self, mat: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``mat`` onto this subspace."""
        v = self.vectors()
        x = np.asarray(mat, dtype=complex).reshape(self.ambient_dim)
        return (v.T @ (v.conj() @ x)).reshape(self.rows, self.cols)

    def contains(self, mat: np.ndarray, tol: float | None = None) -> bool:
        tol = config.tolerance() if tol is None else tol
        m = np.asarray(mat, dtype=complex)
        return float(np.linalg.norm(m - self.project(m))) <= tol * max(
            1.0, float(np.linalg.norm(m))
        )

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
    vecs = _range(stack.reshape(stack.shape[0], -1))
    return Subspace(shape[0], shape[1], vecs.reshape(-1, shape[0], shape[1]))


def _check_same_ambient(s: Subspace, t: Subspace) -> None:
    if s.shape != t.shape:
        raise ShapeMismatch(f"ambient mismatch: {s.shape} vs {t.shape}")


def join(s: Subspace, t: Subspace) -> Subspace:
    """Smallest subspace containing both operands."""
    _check_same_ambient(s, t)
    vecs = _range(np.concatenate([s.vectors(), t.vectors()], axis=0))
    return Subspace(s.rows, s.cols, vecs.reshape(-1, s.rows, s.cols))


def complement(s: Subspace) -> Subspace:
    """Orthocomplement under the Hilbert-Schmidt inner product."""
    if s.rank == 0:
        return full(s.shape)
    if s.rank == s.ambient_dim:
        return zero(s.shape)
    # Columns of Q beyond the rank are Hermitian-orthogonal to the basis.
    q, _ = np.linalg.qr(s.vectors().T, mode="complete")
    vecs = q[:, s.rank :].T
    return Subspace(s.rows, s.cols, vecs.reshape(-1, s.rows, s.cols))


def meet(s: Subspace, t: Subspace) -> Subspace:
    """Largest subspace contained in both operands.

    Low-rank operands intersect through the kernel of the stacked basis
    pairing, which stays cheap in large ambients; otherwise the
    complement-of-join route is used.
    """
    _check_same_ambient(s, t)
    if s.rank == 0 or t.rank == 0:
        return zero(s.shape)
    if s.rank + t.rank <= s.ambient_dim:
        stacked = np.concatenate([s.vectors(), -t.vectors()], axis=0)
        kernel = _kernel(stacked.T)  # rows (c, d) with c.S = d.T
        vecs = _range(kernel[:, : s.rank] @ s.vectors())
        return Subspace(s.rows, s.cols, vecs.reshape(-1, s.rows, s.cols))
    return complement(join(complement(s), complement(t)))


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


def compare(s: Subspace, t: Subspace, tol: float | None = None) -> Comparison:
    """Order and orthogonality of two subspaces via their HS projectors.

    ``leq`` holds iff ||(1 - P_t) P_s||_2 <= tol, ``orthogonal`` iff
    ||P_t P_s||_2 <= tol; the margins record all three norms.
    """
    _check_same_ambient(s, t)
    tol = config.tolerance() if tol is None else tol
    vs = s.vectors().T  # ambient_dim x rank_s, orthonormal columns
    vt = t.vectors().T
    # ||(1 - P_t) P_s|| = ||(1 - P_t) Vs|| since Vs has orthonormal columns.
    resid_s = vs - vt @ (vt.conj().T @ vs)
    resid_t = vt - vs @ (vs.conj().T @ vt)
    overlap = vt.conj().T @ vs
    m_leq = _spectral_norm(resid_s)
    m_geq = _spectral_norm(resid_t)
    m_orth = _spectral_norm(overlap)
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
    wv = w.vectors()
    resid = probes - (probes @ wv.conj().T) @ wv
    kernel = _kernel(resid.transpose(0, 2, 1).reshape(-1, b_dim))
    return Subspace(b_shape[0], b_shape[1], kernel.reshape(-1, b_shape[0], b_shape[1]))
