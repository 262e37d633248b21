"""Quantum sets and the dagger-compact calculus of relations between them.

A quantum set is an ordered finite list of atoms (nonzero finite-dimensional
Hilbert spaces).  A relation between quantum sets assigns to each atom pair
(X_i, Y_j) a subspace of L(X_i, Y_j); an n-ary relation is a relation from
the left-associated product of its sorts to the unit set.  Duals reuse the
primal dimensions with coordinates in the dual basis, and the unit set is
absorbed by products, which makes the monoidal structure strict.

Product atoms are numbered left-factor-major mixed radix: in the product of
sorts with atom counts (n_1, ..., n_k), the atom tuple (i_1, ..., i_k) has
flat index ((i_1 * n_2 + i_2) * n_3 + ...) * n_k + i_k, the row-major order
of ``np.ravel_multi_index``; its label joins the factor atom names with
``⊗``.  This module alone computes that layout: :func:`atom_tuples`
enumerates it, and :func:`classical_relation` turns a set of classical label
tuples into the lifted relation with a rank-one 1x1 block at each tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from . import config
from . import subspace as sp
from .errors import (
    DuplicateLabel,
    NotAQuantumRelation,
    ShapeMismatch,
    SortMismatch,
    UnknownLabel,
    ZeroDimension,
)
from .subspace import Subspace

__all__ = [
    "Atom",
    "QuantumSet",
    "Relation",
    "unit",
    "empty",
    "classical",
    "atoms",
    "product",
    "product_all",
    "factors",
    "atom_tuples",
    "classical_relation",
    "dual",
    "top",
    "bottom",
    "identity",
    "constants",
    "lattice",
    "equality",
    "compose",
    "dagger",
    "conjugate",
    "transpose",
    "star",
    "cross",
    "cross_all",
    "neg",
    "meet",
    "join",
    "leq",
    "perp",
    "rel_equal",
    "permute",
    "braiding",
    "canonical_shuffle",
    "permutation_relation",
    "permutation_unitary",
    "bend",
    "unbend",
    "sasaki",
    "trace_pred",
    "delta_bruteforce",
    "weaver_to_blocks",
    "weaver_to_global",
]

_SEP = "⊗"  # atom label separator for product atoms

# construction memos keyed on provenance-aware identities
_PRODUCT_MEMO: dict = {}
_DUAL_MEMO: dict = {}


@dataclass(frozen=True)
class Atom:
    """One Hilbert-space component of a quantum set.

    ``dual_depth`` parity records whether the atom denotes the primal or the
    dual space; the dual of a dual is the original atom.
    """

    label: str
    dim: int
    dual_depth: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ZeroDimension(f"atom {self.label!r} must have dimension >= 1")

    @property
    def name(self) -> str:
        return self.label + "*" * (self.dual_depth % 2)

    def dual(self) -> "Atom":
        depth = self.dual_depth - 1 if self.dual_depth > 0 else 1
        return Atom(self.label, self.dim, depth)


class QuantumSet:
    """An ordered finite list of atoms with a structural provenance tag.

    Equality and hashing ignore provenance (two sorts agree when their atom
    lists agree); ``_fkey`` is the provenance-aware identity used only for
    construction memoization.
    """

    __slots__ = ("atoms", "provenance", "_key", "_fkey")

    def __init__(self, atoms: Sequence[Atom], provenance: tuple = ("opaque",)):
        atoms = tuple(atoms)
        names = [a.name for a in atoms]
        if len(set(names)) != len(names):
            raise DuplicateLabel(f"duplicate atom labels in {names}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "provenance", provenance)
        key = tuple((a.label, a.dim, a.dual_depth % 2) for a in atoms)
        object.__setattr__(self, "_key", key)
        kind = provenance[0]
        if kind in ("product", "dual"):
            fkey = (kind,) + tuple(p._fkey for p in provenance[1:])
        else:
            fkey = (kind, key)
        object.__setattr__(self, "_fkey", fkey)

    def __setattr__(self, *args):  # immutable
        raise AttributeError("QuantumSet is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, QuantumSet) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(a.dim for a in self.atoms)

    @property
    def is_unit(self) -> bool:
        return self.provenance[0] == "unit"

    @property
    def is_empty(self) -> bool:
        return len(self.atoms) == 0

    @property
    def is_classical(self) -> bool:
        return all(a.dim == 1 for a in self.atoms)

    def labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.atoms)

    def dual(self) -> "QuantumSet":
        kind = self.provenance[0]
        if kind == "dual":
            return self.provenance[1]
        if kind == "unit":
            return self
        memo = _DUAL_MEMO.get(self._fkey)
        if memo is not None:
            return memo
        if kind == "product":
            out = product(self.provenance[1].dual(), self.provenance[2].dual())
        else:
            out = QuantumSet(tuple(a.dual() for a in self.atoms), ("dual", self))
        _DUAL_MEMO[self._fkey] = out
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return "QuantumSet[" + ", ".join(f"{a.name}:{a.dim}" for a in self.atoms) + "]"


_UNIT = QuantumSet((Atom("1", 1),), ("unit",))


def unit() -> QuantumSet:
    """The one-atom, one-dimensional quantum set (monoidal unit)."""
    return _UNIT


def empty() -> QuantumSet:
    """The quantum set with no atoms."""
    return QuantumSet((), ("classical", ()))


def classical(labels: Iterable[str]) -> QuantumSet:
    """The classical quantum set of an ordinary set: one dim-1 atom per label."""
    labels = tuple(labels)
    return QuantumSet(tuple(Atom(lbl, 1) for lbl in labels), ("classical", labels))


def atoms(dims: Sequence[int], labels: Sequence[str] | None = None) -> QuantumSet:
    """A quantum set with the given atom dimensions."""
    if labels is None:
        labels = [f"a{i}" for i in range(len(dims))]
    if len(labels) != len(dims):
        raise DuplicateLabel("labels and dims must have equal length")
    return QuantumSet(tuple(Atom(l, d) for l, d in zip(labels, dims)))


def product(x: QuantumSet, y: QuantumSet) -> QuantumSet:
    """Cartesian product; pairs enumerated left-factor-major.

    The unit set is absorbed on either side, which keeps flat atom indices
    identical to the mixed-radix enumeration over factors.
    """
    if x.is_unit:
        return y
    if y.is_unit:
        return x
    memo = _PRODUCT_MEMO.get((x._fkey, y._fkey))
    if memo is not None:
        return memo
    prod_atoms = tuple(
        Atom(f"{a.name}{_SEP}{b.name}", a.dim * b.dim)
        for a in x.atoms
        for b in y.atoms
    )
    out = QuantumSet(prod_atoms, ("product", x, y))
    _PRODUCT_MEMO[(x._fkey, y._fkey)] = out
    return out


def product_all(sorts: Sequence[QuantumSet]) -> QuantumSet:
    """Left-associated product of a list of sorts (unit for the empty list)."""
    return reduce(product, sorts, unit())


def dual(x: QuantumSet) -> QuantumSet:
    return x.dual()


def factors(x: QuantumSet) -> list[QuantumSet]:
    """The factors of a left-associated product, left to right: ``[]`` for
    the unit set and ``[x]`` for a set that is not a product."""
    if x.is_unit:
        return []
    if x.provenance[0] == "product":
        return factors(x.provenance[1]) + [x.provenance[2]]
    return [x]


def _flat_index(radices: Sequence[int], idx: Sequence[int]) -> int:
    """Flat index of the atom tuple ``idx`` in a product whose factors have
    ``radices`` atoms (the layout of the module docstring)."""
    flat = 0
    for r, i in zip(radices, idx):
        flat = flat * r + i
    return flat


def _atom_tuple(radices: Sequence[int], flat: int) -> tuple[int, ...]:
    """Inverse of :func:`_flat_index`."""
    idx = []
    for r in reversed(radices):
        flat, i = divmod(flat, r)
        idx.append(i)
    return tuple(reversed(idx))


def atom_tuples(sorts: Sequence[QuantumSet]):
    """Yield (flat_index, index_tuple, dim_tuple) over the product of sorts,
    in flat-index order."""
    ranges = [range(len(s.atoms)) for s in sorts]
    for flat, idx in enumerate(itertools.product(*ranges)):
        yield flat, idx, tuple(s.atoms[i].dim for s, i in zip(sorts, idx))


class Relation:
    """A block-indexed family of operator subspaces between two quantum sets.

    ``blocks[(i, j)]`` is a subspace of L(X_i, Y_j), stored as matrices of
    shape (dim Y_j, dim X_i); absent entries are zero.  Relations are
    immutable; equality is blockwise projector distance.
    """

    __slots__ = ("domain", "codomain", "blocks", "origin")

    def __init__(
        self,
        domain: QuantumSet,
        codomain: QuantumSet,
        blocks: dict[tuple[int, int], Subspace],
        origin: tuple | None = None,
    ):
        clean = {}
        for (i, j), block in blocks.items():
            if not (0 <= i < len(domain.atoms) and 0 <= j < len(codomain.atoms)):
                raise SortMismatch(f"block index {(i, j)} out of range")
            expected = (codomain.atoms[j].dim, domain.atoms[i].dim)
            if block.shape != expected:
                raise ShapeMismatch(
                    f"block {(i, j)} has ambient {block.shape}, expected {expected}"
                )
            if block.rank > 0:
                clean[(i, j)] = block
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "blocks", clean)
        object.__setattr__(self, "origin", origin)

    def __setattr__(self, *args):
        raise AttributeError("Relation is immutable")

    def block(self, i: int, j: int) -> Subspace:
        expected = (self.codomain.atoms[j].dim, self.domain.atoms[i].dim)
        return self.blocks.get((i, j), sp.zero(expected))

    def block_ranks(self) -> dict[tuple[int, int], int]:
        return {key: blk.rank for key, blk in sorted(self.blocks.items())}

    def with_origin(self, origin: tuple) -> "Relation":
        return Relation(self.domain, self.codomain, dict(self.blocks), origin)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Relation({self.domain!r} -> {self.codomain!r}, "
            f"{len(self.blocks)} nonzero blocks)"
        )


def _check_parallel(r: Relation, s: Relation) -> None:
    if r.domain != s.domain or r.codomain != s.codomain:
        raise SortMismatch("relations are not parallel")


def top(x: QuantumSet, y: QuantumSet) -> Relation:
    blocks = {
        (i, j): sp.full((b.dim, a.dim))
        for i, a in enumerate(x.atoms)
        for j, b in enumerate(y.atoms)
    }
    return Relation(x, y, blocks)


def bottom(x: QuantumSet, y: QuantumSet) -> Relation:
    return Relation(x, y, {})


def identity(x: QuantumSet) -> Relation:
    blocks = {
        (i, i): sp.span([np.eye(a.dim, dtype=complex)], (a.dim, a.dim))
        for i, a in enumerate(x.atoms)
    }
    return Relation(x, x, blocks)


def top_pred(x: QuantumSet) -> Relation:
    """The maximum predicate on x (relation into the unit set)."""
    return top(x, unit())


_ONE = sp.span([np.ones((1, 1), dtype=complex)], (1, 1))


def classical_relation(
    dom_sorts: Sequence[QuantumSet],
    cod_sorts: Sequence[QuantumSet],
    pairs: Iterable[tuple[tuple[str, ...], tuple[str, ...]]],
    name: str | None = None,
) -> Relation:
    """The lift of a classical relation from ``product_all(dom_sorts)`` to
    ``product_all(cod_sorts)``: a rank-one 1x1 block at the atoms named by
    each (domain label tuple, codomain label tuple) pair.

    Predicates pass no codomain sorts and pair each domain tuple with ``()``.
    The origin is ``("classical", name, frozenset(pairs))``, which the
    brute-force evaluator reads.  A label tuple of the wrong length or with
    an unknown label raises :class:`UnknownLabel`, worded as ``qrel check``
    reports it for ``tuples``, ``map`` and ``const`` declarations; an atom
    named by a pair that is not one-dimensional raises :class:`ShapeMismatch`.
    """
    pairs = list(pairs)

    def flat(sorts, tup, arity_msg, unknown=None):
        if len(tup) != len(sorts):
            raise UnknownLabel(arity_msg)
        idx = []
        for s, e in zip(sorts, tup):
            labels = s.labels()
            if e not in labels:
                raise UnknownLabel(f"{unknown} {e!r}" if unknown else arity_msg)
            idx.append(labels.index(e))
        return _flat_index([len(s.atoms) for s in sorts], idx)

    blocks = {}
    for dom_tup, cod_tup in pairs:
        j = flat(
            cod_sorts, cod_tup, f"value {cod_tup} does not match the codomain",
            "unknown codomain element" if dom_sorts else "unknown element",
        )
        if cod_sorts:
            i = flat(
                dom_sorts, dom_tup,
                f"map tuple {dom_tup} does not match the domain product",
                "unknown element",
            )
        else:
            i = flat(dom_sorts, dom_tup, f"tuple {dom_tup} does not match the arity")
        blocks[(i, j)] = _ONE
    return Relation(
        product_all(dom_sorts), product_all(cod_sorts), blocks,
        origin=("classical", name, frozenset(pairs)),
    )


def constants(kind: str, x: QuantumSet, y: QuantumSet | None = None) -> Relation:
    """Dispatcher for the constant relations top, bottom, and identity."""
    if kind == "top":
        return top(x, y if y is not None else x)
    if kind == "bottom":
        return bottom(x, y if y is not None else x)
    if kind == "identity":
        if y is not None and y != x:
            raise SortMismatch("identity requires equal domain and codomain")
        return identity(x)
    raise ValueError(f"unknown constant kind {kind!r}")


def equality(x: QuantumSet) -> Relation:
    """The equality relation on x: arity (x, x*), spanned by evaluation.

    The block at the pair atom X_i (x) X_i* is the span of the functional
    sending e_a (x) e_b* to delta_ab; cross blocks vanish.
    """
    xd = x.dual()
    dom = product(x, xd)
    radices = (len(x.atoms), len(xd.atoms))
    blocks = {}
    for i, a in enumerate(x.atoms):
        d = a.dim
        eps = np.eye(d, dtype=complex).reshape(1, d * d)
        blocks[(_flat_index(radices, (i, i)), 0)] = sp.span([eps], (1, d * d))
    return Relation(dom, unit(), blocks, origin=("equality", x))


def compose(s: Relation, r: Relation) -> Relation:
    """Relational composition s after r (domains chain through the middle)."""
    if s.domain != r.codomain:
        raise SortMismatch("compose: inner sorts do not match")
    mats: dict[tuple[int, int], list] = {}
    by_mid: dict[int, list[tuple[int, Subspace]]] = {}
    for (j, k), blk in s.blocks.items():
        by_mid.setdefault(j, []).append((k, blk))
    for (i, j), rblk in r.blocks.items():
        for k, sblk in by_mid.get(j, ()):
            prods = np.einsum("aij,bjk->abik", sblk.basis, rblk.basis)
            mats.setdefault((i, k), []).append(
                prods.reshape(-1, sblk.rows, rblk.cols)
            )
    blocks = {}
    for (i, k), pieces in mats.items():
        shape = (s.codomain.atoms[k].dim, r.domain.atoms[i].dim)
        blocks[(i, k)] = sp.span(np.concatenate(pieces, axis=0), shape)
    return Relation(r.domain, s.codomain, blocks)


def dagger(r: Relation) -> Relation:
    blocks = {
        (j, i): sp.star_image(blk, "dagger") for (i, j), blk in r.blocks.items()
    }
    return Relation(r.codomain, r.domain, blocks)


def conjugate(r: Relation) -> Relation:
    """The conjugate relation, from dual domain to dual codomain.

    In dual-basis coordinates the conjugate of a block is its entrywise
    complex conjugate, so block shapes are unchanged.
    """
    blocks = {
        (i, j): sp.star_image(blk, "conjugate") for (i, j), blk in r.blocks.items()
    }
    origin = ("conjugate", r.origin) if r.origin is not None else None
    return Relation(r.domain.dual(), r.codomain.dual(), blocks, origin)


def transpose(r: Relation) -> Relation:
    """The transpose relation, from dual codomain to dual domain."""
    blocks = {
        (j, i): sp.star_image(blk, "transpose") for (i, j), blk in r.blocks.items()
    }
    return Relation(r.codomain.dual(), r.domain.dual(), blocks)


def star(r: Relation, mode: str) -> Relation:
    if mode == "dagger":
        return dagger(r)
    if mode == "conjugate":
        return conjugate(r)
    if mode == "transpose":
        return transpose(r)
    raise ValueError(f"unknown star mode {mode!r}")


def cross(r: Relation, s: Relation) -> Relation:
    """Monoidal product: blockwise Kronecker products, left factor major."""
    dom = product(r.domain, s.domain)
    cod = product(r.codomain, s.codomain)
    dom_radices = (len(r.domain.atoms), len(s.domain.atoms))
    cod_radices = (len(r.codomain.atoms), len(s.codomain.atoms))
    blocks = {}
    for (i1, j1), b1 in r.blocks.items():
        for (i2, j2), b2 in s.blocks.items():
            key = (
                _flat_index(dom_radices, (i1, i2)),
                _flat_index(cod_radices, (j1, j2)),
            )
            blocks[key] = sp.tensor(b1, b2)
    return Relation(dom, cod, blocks)


def cross_all(rels: Sequence[Relation]) -> Relation:
    if not rels:
        return identity(unit())
    return reduce(cross, rels)


def neg(r: Relation) -> Relation:
    blocks = {}
    for i, a in enumerate(r.domain.atoms):
        for j, b in enumerate(r.codomain.atoms):
            blocks[(i, j)] = sp.complement(r.block(i, j))
    return Relation(r.domain, r.codomain, blocks)


def meet(r: Relation, s: Relation) -> Relation:
    _check_parallel(r, s)
    blocks = {}
    for key in set(r.blocks) & set(s.blocks):
        blocks[key] = sp.meet(r.blocks[key], s.blocks[key])
    return Relation(r.domain, r.codomain, blocks)


def join(r: Relation, s: Relation) -> Relation:
    _check_parallel(r, s)
    blocks = dict(r.blocks)
    for key, blk in s.blocks.items():
        blocks[key] = sp.join(blocks[key], blk) if key in blocks else blk
    return Relation(r.domain, r.codomain, blocks)


def leq(r: Relation, s: Relation, tol: float | None = None) -> bool:
    return leq_margin(r, s, tol)[0]


def leq_margin(
    r: Relation, s: Relation, tol: float | None = None
) -> tuple[bool, float]:
    """Blockwise inclusion check plus the worst projector-distance margin."""
    _check_parallel(r, s)
    tol = config.tolerance() if tol is None else tol
    worst = 0.0
    for key, blk in r.blocks.items():
        c = sp.compare(blk, s.block(*key), tol)
        worst = max(worst, c.margins["leq"])
    return worst <= tol, worst


def perp(r: Relation, s: Relation, tol: float | None = None) -> bool:
    _check_parallel(r, s)
    tol = config.tolerance() if tol is None else tol
    for key, blk in r.blocks.items():
        if key in s.blocks and not sp.compare(blk, s.blocks[key], tol).orthogonal:
            return False
    return True


def rel_equal(r: Relation, s: Relation, tol: float | None = None) -> bool:
    a, _ = leq_margin(r, s, tol)
    b, _ = leq_margin(s, r, tol)
    return a and b


def lattice(op: str, *rs: Relation):
    """Dispatcher for the blockwise lattice structure on parallel relations."""
    if op == "neg":
        (r,) = rs
        return neg(r)
    if op == "meet":
        return reduce(meet, rs)
    if op == "join":
        return reduce(join, rs)
    if op == "leq":
        a, b = rs
        return leq(a, b)
    if op == "perp":
        a, b = rs
        return perp(a, b)
    raise ValueError(f"unknown lattice op {op!r}")


def sasaki(p: Relation, q: Relation, op: str) -> Relation:
    """Sasaki arrow (not p or (p and q)) or Sasaki projection ((p or not q) and q)."""
    _check_parallel(p, q)
    if op == "arrow":
        return join(neg(p), meet(p, q))
    if op == "and":
        return meet(join(p, neg(q)), q)
    raise ValueError(f"unknown sasaki op {op!r}")


def permutation_unitary(dims: Sequence[int], pi: Sequence[int]) -> np.ndarray:
    """The unitary shuffling tensor factors: X_1 (x) ... (x) X_n to
    X_pi(1) (x) ... (x) X_pi(n)."""
    n = len(dims)
    total = 1
    for d in dims:
        total *= d
    u = np.eye(total, dtype=complex).reshape(*dims, *dims)
    # Output axes ordered by pi, input axes in original order.
    u = np.transpose(u, axes=[pi[k] for k in range(n)] + list(range(n, 2 * n)))
    return u.reshape(total, total)


def permute(r: Relation, pi: Sequence[int], sorts: Sequence[QuantumSet]) -> Relation:
    """Reindex an n-ary relation along a permutation of its sorts.

    ``r`` must have arity (sorts[pi[0]], ..., sorts[pi[n-1]]); the result has
    arity ``sorts``.  The block at an atom tuple is the source block at the
    permuted tuple composed with the tensor-factor shuffle unitary.
    """
    n = len(sorts)
    if sorted(pi) != list(range(n)):
        raise SortMismatch(f"invalid permutation {pi}")
    src_sorts = [sorts[pi[k]] for k in range(n)]
    if r.domain != product_all(src_sorts) or not r.codomain.is_unit:
        raise SortMismatch("relation arity does not match permuted sorts")
    radices = [len(s.atoms) for s in sorts]
    src_radices = [len(s.atoms) for s in src_sorts]
    inv = [pi.index(m) for m in range(n)]  # target position m reads source inv[m]
    axes = [0] + [1 + k for k in inv]
    blocks = {}
    for (src_flat, _j), blk in r.blocks.items():
        src_idx = _atom_tuple(src_radices, src_flat)
        src_dims = [s.atoms[i].dim for s, i in zip(src_sorts, src_idx)]
        # The factor shuffle permutes coordinates, so basis rows stay orthonormal.
        rows = np.transpose(blk.basis.reshape(blk.rank, *src_dims), axes)
        d = r.domain.atoms[src_flat].dim
        tgt_flat = _flat_index(radices, [src_idx[k] for k in inv])
        blocks[(tgt_flat, 0)] = Subspace(1, d, rows.reshape(blk.rank, 1, d))
    return Relation(product_all(sorts), unit(), blocks)


def canonical_shuffle(sorts: Sequence[QuantumSet], pi: Sequence[int]) -> Relation:
    """The canonical isomorphism prod(sorts) -> prod(sorts[pi[k]]) built
    directly: rank-one blocks spanned by the factor-shuffle unitary at
    matching atom tuples.  Coherence makes it equal to any braiding
    composite with the same type (see :func:`permutation_relation`)."""
    n = len(sorts)
    if sorted(pi) != list(range(n)):
        raise SortMismatch(f"invalid permutation {pi}")
    dom = product_all(sorts)
    tgt_sorts = [sorts[pi[k]] for k in range(n)]
    cod = product_all(tgt_sorts)
    tgt_radices = [len(s.atoms) for s in tgt_sorts]
    blocks = {}
    for flat, idx, dims in atom_tuples(sorts):
        tgt_idx = [idx[pi[k]] for k in range(n)]
        u = permutation_unitary(dims, list(pi))
        d = u.shape[0]
        blocks[(flat, _flat_index(tgt_radices, tgt_idx))] = sp.span([u], (d, d))
    return Relation(dom, cod, blocks)


def braiding(x: QuantumSet, y: QuantumSet) -> Relation:
    """The symmetry x (x) y -> y (x) x, blockwise spanned by factor swaps."""
    dom = product(x, y)
    cod = product(y, x)
    blocks = {}
    for i, a in enumerate(x.atoms):
        for j, b in enumerate(y.atoms):
            swap = permutation_unitary([a.dim, b.dim], [1, 0])
            key = (
                _flat_index((len(x.atoms), len(y.atoms)), (i, j)),
                _flat_index((len(y.atoms), len(x.atoms)), (j, i)),
            )
            blocks[key] = sp.span([swap], (a.dim * b.dim, a.dim * b.dim))
    return Relation(dom, cod, blocks)


def permutation_relation(sorts: Sequence[QuantumSet], pi: Sequence[int]) -> Relation:
    """The canonical isomorphism prod(sorts) -> prod(sorts[pi[k]]) built by
    composing adjacent braidings (bubble-sort order)."""
    n = len(sorts)
    if sorted(pi) != list(range(n)):
        raise SortMismatch(f"invalid permutation {pi}")
    target = list(pi)
    current = list(range(n))
    rel = identity(product_all(sorts))
    pos = {v: k for k, v in enumerate(target)}
    while current != target:
        for m in range(n - 1):
            if pos[current[m]] > pos[current[m + 1]]:
                cur_sorts = [sorts[v] for v in current]
                pieces = (
                    [identity(product_all(cur_sorts[:m]))]
                    + [braiding(cur_sorts[m], cur_sorts[m + 1])]
                    + [identity(s) for s in cur_sorts[m + 2 :]]
                )
                rel = compose(cross_all(pieces), rel)
                current[m], current[m + 1] = current[m + 1], current[m]
                break
    return rel


def bend(f: Relation) -> Relation:
    """Turn a binary relation x -> y into its graph of arity (x, y*)."""
    ystar = f.codomain.dual()
    return compose(equality(f.codomain), cross(f, identity(ystar)))


def unbend(g: Relation) -> Relation:
    """Inverse of :func:`bend`; recovers a binary relation x -> y from an
    arity-(x, y*) relation."""
    if not g.codomain.is_unit:
        raise SortMismatch("unbend expects a relation into the unit set")
    dom = g.domain
    if dom.provenance[0] != "product":
        raise SortMismatch("unbend expects a relation on a product x * y-dual")
    x, ystar = dom.provenance[1], dom.provenance[2]
    y = ystar.dual()
    cup = transpose(equality(y))  # unit -> y* x y
    return compose(cross(g, identity(y)), cross(identity(x), cup))


def trace_pred(r: Relation) -> Relation:
    """Arity-() truth of the endo-relation trace: top iff r meets the identity."""
    if r.domain != r.codomain:
        raise SortMismatch("trace requires an endo relation")
    if perp(r, identity(r.domain)):
        return bottom(unit(), unit())
    return top(unit(), unit())


def _random_projection(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    cols = q[:, :rank]
    return cols @ cols.conj().T


def delta_bruteforce(
    x: QuantumSet,
    n_samples: int = 200,
    seed: int = 0,
    pair_with_dual: bool = True,
) -> Relation:
    """Largest relation orthogonal to every p (x) (1-p), found by sampling.

    With ``pair_with_dual`` the second tensor factor carries the transposed
    projection (the relation lives on x times x-dual); without it the
    relation lives on x times x.  Starting from the full space, the kernel of
    the constraint row-kills is intersected for every minimal central
    projection pair and for Haar-random projections of rank 1 and floor(d/2)
    per atom, until the total rank is stable for 10 consecutive samples.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    second = x.dual() if pair_with_dual else x
    dom = product(x, second)
    n = len(x.atoms)
    current: dict[tuple[int, int], np.ndarray] = {}
    for i, a in enumerate(x.atoms):
        for j, b in enumerate(second.atoms):
            current[(i, j)] = np.eye(a.dim * b.dim, dtype=complex)

    def cut(pfam: dict[int, np.ndarray]) -> None:
        # Constraint: zeta . (p_i (x) (1 - p_j)^T) = 0 blockwise.
        for (i, j), basis in current.items():
            if basis.shape[0] == 0:
                continue
            q = np.eye(x.atoms[j].dim, dtype=complex) - pfam[j]
            if pair_with_dual:
                q = q.T
            m = np.kron(pfam[i], q)
            sys = basis @ m
            # Coefficient rows c with c . sys = 0 keep c . basis in the kernel.
            current[(i, j)] = sp._kernel(sys.T) @ basis

    # Minimal central projections first: they zero the off-diagonal blocks.
    for c in range(n):
        cut({k: (np.eye(x.atoms[k].dim, dtype=complex) if k == c else
                 np.zeros((x.atoms[k].dim, x.atoms[k].dim), dtype=complex))
             for k in range(n)})
    stable = 0
    prev = sum(b.shape[0] for b in current.values())
    for _ in range(n_samples):
        for rank_of in (lambda d: 1, lambda d: max(1, d // 2)):
            cut({k: _random_projection(rng, x.atoms[k].dim, rank_of(x.atoms[k].dim))
                 for k in range(n)})
        total = sum(b.shape[0] for b in current.values())
        stable = stable + 1 if total == prev else 0
        prev = total
        if stable >= 10:
            break
    blocks = {}
    for (i, j), basis in current.items():
        d = x.atoms[i].dim * second.atoms[j].dim
        flat = _flat_index((n, len(second.atoms)), (i, j))
        blocks[(flat, 0)] = sp.span(basis.reshape(-1, 1, d), (1, d))
    return Relation(dom, unit(), blocks)


def _inclusion_offsets(x: QuantumSet) -> list[int]:
    offs = [0]
    for a in x.atoms:
        offs.append(offs[-1] + a.dim)
    return offs


def weaver_to_blocks(
    v: Subspace, x: QuantumSet, y: QuantumSet, check: bool = True
) -> Relation:
    """Cut a global operator subspace into corner blocks.

    ``v`` lives in L(sum of x atoms, sum of y atoms) and must satisfy the
    bimodule condition for the block-diagonal commutants: compressing any
    basis element to a corner must stay inside ``v``.  With ``check=False``
    the corners are extracted without validating that condition.
    """
    xoff, yoff = _inclusion_offsets(x), _inclusion_offsets(y)
    if v.shape != (yoff[-1], xoff[-1]):
        raise ShapeMismatch(
            f"global ambient {v.shape} does not match atom totals "
            f"({yoff[-1]}, {xoff[-1]})"
        )
    tol = config.tolerance()
    blocks: dict[tuple[int, int], list[np.ndarray]] = {}
    for b in v.basis:
        for i in range(len(x.atoms)):
            for j in range(len(y.atoms)):
                corner = np.zeros_like(b)
                corner[yoff[j] : yoff[j + 1], xoff[i] : xoff[i + 1]] = b[
                    yoff[j] : yoff[j + 1], xoff[i] : xoff[i + 1]
                ]
                if check and np.linalg.norm(corner) > tol and not v.contains(corner):
                    raise NotAQuantumRelation(
                        "corner compression leaves the subspace; the bimodule "
                        "condition fails"
                    )
                blocks.setdefault((i, j), []).append(
                    b[yoff[j] : yoff[j + 1], xoff[i] : xoff[i + 1]]
                )
    out = {}
    for (i, j), mats in blocks.items():
        shape = (y.atoms[j].dim, x.atoms[i].dim)
        out[(i, j)] = sp.span(mats, shape)
    return Relation(x, y, out)


def weaver_to_global(r: Relation) -> Subspace:
    """Embed the blocks of a relation as corners of one global subspace."""
    xoff, yoff = _inclusion_offsets(r.domain), _inclusion_offsets(r.codomain)
    shape = (yoff[-1], xoff[-1])
    mats = []
    for (i, j), blk in r.blocks.items():
        for b in blk.basis:
            m = np.zeros(shape, dtype=complex)
            m[yoff[j] : yoff[j + 1], xoff[i] : xoff[i + 1]] = b
            mats.append(m)
    return sp.span(mats, shape)
