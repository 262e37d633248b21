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
``⊗``, which no declared atom label may contain.  This module alone computes
that layout: :func:`atom_tuples` enumerates it, and
:func:`classical_relation` turns a set of classical label tuples into the
lifted relation with a rank-one 1x1 block at each tuple.  A product set keeps
only its two factors and its atom dimensions; its atoms and labels are built
when first read, and it compares by its factors.
"""

from __future__ import annotations

import itertools
import math
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
    "equality",
    "compose",
    "dagger",
    "conjugate",
    "transpose",
    "cross",
    "cross_all",
    "neg",
    "not_implies",
    "meet",
    "join",
    "leq",
    "perp",
    "perp_margin",
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

    ``provenance`` is ``("atoms",)``, ``("unit",)`` or ``("product", x, y)``.
    A product keeps only its factors and its ``dims``: its atoms are built
    when first read, and its dual is the product of its factors' duals.  Any
    other set builds its dual once, and the two keep each other.  Equality
    and hashing compare keys: a set's key holds the list of its atoms'
    labels, dimensions and dual parities, a product's key concatenates the
    keys of its factors, and the key of any set without atoms is empty.
    """

    __slots__ = ("provenance", "dims", "_key", "_atoms", "_dual")

    def __init__(self, atoms: Sequence[Atom], provenance: tuple = ("atoms",)):
        atoms = tuple(atoms)
        names = [a.name for a in atoms]
        if len(set(names)) != len(names):
            raise DuplicateLabel(f"duplicate atom labels in {names}")
        reserved = [a.label for a in atoms if _SEP in a.label]
        if reserved:
            raise DuplicateLabel(f"atom labels may not contain {_SEP!r}: {reserved}")
        key = tuple((a.label, a.dim, a.dual_depth % 2) for a in atoms)
        dims = tuple(a.dim for a in atoms)
        self._set(provenance, dims, (key,) if key else (), atoms)

    def _set(self, provenance: tuple, dims: tuple, key: tuple, atoms) -> None:
        for slot, value in zip(self.__slots__, (provenance, dims, key, atoms, None)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, *args):  # immutable
        raise AttributeError("QuantumSet is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, QuantumSet) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __len__(self) -> int:
        return len(self.dims)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        if self._atoms is None:
            x, y = self.provenance[1:]
            object.__setattr__(self, "_atoms", tuple(
                Atom(f"{a.name}{_SEP}{b.name}", a.dim * b.dim)
                for a in x.atoms
                for b in y.atoms
            ))
        return self._atoms

    @property
    def is_unit(self) -> bool:
        return self.provenance[0] == "unit"

    @property
    def is_empty(self) -> bool:
        return not self.dims

    @property
    def is_classical(self) -> bool:
        return all(d == 1 for d in self.dims)

    def is_product_of(self, sorts: Sequence["QuantumSet"]) -> bool:
        """``self == product_all(sorts)``, decided on keys without building it."""
        keys = [s._key for s in sorts if not s.is_unit] or [_UNIT._key]
        return self._key == (sum(keys, ()) if all(keys) else ())

    def labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.atoms)

    def dual(self) -> "QuantumSet":
        kind = self.provenance[0]
        if kind == "unit":
            return self
        if kind == "product":
            return product(self.provenance[1].dual(), self.provenance[2].dual())
        if self._dual is None:
            out = QuantumSet(tuple(a.dual() for a in self.atoms))
            object.__setattr__(out, "_dual", self)
            object.__setattr__(self, "_dual", out)
        return self._dual

    def __repr__(self) -> str:  # pragma: no cover
        return "QuantumSet[" + ", ".join(f"{a.name}:{a.dim}" for a in self.atoms) + "]"


_UNIT = QuantumSet((Atom("1", 1),), ("unit",))


def unit() -> QuantumSet:
    """The one-atom, one-dimensional quantum set (monoidal unit)."""
    return _UNIT


def empty() -> QuantumSet:
    """The quantum set with no atoms."""
    return QuantumSet(())


def classical(labels: Iterable[str]) -> QuantumSet:
    """The classical quantum set of an ordinary set: one dim-1 atom per label."""
    return QuantumSet(tuple(Atom(lbl, 1) for lbl in labels))


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
    dims = tuple([a * b for a in x.dims for b in y.dims])
    out = object.__new__(QuantumSet)
    out._set(("product", x, y), dims, x._key + y._key if dims else (), None)
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
    for flat, idx in enumerate(itertools.product(*(range(len(s)) for s in sorts))):
        yield flat, idx, tuple(s.dims[i] for s, i in zip(sorts, idx))


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
        rows, cols = codomain.dims, domain.dims
        for (i, j), block in blocks.items():
            if not (0 <= i < len(cols) and 0 <= j < len(rows)):
                raise SortMismatch(f"block index {(i, j)} out of range")
            expected = (rows[j], cols[i])
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
        blk = self.blocks.get((i, j))
        return sp.zero((self.codomain.dims[j], self.domain.dims[i])) if blk is None else blk

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
        (i, j): sp.full((dy, dx))
        for i, dx in enumerate(x.dims)
        for j, dy in enumerate(y.dims)
    }
    return Relation(x, y, blocks)


def bottom(x: QuantumSet, y: QuantumSet) -> Relation:
    return Relation(x, y, {})


def identity(x: QuantumSet) -> Relation:
    blocks = {
        (i, i): sp.span([np.eye(d, dtype=complex)], (d, d))
        for i, d in enumerate(x.dims)
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
        return _flat_index([len(s) for s in sorts], idx)

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


def equality(x: QuantumSet) -> Relation:
    """The equality relation on x: arity (x, x*), spanned by evaluation.

    The block at the pair atom X_i (x) X_i* is the span of the functional
    sending e_a (x) e_b* to delta_ab; cross blocks vanish.
    """
    xd = x.dual()
    dom = product(x, xd)
    radices = (len(x), len(xd))
    blocks = {}
    for i, d in enumerate(x.dims):
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
        shape = (s.codomain.dims[k], r.domain.dims[i])
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


def cross(r: Relation, s: Relation) -> Relation:
    """Monoidal product: blockwise Kronecker products, left factor major."""
    dom = product(r.domain, s.domain)
    cod = product(r.codomain, s.codomain)
    dom_radices = (len(r.domain), len(s.domain))
    cod_radices = (len(r.codomain), len(s.codomain))
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
    for i in range(len(r.domain)):
        for j in range(len(r.codomain)):
            blocks[(i, j)] = sp.complement(r.block(i, j))
    return Relation(r.domain, r.codomain, blocks)


def _where_both(r: Relation, s: Relation, op) -> Relation:
    """``op`` of the two blocks at each atom pair where both are nonzero."""
    _check_parallel(r, s)
    keys = set(r.blocks) & set(s.blocks)
    return Relation(r.domain, r.codomain, {k: op(r.blocks[k], s.blocks[k]) for k in keys})


def meet(r: Relation, s: Relation) -> Relation:
    return _where_both(r, s, sp.meet)


def join(r: Relation, s: Relation) -> Relation:
    _check_parallel(r, s)
    blocks = dict(r.blocks)
    for key, blk in s.blocks.items():
        blocks[key] = sp.join(blocks[key], blk) if key in blocks else blk
    return Relation(r.domain, r.codomain, blocks)


def leq(r: Relation, s: Relation) -> bool:
    return leq_margin(r, s)[0]


def leq_margin(r: Relation, s: Relation) -> tuple[bool, float]:
    """Blockwise inclusion check plus the worst projector-distance margin."""
    _check_parallel(r, s)
    worst = 0.0
    for key, blk in r.blocks.items():
        c = sp.compare(blk, s.block(*key))
        worst = max(worst, c.margins["leq"])
    return worst <= config.tolerance(), worst


def perp(r: Relation, s: Relation) -> bool:
    return perp_margin(r, s)[0]


def perp_margin(r: Relation, s: Relation) -> tuple[bool, float]:
    """Blockwise orthogonality check plus the worst projector-overlap margin."""
    _check_parallel(r, s)
    worst = 0.0
    for key, blk in r.blocks.items():
        if key in s.blocks:
            c = sp.compare(blk, s.blocks[key])
            worst = max(worst, c.margins["orthogonal"])
    return worst <= config.tolerance(), worst


def rel_equal(r: Relation, s: Relation) -> bool:
    return leq(r, s) and leq(s, r)


def not_implies(p: Relation, q: Relation) -> Relation:
    """The negated Sasaki arrow p and not (p and q), blockwise."""
    _check_parallel(p, q)
    blocks = dict(p.blocks)  # where q is zero, all of p
    for key in blocks.keys() & q.blocks.keys():
        blocks[key] = sp.not_implies(blocks[key], q.blocks[key])
    return Relation(p.domain, p.codomain, blocks)


def sasaki(p: Relation, q: Relation, op: str) -> Relation:
    """Sasaki arrow (not p or (p and q)) or Sasaki projection ((p or not q) and q)."""
    if op == "arrow":
        return neg(not_implies(p, q))
    if op == "and":
        return _where_both(p, q, sp.sasaki_projection)
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
    """Widen and reindex a relation to the product of ``sorts``.

    ``pi`` lists distinct positions of ``sorts``; ``r`` has domain
    sorts[pi[0]] x ... x sorts[pi[k-1]] and any codomain.  The result has
    domain prod(sorts) and the same codomain, and pads the positions left
    out of ``pi`` with top: each source block is tensored with the unit rows
    of every padded atom tuple, and the factors are shuffled into ``sorts``
    order.  Blocks come out source block by source block, and under each in
    padded atom tuple order, as crossing with top and then permuting would
    give them.
    """
    n = len(sorts)
    pi = list(pi)
    if len(set(pi)) != len(pi) or not all(0 <= p < n for p in pi):
        raise SortMismatch(f"invalid positions {pi} of {n} sorts")
    src_sorts = [sorts[p] for p in pi]
    if not r.domain.is_product_of(src_sorts):
        raise SortMismatch("relation arity does not match permuted sorts")
    pad = [m for m in range(n) if m not in pi]
    order = pi + pad  # column factor k of a padded block lies in sorts[order[k]]
    inv = [order.index(m) for m in range(n)]
    axes = [0, 1] + [2 + k for k in inv]
    radices = [len(s) for s in sorts]
    src_radices = [len(s) for s in src_sorts]
    # (atom tuple, dims, unit rows) of each padded atom tuple
    pads = [
        (idx, dims, np.eye(math.prod(dims), dtype=complex))
        for _, idx, dims in atom_tuples([sorts[m] for m in pad])
    ]
    blocks = {}
    for (src_flat, j), blk in r.blocks.items():
        src_idx = _atom_tuple(src_radices, src_flat)
        src_dims = [s.dims[i] for s, i in zip(src_sorts, src_idx)]
        for pad_idx, pad_dims, unit_rows in pads:
            # Unit rows on the padded factors and a factor shuffle keep the
            # basis rows orthonormal.
            p = len(unit_rows)
            rows = blk.basis
            if pad:
                rows = np.einsum("aij,bk->abijk", rows, unit_rows)
            rows = rows.reshape(blk.rank * p, blk.rows, *src_dims, *pad_dims)
            idx = src_idx + pad_idx
            tgt_flat = _flat_index(radices, [idx[k] for k in inv])
            shape = (blk.rows, blk.cols * p)
            rows = np.transpose(rows, axes).reshape(-1, *shape)
            blocks[(tgt_flat, j)] = Subspace(*shape, rows)
    return Relation(product_all(sorts), r.codomain, blocks)


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
    tgt_radices = [len(s) for s in tgt_sorts]
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
    for i, dx in enumerate(x.dims):
        for j, dy in enumerate(y.dims):
            swap = permutation_unitary([dx, dy], [1, 0])
            key = (
                _flat_index((len(x), len(y)), (i, j)),
                _flat_index((len(y), len(x)), (j, i)),
            )
            blocks[key] = sp.span([swap], (dx * dy, dx * dy))
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
            current[(i, j)] = sp._split(sys.T)[1] @ basis

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
    return [0, *itertools.accumulate(x.dims)]


def weaver_to_blocks(v: Subspace, x: QuantumSet, y: QuantumSet) -> Relation:
    """Cut a global operator subspace into corner blocks.

    ``v`` lives in L(sum of x atoms, sum of y atoms) and must satisfy the
    bimodule condition for the block-diagonal commutants: compressing any
    basis element to a corner must stay inside ``v``.
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
        for i in range(len(x)):
            for j in range(len(y)):
                piece = b[yoff[j] : yoff[j + 1], xoff[i] : xoff[i + 1]]
                corner = np.zeros_like(b)
                corner[yoff[j] : yoff[j + 1], xoff[i] : xoff[i + 1]] = piece
                if np.linalg.norm(piece) > tol and not v.contains(corner):
                    raise NotAQuantumRelation(
                        "corner compression leaves the subspace; the bimodule "
                        "condition fails"
                    )
                blocks.setdefault((i, j), []).append(piece)
    out = {}
    for (i, j), mats in blocks.items():
        shape = (y.dims[j], x.dims[i])
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
