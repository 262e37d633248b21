"""Builders and oracles: classical lifts, brute-force first-order
evaluation, the qubit Hamming metric, dual-group comultiplications from
irreducible representation data, and seeded random instances."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import logic as lg
from . import qset as q
from . import subspace as sp
from .errors import BadParams, InvariantViolation, NonClassicalSort, TooLarge
from .qset import QuantumSet, Relation

__all__ = [
    "ClassicalStructure",
    "LiftedStructure",
    "IrrepData",
    "lift",
    "fol_eval",
    "quantum_hamming",
    "dual_group",
    "cyclic_group",
    "symmetric_group_s3_irreps",
    "cycle_graph",
    "complete_graph",
    "random_instance",
    "random_subspace",
    "random_projection",
    "random_endo_relation",
    "random_magic_unitary",
    "random_formula",
]


@dataclass(frozen=True)
class ClassicalStructure:
    """Finite many-sorted structure: named sets, relations, total functions."""

    sets: Mapping[str, tuple[str, ...]]
    relations: Mapping[str, tuple[tuple[str, ...], frozenset]] = field(
        default_factory=dict
    )
    functions: Mapping[str, tuple[tuple[str, ...], str, Mapping]] = field(
        default_factory=dict
    )

    def __post_init__(self):
        for name, (arity, tuples) in self.relations.items():
            for s in arity:
                if s not in self.sets:
                    raise InvariantViolation(f"relation {name}: unknown sort {s}")
            for tup in tuples:
                if len(tup) != len(arity) or any(
                    e not in self.sets[s] for e, s in zip(tup, arity)
                ):
                    raise InvariantViolation(f"relation {name}: bad tuple {tup}")
        for name, (arg_sorts, out_sort, mapping) in self.functions.items():
            domain = list(itertools.product(*(self.sets[s] for s in arg_sorts)))
            if set(mapping) != set(domain):
                raise InvariantViolation(f"function {name} is not total")
            if any(v not in self.sets[out_sort] for v in mapping.values()):
                raise InvariantViolation(f"function {name}: value out of range")


@dataclass(frozen=True)
class LiftedStructure:
    structure: ClassicalStructure
    sorts: dict[str, QuantumSet]
    relations: dict[str, Relation]
    functions: dict[str, Relation]


def lift(cs: ClassicalStructure) -> LiftedStructure:
    """Lift an ordinary structure: rank-one blocks exactly at its tuples."""
    sorts = {name: q.classical(labels) for name, labels in cs.sets.items()}
    rels = {
        name: q.classical_relation(
            [sorts[s] for s in arity], [], ((tup, ()) for tup in tuples), name
        )
        for name, (arity, tuples) in cs.relations.items()
    }
    fns = {
        name: q.classical_relation(
            [sorts[s] for s in arg_sorts],
            [sorts[out_sort]],
            ((tup, (val,)) for tup, val in mapping.items()),
            name,
        )
        for name, (arg_sorts, out_sort, mapping) in cs.functions.items()
    }
    return LiftedStructure(cs, sorts, rels, fns)


def _classical_universe(sort: QuantumSet) -> tuple[str, ...]:
    if not sort.is_classical:
        raise NonClassicalSort(f"sort {sort!r} has a higher-dimensional atom")
    return tuple(a.label for a in sort.atoms)


def _eval_term(t: lg.Term, env: dict[lg.Variable, str]) -> str:
    if isinstance(t, lg.Var):
        return env[t.var]
    origin = t.fn.origin
    while origin is not None and origin[0] == "conjugate":
        origin = origin[1]
    if origin is None or origin[0] != "classical":
        raise NonClassicalSort("term head is not a lifted classical function")
    (value,) = dict(origin[2])[tuple(_eval_term(a, env) for a in t.args)]
    return value


def fol_eval(lifted: LiftedStructure, f: lg.Formula) -> bool:
    """Brute-force Tarski evaluation of a sentence over lifted classical sorts.

    Diagonal quantifiers read as ordinary quantifiers with both variables
    bound to the same element.
    """
    return _fol(f, {}, lifted)


def _fol(f: lg.Formula, env: dict[lg.Variable, str], ls: LiftedStructure) -> bool:
    if isinstance(f, lg.Atomic):
        origin = f.rel.origin
        while origin is not None and origin[0] == "conjugate":
            origin = origin[1]
        if origin is None:
            raise NonClassicalSort("atomic relation is not classically tagged")
        if origin[0] == "equality":
            a, b = (_eval_term(t, env) for t in f.args)
            return a == b
        if origin[0] == "classical":
            vals = tuple(_eval_term(t, env) for t in f.args)
            return (vals, ()) in origin[2]
        if origin[0] == "top":
            return True
        if origin[0] == "bottom":
            return False
        raise NonClassicalSort(f"unknown relation origin {origin[0]!r}")
    if isinstance(f, lg.Not):
        return not _fol(f.body, env, ls)
    if isinstance(f, lg.And):
        return _fol(f.left, env, ls) and _fol(f.right, env, ls)
    if isinstance(f, lg.Or):
        return _fol(f.left, env, ls) or _fol(f.right, env, ls)
    if isinstance(f, lg.Implies):
        return (not _fol(f.left, env, ls)) or _fol(f.right, env, ls)
    if isinstance(f, lg.Iff):
        return _fol(f.left, env, ls) == _fol(f.right, env, ls)
    if isinstance(f, (lg.Forall, lg.Exists)):
        universe = _classical_universe(f.var.sort)
        results = (
            _fol(f.body, {**env, f.var: e}, ls) for e in universe
        )
        return all(results) if isinstance(f, lg.Forall) else any(results)
    if isinstance(f, (lg.ForallDiag, lg.ExistsDiag)):
        universe = _classical_universe(f.var.sort)
        results = (
            _fol(f.body, {**env, f.var: e, f.dual_var: e}, ls) for e in universe
        )
        return all(results) if isinstance(f, lg.ForallDiag) else any(results)
    raise TypeError(f"not a formula: {f!r}")


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def quantum_hamming(n: int):
    """Distance-k relations on n qubits: spans of weight-k Pauli strings."""
    from .structures import MetricFamily

    if not (1 <= n <= 4):
        raise TooLarge("quantum_hamming supports 1 <= n <= 4 qubits")
    base = q.atoms([2**n], [f"q{n}"])
    mats: dict[int, list[np.ndarray]] = {k: [] for k in range(n + 1)}
    for letters in itertools.product("IXYZ", repeat=n):
        weight = sum(1 for c in letters if c != "I")
        m = _PAULI[letters[0]]
        for c in letters[1:]:
            m = np.kron(m, _PAULI[c])
        mats[weight].append(m)
    relations = {}
    for k in range(n + 1):
        blocks = {(0, 0): sp.span(mats[k], (2**n, 2**n))}
        relations[float(k)] = Relation(base, base, blocks)
    return MetricFamily(base=base, values=tuple(float(k) for k in range(n + 1)),
                        relations=relations)


@dataclass(frozen=True)
class IrrepData:
    """Unitary irreducible representations of a finite group.

    ``matrices[r][g]`` is the image of ``elements[g]`` under irrep ``r``;
    multiplication is fixed by ``mult[g][h]`` = index of the product.
    """

    elements: tuple[str, ...]
    mult: tuple[tuple[int, ...], ...]
    irreps: tuple[tuple[np.ndarray, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def dims(self) -> tuple[int, ...]:
        return tuple(r[0].shape[0] for r in self.irreps)

    def validate(self, tol: float = 1e-8) -> None:
        n = self.order
        if sum(d * d for d in self.dims()) != n:
            raise InvariantViolation("squared irrep dimensions must sum to |G|")
        trivial = 0
        for mats in self.irreps:
            if len(mats) != n:
                raise InvariantViolation("each irrep needs one matrix per element")
            d = mats[0].shape[0]
            if any(m.shape != (d, d) for m in mats):
                raise InvariantViolation("irrep matrices must share a shape")
            # a unitary's entries have modulus at most 1; larger ones overflow m @ m*
            if any(not np.all(np.abs(m) <= 1 + tol)
                   or np.linalg.norm(m @ m.conj().T - np.eye(d)) > tol for m in mats):
                raise InvariantViolation("irrep matrices must be unitary")
            for g, mg in enumerate(mats):
                for h, mh in enumerate(mats):
                    if np.linalg.norm(mg @ mh - mats[self.mult[g][h]]) > tol:
                        raise InvariantViolation("irrep is not a homomorphism")
            if d == 1 and all(abs(m[0, 0] - 1) <= tol for m in mats):
                trivial += 1
        if trivial != 1:
            raise InvariantViolation("exactly one trivial irrep expected")


def dual_group(data: IrrepData) -> tuple[QuantumSet, Relation, Relation]:
    """Multiplication and unit of the dual of a finite group.

    One atom per irrep; the block of the multiplication from an atom pair
    (i, j) to atom k is the intertwiner space from the tensor product of
    irreps i and j to irrep k, computed by group averaging.  The unit picks
    out the trivial irrep.
    """
    data.validate()
    dims = data.dims()
    x = q.atoms(list(dims), [f"r{k}" for k in range(len(dims))])
    dom = q.product(x, x)
    n = data.order
    trivial_index = next(
        k
        for k, mats in enumerate(data.irreps)
        if mats[0].shape[0] == 1 and all(abs(m[0, 0] - 1) < 1e-8 for m in mats)
    )
    blocks = {}
    for flat, (i, j), (d_i, d_j) in q.atom_tuples([x, x]):
        d_in = d_i * d_j
        for k in range(len(dims)):
            # Average v -> rho_k(g) v (rho_i (x) rho_j)(g)^dagger over G.
            mats = []
            for e in np.eye(dims[k] * d_in, dtype=complex):
                v = e.reshape(dims[k], d_in)
                acc = np.zeros_like(v)
                for g in range(n):
                    rk = data.irreps[k][g]
                    rij = np.kron(data.irreps[i][g], data.irreps[j][g])
                    acc += rk @ v @ rij.conj().T
                mats.append(acc / n)
            blk = sp.span(mats, (dims[k], d_in))
            if blk.rank:
                blocks[(flat, k)] = blk
    f = Relation(dom, x, blocks)
    c = q.classical_relation([], [x], [((), (x.labels()[trivial_index],))])
    return x, f, c


def cyclic_group(n: int) -> IrrepData:
    """Irrep data of the cyclic group of order n (all characters)."""
    elements = tuple(f"g{k}" for k in range(n))
    mult = tuple(tuple((g + h) % n for h in range(n)) for g in range(n))
    irreps = tuple(
        tuple(
            np.array([[np.exp(2j * np.pi * r * g / n)]], dtype=complex)
            for g in range(n)
        )
        for r in range(n)
    )
    return IrrepData(elements, mult, irreps)


def symmetric_group_s3_irreps() -> IrrepData:
    """Irrep data of the symmetric group on three letters (dims 1, 1, 2)."""
    perms = [
        (0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2),
    ]

    def compose(p, r):  # (p o r)(i) = p[r[i]]
        return tuple(p[r[i]] for i in range(3))

    index = {p: k for k, p in enumerate(perms)}
    mult = tuple(
        tuple(index[compose(p, r)] for r in perms) for p in perms
    )

    def sign(p) -> float:
        s = 1.0
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    s = -s
        return s

    trivial = tuple(np.array([[1.0]], dtype=complex) for _ in perms)
    sgn = tuple(np.array([[sign(p)]], dtype=complex) for p in perms)
    # Standard 2-dim irrep: permutation action on the sum-zero plane of C^3,
    # expressed in an orthonormal basis of that plane.
    basis = np.array(
        [[1, -1, 0], [1, 1, -2]], dtype=complex
    )
    basis = np.array([b / np.linalg.norm(b) for b in basis])
    std = []
    for p in perms:
        perm_mat = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            perm_mat[p[i], i] = 1
        std.append(basis.conj() @ perm_mat @ basis.T)
    elements = tuple("".join(str(i) for i in p) for p in perms)
    return IrrepData(elements, mult, (trivial, sgn, tuple(std)))


def cycle_graph(n: int, reflexive: bool = False) -> tuple[tuple[str, ...], frozenset]:
    labels = tuple(f"v{k}" for k in range(n))
    edges = set()
    for k in range(n):
        edges.add((labels[k], labels[(k + 1) % n]))
        edges.add((labels[(k + 1) % n], labels[k]))
        if reflexive:
            edges.add((labels[k], labels[k]))
    return labels, frozenset(edges)


def complete_graph(n: int, reflexive: bool = False) -> tuple[tuple[str, ...], frozenset]:
    labels = tuple(f"v{k}" for k in range(n))
    edges = {
        (a, b) for a in labels for b in labels if a != b or reflexive
    }
    return labels, frozenset(edges)


def true_atomic() -> lg.Formula:
    """A closed atomic formula that always holds."""
    return lg.Atomic(q.top(q.unit(), q.unit()).with_origin(("top",)), ())


def false_atomic() -> lg.Formula:
    return lg.Atomic(q.bottom(q.unit(), q.unit()).with_origin(("bottom",)), ())


def random_subspace(
    shape: tuple[int, int], rank: int, seed: int
) -> sp.Subspace:
    rows, cols = shape
    if not (0 <= rank <= rows * cols):
        raise BadParams(f"rank {rank} out of range for ambient {shape}")
    rng = np.random.default_rng(seed)
    mats = [
        rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(rank)
    ]
    return sp.span(mats, shape)


def random_projection(dim: int, rank: int, seed: int) -> np.ndarray:
    if not (0 <= rank <= dim):
        raise BadParams(f"rank {rank} out of range for dimension {dim}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    qmat, _ = np.linalg.qr(g)
    cols = qmat[:, :rank]
    return cols @ cols.conj().T


def random_endo_relation(x: QuantumSet, seed: int, density: float = 0.7) -> Relation:
    if not (0.0 <= density <= 1.0):
        raise BadParams("density must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    blocks = {}
    for i, a in enumerate(x.atoms):
        for j, b in enumerate(x.atoms):
            if rng.random() > density:
                continue
            k = int(rng.integers(1, a.dim * b.dim + 1))
            blocks[(i, j)] = sp.span(
                [
                    rng.normal(size=(b.dim, a.dim))
                    + 1j * rng.normal(size=(b.dim, a.dim))
                    for _ in range(k)
                ],
                (b.dim, a.dim),
            )
    return Relation(x, x, blocks)


def random_magic_unitary(seed: int, n_labels: int = 2):
    """A projection family passing the magic-unitary checks by construction:
    a block-diagonal mix of a permutation family and the rotated 2x2 family."""
    from .structures import ProjectionFamily

    if n_labels < 2:
        raise BadParams("need at least two labels")
    rng = np.random.default_rng(seed)
    labels = tuple(f"l{k}" for k in range(n_labels))
    perm = rng.permutation(n_labels)
    blocks: dict[tuple[int, int], list[np.ndarray]] = {}
    # Permutation part: one dimension, entry 1 iff the permutation matches.
    perm_part = {
        (a, b): np.array([[1.0 + 0j]]) if perm[a] == b else np.zeros((1, 1), complex)
        for a in range(n_labels)
        for b in range(n_labels)
    }
    theta = rng.uniform(0.1, 1.4)
    c, s = np.cos(theta), np.sin(theta)
    p = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    rot_part = {}
    for a in range(n_labels):
        for b in range(n_labels):
            if a < 2 and b < 2:
                rot_part[(a, b)] = p if a == b else eye2 - p
            else:
                rot_part[(a, b)] = eye2 if (a == b and a >= 2) else np.zeros(
                    (2, 2), complex
                )
    projections = {}
    for a in range(n_labels):
        for b in range(n_labels):
            top_left = perm_part[(a, b)]
            bottom = rot_part[(a, b)]
            m = np.zeros((3, 3), dtype=complex)
            m[:1, :1] = top_left
            m[1:, 1:] = bottom
            projections[(labels[a], labels[b])] = m
    return ProjectionFamily(
        hilbert_dim=3, row_labels=labels, col_labels=labels, projections=projections
    )


def random_formula(
    lifted: LiftedStructure, depth: int, seed: int, max_quantified: int = 3
) -> lg.Formula:
    """A random nonduplicating sentence over a lifted classical structure.

    Quantification never ranges over an empty sort; generated sentences are
    closed and use the structure's relations, functions, and equality.
    """
    rng = np.random.default_rng(seed)
    sort_names = [n for n, labels in lifted.structure.sets.items() if labels]
    if not sort_names:
        raise BadParams("structure has no nonempty sorts")
    counter = itertools.count()

    def fresh(sort: QuantumSet, star: bool = False) -> lg.Variable:
        k = next(counter)
        return lg.Variable(f"v{k}" + ("s" if star else ""), sort)

    def make_term(sort_name: str, scope: list[lg.Variable], budget: int) -> lg.Term | None:
        sort = lifted.sorts[sort_name]
        candidates = [v for v in scope if v.sort == sort]
        fns = [
            (name, spec)
            for name, spec in lifted.structure.functions.items()
            if spec[1] == sort_name
        ]
        if budget > 0 and fns and rng.random() < 0.5:
            name, (arg_sorts, _out, _m) = fns[int(rng.integers(len(fns)))]
            args = []
            used: set[lg.Variable] = set()
            for s in arg_sorts:
                sub = make_term(
                    s, [v for v in scope if v not in used], budget - 1
                )
                if sub is None:
                    return None
                used |= set(lg.term_variables(sub))
                args.append(sub)
            return lg.App(lifted.functions[name], tuple(args))
        if candidates:
            return lg.Var(candidates[int(rng.integers(len(candidates)))])
        return None

    def make_atomic(scope: list[lg.Variable]) -> lg.Formula | None:
        options = list(lifted.structure.relations.items())
        options = [options[k] for k in rng.permutation(len(options))]
        for name, (arity, _tuples) in options:
            args = []
            used: set[lg.Variable] = set()
            ok = True
            for s in arity:
                t = make_term(s, [v for v in scope if v not in used], 1)
                if t is None:
                    ok = False
                    break
                used |= set(lg.term_variables(t))
                args.append(t)
            if ok:
                return lg.Atomic(lifted.relations[name], tuple(args))
        # Fall back to an equality atom between a term and a dual variable.
        duals = [v for v in scope if any(a.dual_depth % 2 for a in v.sort.atoms)]
        if duals:
            vd = duals[int(rng.integers(len(duals)))]
            base = vd.sort.dual()
            name = next(
                (n for n, s in lifted.sorts.items() if s == base), None
            )
            if name is not None:
                t = make_term(name, [v for v in scope if v != vd], 1)
                if t is not None and vd not in lg.term_variables(t):
                    return lg.Atomic(q.equality(base), (t, lg.Var(vd)))
        return None

    def quantify(depth_left: int, scope: list[lg.Variable], quantified: int) -> lg.Formula:
        sort_name = sort_names[int(rng.integers(len(sort_names)))]
        sort = lifted.sorts[sort_name]
        if rng.random() < 0.3:
            v = fresh(sort)
            vd = lg.Variable(v.name + "s", sort.dual())
            body = build(depth_left - 1, scope + [v, vd], quantified + 1)
            cls = lg.ForallDiag if rng.random() < 0.5 else lg.ExistsDiag
            return cls(v, vd, body)
        v = fresh(sort)
        body = build(depth_left - 1, scope + [v], quantified + 1)
        cls = lg.Forall if rng.random() < 0.5 else lg.Exists
        return cls(v, body)

    def build(depth_left: int, scope: list[lg.Variable], quantified: int) -> lg.Formula:
        if depth_left <= 0:
            atom = make_atomic(scope)
            if atom is not None:
                return atom
            if quantified < max_quantified + 4:
                return quantify(1, scope, quantified)
            return true_atomic()  # give up gracefully on starved scopes
        roll = rng.random()
        if roll < 0.35 and quantified < max_quantified + 4:
            return quantify(depth_left, scope, quantified)
        if roll < 0.45:
            return lg.Not(build(depth_left - 1, scope, quantified))
        if roll < 0.9:
            cls = (lg.And, lg.Or, lg.Implies, lg.Iff)[int(rng.integers(4))]
            return cls(
                build(depth_left - 1, scope, quantified),
                build(depth_left - 1, scope, quantified),
            )
        atom = make_atomic(scope)
        if atom is not None:
            return atom
        return build(depth_left - 1, scope, quantified)

    for _attempt in range(200):
        f = build(depth, [], 0)
        if lg.free_variables(f):
            continue
        if lg.nondup_check(f) is None:
            return f
    raise BadParams("could not generate a closed nonduplicating sentence")


def random_instance(kind: str, seed: int, **params):
    """Seeded dispatcher for random test instances."""
    if kind == "subspace":
        return random_subspace(params["shape"], params["rank"], seed)
    if kind == "projection":
        return random_projection(params["dim"], params["rank"], seed)
    if kind == "endo_relation":
        return random_endo_relation(params["qset"], seed, params.get("density", 0.7))
    if kind == "magic_unitary":
        return random_magic_unitary(seed, params.get("n_labels", 2))
    if kind == "formula":
        return random_formula(params["lifted"], params.get("depth", 3), seed)
    raise BadParams(f"unknown kind {kind!r}")
