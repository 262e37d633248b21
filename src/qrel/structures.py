"""Verifiers for discrete quantum structures on finite quantum sets.

Each checker evaluates its conditions twice where the theory provides two
routes: once through the logic interpreter on the defining sentences, and
once as direct relation inequalities.  Every route yields a margin (a
projector distance from passing); a condition's margin is the worst over
its routes, and the condition passes when that margin is within tolerance,
so tolerance-level near-misses are distinguishable from structural
failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import config
from . import logic as lg
from . import qset as q
from . import subspace as sp
from .errors import (
    FamilyInvariantViolation,
    LabelMismatch,
    ModeRequiresSingleAtom,
    NotAFunction,
    NotProjections,
    SortMismatch,
)
from .qset import QuantumSet, Relation

__all__ = [
    "ConditionReport",
    "VerificationReport",
    "MetricFamily",
    "ProjectionFamily",
    "check_graph",
    "check_preorder",
    "check_poset",
    "check_function",
    "check_metric",
    "check_magic_unitary",
    "check_hom_witness",
    "check_iso_witness",
    "check_quantum_group",
    "family_to_function",
]


@dataclass(frozen=True)
class ConditionReport:
    id: str
    formula: str
    passed: bool
    margin: float
    paths: dict[str, bool] = field(default_factory=dict)
    route_margins: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    conditions: tuple[ConditionReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, cid: str) -> ConditionReport:
        for c in self.conditions:
            if c.id == cid:
                return c
        raise KeyError(cid)


def _condition(
    cid: str,
    text: str,
    direct: float | None = None,
    formula: lg.Formula | None = None,
) -> ConditionReport:
    """The report of one condition from the margins of the routes that ran:
    the direct margin as given, and the truth margin of the sentence.  The
    condition's margin is the worst route margin; the condition and each
    route pass when their margin is within tolerance."""
    routes = {}
    if direct is not None:
        routes["direct"] = direct
    if formula is not None:
        routes["formula"] = lg.truth_margin(formula)
    tol = config.tolerance()
    margin = max(routes.values())
    return ConditionReport(
        id=cid,
        formula=text,
        passed=margin <= tol,
        margin=margin,
        paths={route: m <= tol for route, m in routes.items()},
        route_margins=routes,
    )


def _leq_margin(r: Relation, s: Relation) -> float:
    return q.leq_margin(r, s)[1]


def _eq_margin(r: Relation, s: Relation) -> float:
    """Margin of r = s: the worse of the two inclusions."""
    return max(_leq_margin(r, s), _leq_margin(s, r))


def _endo(r: Relation) -> QuantumSet:
    if r.domain != r.codomain:
        raise SortMismatch("an endo relation is required")
    return r.domain


def _vars(x: QuantumSet, *names: str) -> list[lg.Variable]:
    out = []
    for n in names:
        sort = x.dual() if n.endswith("s") else x
        out.append(lg.Variable(n, sort))
    return out


def _reflexivity(r: Relation, x: QuantumSet) -> ConditionReport:
    g = q.bend(r)
    v, vs = _vars(x, "x", "xs")
    f = lg.ForallDiag(v, vs, lg.Atomic(g, (lg.Var(v), lg.Var(vs))))
    return _condition(
        "reflexivity",
        "forall x == xs in X . R~(x, xs)",
        _leq_margin(q.identity(x), r),
        f,
    )


def _symmetry(r: Relation, x: QuantumSet) -> ConditionReport:
    g = q.bend(r)
    x1, x1s, x2, x2s = _vars(x, "x1", "x1s", "x2", "x2s")
    body = lg.Implies(
        lg.Atomic(g, (lg.Var(x1), lg.Var(x2s))),
        lg.Atomic(g, (lg.Var(x2), lg.Var(x1s))),
    )
    f = lg.ForallDiag(x1, x1s, lg.ForallDiag(x2, x2s, body))
    return _condition(
        "symmetry",
        "forall x1 == x1s in X . forall x2 == x2s in X . "
        "R~(x1, x2s) -> R~(x2, x1s)",
        _leq_margin(r, q.dagger(r)),
        f,
    )


def _transitivity(r: Relation, x: QuantumSet) -> ConditionReport:
    g = q.bend(r)
    gc = q.conjugate(g)
    x1, x1s, x2, x2s, x3, x3s = _vars(x, "x1", "x1s", "x2", "x2s", "x3", "x3s")
    body = lg.Implies(
        lg.And(
            lg.Atomic(g, (lg.Var(x1), lg.Var(x2s))),
            lg.Atomic(g, (lg.Var(x2), lg.Var(x3s))),
        ),
        lg.Atomic(gc, (lg.Var(x1s), lg.Var(x3))),
    )
    f = lg.ForallDiag(
        x1, x1s, lg.ForallDiag(x2, x2s, lg.ForallDiag(x3, x3s, body))
    )
    return _condition(
        "transitivity",
        "forall x1 == x1s in X . forall x2 == x2s in X . forall x3 == x3s in X . "
        "(R~(x1, x2s) and R~(x2, x3s)) -> ~R~(x1s, x3)",
        _leq_margin(q.compose(r, r), r),
        f,
    )


def check_graph(r: Relation) -> VerificationReport:
    """Reflexivity and symmetry, each via sentence truth and the matching
    relation inequality."""
    x = _endo(r)
    return VerificationReport("graph", (_reflexivity(r, x), _symmetry(r, x)))


def check_preorder(r: Relation) -> VerificationReport:
    x = _endo(r)
    return VerificationReport("preorder", (_reflexivity(r, x), _transitivity(r, x)))


def check_poset(r: Relation, mode: str = "weaver") -> VerificationReport:
    """Preorder conditions plus antisymmetry.

    ``weaver`` mode uses the lattice meet (R and its adjoint meet inside the
    identity); ``nilpotent`` mode uses the Sasaki projection instead and is
    restricted to single-atom carriers, where it additionally reports the
    splitting of R into the identity join a nilpotent part.
    """
    x = _endo(r)
    if mode not in ("weaver", "nilpotent"):
        raise ValueError(f"unknown poset mode {mode!r}")
    if mode == "nilpotent" and len(x.atoms) != 1:
        raise ModeRequiresSingleAtom(
            "nilpotent antisymmetry is defined on single-atom sets only"
        )
    g = q.bend(r)
    gc = q.conjugate(g)
    ex = q.equality(x)
    x1, x2s = lg.Variable("x1", x), lg.Variable("x2s", x.dual())
    left = lg.Atomic(g, (lg.Var(x1), lg.Var(x2s)))
    right = lg.Atomic(gc, (lg.Var(x2s), lg.Var(x1)))
    if mode == "weaver":
        pair = lg.And(left, right)
        direct = _leq_margin(q.meet(r, q.dagger(r)), q.identity(x))
        text = (
            "forall x1 in X . forall x2s in X* . "
            "(R~(x1, x2s) and ~R~(x2s, x1)) -> E[X](x1, x2s)"
        )
    else:
        # Sasaki projection src & tgt = (src or not tgt) and tgt.
        pair = lg.And(lg.Or(left, lg.Not(right)), right)
        direct = _leq_margin(q.sasaki(r, q.dagger(r), "and"), q.identity(x))
        text = (
            "forall x1 in X . forall x2s in X* . "
            "sasaki(R~(x1, x2s), ~R~(x2s, x1)) -> E[X](x1, x2s)"
        )
    body = lg.Implies(pair, lg.Atomic(ex, (lg.Var(x1), lg.Var(x2s))))
    f = lg.Forall(x1, lg.Forall(x2s, body))
    anti = _condition("antisymmetry", text, direct, f)
    conditions = [_reflexivity(r, x), _transitivity(r, x), anti]
    if mode == "nilpotent":
        s = q.meet(r, q.neg(q.identity(x)))
        orth = 0.0
        ident = q.identity(x)
        for key, blk in s.blocks.items():
            if key in ident.blocks:
                orth = max(
                    orth, sp.compare(blk, ident.blocks[key]).margins["orthogonal"]
                )
        conditions.append(
            _condition(
                "strict-part-traceless", "S = R and not I satisfies S perp I", orth
            )
        )
        conditions.append(
            _condition(
                "strict-part-transitive",
                "S = R and not I satisfies S . S <= S",
                _leq_margin(q.compose(s, s), s),
            )
        )
    return VerificationReport(f"poset-{mode}", tuple(conditions))


def _function_margins(f: Relation) -> dict[str, float]:
    """The direct-route margins of the three conditions every function
    meets: total, univalent and adjoint-total."""
    x, y = f.domain, f.codomain
    return {
        "total": _eq_margin(q.compose(q.top_pred(y), f), q.top_pred(x)),
        "univalent": _leq_margin(q.compose(f, q.dagger(f)), q.identity(y)),
        "adjoint-total": _leq_margin(q.identity(x), q.compose(q.dagger(f), f)),
    }


def check_function(f: Relation, mode: str = "function") -> VerificationReport:
    """Graph conditions for (injective / surjective) functions.

    Totality and univalence are checked as the two defining sentences of a
    function graph and as the composition inequalities; the inequality pair
    together is equivalent to the sentence pair.
    """
    if mode not in ("function", "injective", "surjective"):
        raise ValueError(f"unknown function mode {mode!r}")
    x, y = f.domain, f.codomain
    direct = _function_margins(f)
    g = q.bend(f)
    gc = q.conjugate(g)
    vx = lg.Variable("x", x)
    vys = lg.Variable("ys", y.dual())
    total_f = lg.Forall(vx, lg.Exists(vys, lg.Atomic(g, (lg.Var(vx), lg.Var(vys)))))
    y1 = lg.Variable("y1", y)
    y2s = lg.Variable("y2s", y.dual())
    xv, xs = lg.Variable("x", x), lg.Variable("xs", x.dual())
    ey = q.equality(y)
    univ_body = lg.Implies(
        lg.ExistsDiag(
            xv,
            xs,
            lg.And(
                lg.Atomic(gc, (lg.Var(xs), lg.Var(y1))),
                lg.Atomic(g, (lg.Var(xv), lg.Var(y2s))),
            ),
        ),
        lg.Atomic(ey, (lg.Var(y1), lg.Var(y2s))),
    )
    univalent_f = lg.Forall(y1, lg.Forall(y2s, univ_body))
    conditions = [
        _condition(
            "total",
            "forall x in X . exists ys in Y* . F~(x, ys)",
            direct["total"],
            total_f,
        ),
        _condition(
            "univalent",
            "forall y1 in Y . forall y2s in Y* . "
            "(exists x == xs in X . (~F~(xs, y1) and F~(x, y2s))) -> E[Y](y1, y2s)",
            direct["univalent"],
            univalent_f,
        ),
        _condition("adjoint-total", "I[X] <= F+ . F", direct["adjoint-total"]),
    ]
    if mode == "injective":
        ex = q.equality(x)
        fc = q.conjugate(f)
        inj_body = lg.Implies(
            lg.Atomic(
                ey,
                (
                    lg.App(f, (lg.Var(vx),)),
                    lg.App(fc, (lg.Var(xs),)),
                ),
            ),
            lg.Atomic(ex, (lg.Var(vx), lg.Var(xs))),
        )
        inj_f = lg.Forall(vx, lg.Forall(xs, inj_body))
        conditions.append(
            _condition(
                "injective",
                "forall x in X . forall xs in X* . "
                "E[Y](F(x), ~F(xs)) -> E[X](x, xs)",
                _leq_margin(q.compose(q.dagger(f), f), q.identity(x)),
                inj_f,
            )
        )
    if mode == "surjective":
        surj_f = lg.Forall(
            vys,
            lg.Exists(vx, lg.Atomic(ey, (lg.App(f, (lg.Var(vx),)), lg.Var(vys)))),
        )
        conditions.append(
            _condition(
                "surjective",
                "forall ys in Y* . exists x in X . E[Y](F(x), ys)",
                _leq_margin(q.identity(y), q.compose(f, q.dagger(f))),
                surj_f,
            )
        )
        conditions.append(
            _condition(
                "image-spanning",
                "top[X] . F+ = top[Y]",
                _eq_margin(q.compose(q.top_pred(x), q.dagger(f)), q.top_pred(y)),
            )
        )
    return VerificationReport(f"function-{mode}", tuple(conditions))


@dataclass(frozen=True)
class MetricFamily:
    """Distance-indexed endo relations on a base quantum set.

    ``values`` lists the distances of the stored relations in increasing
    order; distances may include infinity.  Absent distances are zero
    relations.
    """

    base: QuantumSet
    values: tuple[float, ...]
    relations: Mapping[float, Relation]

    def __post_init__(self):
        vals = list(self.values)
        if vals != sorted(vals) or len(set(vals)) != len(vals):
            raise FamilyInvariantViolation("values must be sorted and distinct")
        if any(v < 0 or math.isnan(v) for v in vals):
            raise FamilyInvariantViolation("values must lie in [0, inf]")
        if set(self.relations) != set(vals):
            raise FamilyInvariantViolation("one relation per stored value")
        for v, r in self.relations.items():
            if r.domain != self.base or r.codomain != self.base:
                raise FamilyInvariantViolation(
                    f"relation at {v} is not an endo relation on the base"
                )

    def at(self, value: float) -> Relation:
        if value in self.relations:
            return self.relations[value]
        return q.bottom(self.base, self.base)


def check_metric(family: MetricFamily, mode: str = "pseudometric") -> VerificationReport:
    """Pairwise orthogonality, covering, reflexivity at distance zero,
    self-adjointness, and the composed triangle inequality; ``metric`` mode
    additionally bounds the distance-zero relation by the identity."""
    if mode not in ("pseudometric", "metric"):
        raise ValueError(f"unknown metric mode {mode!r}")
    base = family.base
    worst_orth = 0.0
    vals = list(family.values)
    for a in range(len(vals)):
        for b in range(a + 1, len(vals)):
            ra, rb = family.relations[vals[a]], family.relations[vals[b]]
            for key, blk in ra.blocks.items():
                if key in rb.blocks:
                    worst_orth = max(
                        worst_orth,
                        sp.compare(blk, rb.blocks[key]).margins["orthogonal"],
                    )
    conditions = [
        _condition(
            "pairwise-orthogonal", "R[a] perp R[b] for distinct distances", worst_orth
        )
    ]
    joined = q.bottom(base, base)
    for v in vals:
        joined = q.join(joined, family.relations[v])
    conditions.append(
        _condition(
            "join-top", "join of all R[a] = top", _leq_margin(q.top(base, base), joined)
        )
    )
    conditions.append(
        _condition(
            "zero-reflexive", "I <= R[0]", _leq_margin(q.identity(base), family.at(0.0))
        )
    )
    worst_sa = 0.0
    for v in vals:
        r = family.relations[v]
        worst_sa = max(worst_sa, _leq_margin(r, q.dagger(r)))
    conditions.append(_condition("self-adjoint", "R[a]+ = R[a]", worst_sa))
    worst_tri = 0.0
    for a1 in vals:
        for a2 in vals:
            bound = a1 + a2
            within = [v for v in vals if v <= bound]
            allowed = q.bottom(base, base)
            for v in within:
                allowed = q.join(allowed, family.relations[v])
            composed = q.compose(family.relations[a2], family.relations[a1])
            worst_tri = max(worst_tri, _leq_margin(composed, allowed))
    conditions.append(
        _condition(
            "triangle", "R[a2] . R[a1] <= join of R[a] over a <= a1 + a2", worst_tri
        )
    )
    if mode == "metric":
        conditions.append(
            _condition(
                "zero-identity",
                "R[0] <= I",
                _leq_margin(family.at(0.0), q.identity(base)),
            )
        )
    return VerificationReport(mode, tuple(conditions))


@dataclass(frozen=True)
class ProjectionFamily:
    """A labeled family of projections on one Hilbert space."""

    hilbert_dim: int
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    projections: Mapping[tuple[str, str], np.ndarray]

    def validate(self) -> None:
        tol = config.tolerance()
        expected = {(a, b) for a in self.row_labels for b in self.col_labels}
        if set(self.projections) != expected:
            raise NotProjections("family must cover all label pairs")
        d = self.hilbert_dim
        for key, p in self.projections.items():
            if p.shape != (d, d):
                raise NotProjections(f"entry {key} has shape {p.shape}")
            # a projection's entries have modulus at most 1; larger ones overflow p @ p
            if (not np.all(np.abs(p) <= 1 + tol) or np.linalg.norm(p - p.conj().T) > tol
                    or np.linalg.norm(p @ p - p) > tol):
                raise NotProjections(f"entry {key} is not a projection")


def family_to_function(fam: ProjectionFamily) -> tuple[Relation, QuantumSet, QuantumSet, QuantumSet]:
    """The relation from X x `A to `B packaging a projection family.

    X is the single-atom quantum set on the family's Hilbert space; the
    block at (H (x) C_a, C_b) is the row space of p_ab.
    """
    d = fam.hilbert_dim
    x = q.atoms([d], ["H"])
    a_sort = q.classical(fam.row_labels)
    b_sort = q.classical(fam.col_labels)
    dom = q.product(x, a_sort)
    blocks = {}
    for flat, (_, ai), _ in q.atom_tuples([x, a_sort]):
        for bi, b in enumerate(fam.col_labels):
            p = fam.projections[(fam.row_labels[ai], b)]
            blk = sp.span([row.reshape(1, d) for row in p], (1, d))
            if blk.rank:
                blocks[(flat, bi)] = blk
    return Relation(dom, b_sort, blocks), x, a_sort, b_sort


def _sum_condition(
    fam: ProjectionFamily, axis: str
) -> ConditionReport:
    d = fam.hilbert_dim
    eye = np.eye(d)
    worst = 0.0
    if axis == "row":
        groups = [
            [fam.projections[(a, b)] for b in fam.col_labels]
            for a in fam.row_labels
        ]
        text = "sum over columns of p[a, b] = 1 for each a"
    else:
        groups = [
            [fam.projections[(a, b)] for a in fam.row_labels]
            for b in fam.col_labels
        ]
        text = "sum over rows of p[a, b] = 1 for each b"
    for mats in groups:
        worst = max(worst, float(np.linalg.norm(sum(mats) - eye, 2)))
    return _condition(f"{axis}-sums", text, worst)


def _bijection_formulas(
    f: Relation, x: QuantumSet, a_sort: QuantumSet, b_sort: QuantumSet
) -> tuple[ConditionReport, ConditionReport]:
    fc = q.conjugate(f)
    eb = q.equality(b_sort)
    ea = q.equality(a_sort)
    ebs = q.equality(b_sort.dual())
    vx = lg.Variable("x", x)
    vbs = lg.Variable("bs", b_sort.dual())
    va = lg.Variable("a", a_sort)
    cover = lg.Forall(
        vx,
        lg.Forall(
            vbs,
            lg.Exists(
                va,
                lg.Atomic(eb, (lg.App(f, (lg.Var(vx), lg.Var(va))), lg.Var(vbs))),
            ),
        ),
    )
    c1 = _condition(
        "cover-formula",
        "forall x in X . forall bs in B* . exists a in A . E[B](F(x, a), bs)",
        formula=cover,
    )
    xv, xs = lg.Variable("x", x), lg.Variable("xs", x.dual())
    a1, a1s = lg.Variable("a1", a_sort), lg.Variable("a1s", a_sort.dual())
    a2, a2s = lg.Variable("a2", a_sort), lg.Variable("a2s", a_sort.dual())
    body = lg.Iff(
        lg.Atomic(ea, (lg.Var(a1), lg.Var(a2s))),
        lg.Atomic(
            ebs,
            (
                lg.App(fc, (lg.Var(xs), lg.Var(a1s))),
                lg.App(f, (lg.Var(xv), lg.Var(a2))),
            ),
        ),
    )
    bij = lg.ForallDiag(
        xv, xs, lg.ForallDiag(a1, a1s, lg.ForallDiag(a2, a2s, body))
    )
    c2 = _condition(
        "injective-formula",
        "forall x == xs in X . forall a1 == a1s in A . forall a2 == a2s in A . "
        "E[A](a1, a2s) <-> E[B*](~F(xs, a1s), F(x, a2))",
        formula=bij,
    )
    return c1, c2


def check_magic_unitary(fam: ProjectionFamily) -> VerificationReport:
    """Row and column sums equal the identity, plus the two defining
    sentences of the packaged quantum family of bijections."""
    fam.validate()
    f, x, a_sort, b_sort = family_to_function(fam)
    c1, c2 = _bijection_formulas(f, x, a_sort, b_sort)
    return VerificationReport(
        "magic-unitary",
        (
            _sum_condition(fam, "row"),
            _sum_condition(fam, "col"),
            c1,
            c2,
        ),
    )


Graph = tuple[Sequence[str], frozenset]


def _adjacency_orthogonality(
    fam: ProjectionFamily,
    ga: Graph,
    gb: Graph,
    cid: str = "adjacency-orthogonality",
) -> ConditionReport:
    a_labels, a_edges = tuple(ga[0]), ga[1]
    b_labels, b_edges = tuple(gb[0]), gb[1]
    worst = 0.0
    for a1 in a_labels:
        for a2 in a_labels:
            for b1 in b_labels:
                for b2 in b_labels:
                    same = a1 == a2 and b1 != b2
                    adj = (a1, a2) in a_edges and (b1, b2) not in b_edges
                    if same or adj:
                        prod = fam.projections[(a1, b1)] @ fam.projections[(a2, b2)]
                        worst = max(worst, float(np.linalg.norm(prod, 2)))
    return _condition(
        cid,
        "p[a1, b1] . p[a2, b2] = 0 when a1 = a2 with b1 /= b2, "
        "or a1 ~ a2 with b1 !~ b2",
        worst,
    )


def _hom_formula(
    f: Relation,
    x: QuantumSet,
    a_sort: QuantumSet,
    b_sort: QuantumSet,
    ga: Graph,
    gb: Graph,
    biconditional: bool,
) -> ConditionReport:
    ra, rb = (
        q.classical_relation([s], [s], (((u,), (v,)) for u, v in g[1]))
        for s, g in ((a_sort, ga), (b_sort, gb))
    )
    ga_bent = q.bend(ra)
    gb_bent_c = q.conjugate(q.bend(rb))
    fc = q.conjugate(f)
    xv, xs = lg.Variable("x", x), lg.Variable("xs", x.dual())
    a1, a1s = lg.Variable("a1", a_sort), lg.Variable("a1s", a_sort.dual())
    a2, a2s = lg.Variable("a2", a_sort), lg.Variable("a2s", a_sort.dual())
    lhs = lg.Atomic(ga_bent, (lg.Var(a1), lg.Var(a2s)))
    rhs = lg.Atomic(
        gb_bent_c,
        (
            lg.App(fc, (lg.Var(xs), lg.Var(a1s))),
            lg.App(f, (lg.Var(xv), lg.Var(a2))),
        ),
    )
    body = lg.Iff(lhs, rhs) if biconditional else lg.Implies(lhs, rhs)
    f_all = lg.ForallDiag(
        xv, xs, lg.ForallDiag(a1, a1s, lg.ForallDiag(a2, a2s, body))
    )
    arrow = "<->" if biconditional else "->"
    return _condition(
        "adjacency-formula",
        "forall x == xs in X . forall a1 == a1s in A . forall a2 == a2s in A . "
        f"GA~(a1, a2s) {arrow} ~GB~(~F(xs, a1s), F(x, a2))",
        formula=f_all,
    )


def _check_labels(fam: ProjectionFamily, ga: Graph, gb: Graph) -> None:
    if tuple(ga[0]) != fam.row_labels or tuple(gb[0]) != fam.col_labels:
        raise LabelMismatch("family labels do not match the graphs")


def check_hom_witness(
    fam: ProjectionFamily, ga: Graph, gb: Graph
) -> VerificationReport:
    """A projection family encoding a perfect homomorphism-game strategy."""
    fam.validate()
    _check_labels(fam, ga, gb)
    f, x, a_sort, b_sort = family_to_function(fam)
    return VerificationReport(
        "hom-witness",
        (
            _sum_condition(fam, "row"),
            _adjacency_orthogonality(fam, ga, gb),
            _hom_formula(f, x, a_sort, b_sort, ga, gb, biconditional=False),
        ),
    )


def check_iso_witness(
    fam: ProjectionFamily, ga: Graph, gb: Graph
) -> VerificationReport:
    """A projection family encoding a perfect isomorphism-game strategy:
    witnesses in both directions, i.e. the transposed family also witnesses
    the reverse homomorphism."""
    fam.validate()
    _check_labels(fam, ga, gb)
    f, x, a_sort, b_sort = family_to_function(fam)
    transposed = ProjectionFamily(
        fam.hilbert_dim,
        fam.col_labels,
        fam.row_labels,
        {(b, a): p for (a, b), p in fam.projections.items()},
    )
    c1, c2 = _bijection_formulas(f, x, a_sort, b_sort)
    return VerificationReport(
        "iso-witness",
        (
            _sum_condition(fam, "row"),
            _sum_condition(fam, "col"),
            _adjacency_orthogonality(fam, ga, gb, "adjacency-forward"),
            _adjacency_orthogonality(transposed, gb, ga, "adjacency-reverse"),
            c1,
            c2,
            _hom_formula(f, x, a_sort, b_sort, ga, gb, biconditional=True),
        ),
    )


def check_quantum_group(f: Relation, c: Relation) -> VerificationReport:
    """The five group sentences for a multiplication and unit pair.

    Associativity and the two unit laws are cross-checked against the direct
    composition equalities; the two inverse conditions are sentence-only.
    Both maps must be functions by the direct route (total, univalent and
    adjoint-total within tolerance), else :class:`NotAFunction` is raised.
    """
    x = f.codomain
    if f.domain != q.product(x, x):
        raise SortMismatch("multiplication must map X x X to X")
    if c.domain != q.unit() or c.codomain != x:
        raise SortMismatch("unit must map the unit set to X")
    tol = config.tolerance()
    if any(m > tol for g in (f, c) for m in _function_margins(g).values()):
        raise NotAFunction("multiplication and unit must pass the function checks")
    fc = q.conjugate(f)
    cc = q.conjugate(c)
    ex = q.equality(x)
    ident = q.identity(x)
    x1, x1s = lg.Variable("x1", x), lg.Variable("x1s", x.dual())
    x2, x2s = lg.Variable("x2", x), lg.Variable("x2s", x.dual())
    x3, x3s = lg.Variable("x3", x), lg.Variable("x3s", x.dual())

    assoc_form = lg.ForallDiag(
        x1,
        x1s,
        lg.ForallDiag(
            x2,
            x2s,
            lg.ForallDiag(
                x3,
                x3s,
                lg.Atomic(
                    ex,
                    (
                        lg.App(
                            f,
                            (lg.App(f, (lg.Var(x1), lg.Var(x2))), lg.Var(x3)),
                        ),
                        lg.App(
                            fc,
                            (
                                lg.Var(x1s),
                                lg.App(fc, (lg.Var(x2s), lg.Var(x3s))),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )
    assoc_direct = _eq_margin(
        q.compose(f, q.cross(f, ident)), q.compose(f, q.cross(ident, f))
    )

    xv, xvs = lg.Variable("x", x), lg.Variable("xs", x.dual())
    right_unit_form = lg.ForallDiag(
        xv,
        xvs,
        lg.Atomic(
            ex, (lg.App(f, (lg.Var(xv), lg.App(c, ()))), lg.Var(xvs))
        ),
    )
    right_unit_direct = _eq_margin(q.compose(f, q.cross(ident, c)), ident)
    left_unit_form = lg.ForallDiag(
        xv,
        xvs,
        lg.Atomic(
            ex, (lg.App(f, (lg.App(c, ()), lg.Var(xv))), lg.Var(xvs))
        ),
    )
    left_unit_direct = _eq_margin(q.compose(f, q.cross(c, ident)), ident)

    right_inverse_form = lg.Forall(
        x1,
        lg.Exists(
            x2,
            lg.Atomic(
                ex,
                (lg.App(f, (lg.Var(x1), lg.Var(x2))), lg.App(cc, ())),
            ),
        ),
    )
    left_inverse_form = lg.Forall(
        x2,
        lg.Exists(
            x1,
            lg.Atomic(
                ex,
                (lg.App(f, (lg.Var(x1), lg.Var(x2))), lg.App(cc, ())),
            ),
        ),
    )
    conditions = (
        _condition(
            "associativity",
            "forall x1 == x1s in X . forall x2 == x2s in X . "
            "forall x3 == x3s in X . "
            "E[X](F(F(x1, x2), x3), ~F(x1s, ~F(x2s, x3s)))",
            assoc_direct,
            assoc_form,
        ),
        _condition(
            "right-unit",
            "forall x == xs in X . E[X](F(x, C), xs)",
            right_unit_direct,
            right_unit_form,
        ),
        _condition(
            "left-unit",
            "forall x == xs in X . E[X](F(C, x), xs)",
            left_unit_direct,
            left_unit_form,
        ),
        _condition(
            "right-inverse",
            "forall x1 in X . exists x2 in X . E[X](F(x1, x2), ~C)",
            formula=right_inverse_form,
        ),
        _condition(
            "left-inverse",
            "forall x2 in X . exists x1 in X . E[X](F(x1, x2), ~C)",
            formula=left_inverse_form,
        ),
    )
    return VerificationReport("quantum-group", conditions)
