"""Nonduplicating first-order formulas over quantum sets and their semantics.

Formulas are interpreted in an ordered context of distinct variables; the
interpretation of a formula with context sorts (X_1, ..., X_n) is a relation
from the left-associated product of those sorts into the unit set.  Defined
connectives are evaluated by their lattice formulas, and quantifiers contract
with the cup's vectors (unit vectors, or the identity); ``not not p`` and
``not forall`` build no complements.  :func:`translate` macro-expands them
all to the not/and/forall fragment, the oracle for the direct evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from . import config
from . import qset as q
from . import subspace as sp
from .errors import (
    FreeVariableNotInContext,
    HasFreeVariables,
    SortError,
)
from .qset import QuantumSet, Relation

__all__ = [
    "Variable",
    "Var",
    "App",
    "Term",
    "Atomic",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Forall",
    "Exists",
    "ForallDiag",
    "ExistsDiag",
    "Formula",
    "term_sort",
    "term_variables",
    "free_variables",
    "nondup_check",
    "Violation",
    "translate",
    "interpret",
    "interpret_term",
    "truth",
    "truth_margin",
    "sentence_margin",
    "forall_residual",
]


@dataclass(frozen=True)
class Variable:
    name: str
    sort: QuantumSet

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Var:
    var: Variable


@dataclass(frozen=True)
class App:
    """Application of a function (a binary relation into the result sort)."""

    fn: Relation
    args: tuple["Term", ...]

    def __post_init__(self):
        if not self.fn.domain.is_product_of([term_sort(t) for t in self.args]):
            raise SortError("argument sorts do not multiply to the function's domain")


Term = Union[Var, App]


@dataclass(frozen=True)
class Atomic:
    rel: Relation
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.rel.codomain.is_unit:
            raise SortError("atomic formulas require a relation into the unit set")
        if not self.rel.domain.is_product_of([term_sort(t) for t in self.args]):
            raise SortError("argument sorts do not match the relation's arity")


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: Variable
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: Variable
    body: "Formula"


@dataclass(frozen=True)
class ForallDiag:
    var: Variable
    dual_var: Variable
    body: "Formula"

    def __post_init__(self):
        if self.dual_var.sort != self.var.sort.dual():
            raise SortError("diagonal quantifier requires a dual-sorted partner")


@dataclass(frozen=True)
class ExistsDiag:
    var: Variable
    dual_var: Variable
    body: "Formula"

    def __post_init__(self):
        if self.dual_var.sort != self.var.sort.dual():
            raise SortError("diagonal quantifier requires a dual-sorted partner")


Formula = Union[
    Atomic, Not, And, Or, Implies, Iff, Forall, Exists, ForallDiag, ExistsDiag
]

_BINARY = (And, Or, Implies, Iff)
_QUANT = (Forall, Exists)
_DIAG = (ForallDiag, ExistsDiag)


def term_sort(t: Term) -> QuantumSet:
    if isinstance(t, Var):
        return t.var.sort
    return t.fn.codomain


def term_variables(t: Term) -> tuple[Variable, ...]:
    """Variables of a term in left-to-right occurrence order."""
    if isinstance(t, Var):
        return (t.var,)
    out: list[Variable] = []
    for a in t.args:
        out.extend(term_variables(a))
    return tuple(out)


def free_variables(f: Formula) -> tuple[Variable, ...]:
    """Free variables in first-occurrence order."""

    def walk(g: Formula, bound: frozenset[Variable], acc: list[Variable]):
        if isinstance(g, Atomic):
            for t in g.args:
                for v in term_variables(t):
                    if v not in bound and v not in acc:
                        acc.append(v)
        elif isinstance(g, Not):
            walk(g.body, bound, acc)
        elif isinstance(g, _BINARY):
            walk(g.left, bound, acc)
            walk(g.right, bound, acc)
        elif isinstance(g, _QUANT):
            walk(g.body, bound | {g.var}, acc)
        elif isinstance(g, _DIAG):
            walk(g.body, bound | {g.var, g.dual_var}, acc)
        else:
            raise TypeError(f"not a formula: {g!r}")

    acc: list[Variable] = []
    walk(f, frozenset(), acc)
    return tuple(acc)


@dataclass(frozen=True)
class Violation:
    path: tuple[str, ...]
    message: str


def _args_nondup(
    args: tuple[Term, ...], path: tuple[str, ...], owner: str
) -> Violation | None:
    """The first variable shared by two of ``args``, inner terms first."""
    seen: set[Variable] = set()
    for k, t in enumerate(args):
        if isinstance(t, App):
            sub = _args_nondup(t.args, path + (f"arg{k}",), "term")
            if sub is not None:
                return sub
        vs = set(term_variables(t))
        dup = seen & vs
        if dup:
            name = min(v.name for v in dup)
            return Violation(
                path, f"variable {name!r} occurs in two arguments of one {owner}"
            )
        seen |= vs
    return None


def nondup_check(f: Formula) -> Violation | None:
    """None if no variable is shared between arguments of any atomic formula
    (or of any term); otherwise the first violation with its subformula path."""

    def walk(g: Formula, path: tuple[str, ...]) -> Violation | None:
        if isinstance(g, Atomic):
            return _args_nondup(g.args, path, "atomic formula")
        if isinstance(g, Not):
            return walk(g.body, path + ("not",))
        if isinstance(g, _BINARY):
            tag = type(g).__name__.lower()
            return walk(g.left, path + (tag, "left")) or walk(
                g.right, path + (tag, "right")
            )
        if isinstance(g, _QUANT + _DIAG):
            return walk(g.body, path + (type(g).__name__.lower(),))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, ())


class _FreshNames:
    """Reserved "$k" namespace, never produced by the parser."""

    def __init__(self):
        self.counter = itertools.count()

    def pair(self, sort: QuantumSet) -> tuple[Variable, Variable]:
        k = next(self.counter)
        return (
            Variable(f"${k}", sort),
            Variable(f"${k}*", sort.dual()),
        )


def translate(f: Formula, _fresh: _FreshNames | None = None) -> Formula:
    """Macro-expand to the primitive fragment: not, and, forall, and atomic
    formulas whose arguments are all variables.

    Free variables are unchanged.  Non-primitive atomic formulas are
    eliminated through fresh diagonal-quantified variables and graph
    membership clauses; the diagonal quantifiers themselves then unfold to
    equality-guarded Sasaki implications.

    This is the oracle for the interpreter's closed-form connectives, which
    read ``not (p -> q)`` off the sines of p's principal angles to q.  It is
    exact in the lattice but not at the rank cutoff: its ``Or`` and
    ``Implies`` decide an angle through the singular values of a join of
    complements, so within about twice the tolerance of a sine the two can
    disagree; the oracle tests compare them only away from the cutoff.
    """
    fresh = _fresh or _FreshNames()

    def tr(g: Formula) -> Formula:
        if isinstance(g, Atomic):
            if all(isinstance(t, Var) for t in g.args):
                return g
            return tr(_expand_atomic(g, fresh))
        if isinstance(g, Not):
            return Not(tr(g.body))
        if isinstance(g, And):
            return And(tr(g.left), tr(g.right))
        if isinstance(g, Or):
            return Not(And(Not(tr(g.left)), Not(tr(g.right))))
        if isinstance(g, Implies):
            # Sasaki arrow: not p or (p and r), with or itself expanded.
            p, r = tr(g.left), tr(g.right)
            return Not(And(Not(Not(p)), Not(And(p, r))))
        if isinstance(g, Iff):
            return tr(And(Implies(g.left, g.right), Implies(g.right, g.left)))
        if isinstance(g, Forall):
            return Forall(g.var, tr(g.body))
        if isinstance(g, Exists):
            return Not(Forall(g.var, Not(tr(g.body))))
        if isinstance(g, ForallDiag):
            ex = q.equality(g.var.sort)
            guard = Atomic(ex, (Var(g.var), Var(g.dual_var)))
            return tr(Forall(g.dual_var, Forall(g.var, Implies(guard, g.body))))
        if isinstance(g, ExistsDiag):
            return Not(tr(ForallDiag(g.var, g.dual_var, Not(g.body))))
        raise TypeError(f"not a formula: {g!r}")

    return tr(f)


def _expand_atomic(g: Atomic, fresh: _FreshNames) -> Formula:
    """Replace term arguments by fresh diagonal-quantified variables."""
    sorts = [term_sort(t) for t in g.args]
    pairs = [fresh.pair(s) for s in sorts]
    body: Formula = Atomic(g.rel, tuple(Var(v) for v, _ in pairs))
    for t, (_, vstar) in zip(g.args, pairs):
        body = And(body, _maps_to(t, vstar))
    for v, vstar in pairs:
        body = ExistsDiag(v, vstar, body)
    return body


def _maps_to(t: Term, vstar: Variable) -> Formula:
    """The graph-membership clause pairing a term with a dual variable."""
    if isinstance(t, Var):
        return Atomic(q.equality(t.var.sort), (t, Var(vstar)))
    graph = q.bend(t.fn)
    return Atomic(graph, t.args + (Var(vstar),))


def _ctx_sorts(ctx: tuple[Variable, ...]) -> list[QuantumSet]:
    return [v.sort for v in ctx]


def _check_ctx(f: Formula, ctx: tuple[Variable, ...]) -> None:
    if len(set(ctx)) != len(ctx):
        raise SortError("context variables must be distinct")
    missing = [v for v in free_variables(f) if v not in ctx]
    if missing:
        raise FreeVariableNotInContext(
            f"free variables {[v.name for v in missing]} not in context"
        )


def interpret(f: Formula, ctx: Iterable[Variable]) -> Relation:
    """Interpret a nonduplicating formula in an ordered context.

    The result is a relation from the product of the context sorts into the
    unit set.  An atomic formula is its relation after the product of its
    term interpretations, widened to the context by :func:`qset.permute`:
    context variables it does not use contribute top factors.
    """
    ctx = tuple(ctx)
    _check_ctx(f, ctx)
    violation = nondup_check(f)
    if violation is not None:
        raise SortError(f"formula is duplicating: {violation.message}")
    return _interp(f, ctx)


def _interp(f: Formula, ctx: tuple[Variable, ...]) -> Relation:
    if isinstance(f, Atomic):
        return _interp_atomic(f, ctx)
    if isinstance(f, Not) and isinstance(f.body, Not):  # an involution
        return _interp(f.body.body, ctx)
    if isinstance(f, Not) and isinstance(f.body, (Forall, ForallDiag)):
        return _exists(f.body, Not(f.body.body), ctx)
    if isinstance(f, Not) and isinstance(f.body, Implies):
        return q.not_implies(_interp(f.body.left, ctx), _interp(f.body.right, ctx))
    if isinstance(f, Not) and isinstance(f.body, Iff):
        p, r = _interp(f.body.left, ctx), _interp(f.body.right, ctx)
        return q.join(q.not_implies(p, r), q.not_implies(r, p))
    if isinstance(f, Not):
        return q.neg(_interp(f.body, ctx))
    if isinstance(f, And):
        return q.meet(_interp(f.left, ctx), _interp(f.right, ctx))
    if isinstance(f, Or):
        return q.join(_interp(f.left, ctx), _interp(f.right, ctx))
    if isinstance(f, (Implies, Iff, Forall, ForallDiag)):  # complement the negation
        return q.neg(_interp(Not(f), ctx))
    if isinstance(f, (Exists, ExistsDiag)):
        return _exists(f, f.body, ctx)
    raise TypeError(f"not a formula: {f!r}")


def _exists(f: Formula, body: Formula, ctx: tuple[Variable, ...]) -> Relation:
    """Exists over what ``f`` binds of ``body`` in ``bound + ctx``: composition
    with the cup of top (a reshape) or, if ``f`` is diagonal, of equality (a
    trace over x, x*).  The composition is the oracle of
    ``test_logic.py::TestQuantifiers::test_exists_is_composition_with_the_cup``."""
    diag = isinstance(f, _DIAG)
    bound = (f.var, f.dual_var) if diag else (f.var,)
    for w in bound:
        if w in ctx:
            raise SortError(f"quantified variable {w.name!r} shadows the context")
    inner = _interp(body, bound + ctx)
    rest = q.product_all(_ctx_sorts(ctx))
    rows: dict[int, list[np.ndarray]] = {}
    for (flat, _), blk in sorted(inner.blocks.items()):
        b, c = divmod(flat, len(rest))  # the layout of q.product_all
        if diag and b % (len(f.var.sort) + 1):
            continue  # equality's cup is zero off the atom pairs (i, i)
        w = blk.basis.reshape(blk.rank, -1, rest.dims[c])
        if diag:  # atom (i, i) of X x X* has dimension d * d
            d = math.isqrt(w.shape[1])
            w = np.einsum("raac->rc", w.reshape(blk.rank, d, d, -1))
        rows.setdefault(c, []).append(w.reshape(-1, 1, rest.dims[c]))
    blocks = {(c, 0): sp.span(np.concatenate(r), (1, rest.dims[c])) for c, r in rows.items()}
    return Relation(rest, q.unit(), blocks)


def _interp_atomic(f: Atomic, ctx: tuple[Variable, ...]) -> Relation:
    used = [v for t in f.args for v in term_variables(t)]
    parts = [_interp_term(t) for t in f.args]
    grouped = q.compose(f.rel, q.cross_all(parts)) if parts else f.rel
    return q.permute(grouped, [ctx.index(v) for v in used], _ctx_sorts(ctx))


def interpret_term(t: Term, ctx: Iterable[Variable]) -> Relation:
    """Interpret a term as a binary relation from the context product to the
    term's sort.  Variables become identities, applications compose, and
    context variables the term does not use contribute top factors."""
    ctx = tuple(ctx)
    if len(set(ctx)) != len(ctx):
        raise SortError("context variables must be distinct")
    vs = term_variables(t)
    if len(set(vs)) != len(vs):
        raise SortError("term is duplicating")
    missing = [v for v in vs if v not in ctx]
    if missing:
        raise FreeVariableNotInContext(
            f"term variables {[v.name for v in missing]} not in context"
        )
    core = _interp_term(t)
    return q.permute(core, [ctx.index(v) for v in vs], _ctx_sorts(ctx))


def _interp_term(t: Term) -> Relation:
    """Interpretation over exactly the term's own variables, in occurrence
    order (:func:`term_variables`)."""
    if isinstance(t, Var):
        return q.identity(t.var.sort)
    parts = [_interp_term(a) for a in t.args]
    return q.compose(t.fn, q.cross_all(parts)) if parts else t.fn


def sentence_margin(rel: Relation) -> float:
    """How far a relation on the unit set is from the maximum one: the
    projector distance by which the maximum fails to lie below it (every
    relation lies below the maximum)."""
    return q.leq_margin(q.top(q.unit(), q.unit()), rel)[1]


def truth_margin(f: Formula) -> float:
    """How far a sentence is from true: the margin of its empty-context
    interpretation."""
    if free_variables(f):
        raise HasFreeVariables("truth requires a sentence")
    return sentence_margin(interpret(f, ()))


def truth(f: Formula) -> bool:
    """Truth of a sentence: its margin is within tolerance."""
    return truth_margin(f) <= config.tolerance()


def forall_residual(
    rel: Relation, m: int, sorts: list[QuantumSet]
) -> Relation:
    """Largest R with top x ... x top x R below ``rel``, quantifying the
    first ``m`` sorts away.

    This is the supremum characterization of universal quantification,
    computed blockwise by intersecting residual factors over all quantified
    atom combinations.  It must agree with the negation-existential path.
    """
    if not (0 <= m <= len(sorts)):
        raise SortError("quantifier count out of range")
    if rel.domain != q.product_all(sorts) or not rel.codomain.is_unit:
        raise SortError("relation does not have the stated arity")
    flat_of = {idx: flat for flat, idx, _ in q.atom_tuples(sorts)}
    head_tuples = list(q.atom_tuples(sorts[:m]))
    blocks = {}
    for tail_flat, tail_idx, tail_dims in q.atom_tuples(sorts[m:]):
        acc = sp.full((1, math.prod(tail_dims)))
        for _, head_idx, head_dims in head_tuples:
            w = rel.block(flat_of[head_idx + tail_idx], 0)
            head_top = sp.full((1, math.prod(head_dims)))
            acc = sp.meet(acc, sp.residual_factor(head_top, w))
            if acc.rank == 0:
                break
        blocks[(tail_flat, 0)] = acc
    return q.Relation(q.product_all(sorts[m:]), q.unit(), blocks)
