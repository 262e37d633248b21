"""Nonduplicating first-order formulas over quantum sets and their semantics.

Formulas are interpreted in an ordered context of distinct variables; the
interpretation of a formula with context sorts (X_1, ..., X_n) is a relation
from the left-associated product of those sorts into the unit set.  Defined
connectives (or, implies, iff, the existential and the diagonal quantifiers)
are evaluated directly by their lattice and composition formulas;
:func:`translate` macro-expands them to the not/and/forall fragment and
serves as an independent oracle for the direct evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Union

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
        arg_prod = q.product_all([term_sort(t) for t in self.args])
        if arg_prod != self.fn.domain:
            raise SortError(
                "argument sorts do not multiply to the function's domain"
            )


Term = Union[Var, App]


@dataclass(frozen=True)
class Atomic:
    rel: Relation
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.rel.codomain.is_unit:
            raise SortError("atomic formulas require a relation into the unit set")
        arg_prod = q.product_all([term_sort(t) for t in self.args])
        if arg_prod != self.rel.domain:
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


def _term_nondup(t: Term, path: tuple[str, ...]) -> Violation | None:
    if isinstance(t, Var):
        return None
    seen: set[Variable] = set()
    for k, a in enumerate(t.args):
        sub = _term_nondup(a, path + (f"arg{k}",))
        if sub is not None:
            return sub
        vs = set(term_variables(a))
        dup = seen & vs
        if dup:
            name = sorted(v.name for v in dup)[0]
            return Violation(
                path, f"variable {name!r} occurs in two arguments of one term"
            )
        seen |= vs
    return None


def nondup_check(f: Formula) -> Violation | None:
    """None if no variable is shared between arguments of any atomic formula
    (or of any term); otherwise the first violation with its subformula path."""

    def walk(g: Formula, path: tuple[str, ...]) -> Violation | None:
        if isinstance(g, Atomic):
            seen: set[Variable] = set()
            for k, t in enumerate(g.args):
                sub = _term_nondup(t, path + (f"arg{k}",))
                if sub is not None:
                    return sub
                vs = set(term_variables(t))
                dup = seen & vs
                if dup:
                    name = sorted(v.name for v in dup)[0]
                    return Violation(
                        path,
                        f"variable {name!r} occurs in two arguments of one "
                        "atomic formula",
                    )
                seen |= vs
            return None
        if isinstance(g, Not):
            return walk(g.body, path + ("not",))
        if isinstance(g, _BINARY):
            tag = type(g).__name__.lower()
            return walk(g.left, path + (tag, "left")) or walk(
                g.right, path + (tag, "right")
            )
        if isinstance(g, _QUANT):
            return walk(g.body, path + (type(g).__name__.lower(),))
        if isinstance(g, _DIAG):
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
    unit set.  Unused context positions contribute full factors; the
    extension of argument positions to the whole context lists the unused
    positions in increasing order.
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
    if isinstance(f, Not):
        return q.neg(_interp(f.body, ctx))
    if isinstance(f, And):
        return q.meet(_interp(f.left, ctx), _interp(f.right, ctx))
    if isinstance(f, Or):
        return q.join(_interp(f.left, ctx), _interp(f.right, ctx))
    if isinstance(f, Implies):
        return q.sasaki(_interp(f.left, ctx), _interp(f.right, ctx), "arrow")
    if isinstance(f, Iff):
        p, r = _interp(f.left, ctx), _interp(f.right, ctx)
        return q.meet(q.sasaki(p, r, "arrow"), q.sasaki(r, p, "arrow"))
    if isinstance(f, Exists):
        return _exists(f.var, f.body, ctx)
    if isinstance(f, Forall):
        return q.neg(_exists(f.var, Not(f.body), ctx))
    if isinstance(f, ExistsDiag):
        return _exists_diag(f.var, f.dual_var, f.body, ctx)
    if isinstance(f, ForallDiag):
        return q.neg(_exists_diag(f.var, f.dual_var, Not(f.body), ctx))
    raise TypeError(f"not a formula: {f!r}")


def _exists(v: Variable, body: Formula, ctx: tuple[Variable, ...]) -> Relation:
    if v in ctx:
        raise SortError(f"quantified variable {v.name!r} shadows the context")
    inner = _interp(body, (v,) + ctx)
    cup = q.dagger(q.top_pred(v.sort))  # unit -> sort of v
    rest = q.identity(q.product_all(_ctx_sorts(ctx)))
    return q.compose(inner, q.cross(cup, rest))


def _exists_diag(
    v: Variable, vstar: Variable, body: Formula, ctx: tuple[Variable, ...]
) -> Relation:
    for w in (v, vstar):
        if w in ctx:
            raise SortError(f"quantified variable {w.name!r} shadows the context")
    inner = _interp(body, (v, vstar) + ctx)
    cup = q.dagger(q.equality(v.sort))  # unit -> sort x dual sort
    rest = q.identity(q.product_all(_ctx_sorts(ctx)))
    return q.compose(inner, q.cross(cup, rest))


def _interp_atomic(f: Atomic, ctx: tuple[Variable, ...]) -> Relation:
    # Composition form: rel after the product of term interpretations,
    # then padding with full factors and reindexing to context order.
    used: list[Variable] = []
    for t in f.args:
        used.extend(term_variables(t))
    parts = [_interp_term(t, tuple(term_variables(t))) for t in f.args]
    grouped = q.compose(f.rel, q.cross_all(parts)) if parts else f.rel
    unused = [v for v in ctx if v not in used]
    padded = grouped
    for v in unused:
        padded = q.cross(padded, q.top_pred(v.sort))
    order = used + unused
    # The padded relation's k-th argument is context variable order[k].
    pi = [ctx.index(v) for v in order]
    return q.permute(padded, pi, _ctx_sorts(ctx))


def interpret_term(t: Term, ctx: Iterable[Variable]) -> Relation:
    """Interpret a term as a binary relation from the context product to the
    term's sort.  Variables become projections; applications compose."""
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
    core = _interp_term(t, vs)
    unused = [v for v in ctx if v not in vs]
    # Widen from the term's own variables to the full context: project away
    # unused positions, then reindex the domain to context order.
    if unused:
        widened = q.cross(core, q.top_pred(q.product_all(_ctx_sorts(tuple(unused)))))
    else:
        widened = core
    order = list(vs) + unused
    sigma = [ctx.index(v) for v in order]
    if sigma == list(range(len(ctx))):
        return widened
    shuffle = q.canonical_shuffle(_ctx_sorts(ctx), sigma)
    return q.compose(widened, shuffle)


def _interp_term(t: Term, vs: tuple[Variable, ...]) -> Relation:
    """Interpretation over exactly the term's own variable context ``vs``."""
    if isinstance(t, Var):
        return q.identity(t.var.sort)
    parts = [_interp_term(a, term_variables(a)) for a in t.args]
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
