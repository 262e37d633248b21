"""Lexer, parser, and resolver for the .qrel workspace language.

A workspace declares quantum sets, relations (given blockwise or as
classical tuples), functions, constants, projection and metric families,
formulas, assertions, and verify directives.  Parsing and resolution return
a :class:`Workspace` together with diagnostics carrying precise source
spans; any error-severity diagnostic means the workspace is unusable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from . import logic as lg
from . import qset as q
from . import structures as st
from . import subspace as sp
from .errors import QrelError, UnknownLabel
from .qset import QuantumSet, Relation

__all__ = [
    "Diagnostic",
    "Span",
    "Workspace",
    "parse_workspace",
    "parse_sort",
    "format_diagnostics",
    "print_workspace",
    "VERIFY_KINDS",
    "bind_verify",
]


@dataclass(frozen=True)
class VerifyKind:
    """What a verify directive of one kind names, one role per name, and the
    checker it runs on the named workspace objects."""

    roles: tuple[str, ...]
    check: Callable[..., st.VerificationReport]


# The checkers go through the structures module when called, so that a
# wrapper installed on one of its functions sees every verification.
VERIFY_KINDS: dict[str, VerifyKind] = {
    "graph": VerifyKind(("fn",), lambda r: st.check_graph(r)),
    "preorder": VerifyKind(("fn",), lambda r: st.check_preorder(r)),
    "poset-weaver": VerifyKind(("fn",), lambda r: st.check_poset(r, "weaver")),
    "poset-nilpotent": VerifyKind(("fn",), lambda r: st.check_poset(r, "nilpotent")),
    "function": VerifyKind(("fn",), lambda f: st.check_function(f, "function")),
    "injective": VerifyKind(("fn",), lambda f: st.check_function(f, "injective")),
    "surjective": VerifyKind(("fn",), lambda f: st.check_function(f, "surjective")),
    "metric": VerifyKind(("metric",), lambda m: st.check_metric(m, "metric")),
    "pseudometric": VerifyKind(
        ("metric",), lambda m: st.check_metric(m, "pseudometric")
    ),
    "magic-unitary": VerifyKind(("projection",), lambda p: st.check_magic_unitary(p)),
    "hom-witness": VerifyKind(
        ("projection", "graph", "graph"), lambda p, a, b: st.check_hom_witness(p, a, b)
    ),
    "iso-witness": VerifyKind(
        ("projection", "graph", "graph"), lambda p, a, b: st.check_iso_witness(p, a, b)
    ),
    "quantum-group": VerifyKind(
        ("fn", "fn"), lambda f, c: st.check_quantum_group(f, c)
    ),
}

_ROLE_NOUNS = {
    "fn": "a declared fn",
    "metric": "a metric family",
    "projection": "a projection family",
    "graph": "a classical relation declared with tuples",
}


@dataclass(frozen=True)
class Span:
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    span: Span
    message: str
    hint: str | None = None


def format_diagnostics(diags: list[Diagnostic], path: str = "<input>") -> str:
    lines = []
    for d in sorted(diags, key=lambda d: (d.span.line, d.span.col, d.message)):
        line = f"{path}:{d.span.line}:{d.span.col}: {d.severity}: {d.message}"
        if d.hint:
            line += f" (hint: {d.hint})"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, NUMBER, STRING, punctuation kinds, EOF
    text: str
    span: Span


class _ParseAbort(Exception):
    pass


def _lex(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def push(kind: str, s: str, l0: int, c0: int):
        tokens.append(Token(kind, s, Span(l0, c0, line, col)))

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        l0, c0 = line, col
        if text[i : i + 3] == "<->":
            i += 3
            col += 3
            push("<->", "<->", l0, c0)
            continue
        two = text[i : i + 2]
        if two in ("->", ":=", "==", "><"):
            i += 2
            col += 2
            push(two, two, l0, c0)
            continue
        if ch in "{}()[],.:*~=":
            i += 1
            col += 1
            push(ch, ch, l0, c0)
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] not in '"\n':
                buf.append(text[j])
                j += 1
            if j >= n or text[j] != '"':
                col += j - i
                i = j
                diags.append(
                    Diagnostic("error", Span(l0, c0, line, col), "unterminated string")
                )
                continue
            col += j + 1 - i
            i = j + 1
            push("STRING", "".join(buf), l0, c0)
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            s = text[i:j]
            col += j - i
            i = j
            try:
                float(s)
                push("NUMBER", s, l0, c0)
            except ValueError:
                diags.append(
                    Diagnostic("error", Span(l0, c0, line, col), f"bad number {s!r}")
                )
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            # Hyphenated names (verify kinds) continue with letter segments.
            while j + 1 < n and text[j] == "-" and text[j + 1].isalpha():
                j += 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
            s = text[i:j]
            col += j - i
            i = j
            push("NAME", s, l0, c0)
            continue
        diags.append(
            Diagnostic("error", Span(l0, c0, line, col + 1), f"unexpected character {ch!r}")
        )
        i += 1
        col += 1
    eof = Span(line, col, line, col)
    tokens.append(Token("EOF", "", eof))
    return tokens, diags


# ---------------------------------------------------------------------------
# Surface syntax trees (spans excluded from equality for print/reparse tests)


@dataclass(frozen=True)
class SortName:
    name: str
    span: Span = field(compare=False)


@dataclass(frozen=True)
class SortUnit:
    span: Span = field(compare=False)


@dataclass(frozen=True)
class SortDual:
    base: "SortExpr"
    span: Span = field(compare=False)


@dataclass(frozen=True)
class SortProd:
    left: "SortExpr"
    right: "SortExpr"
    span: Span = field(compare=False)


SortExpr = Any


@dataclass(frozen=True)
class TermNode:
    conj: bool
    name: str
    args: tuple["TermNode", ...] | None  # None means a bare name
    span: Span = field(compare=False)


@dataclass(frozen=True)
class FAtomic:
    conj: bool
    name: str
    args: tuple[TermNode, ...]
    span: Span = field(compare=False)


@dataclass(frozen=True)
class FEquality:
    sort: SortExpr
    left: TermNode
    right: TermNode
    span: Span = field(compare=False)


@dataclass(frozen=True)
class FNot:
    body: "FNode"
    span: Span = field(compare=False)


@dataclass(frozen=True)
class FBinary:
    op: str  # and, or, ->, <->
    left: "FNode"
    right: "FNode"
    span: Span = field(compare=False)


@dataclass(frozen=True)
class FQuant:
    kind: str  # forall / exists
    var: str
    dual_var: str | None
    sort: SortExpr
    body: "FNode"
    span: Span = field(compare=False)


FNode = Any

Matrix = tuple  # nested tuples of complex numbers


@dataclass(frozen=True)
class BlockEntry:
    index: tuple[int, ...]
    matrices: tuple[Matrix, ...]
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DQSet:
    name: str
    dims: tuple[int, ...] | None
    labels: tuple[str, ...] | None
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DRel:
    name: str
    arity: tuple[SortExpr, ...]
    blocks: tuple[BlockEntry, ...] | None
    tuples: tuple[tuple[str, ...], ...] | None
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DFn:
    name: str
    dom: SortExpr
    cod: SortExpr
    blocks: tuple[BlockEntry, ...] | None
    mapping: tuple[tuple[tuple[str, ...], str], ...] | None
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DConst:
    name: str
    sort: SortExpr
    value: str
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DFamilyProj:
    name: str
    dim: int
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: tuple[tuple[str, str, Matrix], ...]
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DFamilyMetric:
    name: str
    base: SortExpr
    levels: tuple[tuple[float, tuple[BlockEntry, ...]], ...]
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DVar:
    name: str
    sort: SortExpr
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DGroup:
    name: str
    elements: tuple[str, ...]
    mult: tuple[tuple[tuple[str, ...], str], ...]
    irreps: tuple[tuple[str, tuple[Matrix, ...]], ...]
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DFormula:
    name: str
    body: FNode
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DAssert:
    name: str
    expect: bool
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DVerify:
    kind: str
    names: tuple[str, ...]
    span: Span = field(compare=False)


Decl = Any


class _Parser:
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def error(self, span: Span, message: str, hint: str | None = None):
        self.diags.append(Diagnostic("error", span, message, hint))
        raise _ParseAbort()

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.error(t.span, f"expected {what or kind}, found {t.text or 'end of input'!r}")
        return self.next()

    def expect_name(self, text: str) -> Token:
        t = self.peek()
        if t.kind != "NAME" or t.text != text:
            self.error(t.span, f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def at_name(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "NAME" and t.text == text

    # -- sorts --------------------------------------------------------------

    def sort_expr(self) -> SortExpr:
        left = self.sort_primary()
        while self.peek().kind == "><":
            self.next()
            right = self.sort_primary()
            left = SortProd(left, right, left.span)
        return left

    def sort_primary(self) -> SortExpr:
        t = self.peek()
        if t.kind == "(":
            self.next()
            inner = self.sort_expr()
            self.expect(")")
        elif t.kind == "NUMBER" and t.text == "1":
            self.next()
            inner = SortUnit(t.span)
        elif t.kind == "NAME":
            self.next()
            inner = SortName(t.text, t.span)
        else:
            self.error(t.span, f"expected a sort, found {t.text!r}")
        while self.peek().kind == "*":
            star = self.next()
            inner = SortDual(inner, star.span)
        return inner

    # -- numbers / matrices ---------------------------------------------------

    def number(self) -> float:
        t = self.peek()
        if t.kind == "NAME" and t.text == "inf":
            self.next()
            return math.inf
        tok = self.expect("NUMBER", "a number")
        return float(tok.text)

    def integer(self) -> int:
        tok = self.expect("NUMBER", "an integer")
        try:
            return int(tok.text)
        except ValueError:
            self.error(tok.span, f"expected an integer, found {tok.text!r}")

    def complex_entry(self) -> complex:
        self.expect("[")
        re = self.number()
        self.expect(",")
        im = self.number()
        self.expect("]")
        return complex(re, im)

    def matrix(self) -> Matrix:
        # [[ [re,im], ... ], ...] rows of complex entries, row-major
        self.expect("[")
        rows = []
        while True:
            self.expect("[")
            row = [self.complex_entry()]
            while self.peek().kind == ",":
                self.next()
                row.append(self.complex_entry())
            self.expect("]")
            rows.append(tuple(row))
            if self.peek().kind == ",":
                self.next()
                continue
            break
        self.expect("]")
        return tuple(rows)

    def matrix_list(self) -> tuple[Matrix, ...]:
        self.expect("[")
        if self.peek().kind == "]":
            self.next()
            return ()
        mats = [self.matrix()]
        while self.peek().kind == ",":
            self.next()
            mats.append(self.matrix())
        self.expect("]")
        return tuple(mats)

    def block_entry(self) -> BlockEntry:
        start = self.expect_name("block").span
        self.expect("(")
        idx = [self.integer()]
        while self.peek().kind == ",":
            self.next()
            idx.append(self.integer())
        self.expect(")")
        self.expect("=")
        mats = self.matrix_list()
        return BlockEntry(tuple(idx), mats, start)

    # -- formulas -------------------------------------------------------------

    def formula(self) -> FNode:
        return self.formula_iff()

    def formula_iff(self) -> FNode:
        left = self.formula_implies()
        while self.peek().kind == "<->":
            self.next()
            right = self.formula_implies()
            left = FBinary("<->", left, right, left.span)
        return left

    def formula_implies(self) -> FNode:
        left = self.formula_or()
        if self.peek().kind == "->":
            self.next()
            right = self.formula_implies()  # right associative
            return FBinary("->", left, right, left.span)
        return left

    def formula_or(self) -> FNode:
        left = self.formula_and()
        while self.at_name("or"):
            self.next()
            right = self.formula_and()
            left = FBinary("or", left, right, left.span)
        return left

    def formula_and(self) -> FNode:
        left = self.formula_unary()
        while self.at_name("and"):
            self.next()
            right = self.formula_unary()
            left = FBinary("and", left, right, left.span)
        return left

    def formula_unary(self) -> FNode:
        t = self.peek()
        if t.kind == "NAME" and t.text == "not":
            self.next()
            return FNot(self.formula_unary(), t.span)
        if t.kind == "NAME" and t.text in ("forall", "exists"):
            self.next()
            v = self.expect("NAME", "a variable name")
            dual = None
            if self.peek().kind == "==":
                self.next()
                dual = self.expect("NAME", "a dual variable name").text
            self.expect_name("in")
            sort = self.sort_expr()
            self.expect(".")
            body = self.formula()  # the dot scopes as far right as possible
            return FQuant(t.text, v.text, dual, sort, body, t.span)
        if t.kind == "(":
            self.next()
            inner = self.formula()
            self.expect(")")
            return inner
        return self.atomic()

    def atomic(self) -> FNode:
        t = self.peek()
        if t.kind == "NAME" and t.text == "E":
            self.next()
            self.expect("[")
            sort = self.sort_expr()
            self.expect("]")
            self.expect("(")
            left = self.term()
            self.expect(",")
            right = self.term()
            self.expect(")")
            return FEquality(sort, left, right, t.span)
        conj = False
        if t.kind == "~":
            conj = True
            self.next()
        head = self.expect("NAME", "a relation name")
        self.expect("(")
        args: list[TermNode] = []
        if self.peek().kind != ")":
            args.append(self.term())
            while self.peek().kind == ",":
                self.next()
                args.append(self.term())
        self.expect(")")
        return FAtomic(conj, head.text, tuple(args), head.span)

    def term(self) -> TermNode:
        t = self.peek()
        conj = False
        if t.kind == "~":
            conj = True
            self.next()
        head = self.expect("NAME", "a term")
        if self.peek().kind == "(":
            self.next()
            args: list[TermNode] = []
            if self.peek().kind != ")":
                args.append(self.term())
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.term())
            self.expect(")")
            return TermNode(conj, head.text, tuple(args), head.span)
        return TermNode(conj, head.text, None, head.span)

    # -- declarations -----------------------------------------------------------

    def string_list(self) -> tuple[str, ...]:
        self.expect("[")
        out = []
        if self.peek().kind != "]":
            out.append(self.expect("STRING", "a quoted label").text)
            while self.peek().kind == ",":
                self.next()
                out.append(self.expect("STRING", "a quoted label").text)
        self.expect("]")
        return tuple(out)

    def int_list(self) -> tuple[int, ...]:
        self.expect("[")
        out = []
        if self.peek().kind != "]":
            out.append(self.integer())
            while self.peek().kind == ",":
                self.next()
                out.append(self.integer())
        self.expect("]")
        return tuple(out)

    def decl(self) -> Decl:
        t = self.peek()
        if t.kind != "NAME":
            self.error(t.span, f"expected a declaration, found {t.text!r}")
        if t.text == "qset":
            return self.qset_decl()
        if t.text == "rel":
            return self.rel_decl()
        if t.text == "fn":
            return self.fn_decl()
        if t.text == "const":
            return self.const_decl()
        if t.text == "family":
            return self.family_decl()
        if t.text == "group":
            return self.group_decl()
        if t.text == "var":
            return self.var_decl()
        if t.text == "formula":
            return self.formula_decl()
        if t.text == "assert":
            return self.assert_decl()
        if t.text == "verify":
            return self.verify_decl()
        self.error(t.span, f"unknown declaration {t.text!r}",
                   "expected one of qset, rel, fn, const, var, family, group, "
                   "formula, assert, verify")

    def qset_decl(self) -> DQSet:
        start = self.next().span
        name = self.expect("NAME", "a quantum set name").text
        self.expect("{")
        kind = self.expect("NAME", "atoms or classical")
        dims = labels = None
        if kind.text == "atoms":
            self.expect("=")
            dims = self.int_list()
        elif kind.text == "classical":
            self.expect("=")
            labels = self.string_list()
        else:
            self.error(kind.span, "expected 'atoms = [...]' or 'classical = [...]'")
        self.expect("}")
        return DQSet(name, dims, labels, start)

    def rel_decl(self) -> DRel:
        start = self.next().span
        name = self.expect("NAME", "a relation name").text
        self.expect(":")
        self.expect("(")
        arity = [self.sort_expr()]
        while self.peek().kind == ",":
            self.next()
            arity.append(self.sort_expr())
        self.expect(")")
        self.expect("{")
        blocks: list[BlockEntry] | None = None
        tuples = None
        if self.at_name("tuples"):
            self.next()
            self.expect("=")
            tuples = self.tuple_list()
        else:
            blocks = []
            while self.at_name("block"):
                blocks.append(self.block_entry())
        self.expect("}")
        return DRel(name, tuple(arity), tuple(blocks) if blocks is not None else None,
                    tuples, start)

    def tuple_list(self) -> tuple[tuple[str, ...], ...]:
        self.expect("[")
        out = []
        while self.peek().kind == "(":
            self.next()
            tup = []
            if self.peek().kind != ")":
                tup.append(self.expect("STRING", "a quoted element").text)
                while self.peek().kind == ",":
                    self.next()
                    tup.append(self.expect("STRING", "a quoted element").text)
            self.expect(")")
            out.append(tuple(tup))
            if self.peek().kind == ",":
                self.next()
        self.expect("]")
        return tuple(out)

    def fn_decl(self) -> DFn:
        start = self.next().span
        name = self.expect("NAME", "a function name").text
        self.expect(":")
        dom = self.sort_expr()
        self.expect("->")
        cod = self.sort_expr()
        self.expect("{")
        blocks = mapping = None
        if self.at_name("map"):
            self.next()
            self.expect("=")
            mapping = self.map_list()
        else:
            blocks = []
            while self.at_name("block"):
                blocks.append(self.block_entry())
        self.expect("}")
        return DFn(name, dom, cod, tuple(blocks) if blocks is not None else None,
                   mapping, start)

    def map_list(self) -> tuple[tuple[tuple[str, ...], str], ...]:
        self.expect("[")
        out = []
        while self.peek().kind == "(":
            self.next()
            tup = []
            if self.peek().kind != ")":
                tup.append(self.expect("STRING", "a quoted element").text)
                while self.peek().kind == ",":
                    self.next()
                    tup.append(self.expect("STRING", "a quoted element").text)
            self.expect(")")
            self.expect("->")
            val = self.expect("STRING", "a quoted element").text
            out.append((tuple(tup), val))
            if self.peek().kind == ",":
                self.next()
        self.expect("]")
        return tuple(out)

    def const_decl(self) -> DConst:
        start = self.next().span
        name = self.expect("NAME", "a constant name").text
        self.expect(":")
        sort = self.sort_expr()
        self.expect("=")
        value = self.expect("STRING", "a quoted element").text
        return DConst(name, sort, value, start)

    def family_decl(self) -> Decl:
        start = self.next().span
        name = self.expect("NAME", "a family name").text
        self.expect(":")
        kind = self.expect("NAME", "projections or metric")
        if kind.text == "projections":
            return self.proj_family(name, start)
        if kind.text == "metric":
            return self.metric_family(name, start)
        self.error(kind.span, "expected 'projections' or 'metric'")

    def proj_family(self, name: str, start: Span) -> DFamilyProj:
        self.expect("{")
        dim = None
        rows = cols = None
        entries = []
        while not self.peek().kind == "}":
            t = self.peek()
            if self.at_name("dim"):
                self.next()
                self.expect("=")
                dim = self.integer()
            elif self.at_name("rows"):
                self.next()
                self.expect("=")
                rows = self.string_list()
            elif self.at_name("cols"):
                self.next()
                self.expect("=")
                cols = self.string_list()
            elif self.at_name("p"):
                self.next()
                self.expect("(")
                a = self.expect("STRING", "a row label").text
                self.expect(",")
                b = self.expect("STRING", "a column label").text
                self.expect(")")
                self.expect("=")
                entries.append((a, b, self.matrix()))
            else:
                self.error(t.span, f"unexpected {t.text!r} in projection family",
                           "expected dim, rows, cols, or p (row, col) = matrix")
        self.expect("}")
        if dim is None or rows is None or cols is None:
            self.error(start, "projection family needs dim, rows, and cols")
        return DFamilyProj(name, dim, rows, cols, tuple(entries), start)

    def metric_family(self, name: str, start: Span) -> DFamilyMetric:
        self.expect_name("on")
        base = self.sort_expr()
        self.expect("{")
        levels = []
        while self.at_name("at"):
            self.next()
            value = self.number()
            self.expect("{")
            blocks = []
            while self.at_name("block"):
                blocks.append(self.block_entry())
            self.expect("}")
            levels.append((value, tuple(blocks)))
        self.expect("}")
        return DFamilyMetric(name, base, tuple(levels), start)

    def var_decl(self) -> DVar:
        start = self.next().span
        name = self.expect("NAME", "a variable name").text
        self.expect(":")
        return DVar(name, self.sort_expr(), start)

    def group_decl(self) -> DGroup:
        start = self.next().span
        name = self.expect("NAME", "a group name").text
        self.expect("{")
        elements = None
        mult = None
        irreps = []
        while self.peek().kind != "}":
            if self.at_name("elements"):
                self.next()
                self.expect("=")
                elements = self.string_list()
            elif self.at_name("mult"):
                self.next()
                self.expect("=")
                mult = self.map_list()
            elif self.at_name("irrep"):
                self.next()
                iname = self.expect("NAME", "an irrep name").text
                self.expect("=")
                irreps.append((iname, self.matrix_list()))
            else:
                t = self.peek()
                self.error(t.span, f"unexpected {t.text!r} in group",
                           "expected elements, mult, or irrep NAME = [...]")
        self.expect("}")
        if elements is None or mult is None or not irreps:
            self.error(start, "group needs elements, mult, and at least one irrep")
        return DGroup(name, elements, mult, tuple(irreps), start)

    def formula_decl(self) -> DFormula:
        start = self.next().span
        name = self.expect("NAME", "a formula name").text
        self.expect(":=")
        return DFormula(name, self.formula(), start)

    def assert_decl(self) -> DAssert:
        start = self.next().span
        name = self.expect("NAME", "a formula name").text
        expect = True
        if self.at_name("is"):
            self.next()
            t = self.expect("NAME", "true or false")
            if t.text == "true":
                expect = True
            elif t.text == "false":
                expect = False
            else:
                self.error(t.span, "expected 'true' or 'false'")
        return DAssert(name, expect, start)

    def verify_decl(self) -> DVerify:
        start = self.next().span
        kind = self.expect("NAME", "a verify kind")
        if kind.text not in VERIFY_KINDS:
            self.error(kind.span, f"unknown verify kind {kind.text!r}",
                       "one of " + ", ".join(VERIFY_KINDS))
        names = []
        while self.peek().kind == "NAME" and self.peek().text not in (
            "qset", "rel", "fn", "const", "var", "family", "group", "formula",
            "assert", "verify",
        ):
            names.append(self.next().text)
        if not names:
            self.error(start, "verify needs at least one name")
        return DVerify(kind.text, tuple(names), start)

    def workspace(self) -> list[Decl]:
        decls = []
        while self.peek().kind != "EOF":
            try:
                decls.append(self.decl())
            except _ParseAbort:
                self.recover()
        return decls

    def recover(self):
        # Skip to the next top-level keyword.
        heads = {"qset", "rel", "fn", "const", "var", "family", "group",
                 "formula", "assert", "verify"}
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind == "NAME" and t.text in heads:
                return
            self.next()


# ---------------------------------------------------------------------------
# Resolution


@dataclass
class Workspace:
    decls: list[Decl]
    qsets: dict[str, QuantumSet]
    rels: dict[str, Relation]  # arity-style relations (predicates)
    rel_arities: dict[str, tuple[QuantumSet, ...]]
    fns: dict[str, Relation]  # binary relations
    families: dict[str, object]  # ProjectionFamily or MetricFamily
    graphs: dict[str, tuple[tuple[str, ...], frozenset]]
    formulas: dict[str, lg.Formula]
    variables: dict[str, lg.Variable]
    asserts: list[DAssert]
    verifies: list[DVerify]


def parse_workspace(text: str) -> tuple[Workspace | None, list[Diagnostic]]:
    tokens, diags = _lex(text)
    parser = _Parser(tokens, diags)
    decls = parser.workspace()
    if any(d.severity == "error" for d in diags):
        return None, diags
    ws = _resolve(decls, diags)
    if any(d.severity == "error" for d in diags):
        return None, diags
    return ws, diags


def parse_sort(ws: Workspace, text: str) -> QuantumSet:
    """Resolve a sort expression such as ``A >< B*`` against a workspace.

    A malformed expression or an undeclared quantum set raises
    :class:`QrelError` carrying the diagnostic's message.
    """
    tokens, diags = _lex(text)
    parser, resolver = _Parser(tokens, diags), _Resolver(diags)
    resolver.ws = ws
    try:
        if not diags:
            expr = parser.sort_expr()
            parser.expect("EOF", "end of sort")
            return resolver.sort(expr)
    except _ParseAbort:
        pass
    raise QrelError("; ".join(d.message for d in diags))


class _Resolver:
    def __init__(self, diags: list[Diagnostic]):
        self.diags = diags
        self.ws = Workspace([], {}, {}, {}, {}, {}, {}, {}, {}, [], [])

    def error(self, span: Span, message: str, hint: str | None = None):
        self.diags.append(Diagnostic("error", span, message, hint))
        raise _ParseAbort()

    def sort(self, expr: SortExpr) -> QuantumSet:
        if isinstance(expr, SortUnit):
            return q.unit()
        if isinstance(expr, SortName):
            if expr.name not in self.ws.qsets:
                self.error(expr.span, f"unknown quantum set {expr.name!r}")
            return self.ws.qsets[expr.name]
        if isinstance(expr, SortDual):
            return self.sort(expr.base).dual()
        if isinstance(expr, SortProd):
            return q.product(self.sort(expr.left), self.sort(expr.right))
        raise TypeError(expr)

    def matrix(self, m: Matrix, span: Span) -> np.ndarray:
        if len({len(row) for row in m}) > 1:
            self.error(span, "matrix rows differ in length")
        arr = np.array(m, dtype=complex)
        if not np.all(np.isfinite(arr)):
            self.error(span, "matrix entries must be finite")
        return arr

    def matrices(self, entry: BlockEntry, shape: tuple[int, int]) -> sp.Subspace:
        mats = []
        for m in entry.matrices:
            arr = self.matrix(m, entry.span)
            if arr.ndim != 2 or arr.shape != shape:
                self.error(
                    entry.span,
                    f"matrix of shape {tuple(arr.shape)} does not fit ambient "
                    f"{shape[0]}x{shape[1]}",
                )
            mats.append(arr)
        return sp.span(mats, shape)

    def unique(self, table: dict, name: str, span: Span, what: str):
        if name in table:
            self.error(span, f"duplicate {what} name {name!r}")

    def add_qset(self, d: DQSet):
        self.unique(self.ws.qsets, d.name, d.span, "quantum set")
        try:
            if d.labels is not None:
                self.ws.qsets[d.name] = q.classical(d.labels)
            else:
                labels = [f"{d.name}{i}" for i in range(len(d.dims))]
                self.ws.qsets[d.name] = q.atoms(list(d.dims), labels)
        except QrelError as e:
            self.error(d.span, str(e))

    def add_rel(self, d: DRel):
        self.unique(self.ws.rels, d.name, d.span, "relation")
        sorts = tuple(self.sort(s) for s in d.arity)
        if d.tuples is not None:
            if not all(s.is_classical for s in sorts):
                self.error(d.span, "tuples notation needs all-classical sorts")
            pairs = [(tup, ()) for tup in d.tuples]
            rel = q.classical_relation(sorts, [], pairs, d.name)
            if len(sorts) == 2 and sorts[0] == sorts[1]:
                self.ws.graphs[d.name] = (sorts[0].labels(), frozenset(d.tuples))
        else:
            dom = q.product_all(sorts)
            flat_of = {idx: flat for flat, idx, _ in q.atom_tuples(sorts)}
            blocks = {}
            for entry in d.blocks:
                if len(entry.index) != len(sorts):
                    self.error(entry.span,
                               f"block index has {len(entry.index)} positions, "
                               f"arity has {len(sorts)}")
                for i, s in zip(entry.index, sorts):
                    if not (0 <= i < len(s.atoms)):
                        self.error(entry.span, f"atom index {i} out of range")
                flat = flat_of[tuple(entry.index)]
                blocks[(flat, 0)] = self.matrices(entry, (1, dom.atoms[flat].dim))
            rel = Relation(dom, q.unit(), blocks)
        self.ws.rels[d.name] = rel
        self.ws.rel_arities[d.name] = sorts

    def add_fn(self, d: DFn):
        self.unique(self.ws.fns, d.name, d.span, "function")
        dom, cod = self.sort(d.dom), self.sort(d.cod)
        if d.mapping is not None:
            if not (dom.is_classical and cod.is_classical):
                self.error(d.span, "map notation needs classical sorts")
            pairs = [(tup, (val,)) for tup, val in d.mapping]
            fn = q.classical_relation(q.factors(dom), [cod], pairs, d.name)
            flats = {k[0] for k in fn.blocks}
            if len(flats) != len(dom.atoms) or len(fn.blocks) != len(dom.atoms):
                self.error(d.span, "map must cover every domain element exactly once")
        else:
            blocks = {}
            for entry in d.blocks:
                if len(entry.index) != 2:
                    self.error(entry.span,
                               "fn blocks use (domain atom, codomain atom) indices")
                i, j = entry.index
                if not (0 <= i < len(dom.atoms)) or not (0 <= j < len(cod.atoms)):
                    self.error(entry.span, "atom index out of range")
                shape = (cod.atoms[j].dim, dom.atoms[i].dim)
                blocks[(i, j)] = self.matrices(entry, shape)
            fn = Relation(dom, cod, blocks)
        self.ws.fns[d.name] = fn

    def add_const(self, d: DConst):
        self.unique(self.ws.fns, d.name, d.span, "constant")
        sort = self.sort(d.sort)
        if not sort.is_classical:
            self.error(d.span, "constants name elements of classical sorts")
        pairs = [((), (d.value,))]
        self.ws.fns[d.name] = q.classical_relation([], [sort], pairs, d.name)

    def add_family(self, d: Decl):
        self.unique(self.ws.families, d.name, d.span, "family")
        if isinstance(d, DFamilyProj):
            seen = {}
            for a, b, m in d.entries:
                arr = self.matrix(m, d.span)
                if arr.shape != (d.dim, d.dim):
                    self.error(d.span,
                               f"projection ({a!r}, {b!r}) has shape {arr.shape}, "
                               f"expected {(d.dim, d.dim)}")
                seen[(a, b)] = arr
            missing = [
                (a, b) for a in d.rows for b in d.cols if (a, b) not in seen
            ]
            if missing:
                self.error(d.span, f"missing projection entries {missing[:3]}")
            fam = st.ProjectionFamily(d.dim, d.rows, d.cols, seen)
            try:
                fam.validate()
            except QrelError as e:
                self.error(d.span, str(e))
            self.ws.families[d.name] = fam
        else:
            base = self.sort(d.base)
            relations = {}
            values = []
            for value, blocks in d.levels:
                rel_blocks = {}
                for entry in blocks:
                    if len(entry.index) != 2:
                        self.error(entry.span, "metric blocks use (i, j) indices")
                    i, j = entry.index
                    if not (0 <= i < len(base.atoms)) or not (0 <= j < len(base.atoms)):
                        self.error(entry.span, "atom index out of range")
                    shape = (base.atoms[j].dim, base.atoms[i].dim)
                    rel_blocks[(i, j)] = self.matrices(entry, shape)
                relations[value] = Relation(base, base, rel_blocks)
                values.append(value)
            try:
                fam = st.MetricFamily(base, tuple(sorted(values)), relations)
            except QrelError as e:
                self.error(d.span, str(e))
            self.ws.families[d.name] = fam

    # -- formula resolution ---------------------------------------------------

    def resolve_term(self, t: TermNode, scope: dict[str, lg.Variable]) -> lg.Term:
        if t.args is None:
            if t.name in scope:
                if t.conj:
                    self.error(t.span,
                               f"cannot conjugate the variable {t.name!r}",
                               "bind a dual-sorted variable instead")
                return lg.Var(scope[t.name])
            if t.name in self.ws.fns:
                fn = self.ws.fns[t.name]
                if not fn.domain.is_unit:
                    self.error(t.span,
                               f"{t.name!r} is not a constant; apply it to arguments")
                fn = q.conjugate(fn) if t.conj else fn
                return lg.App(fn, ())
            self.error(t.span, f"unknown term {t.name!r}")
        if t.name not in self.ws.fns:
            self.error(t.span, f"unknown function {t.name!r}")
        fn = self.ws.fns[t.name]
        fn = q.conjugate(fn) if t.conj else fn
        args = tuple(self.resolve_term(a, scope) for a in t.args)
        try:
            return lg.App(fn, args)
        except QrelError as e:
            self.error(t.span, str(e))

    def resolve_formula(self, f: FNode, scope: dict[str, lg.Variable]) -> lg.Formula:
        if isinstance(f, FAtomic):
            if f.name in self.ws.rels:
                rel = self.ws.rels[f.name]
            elif f.name in self.ws.fns:
                rel = q.bend(self.ws.fns[f.name])
            else:
                self.error(f.span, f"unknown relation {f.name!r}")
            if f.conj:
                rel = q.conjugate(rel)
            args = tuple(self.resolve_term(a, scope) for a in f.args)
            try:
                return lg.Atomic(rel, args)
            except QrelError as e:
                self.error(f.span, str(e))
        if isinstance(f, FEquality):
            sort = self.sort(f.sort)
            args = (
                self.resolve_term(f.left, scope),
                self.resolve_term(f.right, scope),
            )
            try:
                return lg.Atomic(q.equality(sort), args)
            except QrelError as e:
                self.error(f.span, str(e))
        if isinstance(f, FNot):
            return lg.Not(self.resolve_formula(f.body, scope))
        if isinstance(f, FBinary):
            left = self.resolve_formula(f.left, scope)
            right = self.resolve_formula(f.right, scope)
            cls = {"and": lg.And, "or": lg.Or, "->": lg.Implies, "<->": lg.Iff}[f.op]
            return cls(left, right)
        if isinstance(f, FQuant):
            sort = self.sort(f.sort)
            if sort.is_empty:
                self.diags.append(
                    Diagnostic(
                        "warning",
                        f.span,
                        "quantification over an empty sort",
                        "an existential over the empty sort is always bottom",
                    )
                )
            if f.var in scope or (f.dual_var and f.dual_var in scope):
                self.error(f.span, f"variable {f.var!r} is already bound")
            if f.var.startswith("$") or (f.dual_var or "").startswith("$"):
                self.error(f.span, "variable names starting with '$' are reserved")
            v = lg.Variable(f.var, sort)
            if f.dual_var is not None:
                vd = lg.Variable(f.dual_var, sort.dual())
                inner = dict(scope)
                inner[f.var] = v
                inner[f.dual_var] = vd
                body = self.resolve_formula(f.body, inner)
                cls = lg.ForallDiag if f.kind == "forall" else lg.ExistsDiag
                return cls(v, vd, body)
            inner = dict(scope)
            inner[f.var] = v
            body = self.resolve_formula(f.body, inner)
            cls = lg.Forall if f.kind == "forall" else lg.Exists
            return cls(v, body)
        raise TypeError(f)

    def add_var(self, d: DVar):
        self.unique(self.ws.variables, d.name, d.span, "variable")
        if d.name.startswith("$"):
            self.error(d.span, "variable names starting with '$' are reserved")
        self.ws.variables[d.name] = lg.Variable(d.name, self.sort(d.sort))

    def add_group(self, d: DGroup):
        from . import generators as gen

        for suffix in ("", "_mul", "_unit"):
            self.unique(self.ws.fns if suffix else self.ws.qsets,
                        d.name + suffix, d.span, "group")
        n = len(d.elements)
        index = {e: k for k, e in enumerate(d.elements)}
        table = [[None] * n for _ in range(n)]
        for tup, val in d.mult:
            if len(tup) != 2 or any(e not in index for e in tup) or val not in index:
                self.error(d.span, f"bad multiplication entry {tup} -> {val}")
            table[index[tup[0]]][index[tup[1]]] = index[val]
        if any(v is None for row in table for v in row):
            self.error(d.span, "mult must cover every pair of elements")
        irreps = []
        for iname, mats in d.irreps:
            if len(mats) != n:
                self.error(d.span,
                           f"irrep {iname!r} needs one matrix per element")
            irreps.append(tuple(self.matrix(m, d.span) for m in mats))
        data = gen.IrrepData(
            d.elements, tuple(tuple(row) for row in table), tuple(irreps)
        )
        try:
            x, mul, unit_fn = gen.dual_group(data)
        except QrelError as e:
            self.error(d.span, str(e))
        self.ws.qsets[d.name] = x
        self.ws.fns[d.name + "_mul"] = mul
        self.ws.fns[d.name + "_unit"] = unit_fn

    def add_formula(self, d: DFormula):
        self.unique(self.ws.formulas, d.name, d.span, "formula")
        body = self.resolve_formula(d.body, dict(self.ws.variables))
        violation = lg.nondup_check(body)
        if violation is not None:
            self.error(
                d.span,
                f"duplicating formula: {violation.message}",
                "no variable may occur twice among the arguments of one "
                "atomic formula or term",
            )
        self.ws.formulas[d.name] = body

    def add_assert(self, d: DAssert):
        if d.name not in self.ws.formulas:
            self.error(d.span, f"unknown formula {d.name!r}")
        if lg.free_variables(self.ws.formulas[d.name]):
            self.error(d.span, f"formula {d.name!r} has free variables",
                       "assertions need closed formulas; open formulas are "
                       "for eval with --context")
        self.ws.asserts.append(d)

    def add_verify(self, d: DVerify):
        try:
            bind_verify(self.ws, d.kind, d.names)
        except QrelError as e:
            self.error(d.span, str(e))
        self.ws.verifies.append(d)


def bind_verify(
    ws: Workspace, kind: str, names: tuple[str, ...]
) -> Callable[[], st.VerificationReport]:
    """The checker of a verify kind, bound to the workspace objects it names.

    Raises QrelError when the kind is unknown or the names do not fit the
    kind's roles.
    """
    if kind not in VERIFY_KINDS:
        raise QrelError(f"unknown verify kind {kind!r}")
    spec = VERIFY_KINDS[kind]
    if len(names) != len(spec.roles):
        wanted = ", ".join(_ROLE_NOUNS[role] for role in spec.roles)
        raise QrelError(
            f"verify {kind} needs {len(spec.roles)} name(s) ({wanted}), got {len(names)}"
        )
    args = []
    for role, name in zip(spec.roles, names):
        if role == "fn":
            obj = ws.fns.get(name)
        elif role == "graph":
            obj = ws.graphs.get(name)
        else:
            cls = st.MetricFamily if role == "metric" else st.ProjectionFamily
            obj = ws.families.get(name)
            obj = obj if isinstance(obj, cls) else None
        if obj is None:
            raise QrelError(f"verify {kind}: {name!r} is not {_ROLE_NOUNS[role]}")
        args.append(obj)
    return partial(spec.check, *args)


def _resolve(decls: list[Decl], diags: list[Diagnostic]) -> Workspace:
    r = _Resolver(diags)
    r.ws.decls = decls
    handlers: list[tuple[type, Callable]] = [
        (DQSet, r.add_qset),
        (DRel, r.add_rel),
        (DFn, r.add_fn),
        (DConst, r.add_const),
        (DFamilyProj, r.add_family),
        (DFamilyMetric, r.add_family),
        (DVar, r.add_var),
        (DGroup, r.add_group),
        (DFormula, r.add_formula),
        (DAssert, r.add_assert),
        (DVerify, r.add_verify),
    ]
    for d in decls:
        for cls, handler in handlers:
            if isinstance(d, cls):
                try:
                    handler(d)
                except UnknownLabel as e:  # from q.classical_relation
                    diags.append(Diagnostic("error", d.span, str(e)))
                except _ParseAbort:
                    pass
                break
    return r.ws


# ---------------------------------------------------------------------------
# Pretty printing (parse . print . parse is the identity on surface trees)


def _print_sort(s: SortExpr) -> str:
    if isinstance(s, SortUnit):
        return "1"
    if isinstance(s, SortName):
        return s.name
    if isinstance(s, SortDual):
        base = _print_sort(s.base)
        if isinstance(s.base, SortProd):
            base = f"({base})"
        return base + "*"
    if isinstance(s, SortProd):
        return f"{_print_sort(s.left)} >< {_print_sort(s.right)}"
    raise TypeError(s)


def _print_complex(z: complex) -> str:
    def num(x: float) -> str:
        if math.isinf(x):
            return "inf"
        return repr(x) if x != int(x) else str(int(x))

    return f"[{num(z.real)}, {num(z.imag)}]"


def _print_matrix(m: Matrix) -> str:
    rows = ", ".join(
        "[" + ", ".join(_print_complex(z) for z in row) + "]" for row in m
    )
    return f"[{rows}]"


def _print_blocks(blocks: tuple[BlockEntry, ...], indent: str) -> list[str]:
    out = []
    for b in blocks:
        idx = ", ".join(str(i) for i in b.index)
        mats = ", ".join(_print_matrix(m) for m in b.matrices)
        out.append(f"{indent}block ({idx}) = [{mats}]")
    return out


def _print_term(t: TermNode) -> str:
    head = ("~" if t.conj else "") + t.name
    if t.args is None:
        return head
    return head + "(" + ", ".join(_print_term(a) for a in t.args) + ")"


def _print_formula(f: FNode, prec: int = 0) -> str:
    # precedence: iff 1, implies 2, or 3, and 4, unary 5
    if isinstance(f, FAtomic):
        head = ("~" if f.conj else "") + f.name
        return head + "(" + ", ".join(_print_term(a) for a in f.args) + ")"
    if isinstance(f, FEquality):
        return (
            f"E[{_print_sort(f.sort)}]"
            f"({_print_term(f.left)}, {_print_term(f.right)})"
        )
    if isinstance(f, FNot):
        return "not " + _print_formula(f.body, 5)
    if isinstance(f, FQuant):
        pair = f.var if f.dual_var is None else f"{f.var} == {f.dual_var}"
        body = _print_formula(f.body, 5)
        s = f"{f.kind} {pair} in {_print_sort(f.sort)} . {body}"
        return f"({s})" if prec > 0 else s
    if isinstance(f, FBinary):
        op_prec = {"<->": 1, "->": 2, "or": 3, "and": 4}[f.op]
        op_name = f.op
        left = _print_formula(f.left, op_prec + (0 if f.op != "->" else 1))
        right = _print_formula(f.right, op_prec + (1 if f.op != "->" else 0))
        s = f"{left} {op_name} {right}"
        return f"({s})" if prec >= op_prec else s
    raise TypeError(f)


def print_workspace(decls: list[Decl]) -> str:
    out: list[str] = []
    for d in decls:
        if isinstance(d, DQSet):
            if d.labels is not None:
                body = "classical = [" + ", ".join(f'"{l}"' for l in d.labels) + "]"
            else:
                body = "atoms = [" + ", ".join(str(x) for x in d.dims) + "]"
            out.append(f"qset {d.name} {{ {body} }}")
        elif isinstance(d, DRel):
            arity = ", ".join(_print_sort(s) for s in d.arity)
            out.append(f"rel {d.name} : ({arity}) {{")
            if d.tuples is not None:
                tups = ", ".join(
                    "(" + ", ".join(f'"{e}"' for e in t) + ")" for t in d.tuples
                )
                out.append(f"  tuples = [{tups}]")
            else:
                out.extend(_print_blocks(d.blocks, "  "))
            out.append("}")
        elif isinstance(d, DFn):
            out.append(
                f"fn {d.name} : {_print_sort(d.dom)} -> {_print_sort(d.cod)} {{"
            )
            if d.mapping is not None:
                maps = ", ".join(
                    "(" + ", ".join(f'"{e}"' for e in t) + f') -> "{v}"'
                    for t, v in d.mapping
                )
                out.append(f"  map = [{maps}]")
            else:
                out.extend(_print_blocks(d.blocks, "  "))
            out.append("}")
        elif isinstance(d, DConst):
            out.append(f'const {d.name} : {_print_sort(d.sort)} = "{d.value}"')
        elif isinstance(d, DFamilyProj):
            out.append(f"family {d.name} : projections {{")
            out.append(f"  dim = {d.dim}")
            out.append("  rows = [" + ", ".join(f'"{l}"' for l in d.rows) + "]")
            out.append("  cols = [" + ", ".join(f'"{l}"' for l in d.cols) + "]")
            for a, b, m in d.entries:
                out.append(f'  p ("{a}", "{b}") = {_print_matrix(m)}')
            out.append("}")
        elif isinstance(d, DFamilyMetric):
            out.append(f"family {d.name} : metric on {_print_sort(d.base)} {{")
            for value, blocks in d.levels:
                v = "inf" if math.isinf(value) else (
                    repr(value) if value != int(value) else str(int(value))
                )
                out.append(f"  at {v} {{")
                out.extend(_print_blocks(blocks, "    "))
                out.append("  }")
            out.append("}")
        elif isinstance(d, DVar):
            out.append(f"var {d.name} : {_print_sort(d.sort)}")
        elif isinstance(d, DGroup):
            out.append(f"group {d.name} {{")
            out.append("  elements = [" + ", ".join(f'"{e}"' for e in d.elements) + "]")
            maps = ", ".join(
                "(" + ", ".join(f'"{e}"' for e in t) + f') -> "{v}"'
                for t, v in d.mult
            )
            out.append(f"  mult = [{maps}]")
            for iname, mats in d.irreps:
                body = ", ".join(_print_matrix(m) for m in mats)
                out.append(f"  irrep {iname} = [{body}]")
            out.append("}")
        elif isinstance(d, DFormula):
            out.append(f"formula {d.name} := {_print_formula(d.body)}")
        elif isinstance(d, DAssert):
            out.append(f"assert {d.name} is {'true' if d.expect else 'false'}")
        elif isinstance(d, DVerify):
            out.append(f"verify {d.kind} " + " ".join(d.names))
        else:
            raise TypeError(d)
    return "\n".join(out) + "\n"
