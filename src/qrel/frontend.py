"""Lexer, parser, and resolver for the .qrel workspace language.

A workspace declares quantum sets, relations (given blockwise or as
classical tuples), functions, constants, projection and metric families,
formulas, assertions, and verify directives.  Parsing and resolution return
a :class:`Workspace` together with diagnostics carrying precise source
spans; any error-severity diagnostic means the workspace is unusable.
The lexer is one regular expression over the token table ``_TOKEN_TABLE``,
one named group per token class.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Any, Callable

import numpy as np

from . import logic as lg
from . import qset as q
from . import structures as st
from . import subspace as sp
from .errors import QrelError
from .qset import QuantumSet, Relation

__all__ = [
    "Diagnostic",
    "Span",
    "Workspace",
    "parse_workspace",
    "parse_sort",
    "sentence_reader",
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


# The token table: one named group per token class, tried in order after
# the blanks, ``#`` comments and newlines before each token.  A token's kind
# is its group's name, an ``OP`` token's its text; UNTERMINATED, OTHER and a
# NUMBER that ``float`` rejects are errors (``_LEX_ERRORS``).  ``{digit}`` and
# ``{letter}`` stand for str.isdigit and str.isalpha, which ``re`` cannot
# name: ``\d`` misses and ``[^\W\d_]`` takes the numerals of Unicode
# categories No and Nl (``²``, ``½``), so ``_token_pattern`` adds to the
# digits, and takes from the letters, those that a text holds.
_TOKEN_TABLE = (
    ("OP", r"<->|->|:=|==|><|[{}()\[\],.:*~=]"),
    ("STRING", r'"[^"\n]*"'),
    ("UNTERMINATED", r'"[^\n]*'),
    ("NUMBER", r"(?:{digit}|-(?={digit}|\.))(?:{digit}|[.eE]|(?<=[eE])[+-])*"),
    ("NAME", r"(?:{letter}|_)\w*(?:-{letter}\w*)*"),  # hyphenated verify kinds
    ("EOF", r"\Z"),
    ("OTHER", r"."),
)
_LEX_ERRORS = {
    "UNTERMINATED": "unterminated string",
    "BAD_NUMBER": "bad number {!r}",
    "OTHER": "unexpected character {!r}",
}


@lru_cache(maxsize=64)
def _token_pattern(numerals: str) -> re.Pattern:
    """The token table compiled for a text holding ``numerals``, its
    characters that are numeric but neither decimal digits nor letters."""
    digits = "".join(c for c in numerals if c.isdigit())
    digit = f"[\\d{digits}]" if digits else r"\d"
    letter = f"(?![{numerals}])[^\\W\\d_]" if numerals else r"[^\W\d_]"
    groups = "|".join(
        f"(?P<{kind}>{rule.replace('{digit}', digit).replace('{letter}', letter)})"
        for kind, rule in _TOKEN_TABLE
    )
    return re.compile(rf"(?:[ \t\r\n]|#[^\n]*)*(?:{groups})")


def _lex(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    numerals = "".join(sorted(
        c for c in set(text) if c.isnumeric() and not (c.isdecimal() or c.isalpha())
    ))
    line, line_start = 1, 0
    for m in _token_pattern(numerals).finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        newlines = text.count("\n", m.start(), start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", m.start(), start) + 1
        span = Span(line, start - line_start + 1, line, end - line_start + 1)
        s = m.group(kind)
        if kind == "NUMBER":
            try:
                float(s)
            except ValueError:
                kind = "BAD_NUMBER"
        if kind in _LEX_ERRORS:
            diags.append(Diagnostic("error", span, _LEX_ERRORS[kind].format(s)))
        elif kind == "OP":
            tokens.append(Token(s, s, span))
        else:
            tokens.append(Token(kind, s[1:-1] if kind == "STRING" else s, span))
        if kind == "EOF":  # after trailing blanks, ``\Z`` would match twice
            break
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
    bent: bool = False  # a postfix ``~``: the graph of the fn ``name``
    bent_span: Span | None = field(default=None, compare=False)


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
    op: str  # and, or, ->, <->, sasaki
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

# The binary connectives from the loosest to the tightest; only ``->``
# associates to the right.  ``_Parser.formula`` and ``_print_formula`` read
# their precedence from this one table.
_BINARY_OPS = ("<->", "->", "or", "and")

# The declaration keywords; ``_Parser`` parses each with its ``<keyword>_decl``.
_DECL_HEADS = (
    "qset", "rel", "fn", "const", "var", "family", "group", "formula", "assert",
    "verify",
)


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

    def items(self, item: Callable[[], Any], open: str = "[", close: str = "]") -> tuple:
        """A possibly empty list of ``item`` between ``open`` and ``close``,
        separated by commas, with no trailing comma."""
        self.expect(open)
        out = []
        if self.peek().kind != close:
            out.append(item())
            while self.peek().kind == ",":
                self.next()
                out.append(item())
        self.expect(close)
        return tuple(out)

    def once(self, first: dict, key: Any, span: Span, what: str) -> None:
        """Note ``key`` as given at ``span``; a second entry with the same key
        is an error there, and its hint names where the first one is."""
        if key in first:
            self.error(span, f"repeated {what}", f"the first is at {first[key]}")
        first[key] = span

    def fields(
        self, readers: dict[str, Callable[[], Any]], what: str, hint: str, many: str
    ) -> dict[str, list]:
        """Keyed fields between braces, in any order: each key is a name, and
        ``readers[key]`` reads what follows it.  Only the key ``many`` may
        repeat.  Each key present maps to its values in order."""
        self.expect("{")
        out: dict[str, list] = {}
        first: dict[str, Span] = {}
        while self.peek().kind != "}":
            t = self.peek()
            if t.kind != "NAME" or t.text not in readers:
                self.error(t.span, f"unexpected {t.text!r} in {what}", hint)
            if t.text != many:
                self.once(first, t.text, t.span, f"{t.text!r} in {what}")
            self.next()
            out.setdefault(t.text, []).append(readers[t.text]())
        self.expect("}")
        return out

    def assigned(self, read: Callable[[], Any]) -> Any:
        """The value of a field ``key = value``, read by ``read``."""
        self.expect("=")
        return read()

    def quoted(self, what: str = "a quoted element") -> str:
        return self.expect("STRING", what).text

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
        # [[ [re,im], ... ], ...] rows of complex entries, row-major; the
        # resolver checks the shape
        return self.items(lambda: self.items(self.complex_entry))

    def blocks(self) -> tuple[BlockEntry, ...]:
        """Zero or more ``block (index, ...) = [matrix, ...]`` entries, each
        index at most once."""
        out = []
        first: dict[tuple[int, ...], Span] = {}
        while self.at_name("block"):
            start = self.next().span
            idx = self.items(self.integer, "(", ")")
            self.once(first, idx, start, f"block ({', '.join(map(str, idx))})")
            self.expect("=")
            out.append(BlockEntry(idx, self.items(self.matrix), start))
        return tuple(out)

    # -- formulas -------------------------------------------------------------

    def formula(self, level: int = 0) -> FNode:
        """A formula whose binary connectives bind at least as tightly as
        ``_BINARY_OPS[level]``."""
        if level == len(_BINARY_OPS):
            return self.formula_unary()
        op = _BINARY_OPS[level]
        left = self.formula(level + 1)
        while self.peek().kind == op or self.at_name(op):
            self.next()
            if op == "->":  # right associative
                return FBinary(op, left, self.formula(level), left.span)
            left = FBinary(op, left, self.formula(level + 1), left.span)
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
        if t.kind == "NAME" and t.text == "sasaki":
            self.next()
            self.expect("(")
            left = self.formula()
            self.expect(",")
            right = self.formula()
            self.expect(")")
            return FBinary("sasaki", left, right, t.span)
        conj = False
        if t.kind == "~":
            conj = True
            self.next()
        head = self.expect("NAME", "a relation name")
        bent_span = self.next().span if self.peek().kind == "~" else None
        args = self.items(self.term, "(", ")")
        return FAtomic(conj, head.text, args, head.span, bent_span is not None, bent_span)

    def term(self) -> TermNode:
        t = self.peek()
        conj = False
        if t.kind == "~":
            conj = True
            self.next()
        head = self.expect("NAME", "a term")
        args = self.items(self.term, "(", ")") if self.peek().kind == "(" else None
        return TermNode(conj, head.text, args, head.span)

    # -- declarations -----------------------------------------------------------

    def labels(self) -> tuple[str, ...]:
        return self.items(lambda: self.quoted("a quoted label"))

    def decl(self) -> Decl:
        t = self.peek()
        if t.kind != "NAME":
            self.error(t.span, f"expected a declaration, found {t.text!r}")
        if t.text in _DECL_HEADS:
            return getattr(self, f"{t.text}_decl")()
        self.error(t.span, f"unknown declaration {t.text!r}",
                   "expected one of " + ", ".join(_DECL_HEADS))

    def qset_decl(self) -> DQSet:
        start = self.next().span
        name = self.expect("NAME", "a quantum set name").text
        self.expect("{")
        kind = self.expect("NAME", "atoms or classical")
        dims = labels = None
        if kind.text == "atoms":
            self.expect("=")
            dims = self.items(self.integer)
        elif kind.text == "classical":
            self.expect("=")
            labels = self.labels()
        else:
            self.error(kind.span, "expected 'atoms = [...]' or 'classical = [...]'")
        self.expect("}")
        return DQSet(name, dims, labels, start)

    def rel_decl(self) -> DRel:
        start = self.next().span
        name = self.expect("NAME", "a relation name").text
        self.expect(":")
        arity = self.items(self.sort_expr, "(", ")")
        if not arity:  # no nullary rel: an empty arity reads as a missing sort
            self.error(self.tokens[self.pos - 1].span, "expected a sort, found ')'")
        self.expect("{")
        blocks = tuples = None
        if self.at_name("tuples"):
            self.next()
            self.expect("=")
            tuples = self.items(lambda: self.items(self.quoted, "(", ")"))
        else:
            blocks = self.blocks()
        self.expect("}")
        return DRel(name, arity, blocks, tuples, start)

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
            blocks = self.blocks()
        self.expect("}")
        return DFn(name, dom, cod, blocks, mapping, start)

    def map_list(self) -> tuple[tuple[tuple[str, ...], str], ...]:
        def entry():
            args = self.items(self.quoted, "(", ")")
            self.expect("->")
            return args, self.quoted()

        return self.items(entry)

    def const_decl(self) -> DConst:
        start = self.next().span
        name = self.expect("NAME", "a constant name").text
        self.expect(":")
        sort = self.sort_expr()
        self.expect("=")
        return DConst(name, sort, self.quoted(), start)

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
        first: dict[tuple[str, str], Span] = {}

        def entry():
            at = self.expect("(").span
            a = self.quoted("a row label")
            self.expect(",")
            b = self.quoted("a column label")
            self.expect(")")
            self.once(first, (a, b), at, f"projection ({a!r}, {b!r})")
            self.expect("=")
            return a, b, self.matrix()

        got = self.fields(
            {"dim": partial(self.assigned, self.integer),
             "rows": partial(self.assigned, self.labels),
             "cols": partial(self.assigned, self.labels), "p": entry},
            "projection family", "expected dim, rows, cols, or p (row, col) = matrix",
            many="p",
        )
        if not {"dim", "rows", "cols"} <= got.keys():
            self.error(start, "projection family needs dim, rows, and cols")
        dim, rows, cols = (got[k][0] for k in ("dim", "rows", "cols"))
        return DFamilyProj(name, dim, rows, cols, tuple(got.get("p", ())), start)

    def metric_family(self, name: str, start: Span) -> DFamilyMetric:
        self.expect_name("on")
        base = self.sort_expr()
        self.expect("{")
        levels = []
        while self.at_name("at"):
            self.next()
            value = self.number()
            self.expect("{")
            levels.append((value, self.blocks()))
            self.expect("}")
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

        def irrep():
            iname = self.expect("NAME", "an irrep name").text
            self.expect("=")
            return iname, self.items(self.matrix)

        got = self.fields(
            {"elements": partial(self.assigned, self.labels),
             "mult": partial(self.assigned, self.map_list), "irrep": irrep},
            "group", "expected elements, mult, or irrep NAME = [...]", many="irrep",
        )
        if not {"elements", "mult", "irrep"} <= got.keys():
            self.error(start, "group needs elements, mult, and at least one irrep")
        return DGroup(name, got["elements"][0], got["mult"][0], tuple(got["irrep"]), start)

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
        while self.peek().kind == "NAME" and self.peek().text not in _DECL_HEADS:
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
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind == "NAME" and t.text in _DECL_HEADS:
                return
            self.next()


# ---------------------------------------------------------------------------
# Resolution


@dataclass
class Workspace:
    qsets: dict[str, QuantumSet]
    rels: dict[str, Relation]  # arity-style relations (predicates)
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


def _parse_whole(text: str, rule: Callable, what: str) -> Any:
    """The tree of ``text`` read whole by the parser rule ``rule``; a
    malformed text raises :class:`QrelError` carrying the diagnostics'
    messages."""
    tokens, diags = _lex(text)
    parser = _Parser(tokens, diags)
    try:
        if not diags:
            tree = rule(parser)
            parser.expect("EOF", f"end of {what}")
            return tree
    except _ParseAbort:
        pass
    raise QrelError("; ".join(d.message for d in diags))


@lru_cache(maxsize=256)
def _sentence_tree(text: str) -> FNode:
    """The parse tree of a sentence text; a checker's texts are constants,
    so each is parsed once per process."""
    return _parse_whole(text, _Parser.formula, "formula")


def parse_sort(ws: Workspace, text: str) -> QuantumSet:
    """Resolve a sort expression such as ``A >< B*`` against a workspace.

    A malformed expression or an undeclared quantum set raises
    :class:`QrelError` carrying the diagnostic's message.
    """
    resolver = _Resolver([])
    resolver.ws = ws
    return resolver.strict(resolver.sort, _parse_whole(text, _Parser.sort_expr, "sort"))


def sentence_reader(
    qsets: dict[str, QuantumSet], fns: dict[str, Relation]
) -> Callable[[str], lg.Formula]:
    """A reader of closed formula texts over one symbol table: ``qsets``
    names the sorts and ``fns`` the functions.

    Each text's parse tree is cached, and the reader builds each relation a
    name stands for (its graph, its conjugate, an equality ``E[S]``) once.
    A malformed text, or one that does not resolve against the table,
    raises :class:`QrelError`.
    """
    resolver = _Resolver([])
    resolver.ws.qsets.update(qsets)
    resolver.ws.fns.update(fns)
    resolve = partial(resolver.resolve_formula, scope={})
    return lambda text: resolver.strict(resolve, _sentence_tree(text))


class _Resolver:
    def __init__(self, diags: list[Diagnostic]):
        self.diags = diags
        self.ws = Workspace({}, {}, {}, {}, {}, {}, {}, [], [])
        self.relations: dict[tuple, Relation] = {}  # memo of :meth:`named`

    def error(self, span: Span, message: str, hint: str | None = None):
        self.diags.append(Diagnostic("error", span, message, hint))
        raise _ParseAbort()

    def strict(self, resolve: Callable, tree: Any):
        """``resolve(tree)``, with its error diagnostic raised as QrelError."""
        start = len(self.diags)
        try:
            return resolve(tree)
        except _ParseAbort:
            errors = [d.message for d in self.diags[start:] if d.severity == "error"]
            raise QrelError("; ".join(errors)) from None

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
        if d.labels is not None:
            self.ws.qsets[d.name] = q.classical(d.labels)
        else:
            labels = [f"{d.name}{i}" for i in range(len(d.dims))]
            self.ws.qsets[d.name] = q.atoms(list(d.dims), labels)

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
                    if not (0 <= i < len(s)):
                        self.error(entry.span, f"atom index {i} out of range")
                flat = flat_of[tuple(entry.index)]
                blocks[(flat, 0)] = self.matrices(entry, (1, dom.dims[flat]))
            rel = Relation(dom, q.unit(), blocks)
        self.ws.rels[d.name] = rel

    def add_fn(self, d: DFn):
        self.unique(self.ws.fns, d.name, d.span, "function")
        dom, cod = self.sort(d.dom), self.sort(d.cod)
        if d.mapping is not None:
            if not (dom.is_classical and cod.is_classical):
                self.error(d.span, "map notation needs classical sorts")
            pairs = [(tup, (val,)) for tup, val in d.mapping]
            fn = q.classical_relation(q.factors(dom), [cod], pairs, d.name)
            flats = {k[0] for k in fn.blocks}
            if len(flats) != len(dom) or len(fn.blocks) != len(dom):
                self.error(d.span, "map must cover every domain element exactly once")
        else:
            index_msg = "fn blocks use (domain atom, codomain atom) indices"
            fn = Relation(dom, cod, self.binary_blocks(d.blocks, dom, cod, index_msg))
        self.ws.fns[d.name] = fn

    def binary_blocks(
        self, entries, dom: QuantumSet, cod: QuantumSet, index_msg: str
    ) -> dict:
        """The blocks of a relation from ``dom`` to ``cod``, one per
        (domain atom, codomain atom) entry."""
        blocks = {}
        for entry in entries:
            if len(entry.index) != 2:
                self.error(entry.span, index_msg)
            i, j = entry.index
            if not (0 <= i < len(dom)) or not (0 <= j < len(cod)):
                self.error(entry.span, "atom index out of range")
            blocks[(i, j)] = self.matrices(entry, (cod.dims[j], dom.dims[i]))
        return blocks

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
            fam.validate()
            self.ws.families[d.name] = fam
        else:
            base = self.sort(d.base)
            relations = {}
            values = []
            for value, blocks in d.levels:
                rel_blocks = self.binary_blocks(
                    blocks, base, base, "metric blocks use (i, j) indices"
                )
                relations[value] = Relation(base, base, rel_blocks)
                values.append(value)
            self.ws.families[d.name] = st.MetricFamily(base, tuple(sorted(values)), relations)

    # -- formula resolution ---------------------------------------------------

    def named(self, kind: str, key, conj: bool) -> Relation:
        """The relation a formula names, built once per resolver: the rel or
        fn ``key``, the graph of the fn ``key``, or equality on the sort
        expression ``key``; conjugated when ``conj``."""
        memo_key = (kind, key, conj)
        rel = self.relations.get(memo_key)
        if rel is None:
            if conj:
                rel = q.conjugate(self.named(kind, key, False))
            elif kind == "rel":
                rel = self.ws.rels[key]
            elif kind == "fn":
                rel = self.ws.fns[key]
            elif kind == "graph":
                rel = q.bend(self.ws.fns[key])
            else:
                rel = q.equality(self.sort(key))
            self.relations[memo_key] = rel
        return rel

    def resolve_term(self, t: TermNode, scope: dict[str, lg.Variable]) -> lg.Term:
        if t.args is None:
            if t.name in scope:
                if t.conj:
                    self.error(t.span,
                               f"cannot conjugate the variable {t.name!r}",
                               "bind a dual-sorted variable instead")
                return lg.Var(scope[t.name])
            if t.name in self.ws.fns:
                if not self.ws.fns[t.name].domain.is_unit:
                    self.error(t.span,
                               f"{t.name!r} is not a constant; apply it to arguments")
                return lg.App(self.named("fn", t.name, t.conj), ())
            self.error(t.span, f"unknown term {t.name!r}")
        if t.name not in self.ws.fns:
            self.error(t.span, f"unknown function {t.name!r}")
        fn = self.named("fn", t.name, t.conj)
        args = tuple(self.resolve_term(a, scope) for a in t.args)
        try:
            return lg.App(fn, args)
        except QrelError as e:
            self.error(t.span, str(e))

    def atomic(self, span: Span, rel: Relation, terms: tuple[TermNode, ...],
               scope: dict[str, lg.Variable]) -> lg.Formula:
        args = tuple(self.resolve_term(t, scope) for t in terms)
        try:
            return lg.Atomic(rel, args)
        except QrelError as e:
            self.error(span, str(e))

    def resolve_formula(self, f: FNode, scope: dict[str, lg.Variable]) -> lg.Formula:
        if isinstance(f, FAtomic):
            if f.bent and f.name not in self.ws.fns:
                what = "a rel" if f.name in self.ws.rels else "not a declared fn"
                self.error(f.bent_span,
                           f"'~' after {f.name!r} marks the graph of a fn, "
                           f"and {f.name!r} is {what}")
            if f.name in self.ws.rels and not f.bent:
                rel = self.named("rel", f.name, f.conj)
            elif f.name in self.ws.fns:
                rel = self.named("graph", f.name, f.conj)
            else:
                self.error(f.span, f"unknown relation {f.name!r}")
            return self.atomic(f.span, rel, f.args, scope)
        if isinstance(f, FEquality):
            rel = self.named("E", f.sort, False)
            return self.atomic(f.span, rel, (f.left, f.right), scope)
        if isinstance(f, FNot):
            return lg.Not(self.resolve_formula(f.body, scope))
        if isinstance(f, FBinary):
            left = self.resolve_formula(f.left, scope)
            right = self.resolve_formula(f.right, scope)
            if f.op == "sasaki":
                return lg.And(lg.Or(left, lg.Not(right)), right)
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
        if n == 0:
            self.error(d.span, "group needs at least one element")
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
        x, mul, unit_fn = gen.dual_group(data)
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
        bind_verify(self.ws, d.kind, d.names)
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
    handlers: dict[type, Callable] = {
        DQSet: r.add_qset, DRel: r.add_rel, DFn: r.add_fn, DConst: r.add_const,
        DFamilyProj: r.add_family, DFamilyMetric: r.add_family, DVar: r.add_var,
        DGroup: r.add_group, DFormula: r.add_formula, DAssert: r.add_assert,
        DVerify: r.add_verify,
    }
    for d in decls:
        try:
            handlers[type(d)](d)
        except QrelError as e:  # from a library call: reported at the declaration
            diags.append(Diagnostic("error", d.span, str(e)))
        except _ParseAbort:
            pass
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


def _print_number(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-1e999"  # the lexer reads no "-inf"
    return repr(x) if x != int(x) else str(int(x))


def _print_items(items, show: Callable = str, open: str = "[", close: str = "]") -> str:
    """The printer's mirror of ``_Parser.items``."""
    return open + ", ".join(show(x) for x in items) + close


def _quote(text: str) -> str:
    return f'"{text}"'


def _print_complex(z: complex) -> str:
    return f"[{_print_number(z.real)}, {_print_number(z.imag)}]"


def _print_matrix(m: Matrix) -> str:
    return _print_items(m, lambda row: _print_items(row, _print_complex))


def _print_blocks(blocks: tuple[BlockEntry, ...], indent: str) -> list[str]:
    return [
        f"{indent}block {_print_items(b.index, str, '(', ')')} = "
        + _print_items(b.matrices, _print_matrix)
        for b in blocks
    ]


def _print_map(mapping: tuple[tuple[tuple[str, ...], str], ...]) -> str:
    return _print_items(
        mapping, lambda e: _print_items(e[0], _quote, "(", ")") + f" -> {_quote(e[1])}"
    )


def _print_term(t: TermNode) -> str:
    head = ("~" if t.conj else "") + t.name
    if t.args is None:
        return head
    return head + _print_items(t.args, _print_term, "(", ")")


def _print_formula(f: FNode, prec: int = 0) -> str:
    # A binary connective binds at 1 + its index in _BINARY_OPS; unary ones
    # bind tighter than all of them.
    unary = len(_BINARY_OPS) + 1
    if isinstance(f, FAtomic):
        head = ("~" if f.conj else "") + f.name + ("~" if f.bent else "")
        return head + _print_items(f.args, _print_term, "(", ")")
    if isinstance(f, FEquality):
        return (
            f"E[{_print_sort(f.sort)}]"
            f"({_print_term(f.left)}, {_print_term(f.right)})"
        )
    if isinstance(f, FNot):
        return "not " + _print_formula(f.body, unary)
    if isinstance(f, FQuant):
        pair = f.var if f.dual_var is None else f"{f.var} == {f.dual_var}"
        body = _print_formula(f.body, unary)
        s = f"{f.kind} {pair} in {_print_sort(f.sort)} . {body}"
        return f"({s})" if prec > 0 else s
    if isinstance(f, FBinary) and f.op == "sasaki":
        return f"sasaki({_print_formula(f.left)}, {_print_formula(f.right)})"
    if isinstance(f, FBinary):
        op_prec = _BINARY_OPS.index(f.op) + 1
        right_assoc = f.op == "->"
        left = _print_formula(f.left, op_prec + right_assoc)
        right = _print_formula(f.right, op_prec + (not right_assoc))
        s = f"{left} {f.op} {right}"
        return f"({s})" if prec >= op_prec else s
    raise TypeError(f)


def print_workspace(decls: list[Decl]) -> str:
    out: list[str] = []
    for d in decls:
        if isinstance(d, DQSet):
            if d.labels is not None:
                body = "classical = " + _print_items(d.labels, _quote)
            else:
                body = "atoms = " + _print_items(d.dims)
            out.append(f"qset {d.name} {{ {body} }}")
        elif isinstance(d, DRel):
            out.append(f"rel {d.name} : {_print_items(d.arity, _print_sort, '(', ')')} {{")
            if d.tuples is not None:
                tups = _print_items(d.tuples, lambda t: _print_items(t, _quote, "(", ")"))
                out.append(f"  tuples = {tups}")
            else:
                out.extend(_print_blocks(d.blocks, "  "))
            out.append("}")
        elif isinstance(d, DFn):
            out.append(
                f"fn {d.name} : {_print_sort(d.dom)} -> {_print_sort(d.cod)} {{"
            )
            if d.mapping is not None:
                out.append(f"  map = {_print_map(d.mapping)}")
            else:
                out.extend(_print_blocks(d.blocks, "  "))
            out.append("}")
        elif isinstance(d, DConst):
            out.append(f'const {d.name} : {_print_sort(d.sort)} = "{d.value}"')
        elif isinstance(d, DFamilyProj):
            out.append(f"family {d.name} : projections {{")
            out.append(f"  dim = {d.dim}")
            out.append(f"  rows = {_print_items(d.rows, _quote)}")
            out.append(f"  cols = {_print_items(d.cols, _quote)}")
            for a, b, m in d.entries:
                out.append(f'  p ("{a}", "{b}") = {_print_matrix(m)}')
            out.append("}")
        elif isinstance(d, DFamilyMetric):
            out.append(f"family {d.name} : metric on {_print_sort(d.base)} {{")
            for value, blocks in d.levels:
                out.append(f"  at {_print_number(value)} {{")
                out.extend(_print_blocks(blocks, "    "))
                out.append("  }")
            out.append("}")
        elif isinstance(d, DVar):
            out.append(f"var {d.name} : {_print_sort(d.sort)}")
        elif isinstance(d, DGroup):
            out.append(f"group {d.name} {{")
            out.append(f"  elements = {_print_items(d.elements, _quote)}")
            out.append(f"  mult = {_print_map(d.mult)}")
            for iname, mats in d.irreps:
                out.append(f"  irrep {iname} = {_print_items(mats, _print_matrix)}")
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
