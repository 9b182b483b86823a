"""Concrete syntax for program files (.rsl) and property files (.ltl).

Identifiers are variables or functions, or constructors when their first
letter is uppercase; application is juxtaposition, left-associative. ``data``
declarations and ``fair:`` headers are one per line; everything else is
layout-free. A new ``where`` definition is recognized by the two-token
lookahead IDENT ``=``. A property file is read against the constructor table
of the program it describes. See docs/formats.md for the full EBNF.

The lexer cuts each line (lines end at "\\n" only) at its first ``#`` and
scans the rest with one ``findall`` into flat lists of token texts, tags and
line numbers; the descent reads them at a cursor. A tag is the text of a symbol
or keyword, else ``lid`` or ``uid``, from a per-call table that classifies each
distinct word once. One ``eof`` entry ends the lists and the cursor never
passes it, so lookahead needs no bounds check. A column is found only when a
diagnostic needs one, by scanning that token's line again.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Mapping, Optional

from .terms import (
    Alt, Always, And, App, Atom, Case, Con, DataDecl, Eventually, Formula,
    Fun, Implies, Lam, Let, Next, Not, Or, PCon, Term, Var, WILD,
    Where, app, arity_table, atoms, check_formula, check_term, BUILTIN_DECLS,
)

KEYWORDS = {"case", "of", "let", "in", "where", "data"}

SYMBOLS = frozenset(("->", "=>", "&&", "||", "\\", "(", ")", "{", "}", "|", "=",
                     ":", ",", "_", "!"))

# a symbol (longest first, and "_" before a word), a word, a comment, or any
# other character that is not a blank; the search skips blanks
_TOKEN = re.compile(r"->|=>|&&|\|\||[\\(){}|=:,_!]|\w+|#|[^ \t\r]")

TOO_DEEP = "nested too deeply to parse"


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


@dataclass(frozen=True)
class SourceFile:
    decls: tuple[DataDecl, ...]
    term: Optional[Term]
    diagnostics: tuple[Diagnostic, ...]

    def arities(self) -> dict[str, int]:
        return arity_table(self.decls)


@dataclass(frozen=True)
class PropertyFile:
    props: tuple[tuple[str, Formula], ...]
    fair: frozenset[str]
    diagnostics: tuple[Diagnostic, ...]

    def get(self, name: str) -> Optional[Formula]:
        for n, f in self.props:
            if n == name:
                return f
        return None


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# --- lexer --------------------------------------------------------------------

class _Tags(dict):
    """Token text to tag; a word is classified on its first lookup."""

    __slots__ = ()

    def __missing__(self, word: str) -> str:
        if not word[0].isalpha():  # a digit first, or any other character
            raise KeyError(word)
        tag = self[word] = "uid" if word[0].isupper() else "lid"
        return tag


_FIXED_TAGS = {word: word for word in (*SYMBOLS, *KEYWORDS)}


class _Tokens:
    """A text's tokens as parallel lists of texts, tags and lines, and a cursor."""

    __slots__ = ("texts", "tags", "lines", "rows", "pos")

    def __init__(self, text: str):
        self.rows = rows = text.split("\n")
        self.texts = texts = []
        self.lines = lines = []
        self.pos = 0
        findall = _TOKEN.findall
        for line, row in enumerate(rows, 1):
            cut = row.find("#")
            words = findall(row) if cut < 0 else findall(row, 0, cut)
            texts += words
            lines += repeat(line, len(words))
        try:
            self.tags = list(map(_Tags(_FIXED_TAGS).__getitem__, texts))
        except KeyError as exc:
            word = exc.args[0]
            raise self.error(texts.index(word),
                             f"unexpected character {word[0]!r}") from None
        texts.append("")
        self.tags.append("eof")
        lines.append(len(rows))

    def diagnostic(self, pos: int, message: str) -> Diagnostic:
        """``message`` at token ``pos``; the column comes from lexing its line again."""
        line = self.lines[pos]
        row = self.rows[line - 1]
        if not self.texts[pos]:  # eof: past the last line, comment included
            return Diagnostic(line, len(row) + 1, message)
        nth = pos - bisect_left(self.lines, line)
        col = next(islice(_TOKEN.finditer(row), nth, None)).start() + 1
        return Diagnostic(line, col, message)

    def error(self, pos: int, message: str) -> ParseError:
        return ParseError(self.diagnostic(pos, message))

    def expected(self, pos: int, tag: str) -> ParseError:
        return self.error(pos, f"expected {tag!r}, "
                               f"found {self.texts[pos] or 'end of input'!r}")

    def expect(self, tag: str) -> int:
        """Move past the token at the cursor, which must be a ``tag``; its index."""
        pos = self.pos
        if self.tags[pos] != tag:
            raise self.expected(pos, tag)
        self.pos = pos + 1
        return pos


def _descend(parse: Callable[[_Tokens], Term | Formula],
             ts: _Tokens) -> Term | Formula:
    """``parse(ts)``, with nesting too deep for the stack reported where it stands."""
    try:
        return parse(ts)
    except RecursionError:
        raise ts.error(ts.pos, TOO_DEEP) from None


# --- program parsing ------------------------------------------------------------

def parse_program(text: str) -> SourceFile:
    """Parse a program file into declarations and a checked top-level term."""
    try:
        ts = _Tokens(text)
        decls, diagnostics = _parse_decls(ts)
        term = _descend(_parse_expr, ts)
        if ts.tags[ts.pos] != "eof":
            raise ts.error(ts.pos, f"unexpected {ts.texts[ts.pos]!r} after program")
    except ParseError as exc:
        return SourceFile((), None, (exc.diagnostic,))

    arities = arity_table(decls)
    try:
        term = _resolve(term, frozenset())
        diagnostics.extend(Diagnostic(1, 1, msg) for msg in check_term(term, arities))
    except RecursionError:
        diagnostics.append(Diagnostic(1, 1, TOO_DEEP))
    if diagnostics:
        return SourceFile(tuple(decls), None, tuple(diagnostics))
    return SourceFile(tuple(decls), term, ())


def _parse_decls(ts: _Tokens) -> tuple[list[DataDecl], list[Diagnostic]]:
    """The data declarations, and their problems at the names they concern."""
    tags, texts, lines = ts.tags, ts.texts, ts.lines
    decls: list[DataDecl] = []
    problems: list[Diagnostic] = []
    builtin = {d.name: d for d in BUILTIN_DECLS}
    seen: dict[str, str] = {c: d.name for d in BUILTIN_DECLS
                            for c, _ in d.constructors}
    while tags[ts.pos] == "data":
        line = lines[ts.pos]
        ts.pos += 1
        name = ts.expect("uid")
        ts.expect("=")
        constructors: list[tuple[str, int]] = []
        con_at: list[int] = []  # the token index of each constructor name
        while True:
            at = ts.expect("uid")
            con_at.append(at)
            arity = 0
            # each atomic type token on the declaration line is one argument
            while lines[ts.pos] == line and tags[ts.pos] in ("uid", "lid", "("):
                _skip_type_atom(ts)
                arity += 1
            constructors.append((texts[at], arity))
            if lines[ts.pos] != line or tags[ts.pos] != "|":
                break
            ts.pos += 1
        decl = DataDecl(texts[name], tuple(constructors))
        decls.append(decl)
        if decl.name in builtin:
            if decl.constructors != builtin[decl.name].constructors:
                problems.append(ts.diagnostic(
                    name, f"datatype {decl.name} is built in and may only be "
                    "redeclared verbatim"))
            continue  # verbatim redeclaration is a no-op
        for (con, _), at in zip(constructors, con_at):
            if con in seen:
                problems.append(ts.diagnostic(
                    at, f"constructor {con} already declared in {seen[con]}"))
            seen[con] = decl.name
    return decls, problems


def _skip_type_atom(ts: _Tokens) -> None:
    """Move past a word, or past a parenthesized group, which may span lines."""
    tags, pos, depth = ts.tags, ts.pos, 0
    while True:
        tag = tags[pos]
        if tag == "eof":
            raise ts.error(pos, "unclosed parenthesis in data declaration")
        pos += 1
        if tag == "(":
            depth += 1
        elif tag == ")":
            depth -= 1
        if depth == 0:
            ts.pos = pos
            return


def _parse_expr(ts: _Tokens) -> Term:
    tags, texts, pos = ts.tags, ts.texts, ts.pos
    tag = tags[pos]
    if tag == "\\":
        pos += 1
        if tags[pos] != "lid":
            raise ts.expected(pos, "lid")
        start = pos
        while tags[pos] == "lid":
            pos += 1
        if tags[pos] != "->":
            raise ts.expected(pos, "->")
        ts.pos = pos + 1
        body = _parse_expr(ts)
        for param in reversed(texts[start:pos]):
            body = Lam(param, body)
        return body
    if tag == "let":
        ts.pos = pos + 1
        name = texts[ts.expect("lid")]
        ts.expect("=")
        bound = _parse_expr(ts)
        ts.expect("in")
        return Let(name, bound, _parse_expr(ts))
    if tag == "case":
        ts.pos = pos + 1
        return _parse_case(ts)
    # a lambda, let or case ends in an expression that took any where block
    term = _parse_app(ts)
    pos = ts.pos
    if tags[pos] != "where":
        return term
    defs = []
    pos += 1
    while True:  # the first definition, then each IDENT "=" that follows one
        if tags[pos] != "lid":
            raise ts.expected(pos, "lid")
        if tags[pos + 1] != "=":
            raise ts.expected(pos + 1, "=")
        ts.pos = pos + 2
        defs.append((texts[pos], _parse_expr(ts)))
        pos = ts.pos
        if tags[pos] != "lid" or tags[pos + 1] != "=":
            return Where(term, tuple(defs))


def _parse_case(ts: _Tokens) -> Term:
    scrut = _parse_app(ts)
    ts.expect("of")
    alts = [_parse_alt(ts)]
    while ts.tags[ts.pos] == "|":
        ts.pos += 1
        alts.append(_parse_alt(ts))
    return Case(scrut, tuple(alts))


def _parse_alt(ts: _Tokens) -> Alt:
    tags, texts, pos = ts.tags, ts.texts, ts.pos
    tag = tags[pos]
    if tag == "_":
        pattern = WILD
        pos += 1
    elif tag == "uid":
        start = pos = pos + 1
        while tags[pos] == "lid":
            pos += 1
        if tags[pos] in ("_", "uid", "("):
            raise ts.error(pos, "nested pattern: patterns are a constructor "
                                "plus variables")
        pattern = PCon(texts[start - 1], tuple(texts[start:pos]))
    else:
        raise ts.error(pos, "expected a constructor pattern or _")
    if tags[pos] != "->":
        raise ts.expected(pos, "->")
    ts.pos = pos + 1
    return Alt(pattern, _parse_expr(ts))


def _parse_app(ts: _Tokens) -> Term:
    """Atoms side by side, up to a token that starts none or a ``where`` definition."""
    tags, texts, pos = ts.tags, ts.texts, ts.pos
    parts: list[Term] = []
    while True:
        tag = tags[pos]
        if tag == "lid":
            parts.append(Var(texts[pos]))
            pos += 1
        elif tag == "uid":
            parts.append(Con(texts[pos]))
            pos += 1
        elif tag == "(":
            ts.pos = pos + 1
            parts.append(_parse_expr(ts))
            pos = ts.pos
            if tags[pos] != ")":
                raise ts.expected(pos, ")")
            pos += 1
        else:
            raise ts.error(pos, "expected an expression, "
                                f"found {texts[pos] or 'end of input'!r}")
        tag = tags[pos]
        if not (tag == "uid" or tag == "(" or (tag == "lid" and tags[pos + 1] != "=")):
            break
    ts.pos = pos
    head = parts[0]
    if isinstance(head, Con) and not head.args:
        # bare constructor applied by juxtaposition: a saturated application
        return Con(head.con, tuple(parts[1:])) if len(parts) > 1 else head
    return app(head, *parts[1:])


def _resolve(t: Term, funs: frozenset[str]) -> Term:
    """Turn variables bound by an enclosing where into function references.

    ``funs`` holds the where-bound names that no inner binder shadows; it is
    copied only where a binder shadows one of them.
    """
    tt = type(t)
    if tt is Var:
        return Fun(t.name) if t.name in funs else t
    if tt is App:
        return App(_resolve(t.fn, funs), _resolve(t.arg, funs))
    if tt is Con:
        return Con(t.con, tuple(_resolve(a, funs) for a in t.args)) if t.args else t
    if tt is Case:
        alts = []
        for alt in t.alts:
            inner = funs
            if isinstance(alt.pattern, PCon) and not funs.isdisjoint(alt.pattern.vars):
                inner = funs.difference(alt.pattern.vars)
            alts.append(Alt(alt.pattern, _resolve(alt.body, inner)))
        return Case(_resolve(t.scrutinee, funs), tuple(alts))
    if tt is Lam:
        inner = funs - {t.param} if t.param in funs else funs
        return Lam(t.param, _resolve(t.body, inner))
    if tt is Let:
        inner = funs - {t.name} if t.name in funs else funs
        return Let(t.name, _resolve(t.bound, funs), _resolve(t.body, inner))
    if tt is Where:
        inner = funs.union(f for f, _ in t.defs)
        return Where(_resolve(t.body, inner),
                     tuple((f, _resolve(d, inner)) for f, d in t.defs))
    if tt is Fun:
        return t
    raise TypeError(f"not a term: {t!r}")


# --- property parsing ------------------------------------------------------------

def parse_properties(text: str, arities: Mapping[str, int]) -> PropertyFile:
    """Parse a property file: an optional ``fair:`` header and named formulas.

    ``arities`` is the program's constructor table: fairness names must be
    declared nullary constructors, and atom terms are arity-checked against it.
    """
    try:
        ts = _Tokens(text)
        tags, texts = ts.tags, ts.texts
        fair: list[int] = []  # the token index of each fairness name
        props: list[tuple[int, Formula]] = []  # each with its name's index
        while tags[ts.pos] != "eof":
            pos = ts.pos
            if tags[pos] == "lid" and texts[pos] == "fair":
                ts.pos += 1
                ts.expect(":")
                fair.append(ts.expect("uid"))
                while tags[ts.pos] == ",":
                    ts.pos += 1
                    fair.append(ts.expect("uid"))
            elif tags[pos] == "lid" and texts[pos] == "prop":
                ts.pos += 1
                name = ts.expect("lid")
                ts.expect(":")
                props.append((name, _descend(_parse_implies, ts)))
            else:
                raise ts.error(pos, f"expected 'prop' or 'fair', found {texts[pos]!r}")
    except ParseError as exc:
        return PropertyFile((), frozenset(), (exc.diagnostic,))

    # semantic problems are reported at the property's or fairness name
    diagnostics: list[Diagnostic] = []
    seen: set[str] = set()
    for name, _ in props:
        if texts[name] in seen:
            diagnostics.append(ts.diagnostic(name, f"duplicate property {texts[name]}"))
        seen.add(texts[name])
    try:
        for name, formula in props:
            for msg in check_formula(formula):
                diagnostics.append(ts.diagnostic(name, msg))
            for atom in atoms(formula):
                for msg in check_term(atom.term, arities):
                    diagnostics.append(ts.diagnostic(name, msg))
    except RecursionError:
        diagnostics.append(ts.diagnostic(name, TOO_DEEP))
    for name in fair:
        if arities.get(texts[name]) is None:
            diagnostics.append(ts.diagnostic(
                name, f"unknown fairness constructor {texts[name]}"))
        elif arities[texts[name]] != 0:
            diagnostics.append(ts.diagnostic(
                name, f"fairness constructor {texts[name]} is not nullary"))
    if diagnostics:
        return PropertyFile((), frozenset(), tuple(diagnostics))
    return PropertyFile(tuple((texts[name], f) for name, f in props),
                        frozenset(texts[name] for name in fair), ())


_PREFIX_OPS = {"G": Always, "F": Eventually, "X": Next}


def _parse_implies(ts: _Tokens) -> Formula:
    left = _parse_or(ts)
    if ts.tags[ts.pos] == "=>":
        ts.pos += 1
        return Implies(left, _parse_implies(ts))
    return left


def _parse_or(ts: _Tokens) -> Formula:
    out = _parse_and(ts)
    while ts.tags[ts.pos] == "||":
        ts.pos += 1
        out = Or(out, _parse_and(ts))
    return out


def _parse_and(ts: _Tokens) -> Formula:
    out = _parse_unary(ts)
    while ts.tags[ts.pos] == "&&":
        ts.pos += 1
        out = And(out, _parse_unary(ts))
    return out


def _parse_unary(ts: _Tokens) -> Formula:
    pos = ts.pos
    tag = ts.tags[pos]
    ts.pos = pos + (tag != "eof")
    if tag == "!":
        return Not(_parse_unary(ts))
    if tag == "uid" and ts.texts[pos] in _PREFIX_OPS:
        return _PREFIX_OPS[ts.texts[pos]](_parse_unary(ts))
    if tag == "{":
        term = _resolve(_parse_expr(ts), frozenset())
        ts.expect("}")
        return Atom(term)
    if tag == "(":
        inner = _parse_implies(ts)
        ts.expect(")")
        return inner
    raise ts.error(pos, f"expected a formula, found {ts.texts[pos] or 'end of input'!r}")
