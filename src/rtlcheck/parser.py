"""Concrete syntax for program files (.rsl) and property files (.ltl).

Identifiers are variables or functions, or constructors when their first
letter is uppercase; application is juxtaposition, left-associative. ``data``
declarations and ``fair:`` headers are one per line; everything else is
layout-free. A new ``where`` definition is recognized by the two-token
lookahead IDENT ``=``. A property file is read against the constructor table
of the program it describes. See docs/formats.md for the full EBNF.

The lexer runs one regular expression along each line (lines end at "\\n"
only). A token's tag is its text for a symbol or keyword, else ``lid``,
``uid`` or ``eof``; one ``eof`` token ends the list and the cursor never
passes it, so lookahead needs no bounds check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional

from .terms import (
    Alt, Always, And, App, Atom, Case, Con, DataDecl, Eventually, Formula,
    Fun, Implies, Lam, Let, Next, Not, Or, PCon, Pattern, Term, Var, WILD,
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
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.diagnostic = Diagnostic(line, col, message)


# --- lexer --------------------------------------------------------------------

class Token(NamedTuple):
    tag: str  # the text of a symbol or keyword; "lid", "uid" or "eof"
    text: str
    line: int
    col: int


# Token(...) without the Python frame of the NamedTuple's __new__
_token = tuple.__new__


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for line, row in enumerate(text.split("\n"), 1):
        end = len(row) + 1
        for m in _TOKEN.finditer(row):
            word = m.group()
            if word[0].isalpha():
                tag = (word if word in KEYWORDS
                       else "uid" if word[0].isupper() else "lid")
                append(_token(Token, (tag, word, line, m.start() + 1)))
            elif word in SYMBOLS:
                append(_token(Token, (word, word, line, m.start() + 1)))
            elif word == "#":
                break
            else:  # a word starting with a non-letter, or any other character
                raise ParseError(f"unexpected character {word[0]!r}",
                                 line, m.start() + 1)
    append(_token(Token, ("eof", "", line, end)))
    return tokens


class _Tokens:
    __slots__ = ("tokens", "pos")

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.tag != "eof":
            self.pos += 1
        return tok

    def at(self, tag: str) -> bool:
        return self.tokens[self.pos].tag == tag

    def expect(self, tag: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.tag != tag:
            raise ParseError(f"expected {tag!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        self.pos += 1
        return tok


def _descend(parse: Callable[[_Tokens], Term | Formula],
             ts: _Tokens) -> Term | Formula:
    """``parse(ts)``, with nesting too deep for the stack reported where it stands."""
    try:
        return parse(ts)
    except RecursionError:
        tok = ts.peek()
        raise ParseError(TOO_DEEP, tok.line, tok.col) from None


# --- program parsing ------------------------------------------------------------

def parse_program(text: str) -> SourceFile:
    """Parse a program file into declarations and a checked top-level term."""
    try:
        ts = _Tokens(tokenize(text))
        decls = _parse_decls(ts)
        term = _descend(_parse_expr, ts)
        tok = ts.peek()
        if tok.tag != "eof":
            raise ParseError(f"unexpected {tok.text!r} after program", tok.line, tok.col)
    except ParseError as exc:
        return SourceFile((), None, (exc.diagnostic,))

    diagnostics = [Diagnostic(1, 1, msg) for msg in _decl_problems(decls)]
    arities = arity_table(decls)
    try:
        term = _resolve(term, frozenset())
        diagnostics.extend(Diagnostic(1, 1, msg) for msg in check_term(term, arities))
    except RecursionError:
        diagnostics.append(Diagnostic(1, 1, TOO_DEEP))
    if diagnostics:
        return SourceFile(tuple(decls), None, tuple(diagnostics))
    return SourceFile(tuple(decls), term, ())


def _parse_decls(ts: _Tokens) -> list[DataDecl]:
    decls: list[DataDecl] = []
    while ts.at("data"):
        data_tok = ts.next()
        name = ts.expect("uid").text
        ts.expect("=")
        constructors: list[tuple[str, int]] = []
        while True:
            con = ts.expect("uid").text
            arity = 0
            # each atomic type token on the declaration line is one argument
            while _on_line(ts, data_tok.line) and ts.peek().tag in ("uid", "lid", "("):
                _skip_type_atom(ts)
                arity += 1
            constructors.append((con, arity))
            if _on_line(ts, data_tok.line) and ts.at("|"):
                ts.next()
                continue
            break
        decls.append(DataDecl(name, tuple(constructors)))
    return decls


def _on_line(ts: _Tokens, line: int) -> bool:
    tok = ts.peek()
    return tok.tag != "eof" and tok.line == line


def _skip_type_atom(ts: _Tokens) -> None:
    if ts.at("("):
        depth = 0
        while True:
            tok = ts.next()
            if tok.tag == "eof":
                raise ParseError("unclosed parenthesis in data declaration",
                                 tok.line, tok.col)
            if tok.tag == "(":
                depth += 1
            elif tok.tag == ")":
                depth -= 1
                if depth == 0:
                    return
    else:
        ts.next()


def _decl_problems(decls: list[DataDecl]) -> list[str]:
    problems: list[str] = []
    builtin = {d.name: d for d in BUILTIN_DECLS}
    seen: dict[str, str] = {c: d.name for d in BUILTIN_DECLS
                            for c, _ in d.constructors}
    for decl in decls:
        if decl.name in builtin:
            if decl.constructors != builtin[decl.name].constructors:
                problems.append(f"datatype {decl.name} is built in and may only "
                                "be redeclared verbatim")
            continue  # verbatim redeclaration is a no-op
        for con, arity in decl.constructors:
            if arity < 0:
                problems.append(f"negative arity for {con}")
            if con in seen:
                problems.append(f"constructor {con} already declared "
                                f"in {seen[con]}")
            seen[con] = decl.name
    return problems


def _parse_expr(ts: _Tokens) -> Term:
    tag = ts.peek().tag
    if tag == "\\":
        ts.next()
        params = [ts.expect("lid").text]
        while ts.at("lid"):
            params.append(ts.next().text)
        ts.expect("->")
        body = _parse_expr(ts)
        for p in reversed(params):
            body = Lam(p, body)
        return body
    if tag == "let":
        ts.next()
        name = ts.expect("lid").text
        ts.expect("=")
        bound = _parse_expr(ts)
        ts.expect("in")
        body = _parse_expr(ts)
        return Let(name, bound, body)
    if tag == "case":
        return _parse_case(ts)
    # a lambda, let or case ends in an expression that took any where block
    term = _parse_app(ts)
    if ts.at("where"):
        ts.next()
        defs = [_parse_def(ts)]
        while _at_def_boundary(ts):
            defs.append(_parse_def(ts))
        term = Where(term, tuple(defs))
    return term


def _parse_case(ts: _Tokens) -> Term:
    ts.expect("case")
    scrut = _parse_app(ts)
    ts.expect("of")
    alts = [_parse_alt(ts)]
    while ts.at("|"):
        ts.next()
        alts.append(_parse_alt(ts))
    return Case(scrut, tuple(alts))


def _parse_alt(ts: _Tokens) -> Alt:
    pattern = _parse_pattern(ts)
    ts.expect("->")
    return Alt(pattern, _parse_expr(ts))


def _parse_pattern(ts: _Tokens) -> Pattern:
    tok = ts.next()
    if tok.tag == "_":
        return WILD
    if tok.tag != "uid":
        raise ParseError("expected a constructor pattern or _", tok.line, tok.col)
    con = tok.text
    pvars: list[str] = []
    while True:
        tok = ts.peek()
        if tok.tag == "lid":
            pvars.append(ts.next().text)
        elif tok.tag in ("_", "uid", "("):
            raise ParseError("nested pattern: patterns are a constructor "
                             "plus variables", tok.line, tok.col)
        else:
            break
    return PCon(con, tuple(pvars))


def _at_def_boundary(ts: _Tokens) -> bool:
    return ts.at("lid") and ts.peek(1).tag == "="


def _parse_def(ts: _Tokens) -> tuple[str, Term]:
    name = ts.expect("lid").text
    ts.expect("=")
    return name, _parse_expr(ts)


def _parse_app(ts: _Tokens) -> Term:
    parts = [_parse_atom(ts)]
    while _starts_atom(ts):
        parts.append(_parse_atom(ts))
    head, args = parts[0], parts[1:]
    if isinstance(head, Con) and not head.args:
        # bare constructor applied by juxtaposition: a saturated application
        return Con(head.con, tuple(args))
    if not args:
        return head
    return app(head, *args)


def _starts_atom(ts: _Tokens) -> bool:
    tag = ts.peek().tag
    return tag == "uid" or tag == "(" or (tag == "lid" and ts.peek(1).tag != "=")


def _parse_atom(ts: _Tokens) -> Term:
    tok = ts.next()
    if tok.tag == "lid":
        return Var(tok.text)
    if tok.tag == "uid":
        return Con(tok.text)
    if tok.tag == "(":
        inner = _parse_expr(ts)
        ts.expect(")")
        return inner
    raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}",
                     tok.line, tok.col)


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
        ts = _Tokens(tokenize(text))
        fair: list[Token] = []
        props: list[tuple[Token, Formula]] = []  # each with its name's token
        while not ts.at("eof"):
            tok = ts.peek()
            if tok.tag == "lid" and tok.text == "fair":
                ts.next()
                ts.expect(":")
                fair.append(ts.expect("uid"))
                while ts.at(","):
                    ts.next()
                    fair.append(ts.expect("uid"))
            elif tok.tag == "lid" and tok.text == "prop":
                ts.next()
                name = ts.expect("lid")
                ts.expect(":")
                props.append((name, _descend(_parse_implies, ts)))
            else:
                raise ParseError(f"expected 'prop' or 'fair', found {tok.text!r}",
                                 tok.line, tok.col)
    except ParseError as exc:
        return PropertyFile((), frozenset(), (exc.diagnostic,))

    # semantic problems are reported at the property's or fairness name
    diagnostics: list[Diagnostic] = []
    seen: set[str] = set()
    for name, _ in props:
        if name.text in seen:
            diagnostics.append(_at(name, f"duplicate property {name.text}"))
        seen.add(name.text)
    try:
        for name, formula in props:
            for msg in check_formula(formula):
                diagnostics.append(_at(name, msg))
            for atom in atoms(formula):
                for msg in check_term(atom.term, arities):
                    diagnostics.append(_at(name, msg))
    except RecursionError:
        diagnostics.append(_at(name, TOO_DEEP))
    for name in fair:
        if arities.get(name.text) is None:
            diagnostics.append(
                _at(name, f"unknown fairness constructor {name.text}"))
        elif arities[name.text] != 0:
            diagnostics.append(
                _at(name, f"fairness constructor {name.text} is not nullary"))
    if diagnostics:
        return PropertyFile((), frozenset(), tuple(diagnostics))
    return PropertyFile(tuple((name.text, f) for name, f in props),
                        frozenset(name.text for name in fair), ())


def _at(tok: Token, message: str) -> Diagnostic:
    return Diagnostic(tok.line, tok.col, message)


_PREFIX_OPS = {"G": Always, "F": Eventually, "X": Next}


def _parse_implies(ts: _Tokens) -> Formula:
    left = _parse_or(ts)
    if ts.at("=>"):
        ts.next()
        return Implies(left, _parse_implies(ts))
    return left


def _parse_or(ts: _Tokens) -> Formula:
    out = _parse_and(ts)
    while ts.at("||"):
        ts.next()
        out = Or(out, _parse_and(ts))
    return out


def _parse_and(ts: _Tokens) -> Formula:
    out = _parse_unary(ts)
    while ts.at("&&"):
        ts.next()
        out = And(out, _parse_unary(ts))
    return out


def _parse_unary(ts: _Tokens) -> Formula:
    tok = ts.next()
    if tok.tag == "!":
        return Not(_parse_unary(ts))
    if tok.tag == "uid" and tok.text in _PREFIX_OPS:
        return _PREFIX_OPS[tok.text](_parse_unary(ts))
    if tok.tag == "{":
        term = _resolve(_parse_expr(ts), frozenset())
        ts.expect("}")
        return Atom(term)
    if tok.tag == "(":
        inner = _parse_implies(ts)
        ts.expect(")")
        return inner
    raise ParseError(f"expected a formula, found {tok.text or 'end of input'!r}",
                     tok.line, tok.col)
