"""Concrete syntax for program files (.rsl) and property files (.ltl).

Lowercase-initial identifiers are variables or functions, uppercase-initial
are constructors; application is juxtaposition, left-associative. ``data``
declarations and ``fair:`` headers are one per line; everything else is
layout-free. A new ``where`` definition is recognized by the two-token
lookahead IDENT ``=``. A property file is read against the constructor
table of the program it describes. See docs/formats.md for the full EBNF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .terms import (
    Alt, Always, And, App, Atom, Case, Con, DataDecl, Eventually, Formula,
    Fun, Implies, Lam, Let, Next, Not, Or, PCon, Pattern, Term, Var, WILD,
    Where, app, arity_table, atoms, check_formula, check_term, BUILTIN_DECLS,
)

KEYWORDS = {"case", "of", "let", "in", "where", "data"}
SYMBOLS = ("->", "=>", "&&", "||", "\\", "(", ")", "{", "}", "|", "=", ":",
           ",", "_", "!")


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

@dataclass(frozen=True)
class Token:
    kind: str  # "lid", "uid", "sym", "kw", "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word in KEYWORDS:
                kind = "kw"
            elif word[0].isupper():
                kind = "uid"
            else:
                kind = "lid"
            tokens.append(Token(kind, word, line, col))
            col += len(word)
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Tokens:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def at_kw(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text == text

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()


# --- program parsing ------------------------------------------------------------

def parse_program(text: str) -> SourceFile:
    """Parse a program file into declarations and a checked top-level term."""
    try:
        ts = _Tokens(tokenize(text))
        decls = _parse_decls(ts)
        term = _parse_expr(ts)
        tok = ts.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r} after program", tok.line, tok.col)
    except ParseError as exc:
        return SourceFile((), None, (exc.diagnostic,))

    diagnostics = [Diagnostic(1, 1, msg) for msg in _decl_problems(decls)]
    arities = arity_table(decls)
    term = _resolve(term, {})
    diagnostics.extend(Diagnostic(1, 1, msg) for msg in check_term(term, arities))
    if diagnostics:
        return SourceFile(tuple(decls), None, tuple(diagnostics))
    return SourceFile(tuple(decls), term, ())


def _parse_decls(ts: _Tokens) -> list[DataDecl]:
    decls: list[DataDecl] = []
    while ts.at_kw("data"):
        data_tok = ts.next()
        name = ts.expect("uid").text
        ts.expect("sym", "=")
        constructors: list[tuple[str, int]] = []
        while True:
            con = ts.expect("uid").text
            arity = 0
            # each atomic type token on the declaration line is one argument
            while _on_line(ts, data_tok.line) and (
                    ts.peek().kind in ("uid", "lid") or ts.at_sym("(")):
                _skip_type_atom(ts)
                arity += 1
            constructors.append((con, arity))
            if _on_line(ts, data_tok.line) and ts.at_sym("|"):
                ts.next()
                continue
            break
        decls.append(DataDecl(name, tuple(constructors)))
    return decls


def _on_line(ts: _Tokens, line: int) -> bool:
    tok = ts.peek()
    return tok.kind != "eof" and tok.line == line


def _skip_type_atom(ts: _Tokens) -> None:
    if ts.at_sym("("):
        depth = 0
        while True:
            tok = ts.next()
            if tok.kind == "eof":
                raise ParseError("unclosed parenthesis in data declaration",
                                 tok.line, tok.col)
            if tok.kind == "sym" and tok.text == "(":
                depth += 1
            elif tok.kind == "sym" and tok.text == ")":
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
    term = _parse_expr_nowhere(ts)
    if ts.at_kw("where"):
        ts.next()
        defs = [_parse_def(ts)]
        while _at_def_boundary(ts):
            defs.append(_parse_def(ts))
        term = Where(term, tuple(defs))
    return term


def _parse_expr_nowhere(ts: _Tokens) -> Term:
    if ts.at_sym("\\"):
        ts.next()
        params = [ts.expect("lid").text]
        while ts.peek().kind == "lid":
            params.append(ts.next().text)
        ts.expect("sym", "->")
        body = _parse_expr(ts)
        for p in reversed(params):
            body = Lam(p, body)
        return body
    if ts.at_kw("let"):
        ts.next()
        name = ts.expect("lid").text
        ts.expect("sym", "=")
        bound = _parse_expr(ts)
        ts.expect("kw", "in")
        body = _parse_expr(ts)
        return Let(name, bound, body)
    if ts.at_kw("case"):
        return _parse_case(ts)
    return _parse_app(ts)


def _parse_case(ts: _Tokens) -> Term:
    ts.expect("kw", "case")
    scrut = _parse_app(ts)
    ts.expect("kw", "of")
    alts = [_parse_alt(ts)]
    while ts.at_sym("|"):
        ts.next()
        alts.append(_parse_alt(ts))
    return Case(scrut, tuple(alts))


def _parse_alt(ts: _Tokens) -> Alt:
    pattern = _parse_pattern(ts)
    ts.expect("sym", "->")
    return Alt(pattern, _parse_expr(ts))


def _parse_pattern(ts: _Tokens) -> Pattern:
    tok = ts.peek()
    if ts.at_sym("_"):
        ts.next()
        return WILD
    if tok.kind != "uid":
        raise ParseError("expected a constructor pattern or _", tok.line, tok.col)
    con = ts.next().text
    pvars: list[str] = []
    while True:
        tok = ts.peek()
        if tok.kind == "lid":
            pvars.append(ts.next().text)
        elif ts.at_sym("_") or tok.kind == "uid" or ts.at_sym("("):
            raise ParseError("nested pattern: patterns are a constructor "
                             "plus variables", tok.line, tok.col)
        else:
            break
    return PCon(con, tuple(pvars))


def _at_def_boundary(ts: _Tokens) -> bool:
    return (ts.peek().kind == "lid"
            and ts.peek(1).kind == "sym" and ts.peek(1).text == "=")


def _parse_def(ts: _Tokens) -> tuple[str, Term]:
    name = ts.expect("lid").text
    ts.expect("sym", "=")
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
    tok = ts.peek()
    if tok.kind == "uid" or ts.at_sym("("):
        return True
    return tok.kind == "lid" and not _at_def_boundary(ts)


def _parse_atom(ts: _Tokens) -> Term:
    tok = ts.peek()
    if tok.kind == "lid":
        return Var(ts.next().text)
    if tok.kind == "uid":
        return Con(ts.next().text)
    if ts.at_sym("("):
        ts.next()
        inner = _parse_expr(ts)
        ts.expect("sym", ")")
        return inner
    raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}",
                     tok.line, tok.col)


def _resolve(t: Term, scope: dict[str, str]) -> Term:
    """Turn variables bound by an enclosing where into function references."""
    match t:
        case Var(name):
            return Fun(name) if scope.get(name) == "fun" else t
        case Con(con, args):
            return Con(con, tuple(_resolve(a, scope) for a in args))
        case Fun(_):
            return t
        case App(fn, arg):
            return App(_resolve(fn, scope), _resolve(arg, scope))
        case Lam(param, body):
            return Lam(param, _resolve(body, {**scope, param: "var"}))
        case Let(name, bound, body):
            return Let(name, _resolve(bound, scope),
                       _resolve(body, {**scope, name: "var"}))
        case Case(scrut, alts):
            new_alts = []
            for alt in alts:
                inner = dict(scope)
                if isinstance(alt.pattern, PCon):
                    for v in alt.pattern.vars:
                        inner[v] = "var"
                new_alts.append(Alt(alt.pattern, _resolve(alt.body, inner)))
            return Case(_resolve(scrut, scope), tuple(new_alts))
        case Where(body, defs):
            inner = dict(scope)
            for fname, _ in defs:
                inner[fname] = "fun"
            return Where(_resolve(body, inner),
                         tuple((f, _resolve(d, inner)) for f, d in defs))
    raise TypeError(f"not a term: {t!r}")


# --- property parsing ------------------------------------------------------------

def parse_properties(text: str, arities: Mapping[str, int]) -> PropertyFile:
    """Parse a property file: an optional ``fair:`` header and named formulas.

    ``arities`` is the program's constructor table: fairness names must be
    declared nullary constructors, and atom terms are arity-checked against it.
    """
    try:
        ts = _Tokens(tokenize(text))
        fair: list[str] = []
        props: list[tuple[str, Formula]] = []
        while ts.peek().kind != "eof":
            tok = ts.peek()
            if tok.kind == "lid" and tok.text == "fair":
                ts.next()
                ts.expect("sym", ":")
                fair.append(ts.expect("uid").text)
                while ts.at_sym(","):
                    ts.next()
                    fair.append(ts.expect("uid").text)
            elif tok.kind == "lid" and tok.text == "prop":
                ts.next()
                name = ts.expect("lid").text
                ts.expect("sym", ":")
                props.append((name, _parse_formula(ts)))
            else:
                raise ParseError(f"expected 'prop' or 'fair', found {tok.text!r}",
                                 tok.line, tok.col)
    except ParseError as exc:
        return PropertyFile((), frozenset(), (exc.diagnostic,))

    diagnostics: list[Diagnostic] = []
    seen: set[str] = set()
    for name, _ in props:
        if name in seen:
            diagnostics.append(Diagnostic(1, 1, f"duplicate property {name}"))
        seen.add(name)
    for _, formula in props:
        for msg in check_formula(formula):
            diagnostics.append(Diagnostic(1, 1, msg))
        for atom in atoms(formula):
            for msg in check_term(atom.term, arities):
                diagnostics.append(Diagnostic(1, 1, msg))
    for name in fair:
        if arities.get(name) is None:
            diagnostics.append(Diagnostic(1, 1,
                                          f"unknown fairness constructor {name}"))
        elif arities[name] != 0:
            diagnostics.append(Diagnostic(1, 1,
                                          f"fairness constructor {name} is not nullary"))
    if diagnostics:
        return PropertyFile((), frozenset(), tuple(diagnostics))
    return PropertyFile(tuple(props), frozenset(fair), ())


_PREFIX_OPS = {"G": Always, "F": Eventually, "X": Next}


def _parse_formula(ts: _Tokens) -> Formula:
    return _parse_implies(ts)


def _parse_implies(ts: _Tokens) -> Formula:
    left = _parse_or(ts)
    if ts.at_sym("=>"):
        ts.next()
        return Implies(left, _parse_implies(ts))
    return left


def _parse_or(ts: _Tokens) -> Formula:
    out = _parse_and(ts)
    while ts.at_sym("||"):
        ts.next()
        out = Or(out, _parse_and(ts))
    return out


def _parse_and(ts: _Tokens) -> Formula:
    out = _parse_unary(ts)
    while ts.at_sym("&&"):
        ts.next()
        out = And(out, _parse_unary(ts))
    return out


def _parse_unary(ts: _Tokens) -> Formula:
    tok = ts.peek()
    if ts.at_sym("!"):
        ts.next()
        return Not(_parse_unary(ts))
    if tok.kind == "uid" and tok.text in _PREFIX_OPS:
        ts.next()
        return _PREFIX_OPS[tok.text](_parse_unary(ts))
    if ts.at_sym("{"):
        ts.next()
        term = _resolve(_parse_expr(ts), {})
        ts.expect("sym", "}")
        return Atom(term)
    if ts.at_sym("("):
        ts.next()
        inner = _parse_formula(ts)
        ts.expect("sym", ")")
        return inner
    raise ParseError(f"expected a formula, found {tok.text or 'end of input'!r}",
                     tok.line, tok.col)
