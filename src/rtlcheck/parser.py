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

The descent builds ``Fun`` for a name that an enclosing ``where`` defines
and no lambda, ``let`` or pattern binder shadows, else ``Var``, and gives it
the dict of the innermost such block's definitions by name, which it fills
in as it closes the block. A block's body and forward references precede its
later definitions, so a pre-pass over the block tokens makes each block's
dict, with the names it defines, keyed by the token that starts its body,
found by walking back from ``where`` over words and parenthesized groups.
``(``, ``{``, ``let`` and ``case`` open an entry; ``)``, ``}`` and ``in``
close entries through their opener, ``|`` down to the nearest ``case``, and a
definition head (a word and ``=`` not after ``let``) down to the innermost
``where``, which takes its name. Only text the descent accepts must be mapped
right, since no term is built from any other; on that the pre-pass need only
not raise.

The descent also records the constructor of every pattern it builds, and
``parse_program`` reads the program's event alphabet (``SourceFile.events``)
off that set and the declarations, so no later pass walks the term for it.

The descent is the only walk over a term, and records each problem of a node
it builds as (token index, message). As ``(B) g`` saturates ``B``, a nullary
``Con`` from a ``uid`` token waits, keyed by its ``id``, until ``_parse_app``
saturates it and judges its arity; what waits when a program or a property
ends is judged nullary. A pattern's problems go at its constructor, a misplaced
wildcard at its ``_``, a function defined twice at its second name. Sorted
stably by token index (for this grammar a pre-order walk of the term), a
program's problems follow its declaration problems. An atom's free variables
other than ``s`` go at the name of its ``prop``, so they precede the property's
other problems.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Callable, Mapping
from itertools import compress, islice, repeat

from .terms import (
    Alt, Always, And, Atom, Case, Con, DataDecl, Eventually, Formula,
    Fun, Implies, Lam, Let, Next, Not, Or, PCon, Record, Term, Var, WILD,
    Where, app, arity_table, free_vars, BUILTIN_DECLS, STATE_VAR,
)

KEYWORDS = {"case", "of", "let", "in", "where", "data"}

SYMBOLS = frozenset(("->", "=>", "&&", "||", "\\", "(", ")", "{", "}", "|", "=",
                     ":", ",", "_", "!"))

# a symbol (longest first, and "_" before a word), a word, a comment, or any
# other character that is not a blank; the search skips blanks
_TOKEN = re.compile(r"->|=>|&&|\|\||[\\(){}|=:,_!]|\w+|#|[^ \t\r]")

TOO_DEEP = "nested too deeply to parse"


class Diagnostic(Record):
    __slots__ = __match_args__ = ("line", "col", "message")

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class SourceFile(Record):
    # events: the event alphabet (docs/formats.md), read off the patterns as
    # they are parsed; empty without a term, and outside the repr and equality
    __slots__ = ("decls", "term", "diagnostics", "events")
    __match_args__ = ("decls", "term", "diagnostics")

    def __init__(self, decls: tuple[DataDecl, ...], term: Term | None,
                 diagnostics: tuple[Diagnostic, ...], events: tuple[str, ...] = ()):
        self.decls = decls
        self.term = term
        self.diagnostics = diagnostics
        self.events = events

    def arities(self) -> dict[str, int]:
        return arity_table(self.decls)


class PropertyFile(Record):
    __slots__ = __match_args__ = ("props", "fair", "diagnostics")

    def get(self, name: str) -> Formula | None:
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

    # blocks, arities: set by the parse function that owns ts; matched: the pattern
    # constructors built; problems, pending: as the module docstring tells; prop:
    # the token of the property name being parsed
    __slots__ = ("texts", "tags", "lines", "rows", "pos", "blocks", "arities",
                 "matched", "problems", "pending", "prop")

    def __init__(self, text: str):
        self.rows = rows = text.split("\n")
        self.texts = texts = []
        self.lines = lines = []
        self.pos = 0
        self.matched, self.problems, self.pending = set(), [], {}
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

    def judge(self, at: int, args: int) -> None:
        """Record a problem unless the constructor at token ``at`` takes ``args``."""
        con = self.texts[at]
        expects = self.arities.get(con)
        if expects is None:
            self.problems.append((at, f"unknown constructor {con}"))
        elif expects != args:
            self.problems.append((at, f"constructor arity: {con} expects {expects} "
                                      f"arguments, got {args}"))

    def located(self, start: int) -> list[Diagnostic]:
        """The problems from index ``start`` on, in token order, each at its
        token, once every constructor still pending is judged nullary."""
        arities, texts = self.arities, self.texts
        for at in self.pending.values():
            if arities.get(texts[at]) != 0:
                self.judge(at, 0)
        self.pending.clear()
        return [self.diagnostic(at, message)
                for at, message in sorted(self.problems[start:], key=lambda p: p[0])]

    def expect(self, tag: str) -> int:
        """Move past the token at the cursor, which must be a ``tag``; its index."""
        pos = self.pos
        if self.tags[pos] != tag:
            raise self.expected(pos, tag)
        self.pos = pos + 1
        return pos


# the tokens that open or close a block, and the "=" of a where definition
_BLOCK_TAGS = frozenset(("(", ")", "{", "}", "let", "in", "case", "|", "where", "="))
_OPENERS = {")": "(", "}": "{", "in": "let"}


def _where_blocks(ts: _Tokens, first: int) -> dict[int, dict[str, Term]]:
    """The dict of each where block's definitions, keyed by the token that
    starts its body; it holds the names the block defines.

    ``first`` is the term's first token; the module docstring gives the rules.
    """
    tags, texts = ts.tags, ts.texts
    blocks: dict[int, dict[str, Term]] = {}
    groups: dict[int, int] = {}  # the index of each ")" to that of its "("
    stack: list[tuple[str, int | dict[str, Term]]] = []  # open entries, innermost last
    for pos in compress(range(first, len(tags)),
                        map(_BLOCK_TAGS.__contains__, islice(tags, first, None))):
        tag = tags[pos]
        if tag == "=":
            if tags[pos - 1] == "lid" and tags[pos - 2] != "let":
                while stack and stack[-1][0] != "where":
                    stack.pop()
                if stack:
                    stack[-1][1][texts[pos - 1]] = None
        elif tag in _OPENERS:
            while stack:
                top, at = stack.pop()
                if top == _OPENERS[tag]:
                    if tag == ")":
                        groups[pos] = at
                    break
        elif tag == "|":
            while stack and stack[-1][0] != "case":
                stack.pop()
        elif tag == "where":
            start = pos  # back over the words and groups of the block's body
            while start > first and (start - 1 in groups
                                     or tags[start - 1] in ("lid", "uid")):
                start = groups.get(start - 1, start - 1)
            names = blocks[start] = {}
            stack.append((tag, names))
        else:
            stack.append((tag, pos))
    return blocks


def _descend(parse: Callable[[_Tokens], Term | Formula],
             ts: _Tokens) -> Term | Formula:
    """``parse(ts)``, with nesting too deep for the stack reported at the token
    it began at, which does not depend on how deep the caller's stack is."""
    start = ts.pos
    try:
        return parse(ts)
    except RecursionError:
        raise ts.error(start, TOO_DEEP) from None


# --- program parsing ------------------------------------------------------------

def parse_program(text: str) -> SourceFile:
    """Parse a program file into declarations and a checked top-level term."""
    try:
        ts = _Tokens(text)
        decls, diagnostics = _parse_decls(ts)
        ts.arities = arity_table(decls)
        ts.blocks = _where_blocks(ts, ts.pos)
        term = _descend(_parse_expr, ts)
        if ts.tags[ts.pos] != "eof":
            raise ts.error(ts.pos, f"unexpected {ts.texts[ts.pos]!r} after program")
    except ParseError as exc:
        return SourceFile((), None, (exc.diagnostic,))

    diagnostics += ts.located(0)
    if diagnostics:
        return SourceFile(tuple(decls), None, tuple(diagnostics))
    return SourceFile(tuple(decls), term, (), _events(decls, ts.matched))


def _events(decls: list[DataDecl], matched: set[str]) -> tuple[str, ...]:
    """The event alphabet: the nullary constructors of the datatypes ``matched`` meets.

    Built-in datatypes do not count; the order is that of the declarations.
    """
    matched = matched - {c for d in BUILTIN_DECLS for c, _ in d.constructors}
    owners = {d.name for d in decls
              if any(c in matched for c, _ in d.constructors)}
    return tuple(c for d in decls if d.name in owners
                 for c, arity in d.constructors if arity == 0)


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


def _parse_expr(ts: _Tokens, funs: Mapping[str, dict] = {}) -> Term:
    """An expression in which the names in ``funs`` are where-bound functions,
    each to the definitions of the innermost block that defines it."""
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
        params = texts[start:pos]
        if not funs.keys().isdisjoint(params):
            funs = {f: block for f, block in funs.items() if f not in params}
        body = _parse_expr(ts, funs)
        for param in reversed(params):
            body = Lam(param, body)
        return body
    if tag == "let":
        ts.pos = pos + 1
        name = texts[ts.expect("lid")]
        ts.expect("=")
        bound = _parse_expr(ts, funs)
        ts.expect("in")
        if name in funs:
            funs = {f: block for f, block in funs.items() if f != name}
        return Let(name, bound, _parse_expr(ts, funs))
    if tag == "case":
        ts.pos = pos + 1
        return _parse_case(ts, funs)
    # a lambda, let or case ends in an expression that took any where block
    block = ts.blocks.get(pos)  # of a where block whose body starts here
    if block:
        funs = {**funs, **dict.fromkeys(block, block)}
    term = _parse_app(ts, funs)
    pos = ts.pos
    if tags[pos] != "where":
        return term
    defs = []
    defined: set[str] = set()
    pos += 1
    while True:  # the first definition, then each IDENT "=" that follows one
        if tags[pos] != "lid":
            raise ts.expected(pos, "lid")
        if tags[pos + 1] != "=":
            raise ts.expected(pos + 1, "=")
        name = texts[pos]
        if name in defined:
            ts.problems.append((pos, f"function {name} defined twice in one "
                                     "where block"))
        defined.add(name)
        ts.pos = pos + 2
        defs.append((name, _parse_expr(ts, funs)))
        pos = ts.pos
        if tags[pos] != "lid" or tags[pos + 1] != "=":
            if block is not None:
                block.update(defs)
            return Where(term, tuple(defs), block)


def _parse_case(ts: _Tokens, funs: Mapping[str, dict]) -> Term:
    scrut = _parse_app(ts, funs)
    ts.expect("of")
    seen: set[str] = set()  # the constructors of the patterns so far
    at = ts.pos  # the first token of the latest alternative
    alts = [_parse_alt(ts, funs, seen)]
    while ts.tags[ts.pos] == "|":
        if alts[-1].pattern is WILD:
            ts.problems.append((at, "wildcard pattern must be the last alternative"))
        at = ts.pos = ts.pos + 1
        alts.append(_parse_alt(ts, funs, seen))
    return Case(scrut, tuple(alts))


def _parse_alt(ts: _Tokens, funs: Mapping[str, dict], seen: set[str]) -> Alt:
    tags, texts, pos = ts.tags, ts.texts, ts.pos
    tag = tags[pos]
    if tag == "_":
        pattern = WILD
        pos += 1
    elif tag == "uid":
        at = pos  # the constructor: every problem of the pattern goes there
        start = pos = pos + 1
        while tags[pos] == "lid":
            pos += 1
        if tags[pos] in ("_", "uid", "("):
            raise ts.error(pos, "nested pattern: patterns are a constructor "
                                "plus variables")
        con, pvars, problems = texts[at], texts[start:pos], ts.problems
        if con in seen:
            problems.append((at, f"constructor {con} appears in two patterns "
                                 "of the same case"))
        seen.add(con)
        if len(set(pvars)) != len(pvars):
            problems.append((at, f"repeated pattern variable in {con} pattern"))
        expects = ts.arities.get(con)
        if expects is None:
            problems.append((at, f"unknown constructor {con} in pattern"))
        elif expects != len(pvars):
            problems.append((at, f"pattern arity: {con} expects {expects} "
                                 f"variables, got {len(pvars)}"))
        pattern = PCon(con, tuple(pvars))
        ts.matched.add(con)
        if not funs.keys().isdisjoint(pvars):
            funs = {f: block for f, block in funs.items() if f not in pvars}
    else:
        raise ts.error(pos, "expected a constructor pattern or _")
    if tags[pos] != "->":
        raise ts.expected(pos, "->")
    ts.pos = pos + 1
    return Alt(pattern, _parse_expr(ts, funs))


def _parse_app(ts: _Tokens, funs: Mapping[str, dict]) -> Term:
    """Atoms side by side, up to a token that starts none or a ``where`` definition."""
    tags, texts, pos = ts.tags, ts.texts, ts.pos
    parts: list[Term] = []
    while True:
        tag = tags[pos]
        if tag == "lid":
            name = texts[pos]
            block = funs.get(name)
            parts.append(Var(name) if block is None else Fun(name, block))
            pos += 1
        elif tag == "uid":
            con = Con(texts[pos])
            ts.pending[id(con)] = pos
            parts.append(con)
            pos += 1
        elif tag == "(":
            ts.pos = pos + 1
            parts.append(_parse_expr(ts, funs))
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
    if isinstance(head, Con) and not head.args and len(parts) > 1:
        # bare constructor applied by juxtaposition: a saturated application
        ts.judge(ts.pending.pop(id(head)), len(parts) - 1)
        return Con(head.con, tuple(parts[1:]))
    return app(head, *parts[1:])


# --- property parsing ------------------------------------------------------------

def parse_properties(text: str, arities: Mapping[str, int]) -> PropertyFile:
    """Parse a property file: an optional ``fair:`` header and named formulas.

    ``arities`` is the program's constructor table: fairness names must be
    declared nullary constructors, and atom terms are arity-checked against it.
    """
    try:
        ts = _Tokens(text)
        ts.arities = arities
        ts.blocks = _where_blocks(ts, 0)
        tags, texts = ts.tags, ts.texts
        fair: list[int] = []  # the token index of each fairness name
        props: list[tuple[int, Formula, list[Diagnostic]]] = []  # with atom problems
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
                name = ts.prop = ts.expect("lid")
                ts.expect(":")
                start = len(ts.problems)
                formula = _descend(_parse_implies, ts)
                props.append((name, formula, ts.located(start)))
            else:
                raise ts.error(pos, f"expected 'prop' or 'fair', found {texts[pos]!r}")
    except ParseError as exc:
        return PropertyFile((), frozenset(), (exc.diagnostic,))

    # other problems are reported at the property's or fairness name
    diagnostics: list[Diagnostic] = []
    seen: set[str] = set()
    for name, _, _ in props:
        if texts[name] in seen:
            diagnostics.append(ts.diagnostic(name, f"duplicate property {texts[name]}"))
        seen.add(texts[name])
    for _, _, problems in props:
        diagnostics += problems
    for name in fair:
        if arities.get(texts[name]) is None:
            diagnostics.append(ts.diagnostic(
                name, f"unknown fairness constructor {texts[name]}"))
        elif arities[texts[name]] != 0:
            diagnostics.append(ts.diagnostic(
                name, f"fairness constructor {texts[name]} is not nullary"))
    if diagnostics:
        return PropertyFile((), frozenset(), tuple(diagnostics))
    return PropertyFile(tuple((texts[name], f) for name, f, _ in props),
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
        term = _parse_expr(ts)
        ts.expect("}")
        for name in sorted(free_vars(term) - {STATE_VAR}):
            ts.problems.append((ts.prop, f"free variable {name} in atom"))
        return Atom(term)
    if tag == "(":
        inner = _parse_implies(ts)
        ts.expect(")")
        return inner
    raise ts.error(pos, f"expected a formula, found {ts.texts[pos] or 'end of input'!r}")
