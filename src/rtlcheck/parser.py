"""Concrete syntax for program files (.rsl) and property files (.ltl).

Identifiers are variables or functions, or constructors when their first
letter is uppercase; application is juxtaposition, left-associative. ``data``
declarations and ``fair:`` headers are one per line; everything else is
layout-free. A new ``where`` definition is recognized by the two-token
lookahead IDENT ``=``. A property file is read against the constructor table
of the program it describes. See docs/formats.md for the full EBNF.

The lexer cuts each line (lines end at "\\n" only) at its first ``#`` and
puts blanks around the one-character symbols that no longer token holds.
One ``str.split`` of the whole text then gives its chunks; where the text is
not ASCII or holds a blank that ``_TOKEN`` does not skip, each line is one
chunk instead. A per-call table tags each distinct chunk once (``_Tags``),
an ASCII word by ``str.isidentifier`` and the case of its first letter. Only
a chunk that holds several tokens (``a->b``, ``_x``, a line) or a token that
is no word is split with ``_TOKEN``, the one definition of a token. The
descent reads the flat lists of token texts and tags at a cursor; one
``eof`` entry ends them and the cursor never passes it, so lookahead needs no
bounds check. Lines are read into the line table only as far as
``_parse_decls`` or a diagnostic asks, one at a time from the text, each
split as the tokens were; a column comes from scanning the token's line
again.

The descent builds a name that an enclosing ``where`` defines and no lambda,
``let`` or pattern binder shadows as that block's one ``Fun`` for the name,
else as the parse's one ``Var`` for it. The ``Fun`` holds the dict of the
innermost such block's definitions by name, which the descent fills in as it
closes the block, and the definition's number: the blocks are numbered in
the order the descent enters their bodies, and each block's names in order.
A block's body and forward references precede its later definitions, so a
pre-pass over the block tokens makes each block's dict, with the names it
defines, keyed by the token that starts its body, found by walking back from
``where`` over words and parenthesized groups. ``(``, ``{``, ``let`` and
``case`` open an entry; ``)``, ``}`` and ``in`` close entries through their
opener, ``|`` down to the nearest ``case``, and a definition head (a word
and ``=`` not after ``let``) down to the innermost ``where``, which takes
its name. Only text the descent accepts must be mapped right, since no term
is built from any other; on that the pre-pass need only not raise. A text
with no ``where`` needs no pre-pass.

The descent also records the constructor of every pattern it builds, and
``parse_program`` reads the program's event alphabet (``SourceFile.events``)
off that set and the declarations, so no later pass walks the term for it.

The descent is the only walk over a term, and records each problem of a node
it builds as (token index, message). A constructor in argument position is
judged nullary at once. As ``(B) g`` saturates ``B``, a constructor head given
no arguments waits, keyed by its ``id``, until ``_parse_app`` saturates it
and judges its arity; what waits when a program or a property ends is judged
nullary. A pattern's problems go at its constructor, a misplaced wildcard at
its ``_``, a function defined twice at its second name. Sorted
stably by token index (for this grammar a pre-order walk of the term), a
program's problems follow its declaration problems. An atom's free variables
other than ``s`` go at the name of its ``prop``, so they precede the property's
other problems.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable, Mapping
from itertools import chain, compress, islice, repeat
from operator import itemgetter

from .terms import (
    Alt, Always, And, App, Atom, Case, Con, DataDecl, Eventually, Formula,
    Fun, Implies, Lam, Let, Next, Not, Or, PCon, Record, Term, Var, WILD,
    Where, arity_table, free_vars, BUILTIN_DECLS, STATE_VAR,
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

# the one-character symbols that no longer token holds
_SPACED = ("(", ")", "{", "}", "\\", ",", ":", "!")

# the ASCII blanks at which str.split() splits a line and _TOKEN does not
_ODD_BLANKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _spaced(text: str) -> str:
    """``text`` with blanks around the one-character symbols that no longer
    token holds, so that ``str.split`` cuts them off their neighbours."""
    for symbol in _SPACED:
        text = text.replace(symbol, f" {symbol} ")
    return text


class _Tags(dict):
    """Chunk to tag: a symbol or keyword its own text; a chunk seen first,
    ``uid`` or ``lid`` when it is one word that starts with a letter (an
    identifier, if ASCII; else one that ``_TOKEN`` finds whole), else None
    (several tokens, or a token that is no word)."""

    __slots__ = ()

    def __missing__(self, chunk: str) -> str | None:
        tag = None
        if chunk[0].isalpha() and (chunk.isidentifier() if chunk.isascii()
                                   else _TOKEN.findall(chunk) == [chunk]):
            tag = "uid" if chunk[0].isupper() else "lid"
        self[chunk] = tag
        return tag


_FIXED_TAGS = {word: word for word in (*SYMBOLS, *KEYWORDS)}


class _Vars(dict):
    """Name to the one ``Var`` of a parse that stands for it."""

    __slots__ = ()

    def __missing__(self, name: str) -> Var:
        var = self[name] = Var(name)
        return var


class _Tokens:
    """A text's tokens as parallel lists of texts and tags, and a cursor."""

    # text: the text as given; split: how a line's text, cut at "#" and
    # spaced, splits into the tokens (str.split, or _TOKEN.findall); starts,
    # ends: the line table of the lines read so far, the offset in text at
    # which each starts and then the next would, and 0 and then the number
    # of tokens up to the end of each; blocks, arities: set by
    # the parse function that owns ts; matched: the pattern constructors
    # built; problems, pending: as the module docstring tells; prop: the token
    # of the property name being parsed; variables: the one Var of each name;
    # numbered: the where definitions given a Fun so far
    __slots__ = ("texts", "tags", "text", "split", "starts", "ends", "pos",
                 "blocks", "arities", "matched", "problems", "pending", "prop",
                 "variables", "numbered")

    def __init__(self, text: str):
        self.text, self.starts, self.ends = text, [0], [0]
        self.pos = self.numbered = 0
        self.matched, self.problems, self.pending = set(), [], {}
        self.variables = _Vars()
        if "#" in text:  # each line ends at its first "#"
            text = "\n".join(map(itemgetter(0), map(str.partition, text.split("\n"),
                                                     repeat("#"))))
        text = _spaced(text)
        table = _Tags(_FIXED_TAGS)
        if text.isascii() and not any(map(text.__contains__, _ODD_BLANKS)):
            self.split = str.split
            texts = text.split()
        else:  # one chunk per line, which _TOKEN splits below
            self.split = _TOKEN.findall
            texts = list(filter(None, text.split("\n")))
        tags = list(map(table.__getitem__, texts))
        if None in tags:  # a chunk of several tokens, or a token that is no word
            self.split = _TOKEN.findall
            texts = list(chain.from_iterable(
                _TOKEN.findall(chunk) if tag is None else (chunk,)
                for chunk, tag in zip(texts, tags)))
            tags = list(map(table.__getitem__, texts))
        self.texts, self.tags = texts, tags
        if None in tags:
            pos = tags.index(None)
            raise self.error(pos, f"unexpected character {texts[pos][0]!r}")
        texts.append("")
        tags.append("eof")

    def _read_line(self) -> None:
        """Add the next line of the text to the line table."""
        text, start = self.text, self.starts[-1]
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        row = text[start:end].partition("#")[0]
        self.starts.append(end + 1)
        self.ends.append(self.ends[-1] + len(self.split(_spaced(row))))

    def line(self, pos: int) -> int:
        """The line of token ``pos``; the last line for ``eof``. Reads lines
        only as far as the line of ``pos``."""
        ends, starts, size = self.ends, self.starts, len(self.text)
        while ends[-1] <= pos and starts[-1] <= size:
            self._read_line()
        return min(bisect_right(ends, pos), len(ends) - 1)

    def diagnostic(self, pos: int, message: str) -> Diagnostic:
        """``message`` at token ``pos``; the column comes from lexing its line again."""
        line = self.line(pos)
        start, end = self.starts[line - 1], self.starts[line] - 1
        row = self.text[start:end]
        if not self.texts[pos]:  # eof: past the last line, comment included
            return Diagnostic(line, len(row) + 1, message)
        nth = pos - self.ends[line - 1]
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
    if "where" not in tags:
        return {}
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
    tags, texts, line_of = ts.tags, ts.texts, ts.line
    decls: list[DataDecl] = []
    problems: list[Diagnostic] = []
    builtin = {d.name: d for d in BUILTIN_DECLS}
    seen: dict[str, str] = {c: d.name for d in BUILTIN_DECLS
                            for c, _ in d.constructors}
    while tags[ts.pos] == "data":
        line = line_of(ts.pos)
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
            while line_of(ts.pos) == line and tags[ts.pos] in ("uid", "lid", "("):
                _skip_type_atom(ts)
                arity += 1
            constructors.append((texts[at], arity))
            if line_of(ts.pos) != line or tags[ts.pos] != "|":
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


def _parse_expr(ts: _Tokens, funs: Mapping[str, Fun] = {}) -> Term:
    """An expression in which the names in ``funs`` are where-bound functions,
    each to its one ``Fun``, which holds the definitions of the innermost
    block that defines it."""
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
            funs = {f: fun for f, fun in funs.items() if f not in params}
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
            funs = {f: fun for f, fun in funs.items() if f != name}
        return Let(name, bound, _parse_expr(ts, funs))
    if tag == "case":
        ts.pos = pos + 1
        return _parse_case(ts, funs)
    # a lambda, let or case ends in an expression that took any where block
    block = ts.blocks.get(pos)  # of a where block whose body starts here
    if block:
        first = ts.numbered
        ts.numbered += len(block)
        funs = {**funs, **{name: Fun(name, block, i)
                           for i, name in enumerate(block, first)}}
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


def _parse_case(ts: _Tokens, funs: Mapping[str, Fun]) -> Term:
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


def _parse_alt(ts: _Tokens, funs: Mapping[str, Fun], seen: set[str]) -> Alt:
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
            funs = {f: fun for f, fun in funs.items() if f not in pvars}
    else:
        raise ts.error(pos, "expected a constructor pattern or _")
    if tags[pos] != "->":
        raise ts.expected(pos, "->")
    ts.pos = pos + 1
    return Alt(pattern, _parse_expr(ts, funs))


def _parse_app(ts: _Tokens, funs: Mapping[str, Fun]) -> Term:
    """Atoms side by side, up to a token that starts none or a ``where`` definition.

    A bare constructor head takes the atoms after it as its arguments; any
    other head is applied to them one by one.
    """
    tags, texts, variables, pos = ts.tags, ts.texts, ts.variables, ts.pos
    head = args = None  # args: a bare constructor head's arguments so far
    while True:
        tag = tags[pos]
        if tag == "lid":
            atom = funs.get(texts[pos]) or variables[texts[pos]]
        elif tag == "uid":
            atom = Con(texts[pos])
            if head is None:  # an enclosing application may saturate it
                ts.pending[id(atom)] = pos
            else:
                ts.judge(pos, 0)
        elif tag == "(":
            ts.pos = pos + 1
            atom = _parse_expr(ts, funs)
            pos = ts.pos
            if tags[pos] != ")":
                raise ts.expected(pos, ")")
        else:
            raise ts.error(pos, "expected an expression, "
                                f"found {texts[pos] or 'end of input'!r}")
        pos += 1
        if head is None:
            head = atom
            if type(atom) is Con and not atom.args:
                args = []
        elif args is None:
            head = App(head, atom)
        else:
            args.append(atom)
        tag = tags[pos]
        if not (tag == "uid" or tag == "(" or (tag == "lid" and tags[pos + 1] != "=")):
            break
    ts.pos = pos
    if args:  # a bare constructor applied by juxtaposition: a saturated application
        ts.judge(ts.pending.pop(id(head)), len(args))
        return Con(head.con, tuple(args))
    return head


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
