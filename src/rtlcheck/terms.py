"""Syntax trees for the object language and for temporal formulas, and the
three truth values that formulas take.

Terms are immutable; every operation here is a pure function over them.
Variables bound by lambdas, lets and case patterns are distinct from
function names bound by ``where`` blocks: the former are ``Var`` nodes,
the latter ``Fun`` nodes, so substitution never touches function names. The
parser gives each ``Where`` its definitions by name as a dict, its block, and
each ``Fun`` the block of the innermost ``where`` defining it: the same dict.

Every class here and every record of the package is a plain slotted class
over ``Record``, not a dataclass, whose creation took four fifths of the
import of ``rtlcheck.cli`` from cached bytecode. ``Record`` reads a class's
fields, named in ``__match_args__``, for its constructor, equality, hash and
a dataclass-style ``repr``. A class writes its own method only where commands
call it often (counted over a seed-1 pass of each benchmark workload in one
process): node constructors, about 151,000 calls; the nodes' equality and
hash, but for ``Lam``, ``Let`` and ``Where``, never compared or hashed, and
for the equality of ``Fun`` and ``PWild``, hashed but never compared
(``Con``: 56,271 hashes, 40,123 comparisons; 16 us on a 30-deep term against
110 and 60 us through ``Record``); ``LtsNode`` and ``LtsEdge``, one per
handler or edge (0.25 against 0.70 us); ``SourceFile``, with a slot outside
its value, and ``CorpusEntry``, built by keyword. Other records, formulas
among them, are built a few dozen times per command (``Atom``: 2,968 times).

``Con`` equality walks the argument tuples on a stack, so that states deeper
than the recursion limit compare: 0.12 us on a nullary pair, 0.55 on
``ObsState T W`` and 12 on a 30-deep term, against 0.14, 0.42 and 7.3 us for
one comparison of the fields' tuples (CPython 3.11, best of nine timings on a
shared host).

Nodes are not frozen: every command builds and walks them, and a frozen node
costs two to three times as much to build, since its ``__init__`` sets each
field through ``object.__setattr__`` (``Con("A", ())``: 0.45 to 0.8 us against
0.24 to 0.3 us on CPython 3.11, best of seven timings on a shared host).
They are immutable by contract instead: no module but this one assigns to a
node's field, and only ``free_vars`` writes its memo slot ``_fv``. That slot,
``Fun.block``, ``Fun.index`` and ``Where.block`` are no fields of the node's
value: they take no part in equality, hashing or ``repr``
(``tests/test_terms.py`` holds them to it). The hash is not cached: hashing
takes under 2% of any workload.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping


class Record:
    """Base of the package's value classes.

    A subclass declares ``__slots__`` and its fields in ``__match_args__``,
    which this ``__init__`` sets from its positional arguments, in order. Two
    records are equal when they are of one class and their fields are equal;
    hash and ``repr`` read the fields.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *fields):
        names = self.__match_args__
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes ({', '.join(names)}), got {len(fields)} values")
        for name, value in zip(names, fields):
            setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


# --- patterns ---------------------------------------------------------------

class PCon(Record):
    """Flat constructor pattern: a constructor name plus distinct variables."""

    __slots__ = __match_args__ = ("con", "vars")

    def __init__(self, con: str, vars: tuple[str, ...] = ()):
        self.con = con
        self.vars = vars

    def __eq__(self, other: object):
        if other.__class__ is PCon:
            return (self.con, self.vars) == (other.con, other.vars)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.con, self.vars))


class PWild(Record):
    """Wildcard pattern, matching anything."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(())


Pattern = PCon | PWild
WILD = PWild()


# --- terms ------------------------------------------------------------------

class Term(Record):
    """Base class for object-language expressions."""

    # free_vars' memo: None until first asked, and no part of the node's value
    __slots__ = ("_fv",)


class Var(Term):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self._fv = None
        self.name = name

    def __eq__(self, other: object):
        if other.__class__ is Var:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Con(Term):
    """Saturated constructor application."""

    __slots__ = __match_args__ = ("con", "args")

    def __init__(self, con: str, args: tuple[Term, ...] = ()):
        self._fv = None
        self.con = con
        self.args = args

    def __eq__(self, other: object):
        # the argument tuples still to compare walk on a stack, not a frame
        # per level, so that states of any depth compare
        if other.__class__ is not Con:
            return NotImplemented
        args, others = self.args, other.args
        if self.con != other.con or len(args) != len(others):
            return False
        if not args:
            return True
        todo = []
        while True:
            for x, y in zip(args, others):
                if x is not y:
                    if x.__class__ is not Con or y.__class__ is not Con:
                        if x != y:
                            return False
                    elif x.con != y.con or len(x.args) != len(y.args):
                        return False
                    elif x.args:
                        todo.append((x.args, y.args))
            if not todo:
                return True
            args, others = todo.pop()

    def __hash__(self) -> int:
        return hash((self.con, self.args))


class Lam(Term):
    __slots__ = __match_args__ = ("param", "body")

    def __init__(self, param: str, body: Term):
        self._fv = None
        self.param = param
        self.body = body


class Fun(Term):
    """Reference to a function bound by an enclosing ``where``."""

    # block: the definitions by name of the innermost where block defining
    # the name, as the parser resolved it; index: that definition's number,
    # in the order the parser met the blocks; both None in a term built by hand
    __slots__ = ("name", "block", "index")
    __match_args__ = ("name",)

    def __init__(self, name: str, block: dict[str, Term] | None = None,
                 index: int | None = None):
        self._fv = None
        self.name = name
        self.block = block
        self.index = index

    def __hash__(self) -> int:
        return hash((self.name,))


class App(Term):
    __slots__ = __match_args__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        self._fv = None
        self.fn = fn
        self.arg = arg

    def __eq__(self, other: object):
        if other.__class__ is App:
            return (self.fn, self.arg) == (other.fn, other.arg)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.fn, self.arg))


class Alt(Record):
    __slots__ = __match_args__ = ("pattern", "body")

    def __init__(self, pattern: Pattern, body: Term):
        self.pattern = pattern
        self.body = body

    def __eq__(self, other: object):
        if other.__class__ is Alt:
            return (self.pattern, self.body) == (other.pattern, other.body)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.pattern, self.body))


class Case(Term):
    __slots__ = __match_args__ = ("scrutinee", "alts")

    def __init__(self, scrutinee: Term, alts: tuple[Alt, ...]):
        self._fv = None
        self.scrutinee = scrutinee
        self.alts = alts

    def __eq__(self, other: object):
        if other.__class__ is Case:
            return (self.scrutinee, self.alts) == (other.scrutinee, other.alts)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.scrutinee, self.alts))


class Let(Term):
    __slots__ = __match_args__ = ("name", "bound", "body")

    def __init__(self, name: str, bound: Term, body: Term):
        self._fv = None
        self.name = name
        self.bound = bound
        self.body = body


class Where(Term):
    # block: its definitions by name, the dict its calls' Fun.block holds, as
    # the parser made it; None in a term built by hand or by substitute
    __slots__ = ("body", "defs", "block")
    __match_args__ = ("body", "defs")

    def __init__(self, body: Term, defs: tuple[tuple[str, Term], ...],
                 block: dict[str, Term] | None = None):
        self._fv = None
        self.body = body
        self.defs = defs
        self.block = block


def spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Unwind left-nested applications into (head, args)."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    return t, tuple(reversed(args))


# --- data declarations ------------------------------------------------------

class DataDecl(Record):
    """An algebraic datatype: a type name and its constructors with arities."""

    __slots__ = __match_args__ = ("name", "constructors")


# List and TruthVal are built in; True/False/Undefined and Nil/Cons are
# reserved and may only be redeclared verbatim.
BUILTIN_DECLS: tuple[DataDecl, ...] = (
    DataDecl("List", (("Nil", 0), ("Cons", 2))),
    DataDecl("TruthVal", (("True", 0), ("False", 0), ("Undefined", 0))),
)


class TruthVal(enum.Enum):
    """A three-valued truth, named as the built-in ``TruthVal`` constructor
    that an atom gives for it."""

    TRUE = "True"
    FALSE = "False"
    UNDEFINED = "Undefined"

    def __str__(self) -> str:
        return self.value


TRUE = TruthVal.TRUE
FALSE = TruthVal.FALSE
UNDEFINED = TruthVal.UNDEFINED

_BY_NAME = {v.value: v for v in TruthVal}


def truthval_from_name(name: str) -> TruthVal | None:
    return _BY_NAME.get(name)


# observable states, in the order a program emits them
Trace = tuple[Term, ...]


def arity_table(decls: Iterable[DataDecl] = ()) -> dict[str, int]:
    """Constructor-name to arity map for the builtins plus ``decls``."""
    table: dict[str, int] = {}
    for decl in (*BUILTIN_DECLS, *decls):
        for con, arity in decl.constructors:
            table[con] = arity
    return table


# --- formulas ---------------------------------------------------------------

class Formula(Record):
    """Base class for temporal formulas over observable states, immutable by
    contract as terms are."""

    __slots__ = ()


class Atom(Formula):
    """State predicate: a term whose only free variable is ``s``."""

    __slots__ = __match_args__ = ("term",)


class _Unary(Formula):
    __slots__ = __match_args__ = ("sub",)


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Always(_Unary):
    __slots__ = ()


class Eventually(_Unary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


STATE_VAR = "s"


# --- free variables ---------------------------------------------------------

def free_vars(t: Term) -> frozenset[str]:
    """Variables of ``t`` not bound by a lambda, let or case pattern.

    Memoized in the node's ``_fv`` slot: terms are immutable and shared
    heavily during reduction, so the set is computed once per subterm.
    """
    cached = t._fv
    if cached is None:
        cached = t._fv = _free_vars(t)
    return cached


def _free_vars(t: Term) -> frozenset[str]:
    # hot path of substitution and of the form check: dispatch on type, not match
    tt = type(t)
    if tt is Var:
        return frozenset((t.name,))
    if tt is App or tt is Let:
        # down a chain of applications' functions and lets' bodies in a loop,
        # so that neither many arguments nor many nested lets recurse once
        # each; each node's memo is filled on the way back up
        chain = []
        while (tt is App or tt is Let) and t._fv is None:
            chain.append(t)
            t = t.fn if tt is App else t.body
            tt = type(t)
        out = free_vars(t)
        for node in reversed(chain):
            if type(node) is App:
                out = node._fv = out | free_vars(node.arg)
            else:
                out = node._fv = free_vars(node.bound) | (out - {node.name})
        return out
    if tt is Con:
        out: frozenset[str] = frozenset()
        for a in t.args:
            out |= free_vars(a)
        return out
    if tt is Fun:
        return frozenset()
    if tt is Case:
        out = free_vars(t.scrutinee)
        for alt in t.alts:
            if type(alt.pattern) is PCon:
                out |= free_vars(alt.body).difference(alt.pattern.vars)
            else:
                out |= free_vars(alt.body)
        return out
    if tt is Lam:
        return free_vars(t.body) - {t.param}
    if tt is Where:
        out = free_vars(t.body)
        for _, d in t.defs:
            out |= free_vars(d)
        return out
    raise TypeError(f"not a term: {t!r}")


# --- substitution -----------------------------------------------------------

def substitute(t: Term, sub: Mapping[str, Term]) -> Term:
    """Simultaneous substitution of the bound terms for variables in ``t``.

    Precondition: every bound term is closed, but for the simulator's
    ``<events>`` placeholder, a name no binder can take. No binder can then
    capture a free variable of a bound term, and one only hides its own names
    from the bindings. No library function calls it: the substituting
    reference stepper, ``tests/reference_stepper.py``, does, and
    ``semantics`` and ``verify`` import it only for ``benchmarks/tracer.py``
    to rebind.
    """
    # dispatch on type, skip untouched subtrees; a Fun has no free variables,
    # so it returns here
    if not sub or not (free_vars(t) & sub.keys()):
        return t
    tt = type(t)
    if tt is Var:
        return sub.get(t.name, t)
    if tt is Con:
        return Con(t.con, tuple(substitute(a, sub) for a in t.args))
    if tt is App:
        return App(substitute(t.fn, sub), substitute(t.arg, sub))
    if tt is Case:
        new_alts = []
        for alt in t.alts:
            inner = _unshadowed(alt.pattern.vars, sub) if isinstance(alt.pattern, PCon) else sub
            new_alts.append(Alt(alt.pattern, substitute(alt.body, inner)))
        return Case(substitute(t.scrutinee, sub), tuple(new_alts))
    if tt is Lam:
        return Lam(t.param, substitute(t.body, _unshadowed((t.param,), sub)))
    if tt is Let:
        return Let(t.name, substitute(t.bound, sub),
                   substitute(t.body, _unshadowed((t.name,), sub)))
    if tt is Where:
        return Where(substitute(t.body, sub),
                     tuple((f, substitute(d, sub)) for f, d in t.defs))
    raise TypeError(f"not a term: {t!r}")


def _unshadowed(binders: tuple[str, ...], sub: Mapping[str, Term]) -> Mapping[str, Term]:
    """``sub`` without the bindings of names that ``binders`` shadow."""
    if sub.keys().isdisjoint(binders):
        return sub
    return {x: e for x, e in sub.items() if x not in binders}
