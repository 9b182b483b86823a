"""Syntax trees for the object language and for temporal formulas.

Terms are immutable; every operation here is a pure function over them.
Variables bound by lambdas, lets and case patterns are distinct from
function names bound by ``where`` blocks: the former are ``Var`` nodes,
the latter ``Fun`` nodes, so substitution never touches function names.

Term and pattern nodes are slotted dataclasses with a generated hash, not
frozen ones: every command builds and walks them, and a frozen node costs
two to three times as much to build, since its ``__init__`` sets each field
through ``object.__setattr__`` (``Con("A", ())``: 0.45 to 0.8 us against
0.24 to 0.3 us on CPython 3.11, best of seven timings on a shared host).
They are immutable by contract instead: no module but this one assigns to a
node's field, and only ``free_vars`` writes its memo slot ``_fv``, which
takes no part in equality, hashing or ``repr`` (``tests/test_terms.py``
holds both to it). The hash is not cached: hashing takes under 2% of any
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping


# --- patterns ---------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class PCon:
    """Flat constructor pattern: a constructor name plus distinct variables."""

    con: str
    vars: tuple[str, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class PWild:
    """Wildcard pattern, matching anything."""


Pattern = PCon | PWild
WILD = PWild()


# --- terms ------------------------------------------------------------------

@dataclass(slots=True)
class Term:
    """Base class for object-language expressions."""

    # free_vars' memo: None until first asked, and no part of the node's value
    _fv: frozenset[str] | None = field(default=None, init=False, repr=False,
                                       compare=False, hash=False)


@dataclass(slots=True, unsafe_hash=True)
class Var(Term):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Con(Term):
    """Saturated constructor application."""

    con: str
    args: tuple[Term, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class Lam(Term):
    param: str
    body: Term


@dataclass(slots=True, unsafe_hash=True)
class Fun(Term):
    """Reference to a function bound by an enclosing ``where``."""

    name: str


@dataclass(slots=True, unsafe_hash=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(slots=True, unsafe_hash=True)
class Alt:
    pattern: Pattern
    body: Term


@dataclass(slots=True, unsafe_hash=True)
class Case(Term):
    scrutinee: Term
    alts: tuple[Alt, ...]


@dataclass(slots=True, unsafe_hash=True)
class Let(Term):
    name: str
    bound: Term
    body: Term


@dataclass(slots=True, unsafe_hash=True)
class Where(Term):
    body: Term
    defs: tuple[tuple[str, Term], ...]


def app(fn: Term, *args: Term) -> Term:
    """Left-associated application of ``fn`` to ``args``."""
    out = fn
    for a in args:
        out = App(out, a)
    return out


def spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Unwind left-nested applications into (head, args)."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    return t, tuple(reversed(args))


# --- data declarations ------------------------------------------------------

@dataclass(frozen=True)
class DataDecl:
    """An algebraic datatype: a type name and its constructors with arities."""

    name: str
    constructors: tuple[tuple[str, int], ...]


# List and TruthVal are built in; True/False/Undefined and Nil/Cons are
# reserved and may only be redeclared verbatim.
BUILTIN_DECLS: tuple[DataDecl, ...] = (
    DataDecl("List", (("Nil", 0), ("Cons", 2))),
    DataDecl("TruthVal", (("True", 0), ("False", 0), ("Undefined", 0))),
)


def arity_table(decls: Iterable[DataDecl] = ()) -> dict[str, int]:
    """Constructor-name to arity map for the builtins plus ``decls``."""
    table: dict[str, int] = {}
    for decl in (*BUILTIN_DECLS, *decls):
        for con, arity in decl.constructors:
            table[con] = arity
    return table


# --- formulas ---------------------------------------------------------------

class Formula:
    """Base class for temporal formulas over observable states."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    """State predicate: a term whose only free variable is ``s``."""

    term: Term


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Always(Formula):
    sub: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    sub: Formula


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula


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
    if tt is App:
        # down the function spine in a loop, so that an application of many
        # arguments does not recurse once per argument; each node's memo is
        # filled on the way back up
        spine = [t]
        fn = t.fn
        while type(fn) is App and fn._fv is None:
            spine.append(fn)
            fn = fn.fn
        out = free_vars(fn)
        for node in reversed(spine):
            out = node._fv = out | free_vars(node.arg)
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
    if tt is Let:
        return free_vars(t.bound) | (free_vars(t.body) - {t.name})
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
    ``<events>`` placeholder, a name no binder can take. The library's one
    caller, ``semantics.trace_dag``, reads the machine's closures back into
    terms where a run needs an unread event; states are ground and programs
    closed but for their event list (see :mod:`rtlcheck.normform`), so those
    terms are closed. No binder can then capture a free variable of a bound
    term, and one only hides its own names from the bindings.
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
