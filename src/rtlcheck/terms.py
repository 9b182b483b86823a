"""Syntax trees for the object language and for temporal formulas.

Terms are immutable; every operation here is a pure function over them.
Variables bound by lambdas, lets and case patterns are distinct from
function names bound by ``where`` blocks: the former are ``Var`` nodes,
the latter ``Fun`` nodes, so substitution never touches function names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


# --- patterns ---------------------------------------------------------------

@dataclass(frozen=True)
class PCon:
    """Flat constructor pattern: a constructor name plus distinct variables."""

    con: str
    vars: tuple[str, ...] = ()


@dataclass(frozen=True)
class PWild:
    """Wildcard pattern, matching anything."""


Pattern = PCon | PWild
WILD = PWild()


# --- terms ------------------------------------------------------------------

class Term:
    """Base class for object-language expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Con(Term):
    """Saturated constructor application."""

    con: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Lam(Term):
    param: str
    body: Term


@dataclass(frozen=True)
class Fun(Term):
    """Reference to a function bound by an enclosing ``where``."""

    name: str


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Alt:
    pattern: Pattern
    body: Term


@dataclass(frozen=True)
class Case(Term):
    scrutinee: Term
    alts: tuple[Alt, ...]


@dataclass(frozen=True)
class Let(Term):
    name: str
    bound: Term
    body: Term


@dataclass(frozen=True)
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

    Memoized on the node: terms are immutable and shared heavily during
    reduction, so the set is computed once per subterm.
    """
    cached = getattr(t, "_fv", None)
    if cached is None:
        cached = _free_vars(t)
        object.__setattr__(t, "_fv", cached)
    return cached


def _free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Con(_, args):
            out: frozenset[str] = frozenset()
            for a in args:
                out |= free_vars(a)
            return out
        case Lam(param, body):
            return free_vars(body) - {param}
        case Fun(_):
            return frozenset()
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
        case Case(scrutinee, alts):
            out = free_vars(scrutinee)
            for alt in alts:
                bound = set(alt.pattern.vars) if isinstance(alt.pattern, PCon) else set()
                out |= free_vars(alt.body) - bound
            return out
        case Let(name, bound, body):
            return free_vars(bound) | (free_vars(body) - {name})
        case Where(body, defs):
            out = free_vars(body)
            for _, d in defs:
                out |= free_vars(d)
            return out
    raise TypeError(f"not a term: {t!r}")


# --- substitution -----------------------------------------------------------

def substitute(t: Term, bindings: Mapping[str, Term]) -> Term:
    """Simultaneous substitution of the bound terms for variables in ``t``.

    Precondition: every bound term is closed, but for the simulator's
    ``<events>`` placeholder, a name no binder can take. States are ground and
    the library reduces closed programs, so it substitutes nothing else (see
    :mod:`rtlcheck.normform`). No binder can then capture a free variable of a
    bound term, and one only hides its own names from the bindings.
    """
    return _subst(t, bindings)


def _subst(t: Term, sub: Mapping[str, Term]) -> Term:
    # hot path during reduction: dispatch on type, skip untouched subtrees
    if not sub or not (free_vars(t) & sub.keys()):
        return t
    tt = type(t)
    if tt is Var:
        return sub.get(t.name, t)
    if tt is Con:
        return Con(t.con, tuple(_subst(a, sub) for a in t.args))
    if tt is App:
        return App(_subst(t.fn, sub), _subst(t.arg, sub))
    if tt is Case:
        new_alts = []
        for alt in t.alts:
            inner = _unshadowed(alt.pattern.vars, sub) if isinstance(alt.pattern, PCon) else sub
            new_alts.append(Alt(alt.pattern, _subst(alt.body, inner)))
        return Case(_subst(t.scrutinee, sub), tuple(new_alts))
    if tt is Lam:
        return Lam(t.param, _subst(t.body, _unshadowed((t.param,), sub)))
    if tt is Let:
        return Let(t.name, _subst(t.bound, sub),
                   _subst(t.body, _unshadowed((t.name,), sub)))
    if tt is Where:
        return Where(_subst(t.body, sub),
                     tuple((f, _subst(d, sub)) for f, d in t.defs))
    if tt is Fun:
        return t
    raise TypeError(f"not a term: {t!r}")


def _unshadowed(binders: tuple[str, ...], sub: Mapping[str, Term]) -> Mapping[str, Term]:
    """``sub`` without the bindings of names that ``binders`` shadow."""
    if sub.keys().isdisjoint(binders):
        return sub
    return {x: e for x, e in sub.items() if x not in binders}
