"""Call-by-name operational semantics and the trace simulator.

The one-step relation reduces the head of applications and case scrutinees;
values are weak head normal forms, i.e. constructor applications and
lambdas. Reduction is deterministic: a non-value either has exactly one
redex or is stuck, which signals an ill-typed configuration. A step yields
the reduced term and its function environment, nothing else.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .terms import (
    App, Case, Con, Fun, Lam, Let, PWild, Term, Var, Where,
    free_vars, fresh_name, substitute,
)
from .kleene import TruthVal, truthval_from_name

DEFAULT_FUEL = 10 ** 6


class EvalError(Exception):
    pass


class StuckError(EvalError):
    """No reduction applies to a non-value term."""

    def __init__(self, term: Term, reason: str):
        super().__init__(f"stuck: {reason}")
        self.term = term
        self.reason = reason


class FuelExhausted(EvalError):
    """The step budget ran out; the term may diverge."""


class NonConsOutput(EvalError):
    """A reactive program produced something other than a state stream."""


class AtomError(EvalError):
    """A property atom did not evaluate to a truth-value constructor."""


# --- function environments ----------------------------------------------------

class FunEnv:
    """Immutable chain of function-name scopes; inner frames shadow outer."""

    __slots__ = ("_frame", "_parent")

    def __init__(self, frame: Mapping[str, Term] | None = None,
                 parent: "FunEnv | None" = None):
        self._frame = dict(frame) if frame else {}
        self._parent = parent

    @staticmethod
    def empty() -> "FunEnv":
        return _EMPTY_ENV

    def extend(self, defs: Sequence[tuple[str, Term]]) -> "FunEnv":
        return FunEnv(dict(defs), self)

    def lookup(self, name: str) -> Optional[Term]:
        env: FunEnv | None = self
        while env is not None:
            hit = env._frame.get(name)
            if hit is not None:
                return hit
            env = env._parent
        return None


_EMPTY_ENV = FunEnv()


# --- one-step reduction ---------------------------------------------------------

def step(t: Term, env: FunEnv) -> Optional[tuple[Term, FunEnv]]:
    """``(term, env)`` after the single applicable reduction, or None for a value.

    Opening a where block is a step too: it has no counterpart in the
    reduction relation proper, and only extends the environment.
    """
    tt = type(t)
    if tt is Con or tt is Lam:
        return None
    if tt is App:
        fn = t.fn
        if type(fn) is Lam:
            return substitute(fn.body, {fn.param: t.arg}), env
        if type(fn) is Con:
            raise StuckError(t, f"constructor {fn.con} applied beyond its arity")
        inner, env = step(fn, env)
        return App(inner, t.arg), env
    if tt is Case:
        scrut = t.scrutinee
        if type(scrut) is Con:
            con, args = scrut.con, scrut.args
            for alt in t.alts:
                pattern = alt.pattern
                if isinstance(pattern, PWild):
                    return alt.body, env
                if pattern.con == con:
                    if len(pattern.vars) != len(args):
                        raise StuckError(t, f"pattern arity mismatch on {con}")
                    return substitute(alt.body, dict(zip(pattern.vars, args))), env
            raise StuckError(t, f"no pattern matches constructor {con}")
        if type(scrut) is Lam:
            raise StuckError(t, "case scrutinee is a lambda")
        inner, env = step(scrut, env)
        return Case(inner, t.alts), env
    if tt is Fun:
        body = env.lookup(t.name)
        if body is None:
            raise StuckError(t, f"undefined function {t.name}")
        return body, env
    if tt is Let:
        return substitute(t.body, {t.name: t.bound}), env
    if tt is Var:
        raise StuckError(t, f"free variable {t.name}")
    if tt is Where:
        return t.body, env.extend(t.defs)
    raise TypeError(f"not a term: {t!r}")


def _whnf(t: Term, env: FunEnv, fuel: int) -> tuple[Term, FunEnv, int]:
    while True:
        red = step(t, env)
        if red is None:
            return t, env, fuel
        if fuel <= 0:
            raise FuelExhausted(f"no value after step budget: {type(t).__name__}")
        fuel -= 1
        t, env = red


def eval_whnf(t: Term, env: FunEnv | None = None, fuel: int = DEFAULT_FUEL) -> Term:
    """Reduce ``t`` to weak head normal form under ``env``."""
    value, _, _ = _whnf(t, env or FunEnv.empty(), fuel)
    return value


def deep_eval(t: Term, env: FunEnv | None = None, fuel: int = DEFAULT_FUEL) -> Term:
    """Fully evaluate ``t`` to a ground constructor term (lambdas kept as is)."""
    value, env2, fuel = _whnf(t, env or FunEnv.empty(), fuel)
    if isinstance(value, Con):
        return Con(value.con, tuple(deep_eval(a, env2, fuel) for a in value.args))
    return value


def atom_truth(atom_term: Term, state: Term) -> TruthVal:
    """Evaluate an atom at an observable state.

    Substitutes the state for the reserved variable ``s`` and reduces; the
    result must be one of the nullary True/False/Undefined constructors.
    """
    closed = substitute(atom_term, {"s": state})
    try:
        value = eval_whnf(closed)
    except StuckError as exc:
        raise AtomError(f"atom evaluation got stuck: {exc.reason}") from exc
    if isinstance(value, Con) and not value.args:
        truth = truthval_from_name(value.con)
        if truth is not None:
            return truth
    raise AtomError(f"atom evaluated to {type(value).__name__}, "
                    "not a truth-value constructor")


# --- trace simulation -----------------------------------------------------------

def events_term(events: Sequence[str], cycle_name: str | None = None) -> Term:
    """Nested-Cons encoding of an event list, tied back to itself when cycled."""
    tail: Term = Fun(cycle_name) if cycle_name else Con("Nil")
    out = tail
    for name in reversed(events):
        out = Con("Cons", (Con(name), out))
    return out


def run_trace(program: Term, events: Sequence[str], cycle: bool = False,
              max_states: int = 64) -> list[Term]:
    """Feed an event list to a reactive program and collect its state trace.

    The program's single free variable is its event-list parameter; it is
    bound to the given events, cycled forever when ``cycle`` is set. One
    state is emitted per consumed event, after the initial state; the trace
    stops at ``max_states`` states or when the events run out.
    """
    if cycle and not events:
        raise ValueError("cannot cycle an empty event list")
    fv = sorted(free_vars(program))
    if len(fv) > 1:
        raise ValueError(f"program has several free variables: {', '.join(fv)}")

    env = FunEnv.empty()
    if cycle:
        feed = fresh_name("events", set(fv))
        env = env.extend([(feed, events_term(events, cycle_name=feed))])
        source: Term = Fun(feed)
    else:
        source = events_term(events)

    if fv:
        t: Term = substitute(program, {fv[0]: source})
    else:
        t = App(program, source)

    limit = max_states if cycle else min(max_states, len(events) + 1)
    fuel = DEFAULT_FUEL
    trace: list[Term] = []
    while len(trace) < limit:
        value, env, fuel = _whnf(t, env, fuel)
        match value:
            case Con("Cons", (head, tail)):
                trace.append(deep_eval(head, env, fuel))
                t = tail
            case Con("Nil", ()):
                break
            case _:
                raise NonConsOutput(
                    f"program output is not a state stream: {type(value).__name__}")
    return trace
