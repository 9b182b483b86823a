"""Call-by-name operational semantics, the trace simulator and its enumeration.

The one-step relation reduces the head of applications and case scrutinees;
values are weak head normal forms, i.e. constructor applications and
lambdas. Reduction is deterministic: a non-value either has exactly one
redex or is stuck, which signals an ill-typed configuration. A step yields
the reduced term and its function environment, nothing else.

The simulator feeds a program its events through functions of the
environment, one per list suffix. ``run_trace`` binds them all up front.
``trace_dag``, which holds the traces of every event sequence of a given
length for the oracle, binds them as reduction asks for them, and memoises
what follows each point where the program reads an event: every handler
reached at an event position is reduced once, so the work grows linearly
with the length, not with the number of sequences. Each emitted state gets
its own step budget.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .terms import (
    App, Case, Con, Fun, Lam, Let, PWild, Term, Var, Where,
    free_vars, fun_names, substitute,
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

NIL = Con("Nil")


def _feed(k: int) -> str:
    """Name of the event list from its ``k``-th event on; no parsed name has a space."""
    return f"<events {k}>"


def _feeds(events: Sequence[str], start: int,
           tail: Term | None) -> list[tuple[str, Term]]:
    """Definitions of the event list from event ``start`` on, one feed per event.

    Feed ``start + i`` is ``Cons e_i (feed start+i+1)``; the feed after the
    last event is ``tail``, or stays unbound when ``tail`` is None.
    """
    defs: list[tuple[str, Term]] = [
        (_feed(k), Con("Cons", (Con(e), Fun(_feed(k + 1)))))
        for k, e in enumerate(events, start)]
    if tail is not None:
        defs.append((_feed(start + len(events)), tail))
    return defs


def bind_events(program: Term) -> Term:
    """The program fed the event list that starts at feed 0.

    The program's single free variable is its event-list parameter; a closed
    program is applied to the list instead. Feeds are functions named so
    that no program can define or shadow them (see ``_feeds``).
    """
    fv = sorted(free_vars(program))
    if len(fv) > 1:
        raise ValueError(f"program has several free variables: {', '.join(fv)}")
    source = Fun(_feed(0))
    return substitute(program, {fv[0]: source}) if fv else App(program, source)


def _next_state(t: Term, env: FunEnv) -> Optional[tuple[Term, Term, FunEnv]]:
    """``(state, rest of stream, env)`` of a state stream, or None at its end.

    The stream cell and its state share one budget of ``DEFAULT_FUEL`` steps.
    """
    value, env, fuel = _whnf(t, env, DEFAULT_FUEL)
    match value:
        case Con("Cons", (head, tail)):
            return deep_eval(head, env, fuel), tail, env
        case Con("Nil", ()):
            return None
        case _:
            raise NonConsOutput(
                f"program output is not a state stream: {type(value).__name__}")


def run_trace(program: Term, events: Sequence[str], cycle: bool = False,
              max_states: int = 64) -> list[Term]:
    """Feed an event list to a reactive program and collect its state trace.

    The program's event-list parameter is bound to the given events, cycled
    forever when ``cycle`` is set. One state is emitted per consumed event,
    after the initial state; the trace stops at ``max_states`` states or
    when the events run out. Each state may take up to ``DEFAULT_FUEL``
    reduction steps, its stream cell included; a state that needs more
    raises ``FuelExhausted``.
    """
    if cycle and not events:
        raise ValueError("cannot cycle an empty event list")
    t = bind_events(program)
    env = FunEnv.empty().extend(_feeds(events, 0, Fun(_feed(0)) if cycle else NIL))
    limit = max_states if cycle else min(max_states, len(events) + 1)
    trace: list[Term] = []
    while len(trace) < limit:
        nxt = _next_state(t, env)
        if nxt is None:
            break
        state, t, env = nxt
        trace.append(state)
    return trace


# A node of the trace DAG: the states one path emits after its parent's
# branch point, then None where its traces end, or one child per event, in
# alphabet order, where reduction needs the next event.
TraceNode = tuple[tuple[Term, ...], Optional[tuple["TraceNode", ...]]]


def trace_dag(program: Term, events: Sequence[str], depth: int) -> TraceNode:
    """The traces of every event sequence of length ``depth``, as a DAG.

    The walk starts with no event bound and branches over ``events`` only
    when reduction is stuck on the next feed, then retries the state from
    its start with that feed bound, once per event. The children of a
    branch point are memoised for the run, keyed on the state's start term,
    the number of events bound and of states emitted, and the frames of the
    environment the retry can read (see ``frames``); paths that reach the
    same handler at the same event position share them, so each is reduced
    once. Nothing that raised is stored and the walk is depth first in
    product order, so the exception raised is that of the first failing
    sequence. With no events and a positive depth there is no sequence: the
    root branches into no children.
    """
    if depth and not events:
        return (), ()
    limit = depth + 1
    feed_index = {_feed(k): k for k in range(depth + 1)}
    memo: dict[tuple, tuple[TraceNode, ...]] = {}
    first_feed_of_defs: dict[FunEnv, int] = {}
    # definitions bind_events left as parsed name no feed (no parsed name
    # can), so the scan of a where frame skips them
    parsed = {id(d) for _, d in program.defs} if type(program) is Where else set()

    def first_feed(names) -> int:
        return min((feed_index.get(n, depth) for n in names), default=depth)

    def frames(t: Term, env: FunEnv) -> tuple[FunEnv, ...]:
        """The frames of ``env`` that reducing ``t`` can read, by identity.

        Where frames bind only program names and feed frames one feed each,
        so the where frames decide every program name. A feed binding names
        only the next feed, so no feed before the first one that ``t`` or a
        where definition names can be read, and its frame is left out:
        paths that differ only in the events already consumed share a key.
        """
        chain: list[tuple[FunEnv, Optional[int]]] = []
        low = first_feed(fun_names(t))
        e: FunEnv | None = env
        while e is not None:
            fed = feed_index.get(next(iter(e._frame), None))
            if fed is None:  # a where frame, or the empty root
                if e not in first_feed_of_defs:
                    first_feed_of_defs[e] = first_feed(
                        n for d in e._frame.values() if id(d) not in parsed
                        for n in fun_names(d))
                low = min(low, first_feed_of_defs[e])
            chain.append((e, fed))
            e = e._parent
        return tuple(e for e, fed in chain if fed is None or fed >= low)

    def walk(t: Term, env: FunEnv, bound: int, emitted: int) -> TraceNode:
        states: list[Term] = []
        while emitted < limit:
            try:
                nxt = _next_state(t, env)
            except StuckError as exc:
                if exc.term != Fun(_feed(bound)):
                    raise
                return tuple(states), branch(t, env, bound, emitted)
            if nxt is None:
                break
            state, t, env = nxt
            states.append(state)
            emitted += 1
        return tuple(states), None

    def branch(t: Term, env: FunEnv, bound: int, emitted: int) -> tuple[TraceNode, ...]:
        key = (t, bound, emitted, frames(t, env))
        children = memo.get(key)
        if children is None:
            children = memo[key] = tuple(
                walk(t, env.extend(_feeds((e,), bound, None)), bound + 1, emitted)
                for e in events)
        return children

    return walk(bind_events(program), FunEnv.empty().extend(_feeds((), depth, NIL)),
                0, 0)
