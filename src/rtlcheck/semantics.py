"""Call-by-name operational semantics, the trace simulator and its enumeration.

The one-step relation reduces the head of applications and case scrutinees;
values are weak head normal forms, i.e. constructor applications and
lambdas. Reduction is deterministic: a non-value either has exactly one
redex or is stuck, which signals an ill-typed configuration. A step yields
the reduced term and its function environment, nothing else.

The simulator binds a program's event list by substitution. ``run_trace``
puts the whole list in up front. ``trace_dag``, which holds the traces of
every event sequence of a given length for the oracle, puts in one
placeholder variable for the events not yet read. When reduction is stuck
on it, the state is retried once per event, with a ``Cons`` of that event
and the placeholder in its place, and what follows each such branch point
is memoised: every handler reached at an event position is reduced once,
so the work grows linearly with the length, not with the number of
sequences. Each emitted state gets its own step budget.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .terms import (
    App, Case, Con, Fun, Lam, Let, PWild, STATE_VAR, Term, Var, Where,
    free_vars, substitute,
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
    """A reactive program produced something other than a stream of states."""


class AtomError(EvalError):
    """A property atom did not evaluate to a truth-value constructor."""


# --- function environments ----------------------------------------------------

class FunEnv:
    """Immutable chain of function-name scopes; inner frames shadow outer."""

    __slots__ = ("_frame", "_parent")

    def __init__(self, frame: dict[str, Term], parent: "FunEnv | None" = None):
        self._frame = frame  # owned: no caller keeps the dict
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


_EMPTY_ENV = FunEnv({})


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


def deep_eval(t: Term, env: FunEnv | None = None,
              fuel: int = DEFAULT_FUEL) -> tuple[Term, int]:
    """Fully evaluate ``t`` to a ground constructor term; it and the fuel left.

    Each argument gets the fuel that the head and the arguments before it
    left. A lambda, as the value or inside its arguments, is no state: it
    raises ``NonConsOutput``.
    """
    value, env, fuel = _whnf(t, env or FunEnv.empty(), fuel)
    if type(value) is Lam:
        raise NonConsOutput("program output is not a state stream: "
                            "a state holds a lambda")
    args = []
    for a in value.args:
        a, fuel = deep_eval(a, env, fuel)
        args.append(a)
    return Con(value.con, tuple(args)), fuel


def atom_truth(atom_term: Term, state: Term) -> TruthVal:
    """Evaluate an atom at an observable state.

    Substitutes the state for the reserved variable ``STATE_VAR`` and
    reduces; the result must be one of the nullary True/False/Undefined
    constructors.
    """
    closed = substitute(atom_term, {STATE_VAR: state})
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

# The name of the event list while the simulator binds it: a variable for the
# events ``trace_dag`` has not read yet, and under ``--cycle`` the function
# ``run_trace`` defines as the repeating list. No parsed name has angle brackets.
EVENT_LIST = "<events>"
UNREAD = Var(EVENT_LIST)


def _event_list(events: Sequence[str], tail: Term) -> Term:
    """``Cons e1 (... (Cons en tail))``, built from the tail up.

    Each cell's free variables are memoised as it is made, so that no later
    ``free_vars`` call recurses down a long list.
    """
    out = tail
    for e in reversed(events):
        out = Con("Cons", (Con(e), out))
        free_vars(out)
    return out


def bind_events(program: Term, events: Term) -> Term:
    """The program with ``events`` for its event list.

    The program's single free variable is its event-list parameter; a closed
    program is applied to the list instead, and one with several free
    variables raises ``EvalError``.
    """
    fv = sorted(free_vars(program))
    if len(fv) > 1:
        raise EvalError(f"program has several free variables: {', '.join(fv)}")
    return substitute(program, {fv[0]: events}) if fv else App(program, events)


def _next_state(t: Term, env: FunEnv) -> Optional[tuple[Term, Term, FunEnv]]:
    """``(state, rest of stream, env)`` of a state stream, or None at its end.

    The stream cell and its state share one budget of ``DEFAULT_FUEL`` steps.
    """
    value, env, fuel = _whnf(t, env, DEFAULT_FUEL)
    if type(value) is Con:
        args = value.args
        if value.con == "Cons" and len(args) == 2:
            return deep_eval(args[0], env, fuel)[0], args[1], env
        if value.con == "Nil" and not args:
            return None
    raise NonConsOutput(
        f"program output is not a state stream: {type(value).__name__}")


def run_trace(program: Term, events: Sequence[str], cycle: bool = False,
              max_states: int = 64) -> list[Term]:
    """Feed an event list to a reactive program and collect its state trace.

    The program's event-list parameter is bound to the given events as one
    ``Cons`` list; with ``cycle`` set, to a function whose list of the events
    ends in the function itself. One state is emitted per consumed event,
    after the initial state; the trace stops at ``max_states`` states or
    when the events run out. Each state may take up to ``DEFAULT_FUEL``
    reduction steps, its stream cell included; a state that needs more
    raises ``FuelExhausted``.
    """
    if cycle and not events:
        raise ValueError("cannot cycle an empty event list")
    if cycle:
        t = bind_events(program, Fun(EVENT_LIST))
        env = FunEnv.empty().extend(((EVENT_LIST, _event_list(events, Fun(EVENT_LIST))),))
    else:
        t, env = bind_events(program, _event_list(events, NIL)), FunEnv.empty()
    limit = max_states if cycle else min(max_states, len(events) + 1)
    trace: list[Term] = []
    while len(trace) < limit:
        nxt = _next_state(t, env)
        if nxt is None:
            break
        state, t, env = nxt
        trace.append(state)
    return trace


def _read(t: Term, env: FunEnv, cell: Term) -> tuple[Term, FunEnv]:
    """``t`` and ``env`` with ``cell`` in place of the unread events.

    A frame is copied when its definitions name them or its parent was
    copied, so the parents of the outermost such frame stay shared. The
    chain is rebuilt in a loop: one state can open many where blocks.
    """
    sub = {EVENT_LIST: cell}
    chain: list[FunEnv] = []
    e: FunEnv | None = env
    while e is not None:
        chain.append(e)
        e = e._parent
    out: FunEnv | None = None
    for frame in reversed(chain):
        defs = frame._frame
        if out is not frame._parent or any(EVENT_LIST in free_vars(d) for d in defs.values()):
            frame = FunEnv({f: substitute(d, sub) for f, d in defs.items()}, out)
        out = frame
    return substitute(t, sub), out


# A node of the trace DAG: the states one path emits after its parent's
# branch point, then None where its traces end, or one child per event, in
# alphabet order, where reduction needs the next event.
TraceNode = tuple[tuple[Term, ...], Optional[tuple["TraceNode", ...]]]


def trace_dag(program: Term, events: Sequence[str], depth: int) -> TraceNode:
    """The traces of every event sequence of length ``depth``, as a DAG.

    The walk binds the program's event list to the placeholder ``UNREAD``,
    a variable no program can write, and branches over ``events`` only when
    reduction is stuck on it. Each child then retries the state from its
    start with ``Cons e UNREAD`` (``Cons e Nil`` for the last event) in the
    placeholder's place, in the start term and in every where frame whose
    definitions name it (see ``_read``). The children of a branch point are
    memoised for the run, keyed on the state's start term, its environment
    by identity, and the numbers of events bound and of states emitted;
    paths that reach the same handler with the same environment at the same
    event position share them, so each is reduced once. Nothing that raised
    is stored and the walk is depth first in product order, so the exception
    raised is that of the first failing sequence. With no events and a
    positive depth there is no sequence: the root branches into no children.
    """
    if depth and not events:
        return (), ()
    limit = depth + 1
    memo: dict[tuple, tuple[TraceNode, ...]] = {}

    def walk(t: Term, env: FunEnv, bound: int, emitted: int) -> TraceNode:
        states: list[Term] = []
        while emitted < limit:
            try:
                nxt = _next_state(t, env)
            except StuckError as exc:
                if exc.term != UNREAD:
                    raise
                return tuple(states), branch(t, env, bound, emitted)
            if nxt is None:
                break
            state, t, env = nxt
            states.append(state)
            emitted += 1
        return tuple(states), None

    def branch(t: Term, env: FunEnv, bound: int, emitted: int) -> tuple[TraceNode, ...]:
        key = (t, env, bound, emitted)
        children = memo.get(key)
        if children is None:
            rest = NIL if bound + 1 == depth else UNREAD
            children = memo[key] = tuple(
                walk(*_read(t, env, Con("Cons", (Con(e), rest))), bound + 1, emitted)
                for e in events)
        return children

    return walk(bind_events(program, UNREAD if depth else NIL), FunEnv.empty(), 0, 0)
