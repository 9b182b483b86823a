"""Call-by-name operational semantics, the trace simulator and its enumeration.

Terms are run by an environment machine (Krivine's, as Sestoft derives it in
"Deriving a lazy abstract machine", 1997, without the updates that would make
it lazy; see also Felleisen and Friedman's CEK machine, 1986). A closure is a
term with an environment mapping its variables to closures, so no reduction
substitutes: an application pushes its argument's closure and a lambda pops
it, a case evaluates its scrutinee and binds the pattern's variables to the
closures of the constructor's arguments, a let binds its term's closure, and
a function name is looked up in one table that holds, for each name, the
newest definition of the where blocks opened so far, with the variables its
block saw. Values are weak head normal forms, constructor applications and
lambdas; a term that is neither and cannot be contracted is stuck, which
signals an ill-typed configuration.

Fuel counts contractions: a β-reduction, a case selection, a let, a function
unfold and the opening of a where block each cost one unit, which is what a
small-step reduction relation counts in steps. It is checked after the
stuck check and before the contraction.

The simulator binds a program's event list in the machine's environment.
``run_trace`` binds the whole list up front. ``trace_dag``, which holds the
traces of every event sequence of a given length for the oracle, binds one
placeholder variable for the events not yet read. When the machine is stuck
on it, the state's start closure is read back into a term, substituting the
closures of its free variables, and retried once per event with a ``Cons``
of that event and the placeholder bound in its place. What follows each such
branch point is memoised: every handler reached at an event position is
reduced once, so the work grows linearly with the length, not with the
number of sequences. Each emitted state gets its own fuel.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .terms import (
    App, Case, Con, Fun, Lam, Let, PWild, STATE_VAR, Term, Var, Where,
    free_vars, substitute,
)
from .kleene import TruthVal, truthval_from_name

DEFAULT_FUEL = 10 ** 6
# an atom's budget, fixed when the module loads: DEFAULT_FUEL, which tests
# lower, is the budget of each simulated state
_ATOM_FUEL = DEFAULT_FUEL


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


# --- closures and function environments -----------------------------------------

# A closure is a term and the closures of its variables. Environments are
# never changed once made: binding a variable copies the dict.
Env = dict[str, "Closure"]
Closure = tuple[Term, Env]
_NO_VARS: Env = {}


class FunEnv:
    """Immutable table of the where-bound functions: each name's newest
    definition, with the closures of the variables its block saw.

    ``extend`` puts a block's definitions on top, so a name defined again
    shadows the older definition from then on, which is what a chain of
    frames searched innermost first returns too.
    """

    __slots__ = ("_table",)

    def __init__(self, table: dict[str, Closure]):
        self._table = table  # owned: no caller keeps the dict

    @staticmethod
    def empty() -> "FunEnv":
        return _EMPTY_ENV

    def extend(self, defs: Sequence[tuple[str, Term]], env: Env = _NO_VARS) -> "FunEnv":
        table = self._table.copy()
        for name, d in defs:
            table[name] = d, env
        return FunEnv(table)

    def lookup(self, name: str) -> Optional[Term]:
        hit = self._table.get(name)
        return None if hit is None else hit[0]


_EMPTY_ENV = FunEnv({})


def _closure(t: Term, env: Env) -> Closure:
    """``t`` under ``env``. A bound variable's closure is the one it is bound
    to, so that chains of variables bound to variables do not grow as a run
    reads its events."""
    if type(t) is Var:
        hit = env.get(t.name)
        if hit is not None:
            return hit
    return t, env


# --- the machine -------------------------------------------------------------------

def _exhausted(top: str | None, args: list, t: Term) -> FuelExhausted:
    # named by the outermost node of the term the machine stands for: an
    # application while arguments wait, a case while its scrutinee runs
    name = top or ("App" if args else type(t).__name__)
    return FuelExhausted(f"no value after step budget: {name}")


def _whnf(t: Term, env: Env, funs: FunEnv, fuel: int,
          top: str | None = None) -> tuple[Term, Env, FunEnv, int]:
    """The weak head normal form of ``t`` under ``env`` and ``funs``: the value,
    its environment, the function environment then open, and the fuel left.

    The where blocks a run opens stay open for the rest of it, the state's
    arguments and the next state included: the function environment belongs
    to the configuration, as in the reduction relation, not to a closure, so
    where-bound names are scoped dynamically. A function name is one lookup
    in its table, and opening a block one copy of it.
    A case's scrutinee runs in a nested call; ``top`` then names the node
    that the outermost call's term begins with, for the message of
    ``FuelExhausted``.
    """
    args: list[Closure] = []  # the arguments waiting for a lambda, the next last
    while True:
        tt = type(t)
        if tt is App:
            a = t.arg
            hit = env.get(a.name) if type(a) is Var else None  # _closure, inlined
            args.append((a, env) if hit is None else hit)
            t = t.fn
        elif tt is Var:
            hit = env.get(t.name)
            if hit is None:
                raise StuckError(t, f"free variable {t.name}")
            t, env = hit
        elif tt is Lam:
            if not args:
                return t, env, funs, fuel
            if fuel <= 0:
                raise _exhausted(top, args, t)
            fuel -= 1
            env = {**env, t.param: args.pop()}
            t = t.body
        elif tt is Con:
            if args:
                raise StuckError(t, f"constructor {t.con} applied beyond its arity")
            return t, env, funs, fuel
        elif tt is Case:
            value, venv, funs, fuel = _whnf(t.scrutinee, env, funs, fuel,
                                            top or ("App" if args else "Case"))
            if type(value) is Lam:
                raise StuckError(t, "case scrutinee is a lambda")
            con, fields = value.con, value.args
            for alt in t.alts:
                pattern = alt.pattern
                if type(pattern) is PWild:
                    break
                if pattern.con == con:
                    if len(pattern.vars) != len(fields):
                        raise StuckError(t, f"pattern arity mismatch on {con}")
                    if fields:
                        env = env.copy()
                        for x, a in zip(pattern.vars, fields):
                            env[x] = _closure(a, venv)
                    break
            else:
                raise StuckError(t, f"no pattern matches constructor {con}")
            if fuel <= 0:
                raise _exhausted(top, args, t)
            fuel -= 1
            t = alt.body
        elif tt is Fun:
            hit = funs._table.get(t.name)
            if hit is None:
                raise StuckError(t, f"undefined function {t.name}")
            if fuel <= 0:
                raise _exhausted(top, args, t)
            fuel -= 1
            t, env = hit
        elif tt is Let:
            if fuel <= 0:
                raise _exhausted(top, args, t)
            fuel -= 1
            env = {**env, t.name: _closure(t.bound, env)}
            t = t.body
        elif tt is Where:
            if fuel <= 0:
                raise _exhausted(top, args, t)
            fuel -= 1
            named = frozenset().union(*[free_vars(d) for _, d in t.defs])
            funs = funs.extend(t.defs, {x: c for x, c in env.items() if x in named})
            t = t.body
        else:
            raise TypeError(f"not a term: {t!r}")


def deep_eval(t: Term, env: Env = _NO_VARS, funs: FunEnv = _EMPTY_ENV,
              fuel: int = DEFAULT_FUEL) -> tuple[Term, int]:
    """Fully evaluate ``t`` under ``env`` and ``funs`` to a ground constructor
    term; it and the fuel left.

    Each argument gets the fuel that the head and the arguments before it
    left. A lambda, as the value or inside its arguments, is no state: it
    raises ``NonConsOutput``.
    """
    value, env, funs, fuel = _whnf(t, env, funs, fuel)
    if type(value) is Lam:
        raise NonConsOutput("program output is not a state stream: "
                            "a state holds a lambda")
    args = []
    for a in value.args:
        if type(a) is not Con or a.args:
            a, fuel = deep_eval(a, env, funs, fuel)
        args.append(a)
    return Con(value.con, tuple(args)), fuel


def atom_truth(atom_term: Term, state: Term) -> TruthVal:
    """Evaluate an atom at an observable state.

    Binds the state to the reserved variable ``STATE_VAR`` and reduces; the
    result must be one of the nullary True/False/Undefined constructors.
    """
    try:
        value, _, _, _ = _whnf(atom_term, {STATE_VAR: (state, _NO_VARS)},
                               _EMPTY_ENV, _ATOM_FUEL)
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
    """``Cons e1 (... (Cons en tail))``."""
    out = tail
    for e in reversed(events):
        out = Con("Cons", (Con(e), out))
    return out


def bind_events(program: Term, events: Closure) -> Closure:
    """The program, as a closure, with ``events`` for its event list.

    The program's single free variable is its event-list parameter; a closed
    program reads no event and comes back as it is, and one with several
    free variables raises ``EvalError``.
    """
    fv = sorted(free_vars(program))
    if len(fv) > 1:
        raise EvalError(f"program has several free variables: {', '.join(fv)}")
    return program, ({fv[0]: events} if fv else _NO_VARS)


def _next_state(c: Closure, funs: FunEnv) -> Optional[tuple[Term, Closure, FunEnv]]:
    """``(state, rest of stream, funs)`` of a state stream, or None at its end.

    The stream cell and its state share one budget of ``DEFAULT_FUEL`` steps.
    """
    value, env, funs, fuel = _whnf(c[0], c[1], funs, DEFAULT_FUEL)
    if type(value) is Con:
        args = value.args
        if value.con == "Cons" and len(args) == 2:
            return deep_eval(args[0], env, funs, fuel)[0], _closure(args[1], env), funs
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
        c = bind_events(program, (Fun(EVENT_LIST), _NO_VARS))
        funs = _EMPTY_ENV.extend(((EVENT_LIST, _event_list(events, Fun(EVENT_LIST))),))
    else:
        c, funs = bind_events(program, (_event_list(events, NIL), _NO_VARS)), _EMPTY_ENV
    limit = max_states if cycle else min(max_states, len(events) + 1)
    trace: list[Term] = []
    while len(trace) < limit:
        nxt = _next_state(c, funs)
        if nxt is None:
            break
        state, c, funs = nxt
        trace.append(state)
    return trace


# --- the trace DAG ----------------------------------------------------------------

def _read_back(c: Closure) -> Term:
    """The term a closure stands for: its free variables' closures, read back
    in turn, substituted. Closed but for the unread events."""
    t, env = c
    sub = {x: _read_back(env[x]) for x in free_vars(t) if x in env}
    return substitute(t, sub) if sub else t


def _retry(t: Term, funs: FunEnv, cell: Term) -> tuple[Closure, FunEnv]:
    """The start of a state read back into ``t``, with ``cell`` bound for the
    unread events, and ``funs`` with the entries that reach them read back too.

    The closures a block captured are read back once, and its entries are
    rebuilt only when they reach the unread events; when none do, ``funs``
    itself comes back, so the memo of ``trace_dag`` shares it.
    """
    bound = {EVENT_LIST: (cell, _NO_VARS)}
    # a captured env's id -> its read-back if that reaches the events, else None
    moved: dict[int, Env | None] = {}
    for _, env in funs._table.values():
        if id(env) not in moved:
            read = {x: _read_back(c) for x, c in env.items()}
            moved[id(env)] = ({x: (r, bound) for x, r in read.items()}
                              if any(EVENT_LIST in free_vars(r) for r in read.values()) else None)
    if not any(moved.values()):
        return (t, bound), funs
    return (t, bound), FunEnv({name: (d, moved[id(env)] or env)
                               for name, (d, env) in funs._table.items()})


# A node of the trace DAG: the states one path emits after its parent's
# branch point, then None where its traces end, or one child per event, in
# alphabet order, where reduction needs the next event.
TraceNode = tuple[tuple[Term, ...], Optional[tuple["TraceNode", ...]]]


def trace_dag(program: Term, events: Sequence[str], depth: int) -> TraceNode:
    """The traces of every event sequence of length ``depth``, as a DAG.

    The walk binds the program's event list to the placeholder ``UNREAD``,
    a variable no program can write, and branches over ``events`` only when
    the machine is stuck on it. The state's start closure is then read back
    into a term, and each child retries it with ``Cons e UNREAD`` (``Cons e
    Nil`` for the last event) bound in the placeholder's place, also in every
    function whose captured variables reach it (see ``_retry``). The
    children of a branch point are memoised for the run, keyed on the
    read-back start term, the function environment by identity, and the
    numbers of events bound and of states emitted; paths that reach the same
    handler with the same environment at the same event position share
    them, so each is reduced once. Nothing that raised is stored and the
    walk is depth first in product order, so the exception raised is that of
    the first failing sequence. With no events and a positive depth there is
    no sequence: the root branches into no children.
    """
    if depth and not events:
        return (), ()
    limit = depth + 1
    memo: dict[tuple, tuple[TraceNode, ...]] = {}

    def walk(c: Closure, funs: FunEnv, bound: int, emitted: int) -> TraceNode:
        states: list[Term] = []
        while emitted < limit:
            try:
                nxt = _next_state(c, funs)
            except StuckError as exc:
                if exc.term != UNREAD:
                    raise
                return tuple(states), branch(_read_back(c), funs, bound, emitted)
            if nxt is None:
                break
            state, c, funs = nxt
            states.append(state)
            emitted += 1
        return tuple(states), None

    def branch(t: Term, funs: FunEnv, bound: int, emitted: int) -> tuple[TraceNode, ...]:
        key = (t, funs, bound, emitted)
        children = memo.get(key)
        if children is None:
            rest = NIL if bound + 1 == depth else UNREAD
            children = memo[key] = tuple(
                walk(*_retry(t, funs, Con("Cons", (Con(e), rest))), bound + 1, emitted)
                for e in events)
        return children

    return walk(bind_events(program, (UNREAD if depth else NIL, _NO_VARS)),
                _EMPTY_ENV, 0, 0)
