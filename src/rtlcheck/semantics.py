"""Call-by-name operational semantics, the trace simulator and its enumeration.

Terms are run by an environment machine (Krivine's, as Sestoft derives it in
"Deriving a lazy abstract machine", 1997, without the updates that would make
it lazy; see also Felleisen and Friedman's CEK machine, 1986). A closure is a
term with an environment mapping its variables to closures, so no reduction
substitutes: an application pushes its argument's closure and a lambda pops
it, a case evaluates its scrutinee and binds the pattern's variables to the
closures of the constructor's arguments, a let binds its term's closure, and
a where block binds its scope: the parser's dict of its definitions
(``Where.block``) under a new instance, which holds the closures of the
variables they name and the scope itself (letrec).
A function name is looked up from the innermost scope out, so each closure
carries its own scope and names are scoped lexically, as the parser resolved
them. Values are weak head normal forms, constructor applications and
lambdas; a term that is neither and cannot be contracted is stuck, which
signals an ill-typed configuration.

Fuel counts contractions: a β-reduction, a case selection, a let, a function
unfold and the opening of a where block each cost one unit, which is what a
small-step reduction relation counts in steps. It is checked after the
stuck check and before the contraction.

The simulator binds a program's event list in the machine's environment.
``run_trace`` binds the whole list up front. ``trace_dag``, which holds the
traces of every event sequence of a given length for the oracle, reads each
event position through a cell: a two-item list that the machine reads like
any closure, and the one mutable object it reads. When the machine is stuck
on a cell's placeholder, the walk sets the cell to a ``Cons`` of each event
in turn and the next cell, and retries the state's start closure. What
follows each such branch point is memoised, keyed on that closure's code and
the keys of what it is bound to, so the walk substitutes nothing either:
every handler reached at an event position is reduced once, so the work
grows linearly with the length, not with the number of sequences. Each
emitted state gets its own fuel.
"""

from __future__ import annotations

from collections.abc import Sequence

from .terms import App, Case, Con, Fun, Lam, Let, PWild, STATE_VAR, Term, Var, Where, free_vars
from .terms import substitute  # noqa: F401  (rebound by benchmarks/tracer.py)
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


# --- closures -------------------------------------------------------------------

# A closure is a term and the closures of its variables. Environments are
# never changed once made: binding a variable copies the dict. A closure may
# also be a list, trace_dag's cell of an event position.
Env = dict[str, "Closure"]
Closure = tuple[Term, Env] | list
_NO_VARS: Env = {}

# where an environment holds its innermost block's scope, the closure of the
# block's definitions by name under its instance, and where an instance holds
# the scope the block opened in; no parsed name has angle brackets
SCOPE, OUTER = "<where>", "<outer>"


def _closure(t: Term, env: Env) -> Closure:
    """``t`` under ``env``. A bound variable's closure is the one it is bound
    to, so that chains of variables bound to variables do not grow as a run
    reads its events, and a constant keeps no environment."""
    tt = type(t)
    if tt is Var:
        hit = env.get(t.name)
        if hit is not None:
            return hit
    elif tt is Con and not t.args:
        return t, _NO_VARS
    return t, env


# --- the machine -------------------------------------------------------------------

def _exhausted(top: str | None, args: list, t: Term) -> FuelExhausted:
    # named by the outermost node of the term the machine stands for: an
    # application while arguments wait, a case while its scrutinee runs
    name = top or ("App" if args else type(t).__name__)
    return FuelExhausted(f"no value after step budget: {name}")


def _whnf(t: Term, env: Env, fuel: int,
          top: str | None = None) -> tuple[Term, Env, int]:
    """The weak head normal form of ``t`` under ``env``: the value, its
    environment and the fuel left.

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
                return t, env, fuel
            if fuel <= 0:
                raise _exhausted(top, args, t)
            fuel -= 1
            env = {**env, t.param: args.pop()}
            t = t.body
        elif tt is Con:
            if args:
                raise StuckError(t, f"constructor {t.con} applied beyond its arity")
            return t, env, fuel
        elif tt is Case:
            value, venv, fuel = _whnf(t.scrutinee, env, fuel,
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
            scope = env.get(SCOPE)
            while scope is not None and t.name not in scope[0]:
                scope = scope[1].get(OUTER)
            if scope is None:
                raise StuckError(t, f"undefined function {t.name}")
            if fuel <= 0:
                raise _exhausted(top, args, t)
            fuel -= 1
            t, env = scope[0][t.name], scope[1]
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
            # the block's instance binds the variables its definitions name,
            # the scope the block opens in, and the block's own scope
            named = frozenset().union(*[free_vars(d) for _, d in t.defs])
            inst = {x: env[x] for x in named if x in env}
            if SCOPE in env:
                inst[OUTER] = env[SCOPE]
            inst[SCOPE] = scope = t.block, inst
            env = {**env, SCOPE: scope}
            t = t.body
        else:
            raise TypeError(f"not a term: {t!r}")


def deep_eval(t: Term, env: Env = _NO_VARS,
              fuel: int = DEFAULT_FUEL) -> tuple[Term, int]:
    """Fully evaluate ``t`` under ``env`` to a ground constructor term; it and
    the fuel left.

    Each argument gets the fuel that the head and the arguments before it
    left. A lambda, as the value or inside its arguments, is no state: it
    raises ``NonConsOutput``.
    """
    value, env, fuel = _whnf(t, env, fuel)
    if type(value) is Lam:
        raise NonConsOutput("program output is not a state stream: "
                            "a state holds a lambda")
    args = []
    for a in value.args:
        if type(a) is not Con or a.args:
            a, fuel = deep_eval(a, env, fuel)
        args.append(a)
    return Con(value.con, tuple(args)), fuel


def atom_truth(atom_term: Term, state: Term) -> TruthVal:
    """Evaluate an atom at an observable state.

    Binds the state to the reserved variable ``STATE_VAR`` and reduces; the
    result must be one of the nullary True/False/Undefined constructors.
    """
    try:
        value, _, _ = _whnf(atom_term, {STATE_VAR: (state, _NO_VARS)}, _ATOM_FUEL)
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

# The name of the event list while the simulator binds it: the placeholder
# that a cell of ``trace_dag`` holds until its event is chosen, and under
# ``--cycle`` the function ``run_trace`` defines as the repeating list. No
# parsed name has angle brackets.
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


def _next_state(c: Closure) -> tuple[Term, Closure] | None:
    """``(state, rest of stream)`` of a state stream, or None at its end.

    The stream cell and its state share one budget of ``DEFAULT_FUEL`` steps.
    """
    value, env, fuel = _whnf(c[0], c[1], DEFAULT_FUEL)
    if type(value) is Con:
        args = value.args
        if value.con == "Cons" and len(args) == 2:
            return deep_eval(args[0], env, fuel)[0], _closure(args[1], env)
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
        inst: Env = {}
        inst[SCOPE] = {EVENT_LIST: _event_list(events, Fun(EVENT_LIST))}, inst
        c = bind_events(program, (Fun(EVENT_LIST), inst))
    else:
        c = bind_events(program, (_event_list(events, NIL), _NO_VARS))
    limit = max_states if cycle else min(max_states, len(events) + 1)
    trace: list[Term] = []
    while len(trace) < limit:
        nxt = _next_state(c)
        if nxt is None:
            break
        state, c = nxt
        trace.append(state)
    return trace


# --- the trace DAG ----------------------------------------------------------------

def _key(c: Closure) -> tuple:
    """What tells a closure apart from the others, with nothing substituted:
    its code, by value; the key of the closure each of its free variables is
    bound to, by name; and each block instance of its scope, which tells what
    its calls mean, from the innermost out, as its block's id and the keys of
    the values it captured, in the order of their names. The parser's block,
    which the program keeps alive, fixes the names its instances capture. A
    cell counts as the closure it holds."""
    t, env = c
    key = [t, tuple([(x, _key(env[x])) for x in sorted(free_vars(t)) if x in env])]
    scope = env.get(SCOPE)
    while scope is not None:
        block, inst = scope
        key += id(block), tuple([_key(inst[x]) for x in sorted(inst)
                                 if x != SCOPE and x != OUTER])
        scope = inst.get(OUTER)
    return tuple(key)


# A node of the trace DAG: the states one path emits after its parent's
# branch point, then None where its traces end, or one child per event, in
# alphabet order, where reduction needs the next event.
TraceNode = tuple[tuple[Term, ...], tuple["TraceNode", ...] | None]


def trace_dag(program: Term, events: Sequence[str], depth: int) -> TraceNode:
    """The traces of every event sequence of length ``depth``, as a DAG.

    The program's event list is the first position's cell, which holds the
    placeholder ``UNREAD``, a variable no program can write; the walk
    branches over ``events`` only when the machine is stuck on it. Each child
    sets the cell to ``Cons e`` of the next cell (of ``Nil`` after the last
    event) and walks the state's start closure again. The children of a
    branch point are memoised, keyed on the start closure's ``_key`` and the
    numbers of events bound and of states emitted, so paths that reach the
    same handler with the same values at the same position share them. The
    walk is depth first in product order and the memo holds only finished
    nodes, so a cell gets its next event only once all under the last one is
    walked, nothing that raised is stored, and the exception raised is that
    of the first failing sequence. With no events and a positive depth there
    is no sequence: the root branches into no children.
    """
    if depth and not events:
        return (), ()
    limit = depth + 1
    memo: dict[tuple[tuple, int, int], tuple[TraceNode, ...]] = {}

    def walk(c: Closure, cell: list, bound: int, emitted: int) -> TraceNode:
        states: list[Term] = []
        while emitted < limit:
            try:
                nxt = _next_state(c)
            except StuckError as exc:
                if exc.term != UNREAD:
                    raise
                return tuple(states), branch(c, cell, bound, emitted)
            if nxt is None:
                break
            state, c = nxt
            states.append(state)
            emitted += 1
        return tuple(states), None

    def branch(c: Closure, cell: list, bound: int,
               emitted: int) -> tuple[TraceNode, ...]:
        key = _key(c), bound, emitted
        hit = memo.get(key)
        if hit is None:
            children = []
            for e in events:
                rest = [UNREAD if bound + 1 < depth else NIL, _NO_VARS]
                cell[:] = Con("Cons", (Con(e), UNREAD)), {EVENT_LIST: rest}
                children.append(walk(c, rest, bound + 1, emitted))
            hit = memo[key] = tuple(children)
        return hit

    first = [UNREAD if depth else NIL, _NO_VARS]
    return walk(bind_events(program, first), first, 0, 0)
