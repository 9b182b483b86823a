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

The machine is one loop: a case pushes a frame of itself, its environment
and the arguments waiting for it, and runs its scrutinee, and a value returns
if no frame is pending and else selects the innermost case's alternative.

Fuel counts contractions: a β-reduction, a case selection, a let, a function
unfold and the opening of a where block each cost one unit, which is what a
small-step reduction relation counts in steps. It is checked after the
stuck check and before the contraction. Each atom evaluation and each
simulated state gets ``DEFAULT_FUEL`` steps, read when it starts.

The simulator binds a program's event list in the machine's environment.
``run_trace`` binds the whole list up front. ``trace_dag``, which holds the
traces of every event sequence of a given length for the oracle, reads each
event position through a cell: a two-item list that the machine reads like
any closure, and the one mutable object it reads. When the machine is stuck
on a cell's placeholder, the state's start closure is a branch point, keyed
on its code and the keys of what it is bound to, so the walk substitutes
nothing either, and not on the position it was reached at. A branch point
sets its cell to a ``Cons`` of each event and a new cell, runs the machine
once for each, and keeps what it emits up to the next branch point; each
position only cuts that to the states it allows. So every handler reached
with the same values is reduced once per event, however many positions
reach it: the work is bounded by the program's handlers, not by the length
or the number of sequences.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .terms import (
    App, Case, Con, Fun, Lam, Let, PWild, STATE_VAR, Term, TruthVal, Var, Where,
    free_vars, truthval_from_name,
)
from .terms import substitute  # noqa: F401  (rebound by benchmarks/tracer.py)

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

def _exhausted(frames: list, args: list, t: Term) -> FuelExhausted:
    # named by the outermost node of the term the machine stands for: an
    # application while arguments wait, a case while its scrutinee runs
    if frames:
        t, _, args = frames[0]
    name = "App" if args else type(t).__name__
    return FuelExhausted(f"no value after step budget: {name}")


def _whnf(t: Term, env: Env, fuel: int) -> tuple[Term, Env, int]:
    """The weak head normal form of ``t`` under ``env``: the value, its
    environment and the fuel left."""
    args: list[Closure] = []  # the arguments waiting for a lambda, the next last
    # the cases whose scrutinee runs, with their environments and the
    # arguments waiting for them, the innermost last
    frames: list[tuple[Case, Env, list[Closure]]] = []
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
        elif tt is Lam and args:
            if fuel <= 0:
                raise _exhausted(frames, args, t)
            fuel -= 1
            # an environment grows by a copy and a store, twice as fast as
            # {**env, name: value} on CPython 3.11
            env = env.copy()
            env[t.param] = args.pop()
            t = t.body
        elif tt is Lam or tt is Con:
            if args:
                raise StuckError(t, f"constructor {t.con} applied beyond its arity")
            if not frames:
                return t, env, fuel
            # a value: the innermost pending case selects an alternative
            value, venv = t, env
            t, env, args = frames.pop()
            if tt is Lam:
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
                raise _exhausted(frames, args, t)
            fuel -= 1
            t = alt.body
        elif tt is Case:
            frames.append((t, env, args))
            args = []
            t = t.scrutinee
        elif tt is Fun:
            scope = env.get(SCOPE)
            while scope is not None and t.name not in scope[0]:
                scope = scope[1].get(OUTER)
            if scope is None:
                raise StuckError(t, f"undefined function {t.name}")
            if fuel <= 0:
                raise _exhausted(frames, args, t)
            fuel -= 1
            # the definition runs under its block's instance, opened again
            t, env = scope[0][t.name], scope[1].copy()
            env[SCOPE] = scope
        elif tt is Let:
            if fuel <= 0:
                raise _exhausted(frames, args, t)
            fuel -= 1
            bound = _closure(t.bound, env)
            env = env.copy()
            env[t.name] = bound
            t = t.body
        elif tt is Where:
            if fuel <= 0:
                raise _exhausted(frames, args, t)
            fuel -= 1
            # the block's instance binds the variables its definitions name
            # and the scope the block opens in; the scope holds the instance,
            # which a call opens under the scope again, so that neither holds
            # the other in a cycle
            named = frozenset().union(*[free_vars(d) for _, d in t.defs])
            inst = {x: env[x] for x in named if x in env}
            if SCOPE in env:
                inst[OUTER] = env[SCOPE]
            scope = t.block, inst
            env = env.copy()
            env[SCOPE] = scope
            t = t.body
        else:
            raise TypeError(f"not a term: {t!r}")


def deep_eval(t: Term, env: Env = _NO_VARS,
              fuel: int = DEFAULT_FUEL) -> tuple[Term, int]:
    """Fully evaluate ``t`` under ``env`` to a ground constructor term; it and
    the fuel left.

    Each argument gets the fuel that the head and the arguments before it
    left. A lambda, as the value or inside its arguments, is no state: it
    raises ``NonConsOutput``. The constructors whose arguments are still to
    come wait on a stack, so a deep state costs no recursion.
    """
    # the constructors around the one in hand, the innermost last: each one's
    # name, environment, arguments to come and the values of those before
    frames: list[tuple[str, Env, Iterator[Term], list[Term]]] = []
    while True:
        value, env, fuel = _whnf(t, env, fuel)
        if type(value) is Lam:
            raise NonConsOutput("program output is not a state stream: "
                                "a state holds a lambda")
        con, rest, values = value.con, iter(value.args), []
        while True:
            t = next(rest, None)
            if t is None:
                value = Con(con, tuple(values))
                if not frames:
                    return value, fuel
                con, env, rest, values = frames.pop()
                values.append(value)
            elif type(t) is Con and not t.args:
                values.append(t)
            else:
                frames.append((con, env, rest, values))
                break


def atom_truth(atom_term: Term, state: Term) -> TruthVal:
    """Evaluate an atom at an observable state.

    Binds the state to the reserved variable ``STATE_VAR`` and reduces; the
    result must be one of the nullary True/False/Undefined constructors.
    """
    try:
        value, _, _ = _whnf(atom_term, {STATE_VAR: (state, _NO_VARS)}, DEFAULT_FUEL)
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
        scope = {EVENT_LIST: _event_list(events, Fun(EVENT_LIST))}, _NO_VARS
        c = bind_events(program, (Fun(EVENT_LIST), {SCOPE: scope}))
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

def _calls(t: Term) -> set[str]:
    """The function names that ``t`` calls, in the where blocks it opens too."""
    names: set[str] = set()
    stack = [t]
    while stack:
        t = stack.pop()
        tt = type(t)
        if tt is Fun:
            names.add(t.name)
        elif tt is App:
            stack += t.fn, t.arg
        elif tt is Con:
            stack += t.args
        elif tt is Lam:
            stack.append(t.body)
        elif tt is Case:
            stack.append(t.scrutinee)
            stack += [alt.body for alt in t.alts]
        elif tt is Let:
            stack += t.bound, t.body
        elif tt is Where:
            stack.append(t.body)
            stack += [d for _, d in t.defs]
    return names


def _key(c: Closure) -> tuple:
    """What tells a closure apart from the others, with nothing substituted:
    its code, by value; the key of the closure each of its free variables is
    bound to, by name; and the block instances of its scope, from the
    innermost one whose block defines a name its code calls out, as each
    block's id and the keys of the values it captured, in the order of their
    names. An instance inside that one cannot change what the closure does:
    no call of its code resolves there, and a block the code opens looks
    names up past it only for calls that the code holds too. The parser's
    block, which the program keeps alive, fixes the names its instances
    capture. A cell counts as the closure it holds."""
    t, env = c
    key = [t, tuple([(x, _key(env[x])) for x in sorted(free_vars(t)) if x in env])]
    scope = env.get(SCOPE)
    if scope is not None:
        calls = _calls(t)
        while scope is not None and not any(name in scope[0] for name in calls):
            scope = scope[1].get(OUTER)
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

_END = "end"  # where a segment whose stream ended ends


class _Segment:
    """One run of the machine from a branch point, with the point's cell set
    to one event (or to ``Nil``): the states it emitted so far and, while it
    is open, the closure of the next one. It ends in ``_END`` or at the key
    of the branch point where it needs the next event, read from ``rest``.
    ``path`` holds what each cell it reads is set to, since other runs set
    them."""

    __slots__ = ("states", "c", "path", "rest", "end")

    def __init__(self, c: Closure, path: tuple, rest: list | None):
        self.states: list[Term] = []
        self.c, self.path, self.rest = c, path, rest
        self.end: str | tuple | None = None


class _BranchPoint:
    """A state's start closure, stuck on its unread ``cell``, with its
    segments: one per event, made at its first branch, and one on ``Nil``,
    made when a path's last event leads here; and its children by the
    numbers of events bound and states emitted on the way."""

    __slots__ = ("c", "cell", "path", "segments", "nil", "children")

    def __init__(self, c: Closure, cell: list, path: tuple):
        self.c, self.cell, self.path = c, cell, path
        self.segments: list[_Segment] | None = None
        self.nil: _Segment | None = None
        self.children: dict[tuple[int, int], tuple[TraceNode, ...]] = {}


class _Dag:
    """The branch points of one ``trace_dag`` call, by key, and the rest of
    what its walk shares. A segment names the point it ends at by the key,
    so no point and segment hold each other."""

    __slots__ = ("depth", "limit", "points", "heads", "states_by_value")

    def __init__(self, events: Sequence[str], depth: int):
        self.depth, self.limit = depth, depth + 1
        self.points: dict[tuple, _BranchPoint] = {}
        self.heads = [Con("Cons", (Con(e), UNREAD)) for e in events]
        self.states_by_value: dict[Term, Term] = {}

    def grow(self, seg: _Segment, bound: int, emitted: int) -> TraceNode:
        """The node of a path that bound ``bound`` events, this segment's
        included, and emitted ``emitted`` states before it."""
        room = self.limit - emitted
        states = seg.states
        if seg.end is None and len(states) < room:
            # run the segment on, with the cells set as it reads them
            for cell, value in seg.path:
                cell[:] = value
            c = seg.c
            points, states_by_value = self.points, self.states_by_value
            while len(states) < room:
                try:
                    nxt = _next_state(c)
                except StuckError as exc:
                    if exc.term != UNREAD:
                        raise
                    key = _key(c)
                    if key not in points:
                        points[key] = _BranchPoint(c, seg.rest, seg.path)
                    seg.end = key
                    break
                if nxt is None:
                    seg.end = _END
                    break
                state, c = nxt
                states.append(states_by_value.setdefault(state, state))
            seg.c = c
        end = seg.end
        if len(states) >= room or end is None or end is _END:
            return tuple(states[:room]), None
        point = self.points[end]
        if bound < self.depth:
            return tuple(states), self.branch(point, bound, emitted + len(states))
        if point.nil is None:
            point.nil = _Segment(point.c, (*point.path, (point.cell, (NIL, _NO_VARS))),
                                 None)
        more, _ = self.grow(point.nil, bound, emitted + len(states))
        return (*states, *more), None

    def branch(self, point: _BranchPoint, bound: int,
               emitted: int) -> tuple[TraceNode, ...]:
        hit = point.children.get((bound, emitted))
        if hit is None:
            if point.segments is None:
                point.segments = []
                for head in self.heads:
                    rest = [UNREAD, _NO_VARS]
                    value = head, {EVENT_LIST: rest}
                    point.segments.append(
                        _Segment(point.c, (*point.path, (point.cell, value)), rest))
            hit = point.children[bound, emitted] = tuple(
                [self.grow(seg, bound + 1, emitted) for seg in point.segments])
        return hit


def trace_dag(program: Term, events: Sequence[str], depth: int) -> TraceNode:
    """The traces of every event sequence of length ``depth``, as a DAG.

    The program's event list is the first position's cell, which holds the
    placeholder ``UNREAD``, a variable no program can write; the machine
    runs until it is stuck on it. There the state's start closure is a
    branch point, keyed on its ``_key`` alone, so every path that reaches
    the same handler with the same values, wherever it has got to, shares
    it. For each event the branch point runs the machine once, with its cell
    set to ``Cons e`` of a new cell, and keeps what it emits as a segment,
    up to the next branch point; on ``Nil`` it runs it once more for the
    paths whose events ran out there. A position takes the states of a
    segment that its length still allows, and past its last event the
    ``Nil`` segment of the branch point reached, so the DAG is the one that
    running each position on its own would give. A segment is extended only
    as far as a position asks, depth first in product order, so no state is
    reduced that some sequence's run would not reduce, and the exception
    raised is that of the first failing sequence. States equal by value are
    one object throughout the DAG, so its readers can key them on identity.
    With no events and a positive depth there is no sequence: the root
    branches into no children.
    """
    if depth and not events:
        return (), ()
    first = [UNREAD, _NO_VARS]
    root = _Segment(bind_events(program, first), ((first, (UNREAD, _NO_VARS)),), first)
    return _Dag(events, depth).grow(root, 0, 0)
