"""The substituting small-step stepper, kept as the reference for the machine.

``rtlcheck.semantics`` runs an environment machine. This module is the
stepper it replaced: one step reduces the head of an application or a case
scrutinee and substitutes for every β-, case- and let-reduction, and a
configuration's function table (``FunEnv``) gains the definitions of every
where block it opens. Where-bound names are scoped lexically without the
parser's resolution: a block that opens renames apart each of its names the
table already holds, in its body and definitions, so every name in the
table has one definition. ``run_trace`` and ``trace_dag`` here must agree
with the library's, results and exceptions alike (``tests/test_machine.py``);
they read ``semantics.DEFAULT_FUEL`` at each call, so a test that sets it
governs both.
"""

from __future__ import annotations

from typing import Optional, Sequence

from rtlcheck import semantics
from rtlcheck.semantics import (
    EVENT_LIST, NIL, UNREAD, EvalError, FuelExhausted, NonConsOutput,
    StuckError, TraceNode,
)
from rtlcheck.terms import (
    Alt, App, Case, Con, Fun, Lam, Let, PWild, Term, Var, Where, free_vars,
    substitute,
)


class FunEnv:
    """Immutable table of the where-bound functions by name, each defined once."""

    __slots__ = ("_table",)

    def __init__(self, table: dict[str, Term]):
        self._table = table  # owned: no caller keeps the dict

    @staticmethod
    def empty() -> "FunEnv":
        return _EMPTY_ENV

    def extend(self, defs: Sequence[tuple[str, Term]]) -> "FunEnv":
        return FunEnv({**self._table, **dict(defs)})

    def lookup(self, name: str) -> Optional[Term]:
        return self._table.get(name)


_EMPTY_ENV = FunEnv({})


def _apart(block: Where, env: FunEnv) -> tuple[Term, list[tuple[str, Term]]]:
    """The body and definitions of ``block``, each of its names that ``env``
    holds renamed to one that nothing holds; names with a quote do not parse."""
    new = {f: f"{f}'{len(env._table)}" for f, _ in block.defs if f in env._table}
    return _rename(block.body, new), [(new.get(f, f), _rename(d, new))
                                      for f, d in block.defs]


def _rename(t: Term, new: dict[str, str]) -> Term:
    """``t`` with each call of a name in ``new`` renamed, but inside a block
    that defines the name again."""
    tt = type(t)
    if not new or tt is Var:
        return t
    if tt is Fun:
        return Fun(new[t.name]) if t.name in new else t
    if tt is Con:
        return Con(t.con, tuple(_rename(a, new) for a in t.args))
    if tt is App:
        return App(_rename(t.fn, new), _rename(t.arg, new))
    if tt is Lam:
        return Lam(t.param, _rename(t.body, new))
    if tt is Let:
        return Let(t.name, _rename(t.bound, new), _rename(t.body, new))
    if tt is Case:
        return Case(_rename(t.scrutinee, new),
                    tuple(Alt(alt.pattern, _rename(alt.body, new)) for alt in t.alts))
    if tt is Where:
        inner = {f: g for f, g in new.items() if all(f != d for d, _ in t.defs)}
        return Where(_rename(t.body, inner),
                     tuple((f, _rename(d, inner)) for f, d in t.defs))
    raise TypeError(f"not a term: {t!r}")


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
        body, defs = _apart(t, env)
        return body, env.extend(defs)
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


def eval_whnf(t: Term, env: FunEnv | None = None,
              fuel: int = semantics.DEFAULT_FUEL) -> Term:
    """Reduce ``t`` to weak head normal form under ``env``."""
    value, _, _ = _whnf(t, env or FunEnv.empty(), fuel)
    return value


def deep_eval(t: Term, env: FunEnv, fuel: int) -> tuple[Term, int]:
    """Fully evaluate ``t`` to a ground constructor term; it and the fuel left."""
    value, env, fuel = _whnf(t, env, fuel)
    if type(value) is Lam:
        raise NonConsOutput("program output is not a state stream: "
                            "a state holds a lambda")
    args = []
    for a in value.args:
        a, fuel = deep_eval(a, env, fuel)
        args.append(a)
    return Con(value.con, tuple(args)), fuel


def _event_list(events: Sequence[str], tail: Term) -> Term:
    """``Cons e1 (... (Cons en tail))``, free variables memoised from the tail up."""
    out = tail
    for e in reversed(events):
        out = Con("Cons", (Con(e), out))
        free_vars(out)
    return out


def bind_events(program: Term, events: Term) -> Term:
    """The program with ``events`` substituted for its event list; a closed
    program as it is."""
    fv = sorted(free_vars(program))
    if len(fv) > 1:
        raise EvalError(f"program has several free variables: {', '.join(fv)}")
    return substitute(program, {fv[0]: events}) if fv else program


def _next_state(t: Term, env: FunEnv) -> Optional[tuple[Term, Term, FunEnv]]:
    value, env, fuel = _whnf(t, env, semantics.DEFAULT_FUEL)
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
    """``t`` and ``env`` with ``cell`` in place of the unread events; ``env``
    itself when no definition names them."""
    sub = {EVENT_LIST: cell}
    table = env._table
    if any(EVENT_LIST in free_vars(d) for d in table.values()):
        env = FunEnv({f: substitute(d, sub) for f, d in table.items()})
    return substitute(t, sub), env


def trace_dag(program: Term, events: Sequence[str], depth: int) -> TraceNode:
    """The library's trace DAG, by substitution and retry from each branch point."""
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
