"""Seeded generator of random conforming reactive programs, and reference walks.

Generated programs follow the corpus shape: every handler cases on the head
of its event list and then on the event, each branch emitting one state and
tail-calling a handler. A fraction also wraps the body in a let binding a
lambda and applies the let variable, to exercise the abstraction rules.
Every builder returns its term as the parser reads it back from its printed
form (``resolved``), so that each call knows its definition.

``pretty_expr`` prints a program or an atom and ``pretty_formula`` a
formula; the library prints states only. ``check_term`` checks a term by a
walk of its own: the parser checks terms as it builds them, and its
diagnostics are compared with this walk's.
"""

import random
from typing import Mapping

from rtlcheck.parser import parse_program
from rtlcheck.terms import (
    Alt, Always, And, App, Atom, Case, Con, Eventually, Formula, Fun, Implies,
    Lam, Let, Next, Not, Or, PCon, PWild, Term, Var, WILD, Where, spine,
)

EVENT_POOL = ("EvA", "EvB", "EvC", "EvD")
STATE_POOL = ("St0", "St1", "St2")
DECLS = "data GEvent = EvA | EvB | EvC | EvD\ndata GState = St0 | St1 | St2\n"


def resolved(t: Term) -> Term:
    """``t`` parsed back from its printed form, under ``DECLS``."""
    source = parse_program(DECLS + pretty_expr(t))
    assert source.term is not None, source.diagnostics
    return source.term


def random_program(rng: random.Random, max_funcs: int = 6,
                   n_events: int = 4, let_rate: float = 0.2) -> tuple[Term, tuple[str, ...]]:
    """A conforming program plus the event alphabet it reacts to."""
    events = EVENT_POOL[:n_events]
    n = rng.randint(1, max_funcs)
    funs = [f"g{i}" for i in range(n)]

    def branch_body() -> Term:
        state = Con(rng.choice(STATE_POOL))
        target = rng.choice(funs)
        return Con("Cons", (state, App(Fun(target), Var("es"))))

    defs = []
    for fname in funs:
        alts = []
        for ev in rng.sample(events, rng.randint(0, min(2, len(events)))):
            alts.append(Alt(PCon(ev, ()), branch_body()))
        alts.append(Alt(WILD, branch_body()))
        handler = Lam("es", Case(Var("es"), (
            Alt(PCon("Cons", ("e", "es")),
                Case(Var("e"), tuple(alts))),)))
        defs.append((fname, handler))

    body: Term = Con("Cons", (Con(rng.choice(STATE_POOL)),
                              App(Fun(funs[0]), Var("es"))))
    if rng.random() < let_rate:
        # exercise abstraction: bind a lambda, apply the let variable to a call
        bound = Lam("x", App(Fun(funs[0]), Var("x")))
        body = Con("Cons", (Con(rng.choice(STATE_POOL)),
                            Let("h", bound,
                                App(Var("h"), App(Fun(funs[0]), Var("es"))))))
    return resolved(Where(body, tuple(defs))), events


def ring_program(n: int) -> Term:
    """A ring of ``n`` handlers: EvA advances to the next handler, ``_`` stays.

    The last handler emits St2 and all others St0, so checking the ring
    recurses through every handler before any call is revisited.
    """
    def emit(j: int) -> Term:
        state = "St2" if j == n - 1 else "St0"
        return Con("Cons", (Con(state), App(Fun(f"h{j}"), Var("es"))))

    defs = []
    for i in range(n):
        nxt = (i + 1) % n
        handler = Lam("es", Case(Var("es"), (
            Alt(PCon("Cons", ("e", "es")), Case(Var("e"), (
                Alt(PCon("EvA", ()), emit(nxt)),
                Alt(WILD, emit(i)),
            ))),)))
        defs.append((f"h{i}", handler))
    return resolved(Where(emit(0), tuple(defs)))


def inner_where_ring(n: int) -> Term:
    """``ring_program(n)`` with each handler's body in a where block of its own.

    Handler ``hi`` is ``\\es -> g es where g = <the ring's hi>``, so every
    definition of the outer block ends in an inner block.
    """
    ring = ring_program(n)
    return resolved(Where(ring.body, tuple(
        (name, Lam("es", Where(App(Fun("g"), Var("es")), (("g", handler),))))
        for name, handler in ring.defs)))


def state_atom(state_name: str) -> Atom:
    """Atom holding exactly at the given nullary state constructor."""
    return Atom(Case(Var("s"), (
        Alt(PCon(state_name, ()), Con("True")),
        Alt(WILD, Con("False")),
    )))


def formula_battery() -> list[Formula]:
    a = state_atom("St0")
    b = state_atom("St1")
    return [
        Always(a),
        Eventually(b),
        Always(Implies(a, Eventually(b))),
        Next(b),
        Not(Always(a)),
        And(Always(Or(a, b)), Eventually(a)),
        a,
    ]


# term precedence: a body position (0) takes any construct bare, an argument
# position (1) parenthesizes applications and binders

def pretty_expr(t: Term, prec: int = 0) -> str:
    """Program-file syntax of ``t``, which reparses to an equal tree.

    A construct is parenthesized in argument position, inside a case
    alternative that is not the last one, or in a where definition that is
    not the last one and ends in a where block of its own.
    """
    match t:
        case Var(name) | Fun(name) | Con(name, ()):
            return name
        case Con(con, args):
            out = " ".join([con, *[pretty_expr(a, 1) for a in args]])
        case App():
            head, args = spine(t)
            out = " ".join([pretty_expr(x, 1) for x in (head, *args)])
        case Lam(param, body):
            out = f"\\{param} -> {pretty_expr(body)}"
        case Case(scrut, alts):
            last = len(alts) - 1
            out = f"case {pretty_expr(scrut, 1)} of " + " | ".join(
                f"{_pretty_pattern(alt.pattern)} -> "
                f"{pretty_expr(alt.body, 0 if i == last else 1)}"
                for i, alt in enumerate(alts))
        case Let(name, bound, body):
            out = f"let {name} = {pretty_expr(bound)} in {pretty_expr(body)}"
        case Where(body, defs):
            lines = [f"{pretty_expr(body, 1)} where"]
            for i, (name, d) in enumerate(defs):
                inner = i < len(defs) - 1 and _ends_in_where(d)
                lines.append(f"  {name} = {pretty_expr(d, 1 if inner else 0)}")
            out = "\n".join(lines)
        case _:
            raise TypeError(f"not a term: {t!r}")
    return f"({out})" if prec else out


def _ends_in_where(t: Term) -> bool:
    """Whether ``t``, printed in a body position, ends in a where block."""
    while True:
        match t:
            case Where():
                return True
            case Lam(_, body) | Let(_, _, body):
                t = body
            case Case(_, alts):
                t = alts[-1].body
            case _:
                return False


def _pretty_pattern(p: PCon | PWild) -> str:
    return "_" if type(p) is PWild else " ".join([p.con, *p.vars])


# formula precedence: => (1, right) < || (2) < && (3) < prefix operators (4)

def pretty_formula(f: Formula, prec: int = 0) -> str:
    """Property-file syntax of ``f`` with the fewest parentheses."""
    match f:
        case Atom(term):
            return "{ " + pretty_expr(term) + " }"
        case Not(sub):
            return "!" + pretty_formula(sub, 4)
        case Always(sub):
            return "G " + pretty_formula(sub, 4)
        case Eventually(sub):
            return "F " + pretty_formula(sub, 4)
        case Next(sub):
            return "X " + pretty_formula(sub, 4)
        case And(l, r):
            out = f"{pretty_formula(l, 3)} && {pretty_formula(r, 4)}"
            return f"({out})" if prec > 3 else out
        case Or(l, r):
            out = f"{pretty_formula(l, 2)} || {pretty_formula(r, 3)}"
            return f"({out})" if prec > 2 else out
        case Implies(l, r):
            out = f"{pretty_formula(l, 2)} => {pretty_formula(r, 1)}"
            return f"({out})" if prec > 1 else out
    raise TypeError(f"not a formula: {f!r}")


def random_fair(rng: random.Random, events: tuple[str, ...]) -> frozenset[str]:
    roll = rng.random()
    if roll < 0.4:
        return frozenset(events)
    if roll < 0.6:
        return frozenset()
    return frozenset(rng.sample(events, rng.randint(1, len(events))))


def handler_graph(n: int, seed: int = 0) -> Term:
    """``n`` handlers, each branching on EvA, EvB and ``_`` to drawn targets.

    Targets and the state each handler emits on entry come from
    ``random.Random(seed)``; ``g0`` is initial. Every branch reaches another
    handler, so a check explores many paths through the same calls.
    """
    rng = random.Random(seed)
    targets = [[rng.randrange(n) for _ in range(3)] for _ in range(n)]
    states = [rng.choice(STATE_POOL) for _ in range(n)]

    def enter(j: int) -> Term:
        return Con("Cons", (Con(states[j]), App(Fun(f"g{j}"), Var("es"))))

    defs = []
    for i, (ta, tb, tw) in enumerate(targets):
        handler = Lam("es", Case(Var("es"), (
            Alt(PCon("Cons", ("e", "es")), Case(Var("e"), (
                Alt(PCon("EvA", ()), enter(ta)),
                Alt(PCon("EvB", ()), enter(tb)),
                Alt(WILD, enter(tw)),
            ))),)))
        defs.append((f"g{i}", handler))
    return resolved(Where(enter(0), tuple(defs)))


# --- the reference term check -----------------------------------------------

def check_term(t: Term, arities: Mapping[str, int]) -> list[str]:
    """Problems with ``t`` against the term invariants, empty when well formed.

    Checks constructor arities against the declaration table and the case
    alternative rules: at least one alternative, at most one wildcard and
    only in last position, no constructor in two patterns of one case, no
    repeated variable inside one pattern, no function defined twice in one
    where block. The parser reports the same messages in the same order,
    each at its token.
    """
    problems: list[str] = []
    _check(t, arities, problems)
    return problems


def _check(t: Term, arities: Mapping[str, int], out: list[str]) -> None:
    tt = type(t)
    if tt is App:
        _check(t.fn, arities, out)
        _check(t.arg, arities, out)
    elif tt is Var or tt is Fun:
        pass
    elif tt is Con:
        con, args = t.con, t.args
        if con not in arities:
            out.append(f"unknown constructor {con}")
        elif arities[con] != len(args):
            out.append(f"constructor arity: {con} expects {arities[con]} "
                       f"arguments, got {len(args)}")
        for a in args:
            _check(a, arities, out)
    elif tt is Case:
        alts = t.alts
        _check(t.scrutinee, arities, out)
        if not alts:
            out.append("case with no alternatives")
        seen: set[str] = set()
        for i, alt in enumerate(alts):
            if isinstance(alt.pattern, PWild):
                if i != len(alts) - 1:
                    out.append("wildcard pattern must be the last alternative")
            else:
                con, pvars = alt.pattern.con, alt.pattern.vars
                if con in seen:
                    out.append(f"constructor {con} appears in two patterns "
                               "of the same case")
                seen.add(con)
                if len(set(pvars)) != len(pvars):
                    out.append(f"repeated pattern variable in {con} pattern")
                if con in arities and arities[con] != len(pvars):
                    out.append(f"pattern arity: {con} expects {arities[con]} "
                               f"variables, got {len(pvars)}")
                elif con not in arities:
                    out.append(f"unknown constructor {con} in pattern")
            _check(alt.body, arities, out)
    elif tt is Lam:
        _check(t.body, arities, out)
    elif tt is Let:
        _check(t.bound, arities, out)
        _check(t.body, arities, out)
    elif tt is Where:
        _check(t.body, arities, out)
        defined: set[str] = set()
        for name, d in t.defs:
            if name in defined:
                out.append(f"function {name} defined twice in one where block")
            defined.add(name)
            _check(d, arities, out)
    else:
        out.append(f"not a term: {t!r}")
