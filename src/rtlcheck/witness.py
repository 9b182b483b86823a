"""The verification rules, building verdicts, and trace validation.

:func:`gen` walks the program and formula together and returns a verdict: a
truth value and the trace of observable states that evidences it.
:func:`rtlcheck.verify.verify` returns the truth value alone. Function calls
are unfolded at most once per temporal obligation: revisiting a call while
checking an always-formula yields True (greatest fixed point), while
checking an eventually-formula yields False (least fixed point), and
Undefined otherwise. A call is known by its definition, which the parser
gave its ``Fun`` node: that of the innermost where block defining the name,
so scoping is lexical and a where rule only passes on to its body. Neither
the call's name nor its arguments, which the form check makes variables, are
read: the visited set holds the ids of the definitions unfolded, so a name
that another block defines again is a different call. The visited set is
reset exactly when checking moves inside a temporal operator at a Cons cell.

Dispatch precedence: structural let/where rules fire for any formula, then
formula connectives, then the rules keyed on the shapes of expression and
formula together.

A verdict's trace runs from its own term onward, not from the root: an atom
gives its Cons cell's state, a temporal rule at a Cons cell puts that state
before its tail's trace, and revisits and let-variable applications give the
empty trace. A False verdict's trace is a counterexample, a True one's a
witness, and a last state that repeats an earlier one closes a lasso.

A verdict therefore depends only on the term, the formula, the visited set
and the fairness set. Calls reached with an empty visited set, where a
temporal operator at a Cons cell opens a fresh obligation, are memoised for
the run in ``Budget.memo``, keyed on the callee's definition, the number of
arguments and the formula node (the fairness set is fixed for a run); a hit
returns the stored verdict and spends no rule applications. Calls with a
nonempty visited set unfold as before. So the table holds at most one entry
per definition, arity and formula node: two calls of one handler on
differently named variables share an entry.
Memoising every call, keyed on the visited set as well, decides larger
programs but stores O(n^2) visited sets of size O(n) for a response check on
an n-handler chain: the benchmark's chains then peak at 74 MB, not 24.

The ``G`` and ``F`` rules at a Cons cell check the head, the subformula at
this state, first, and stop there when it decides the obligation with a
one-state trace: a False head under ``G``, a True one under ``F``. The stop is
exact. The tail's verdict puts this state before its trace, so that trace is
at least as long, and ``kleene._combine`` lets an annihilating operand win
over the left one only with a strictly shorter trace. No tail can change the
truth or the trace; since verdicts are path-free, a skipped tail only leaves
memo entries unfilled, which a later lookup computes the same way. A skipped
tail is not unfolded at all, so a definition there that no rule can read
raises nothing. Without the stop an ``F`` obligation
met at its head went on round a ring of handlers until a revisit, and ``G F
St0`` on ``tests/gen_programs.py::ring_program(120)`` took 116,646 rule
applications instead of 1,214.

The worst case stays exponential in the size of the visited set: ``verify
--prop response --fair-all`` on ``benchmarks/workloads.py::graph_shape(n, 0)``
(n handlers, two event branches and a wildcard each) takes, on one CPU core
with CPython 3.11 (wall time of the whole command, start-up included, best of
nine runs on a shared 2-vCPU host),

    n    rule applications    wall time    without the memo
    8    3,215                0.09 s       8,369 in 0.11 s
    10   12,614               0.12 s       85,866 in 0.26 s
    12   24,153               0.15 s       591,781 in 1.1 s
    14   92,536               0.26 s       budget exceeded (exit 70)
    16   250,441              0.51 s       budget exceeded

Atom truths are kept for the run too, in ``Budget.atoms`` keyed on the atom's
formula node and the state: an atom's truth depends on its state alone, so a
repeat reuses it, though it still counts its rule application.
"""

from __future__ import annotations

import enum
from functools import reduce

from .terms import (
    Always, And, Atom, Case, Con, Eventually, Formula, Fun, Implies, Next, Not,
    Or, PCon, Record, Term, Var, Where, Let, spine,
)
from .kleene import FALSE, TRUE, Trace, UNDEFINED, Verdict, and_v, not_v, or_v
from .semantics import atom_truth
from .normform import check_simplified
from .verify import (
    Budget, EMPTY_VISITED, FairSet, VerifyError, VisitedSet, require_simplified,
    unfold_call,
)
from .ltlsem import AtomUndefined, Bounded, PositionedModel, bounded_check, sat_lasso


# Verdict(truth, trace) without the Python frame of the namedtuple's __new__
_verdict = tuple.__new__

_UNDECIDED = Verdict(UNDEFINED, ())
_REVISITED = {Always: Verdict(TRUE, ()), Eventually: Verdict(FALSE, ())}


# gen's frame size (24 locals and an expression stack of 11 on CPython 3.11)
# decides where its recursion crosses the interpreter's 16 KB data-stack
# chunks, and with it how many chunks deep checks map and unmap (ROADMAP item
# 4). Counted as the forked commands' minor page faults (getrusage of the
# children) per pass of the benchmark's handler graphs and chains, summed over
# seeds 1 to 3 (each the median of three passes; median of three such runs),
# this version takes 241k and 82k; runs of one version spread by 3%. Measure
# before adding or removing a local.
def gen(t: Term, f: Formula, visited: VisitedSet, fair: FairSet,
        budget: Budget) -> Verdict:
    """Verdict of formula ``f`` for the stream of ``t``, traced from ``t`` on."""
    budget.tick()

    tt = type(t)
    if tt is Where or tt is Let:
        return gen(t.body, f, visited, fair, budget)

    tf = type(f)
    if tf is And:
        return and_v(gen(t, f.left, visited, fair, budget),
                     gen(t, f.right, visited, fair, budget))
    if tf is Or:
        return or_v(gen(t, f.left, visited, fair, budget),
                    gen(t, f.right, visited, fair, budget))
    if tf is Implies:
        return or_v(not_v(gen(t, f.left, visited, fair, budget)),
                    gen(t, f.right, visited, fair, budget))
    if tf is Not:
        return not_v(gen(t, f.sub, visited, fair, budget))

    # the form check made every Con here a Cons cell, every case scrutinee a
    # variable and every call argument one
    if tt is Con:
        state, tail = t.args
        if tf is Always:
            head = gen(t, f.sub, EMPTY_VISITED, fair, budget)
            if head[0] is FALSE and len(head[1]) == 1:
                return head  # no tail can outweigh it
            truth, trace = gen(tail, f, visited, fair, budget)
            return and_v(head, _verdict(Verdict, (truth, (state,) + trace)))
        if tf is Eventually:
            head = gen(t, f.sub, EMPTY_VISITED, fair, budget)
            if head[0] is TRUE and len(head[1]) == 1:
                return head
            truth, trace = gen(tail, f, visited, fair, budget)
            return or_v(head, _verdict(Verdict, (truth, (state,) + trace)))
        if tf is Next:
            truth, trace = gen(tail, f.sub, EMPTY_VISITED, fair, budget)
            return _verdict(Verdict, (truth, (state,) + trace))
        if tf is Atom:
            # atoms are pure: one evaluation per formula node and state
            key = (id(f), state)
            v = budget.atoms.get(key)
            if v is None:
                v = budget.atoms[key] = atom_truth(f.term, state)
            return _verdict(Verdict, (v, (state,)))

    elif tt is Case:
        alts = t.alts
        vs: list[Verdict] = []
        for alt in alts:
            vs.append(gen(alt.body, f, visited, fair, budget))
        conj = reduce(and_v, vs)
        if tf is not Eventually:
            return conj
        # an eventuality may instead be met by any fair branch; a
        # wildcard is fair when a fair event escapes the patterns before it
        preceding: set[str] = set()
        fair_vs: list[Verdict] = []
        for alt, v in zip(alts, vs):
            if type(alt.pattern) is PCon:
                con = alt.pattern.con
                preceding.add(con)
                if con in fair:
                    fair_vs.append(v)
            elif fair - preceding:
                fair_vs.append(v)
        return or_v(reduce(or_v, fair_vs), conj) if fair_vs else conj

    else:
        fn, args = spine(t)
        if type(fn) is Var:  # application of a let-bound variable
            return _UNDECIDED
        if type(fn) is Fun:  # a call, known by the definition the parser gave it
            body = fn.block[fn.name]
            if visited:
                if id(body) in visited:
                    return _REVISITED.get(tf, _UNDECIDED)
                return gen(unfold_call(fn.name, body, len(args)), f,
                           visited | {id(body)}, fair, budget)
            # a fresh obligation: its verdict depends on the key alone (fair
            # is fixed for the run; the definition and f live as long as the
            # run, and f's id, unlike its hash, costs no walk over its atoms)
            key = (id(body), len(args), id(f))
            v = budget.memo.get(key)
            if v is None:
                v = budget.memo[key] = gen(unfold_call(fn.name, body, len(args)), f,
                                           frozenset((id(body),)), fair, budget)
            return v

    raise VerifyError(f"no verification rule for {type(t).__name__} "
                      f"against {type(f).__name__}")


def generate(program: Term, f: Formula, fair: FairSet = frozenset(),
             budget: Budget | None = None) -> Verdict:
    """Entry point: gen with an empty visited set.

    Precondition: ``fair`` holds events only (``SourceFile.events``): a
    wildcard is fair when a fair name escapes the patterns before it, as
    any other name, a state constructor say, always does.

    ``budget`` defaults to a fresh one; pass one to read how many rule
    applications the run used. Every run starts with empty memo and atom
    tables (``budget.memo``, ``budget.atoms``), so a budget passed to several
    runs carries no verdict or atom truth from one run into the next. Raises
    NotSimplified unless the program is in simplified form.
    """
    require_simplified(check_simplified(program))
    if budget is None:
        budget = Budget()
    budget.memo.clear()
    budget.atoms.clear()
    return gen(program, f, EMPTY_VISITED, frozenset(fair), budget)


def lassoify(trace: Trace) -> PositionedModel:
    """Split a trace at the earliest earlier occurrence of its final state.

    The last state of a fixpoint-terminated trace is the one that was
    re-encountered, so the segment from its first occurrence up to (but not
    including) the final repeat is the loop body. A trace whose final state
    never recurs, the empty trace included, comes back with an empty loop,
    which stands for the finite trace itself.
    """
    for i in range(len(trace) - 1):
        if trace[i] == trace[-1]:
            return PositionedModel(trace[:i], trace[i:-1])
    return PositionedModel(trace, ())


class Validation(enum.Enum):
    VALID = "Valid"
    INVALID = "Invalid"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:
        return self.value


class ValidationReport(Record):
    __slots__ = __match_args__ = ("status", "lasso")


def validate_verdict(verdict: Verdict, f: Formula) -> ValidationReport:
    """Check a verdict's trace against the satisfaction semantics.

    One rule of ``ltlsem`` decides both cases, from two starting points. A
    lasso with a loop is checked exactly on the induced infinite trace
    (``sat_lasso``). A finite trace falls back to the bounded prefix check
    (``bounded_check``), which can still be decisive (e.g. a safety violation
    inside the prefix). An Undefined verdict, an Unknown bounded check or an
    Undefined atom that the formula reaches is Inconclusive.
    """
    lasso = lassoify(verdict.trace)
    try:
        if verdict.truth is UNDEFINED:
            holds = None
        elif lasso.loop:
            holds = sat_lasso(lasso, f)
        else:
            bounded = bounded_check(verdict.trace, f)
            holds = None if bounded is Bounded.UNKNOWN else bounded is Bounded.SAT
    except AtomUndefined:
        holds = None
    if holds is None:
        status = Validation.INCONCLUSIVE
    elif holds == (verdict.truth is TRUE):
        status = Validation.VALID
    else:
        status = Validation.INVALID
    return ValidationReport(status, lasso)
