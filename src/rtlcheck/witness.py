"""The verification rules, building verdicts, and trace validation.

:func:`gen` walks the program and formula together and returns a verdict: a
truth value and the trace of observable states that evidences it.
:func:`rtlcheck.verify.verify` returns the truth value alone. Function calls
are unfolded at most once per temporal obligation: revisiting a call while
checking an always-formula yields True (greatest fixed point), while
checking an eventually-formula yields False (least fixed point), and
Undefined otherwise. The visited set is reset exactly when checking moves
inside a temporal operator at a Cons cell.

Dispatch precedence: structural let/where rules fire for any formula, then
formula connectives, then the rules keyed on the shapes of expression and
formula together.

The trace is threaded along the current rule-application path: every Cons
cell appends its state, and revisited calls close the loop and return the
accumulated trace. It is a counterexample when the truth value is False and
a witness when it is True, and a finite trace whose last state repeats an
earlier one denotes a lasso.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .terms import (
    Always, And, Atom, Case, Con, Eventually, Formula, Implies, Next, Not, Or,
    PCon, Term, Var, Where, Let, spine,
)
from .kleene import (
    FALSE, TRUE, Trace, UNDEFINED, Verdict,
    and_v, and_v_all, imp_v, not_v, or_v, or_v_all,
)
from .semantics import FunEnv, DEFAULT_FUEL, atom_truth
from .normform import check_simplified
from .verify import (
    Budget, EMPTY_VISITED, FairSet, NotSimplified, VerifyError, VisitedSet,
    branch_is_fair, call_spine, unfold_call,
)
from .ltlsem import AtomUndefined, Bounded, PositionedModel, bounded_check, sat_lasso


class EmptyTrace(Exception):
    pass


@dataclass(frozen=True)
class LassoTrace:
    """A finite prefix plus a loop; an empty loop means a plain finite trace."""

    prefix: Trace
    loop: Trace


def gen(t: Term, f: Formula, env: FunEnv, visited: VisitedSet, fair: FairSet,
        acc: Trace, budget: Budget | None = None,
        fuel: int = DEFAULT_FUEL) -> Verdict:
    """Verdict of formula ``f`` for the stream of ``t``, extending ``acc``."""
    if budget is None:
        budget = Budget()
    budget.tick()

    match t:
        case Where(body, defs):
            return gen(body, f, env.extend(defs), visited, fair, acc, budget, fuel)
        case Let(_, _, body):
            return gen(body, f, env, visited, fair, acc, budget, fuel)

    match f:
        case And(l, r):
            return and_v(gen(t, l, env, visited, fair, acc, budget, fuel),
                         gen(t, r, env, visited, fair, acc, budget, fuel))
        case Or(l, r):
            return or_v(gen(t, l, env, visited, fair, acc, budget, fuel),
                        gen(t, r, env, visited, fair, acc, budget, fuel))
        case Implies(l, r):
            return imp_v(gen(t, l, env, visited, fair, acc, budget, fuel),
                         gen(t, r, env, visited, fair, acc, budget, fuel))
        case Not(sub):
            return not_v(gen(t, sub, env, visited, fair, acc, budget, fuel))

    match t:
        case Con("Cons", (state, tail)):
            match f:
                case Always(sub):
                    head = gen(t, sub, env, EMPTY_VISITED, fair, acc, budget, fuel)
                    rest = gen(tail, f, env, visited, fair, acc + (state,),
                               budget, fuel)
                    return and_v(head, rest)
                case Eventually(sub):
                    head = gen(t, sub, env, EMPTY_VISITED, fair, acc, budget, fuel)
                    rest = gen(tail, f, env, visited, fair, acc + (state,),
                               budget, fuel)
                    return or_v(head, rest)
                case Next(sub):
                    return gen(tail, sub, env, visited, fair, acc + (state,),
                               budget, fuel)
                case Atom(term):
                    return Verdict(atom_truth(term, state, fuel), acc + (state,))

        case Case(Var(_), alts):
            vs: list[Verdict] = []
            for alt in alts:
                vs.append(gen(alt.body, f, env, visited, fair, acc, budget, fuel))
            conj = and_v_all(vs)
            if not isinstance(f, Eventually):
                return conj
            # an eventuality may instead be met by any fair branch
            preceding: set[str] = set()
            fair_vs: list[Verdict] = []
            for alt, v in zip(alts, vs):
                if branch_is_fair(alt.pattern, preceding, fair):
                    fair_vs.append(v)
                if isinstance(alt.pattern, PCon):
                    preceding.add(alt.pattern.con)
            return or_v(or_v_all(fair_vs), conj) if fair_vs else conj

        case _:
            call = call_spine(t)
            if call is not None:
                fname, argnames = call
                if fname in visited:
                    if isinstance(f, Always):
                        return Verdict(TRUE, acc)
                    if isinstance(f, Eventually):
                        return Verdict(FALSE, acc)
                    return Verdict(UNDEFINED, acc)
                body = unfold_call(fname, argnames, env)
                return gen(body, f, env, visited | {fname}, fair, acc,
                           budget, fuel)
            if isinstance(spine(t)[0], Var):  # application of a let-bound variable
                return Verdict(UNDEFINED, acc)

    raise VerifyError(f"no verification rule for {type(t).__name__} "
                      f"against {type(f).__name__}")


def generate(program: Term, f: Formula, fair: FairSet = frozenset(),
             budget: Budget | None = None, fuel: int = DEFAULT_FUEL,
             require_simplified: bool = True) -> Verdict:
    """Entry point: gen with empty environment, visited set and trace."""
    if require_simplified:
        report = check_simplified(program)
        if not report.conforms:
            first = report.violations[0]
            raise NotSimplified(f"{first.path}: {first.message}")
    return gen(program, f, FunEnv.empty(), EMPTY_VISITED, frozenset(fair), (),
               budget, fuel)


def lassoify(trace: Trace) -> LassoTrace:
    """Split a trace at the earliest earlier occurrence of its final state.

    The last state of a fixpoint-terminated trace is the one that was
    re-encountered, so the segment from its first occurrence up to (but not
    including) the final repeat is the loop body. Traces whose final state
    never recurs come back with an empty loop.
    """
    if not trace:
        raise EmptyTrace("cannot lassoify an empty trace")
    last = trace[-1]
    for i in range(len(trace) - 1):
        if trace[i] == last:
            return LassoTrace(trace[:i], trace[i:-1])
    return LassoTrace(trace, ())


class Validation(enum.Enum):
    VALID = "Valid"
    INVALID = "Invalid"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ValidationReport:
    status: Validation
    lasso: LassoTrace
    bounded: Optional[Bounded] = None  # prefix check, when the loop is empty


def validate_verdict(verdict: Verdict, f: Formula) -> ValidationReport:
    """Check a verdict's trace against the satisfaction semantics.

    Nonempty lassos are checked exactly on the induced infinite trace. A
    trace without a loop falls back to the bounded prefix check, which can
    still be decisive (e.g. a safety violation inside the prefix); otherwise
    the result is Inconclusive. Undefined verdicts make no semantic claim.
    """
    lasso = lassoify(verdict.trace) if verdict.trace else LassoTrace((), ())
    if verdict.truth is UNDEFINED:
        return ValidationReport(Validation.INCONCLUSIVE, lasso)
    if lasso.loop:
        model = PositionedModel(lasso.prefix, lasso.loop)
        try:
            holds = sat_lasso(model, 0, f)
        except AtomUndefined:
            return ValidationReport(Validation.INCONCLUSIVE, lasso)
        expected = verdict.truth is TRUE
        status = Validation.VALID if holds == expected else Validation.INVALID
        return ValidationReport(status, lasso)
    try:
        bounded = bounded_check(verdict.trace, f, 0)
    except AtomUndefined:
        return ValidationReport(Validation.INCONCLUSIVE, lasso)
    if bounded is Bounded.UNKNOWN:
        return ValidationReport(Validation.INCONCLUSIVE, lasso, bounded)
    agrees = (bounded is Bounded.SAT) == (verdict.truth is TRUE)
    status = Validation.VALID if agrees else Validation.INVALID
    return ValidationReport(status, lasso, bounded)
