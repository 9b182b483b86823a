"""The verification rules, their two engines, and trace validation.

The rules (``_rules``) walk a term and a formula together and return a
verdict: a truth value and the trace of observable states that evidences it.
They are written once, with the call rule, the verdict of a call of a
definition, as their one parameter. Two engines give it:

* the tableau (:func:`gen`, :func:`generate`; behind ``witness`` and
  ``oracle``) unfolds a call at most once per path of a temporal obligation
  and builds the trace;
* the solver (:func:`solve`; behind :func:`rtlcheck.verify.verify`) reads a
  call as a variable of an equation system and gives the truth alone.

A call is known by its definition, which the parser gave its ``Fun`` node:
that of the innermost where block defining the name, so scoping is lexical
and a where rule only passes on to its body. Neither the call's name nor its
arguments, which the form check makes variables, are read, so two calls of
one handler on differently named variables are one call.

Dispatch precedence: structural let/where rules fire for any formula, then
formula connectives, then the rules keyed on the shapes of expression and
formula together. A rule whose verdict is that of a part (let, where, a case
of one alternative) goes on with the part in the same frame.

A verdict's trace runs from its own term onward, not from the root: an atom
gives its Cons cell's state, a temporal rule at a Cons cell puts that state
before its tail's trace, and revisits, variables and let-variable
applications give the empty trace. A False verdict's trace is a
counterexample, a True one's a witness, and a last state that repeats an
earlier one closes a lasso.

The ``G`` and ``F`` rules at a Cons cell check the head, the subformula at
this state, first, and stop there when it decides the obligation with a
one-state trace: a False head under ``G``, a True one under ``F``. The stop is
exact. The tail's verdict puts this state before its trace, so that trace is
at least as long, and ``kleene._combine`` lets an annihilating operand win
over the left one only with a strictly shorter trace. No tail can change the
truth or the trace; since verdicts are path-free, a skipped tail only leaves
memo entries unfilled, which a later lookup computes the same way. Without
the stop an ``F`` obligation met at its head went on round a ring of
handlers until a revisit, and ``G F St0`` on
``tests/gen_programs.py::ring_program(120)`` took 116,646 rule applications
instead of 1,214.

``&&``, ``||`` and ``=>`` stop the same way at a Cons cell: every verdict
there has at least one state, so a left operand that gives the annihilator
(False under ``&&``, True under ``||``, False, negated to True, under
``=>``) with a one-state trace is the result, and the right operand is not
run. A skipped tail or operand is not evaluated at all: a definition there
that no rule can read, or an atom there that would raise, raises nothing.

Atom truths are kept for the run, in ``Budget.atoms`` keyed on the atom's
formula node and the state: an atom's truth depends on its state alone, so a
repeat reuses it, though it still counts its rule application.

The tableau. Revisiting a call while checking an always-formula yields True
(greatest fixed point), while checking an eventually-formula yields False
(least fixed point), and Undefined otherwise. The visited set holds the
definitions unfolded, one bit each in an int (bit ``Fun.index``, the number
the parser gave the definition), so a name that another block defines again
is a different call, and extending the set is one ``|``, not a copy as long
as the path. The visited set is reset exactly when checking moves inside a
temporal operator at a Cons cell, where a fresh obligation opens. A verdict
therefore depends only on the term, the formula, the visited set and the
fairness set. Every call is memoised for the run in ``Budget.memo``, keyed
on the callee's number, the number of arguments, the formula node and the
visited set with the callee added (the fairness set is fixed for a run); a
hit returns the stored verdict and spends no rule applications.

The tableau's worst case stays exponential in the size of the visited set:
``witness --prop response --fair-all`` on
``benchmarks/workloads.py::graph_shape(n, 0)`` (n handlers, two event
branches and a wildcard each) takes, on one CPU core with CPython 3.11 (wall
time of the whole command, start-up included, best of at least 18 runs on a
shared 2-vCPU host; measured when ``verify`` ran the tableau too),

    n    rule applications    wall time    memoising fresh obligations only
    8    1,248                0.05 s       3,215 in 0.07 s
    10   1,698                0.05 s       12,614 in 0.10 s
    12   9,285                0.06 s       24,153 in 0.09 s
    14   22,645               0.08 s       92,536 in 0.17 s
    16   88,372               0.15 s       250,441 in 0.31 s
    20   233,282                           742,471
    22   233,379                           budget exceeded (exit 70)
    24   budget exceeded

The solver. The truth the tableau gives at a fresh obligation is the
solution of an alternation-free Boolean equation system (Andersen 1994;
Liu & Smolka 1998), three-valued. Its variables are the calls, keyed like
the memo but with no visited set: the definition, the arity and the formula
node. A variable's right-hand side is the rules run over the definition's
body, with every call there read as a variable; the calls of a formula node
reach only its own variables and, at fresh obligations, those of its
subformulas. So the solver solves one block per formula node, each
subformula's block before the blocks that read it: the first call of a
subformula's variable solves that variable's block on the spot. A block
starts from the tableau's revisit values, True for ``G`` (greatest fixed
point), False for ``F`` (least) and Undefined for any other node, and a
worklist re-evaluates only the variables that read one that changed. The
connectives are monotone, so each variable changes at most twice, the work
is linear in definitions times formula nodes, and no Python frame is spent
per call along a path. A variable popped at a value final for its block,
True in an ``F`` block, False in a ``G`` block, True or False in any other,
is not evaluated again: which variables a right-hand side reads, and where
it stops, depends only on other blocks' values, solved before they are
read, so a final variable's right-hand side would read the same variables
and give the same value. A variable keeps its truth and no trace, so some
connectives stop at a Cons cell where the tableau's longer traces run both
operands: the truth is the same, the rule applications fewer. The response
check above takes 184, 311, 385, 473 and 614 rule applications at n = 8, 12,
16, 20 and 26, and ``G (St0 => F St1)`` on ``ring_program(480)`` 3,847 in
about 50 ms, where the tableau takes 1,847,042 (about 8n²). The solver
reproduces the rules, the fair-branch disjunction of the ``Case`` rule
among them, so it gives the tableau's truth, wrong ``True``s included
(ROADMAP item 3).
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from functools import reduce

from .terms import (
    Always, And, Atom, Case, Con, Eventually, Formula, Fun, Implies, Next, Not,
    Or, PCon, Record, Term, Var, Where, Let, spine,
)
from .kleene import (
    FALSE, TRUE, Trace, TruthVal, UNDEFINED, Verdict, and_v, not_v, or_v,
)
from .semantics import atom_truth
from .normform import check_simplified
from .verify import (
    Budget, EMPTY_VISITED, FairSet, VerifyError, VisitedSet, require_simplified,
    unfold_call,
)
from .ltlsem import AtomUndefined, Bounded, PositionedModel, bounded_check, sat_lasso


# Verdict(truth, trace) without the Python frame of the namedtuple's __new__
_verdict = tuple.__new__

# a verdict with no trace, by its truth: a solver variable's value
_SOLVED = {truth: Verdict(truth, ()) for truth in TruthVal}
_UNDECIDED = _SOLVED[UNDEFINED]
# a revisit's verdict in the tableau, and a variable's first value in the solver
_REVISITED = {Always: _SOLVED[TRUE], Eventually: _SOLVED[FALSE]}
# the values a solver variable cannot leave, by its block's formula type
_FINAL = {Always: (FALSE,), Eventually: (TRUE,)}


# the verdict of f for a call of a definition (the Fun node) on a number of
# variables, from the visited set, the fairness set and the budget
CallRule = Callable[[Fun, int, Formula, VisitedSet, FairSet, Budget], Verdict]


# The rules' frame size (25 locals and an expression stack of 11 on CPython
# 3.11) decides where the tableau's recursion crosses the interpreter's 16 KB
# data-stack chunks, and with it how many chunks deep checks map and unmap
# (ROADMAP item 4). Counted as the forked commands' minor page faults
# (getrusage of the children) per pass of the benchmark's handler graphs and
# chains, summed over seeds 1 to 3 (each the median of three passes), this
# version takes 639k–641k and 293k, where gen with 26 locals and a stack of
# 10, calling itself at calls, took 644k–649k and 300k–302k; runs of one
# version spread by 1.5%. Measure before adding or removing a local.
def _rules(t: Term, f: Formula, visited: VisitedSet, fair: FairSet,
           budget: Budget, call: CallRule) -> Verdict:
    """Verdict of formula ``f`` for the stream of ``t``, traced from ``t`` on,
    where ``call`` gives the verdict of a call of a definition."""
    tf = type(f)
    while True:  # a rule whose verdict is that of a part goes on with the part
        budget.tick()

        tt = type(t)
        if tt is Where or tt is Let:
            t = t.body
            continue

        # at a Cons cell every verdict has a state, so a left operand that
        # gives the annihilator with one state decides: no right operand can
        # outweigh it
        if tf is And:
            left = _rules(t, f.left, visited, fair, budget, call)
            if tt is Con and left[0] is FALSE and len(left[1]) == 1:
                return left
            return and_v(left, _rules(t, f.right, visited, fair, budget, call))
        if tf is Or:
            left = _rules(t, f.left, visited, fair, budget, call)
            if tt is Con and left[0] is TRUE and len(left[1]) == 1:
                return left
            return or_v(left, _rules(t, f.right, visited, fair, budget, call))
        if tf is Implies:
            left = not_v(_rules(t, f.left, visited, fair, budget, call))
            if tt is Con and left[0] is TRUE and len(left[1]) == 1:
                return left
            return or_v(left, _rules(t, f.right, visited, fair, budget, call))
        if tf is Not:
            return not_v(_rules(t, f.sub, visited, fair, budget, call))

        # the form check made every Con here a Cons cell, every case
        # scrutinee a variable and every call argument one
        if tt is Con:
            state, tail = t.args
            if tf is Always:
                head = _rules(t, f.sub, EMPTY_VISITED, fair, budget, call)
                if head[0] is FALSE and len(head[1]) == 1:
                    return head  # no tail can outweigh it
                truth, trace = _rules(tail, f, visited, fair, budget, call)
                return and_v(head, _verdict(Verdict, (truth, (state,) + trace)))
            if tf is Eventually:
                head = _rules(t, f.sub, EMPTY_VISITED, fair, budget, call)
                if head[0] is TRUE and len(head[1]) == 1:
                    return head
                truth, trace = _rules(tail, f, visited, fair, budget, call)
                return or_v(head, _verdict(Verdict, (truth, (state,) + trace)))
            if tf is Next:
                truth, trace = _rules(tail, f.sub, EMPTY_VISITED, fair, budget, call)
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
            if len(alts) == 1:
                # its one alternative's verdict (a fair branch's too: v or v is v)
                t = alts[0].body
                continue
            vs: list[Verdict] = []
            for alt in alts:
                vs.append(_rules(alt.body, f, visited, fair, budget, call))
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
                return call(fn, len(args), f, visited, fair, budget)

        raise VerifyError(f"no verification rule for {type(t).__name__} "
                          f"against {type(f).__name__}")


def _unfold(fn: Fun, arity: int, f: Formula, visited: VisitedSet, fair: FairSet,
            budget: Budget) -> Verdict:
    """The tableau's call rule: unfold a definition not visited yet, memoised."""
    bit = 1 << fn.index
    if visited & bit:
        return _REVISITED.get(type(f), _UNDECIDED)
    # its verdict depends on the key alone (fair is fixed for the run; f
    # lives as long as the run, and f's id, unlike its hash, costs no walk
    # over its atoms)
    visited |= bit
    key = (fn.index, arity, id(f), visited)
    v = budget.memo.get(key)
    if v is None:
        body = unfold_call(fn.name, fn.block[fn.name], arity)
        v = budget.memo[key] = _rules(body, f, visited, fair, budget, _unfold)
    return v


def gen(t: Term, f: Formula, visited: VisitedSet, fair: FairSet,
        budget: Budget) -> Verdict:
    """Verdict of formula ``f`` for the stream of ``t``, traced from ``t`` on:
    the rules with the tableau's call rule."""
    return _rules(t, f, visited, fair, budget, _unfold)


def _fresh(program: Term, budget: Budget | None) -> Budget:
    """The run's budget, with empty tables, once the program passes the form check."""
    require_simplified(check_simplified(program))
    if budget is None:
        budget = Budget()
    budget.memo.clear()
    budget.atoms.clear()
    return budget


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
    budget = _fresh(program, budget)
    return gen(program, f, EMPTY_VISITED, frozenset(fair), budget)


class _Equations:
    """The equation system of one ``solve`` run.

    A variable is a call's definition number (``Fun.index``), arity and
    formula node, and its value a verdict with no trace. ``values`` holds
    every variable met so far (the run's ``Budget.memo``): a variable of a
    block that has been solved keeps its final value. The other fields
    belong to the block being solved: its formula node's id, the variable
    whose right-hand side is being evaluated, which variables read each of
    the block's variables, and the variables left to evaluate.
    """

    __slots__ = ("fair", "budget", "values", "bodies", "node", "reader",
                 "readers", "pending")

    def __init__(self, fair: FairSet, budget: Budget):
        self.fair, self.budget, self.values = fair, budget, budget.memo
        self.bodies: dict[tuple, Term] = {}  # each variable's body, lambdas peeled
        self.node: int | None = None
        self.reader: tuple | None = None
        self.readers: dict[tuple, set[tuple]] = {}
        self.pending: list[tuple] = []

    def read(self, fn: Fun, arity: int, f: Formula, visited: VisitedSet,
             fair: FairSet, budget: Budget) -> Verdict:
        """The solver's call rule: the value of the call's variable so far."""
        var = (fn.index, arity, id(f))
        v = self.values.get(var)
        if v is None:
            body = unfold_call(fn.name, fn.block[fn.name], arity)
            if id(f) != self.node:  # a subformula's block, solved first
                return self.solve(var, body, f)
            v = self.add(var, body, f)
        readers = self.readers.get(var)
        if readers is not None:  # in the block being solved: may change yet
            readers.add(self.reader)
        return v

    def add(self, var: tuple, body: Term, f: Formula) -> Verdict:
        """Put a new variable of the block being solved on the worklist, at
        its first value."""
        v = self.values[var] = _REVISITED.get(type(f), _UNDECIDED)
        self.bodies[var] = body
        self.readers[var] = set()
        self.pending.append(var)
        return v

    def solve(self, var: tuple, body: Term, f: Formula) -> Verdict:
        """Solve the block of ``f``'s variables that ``var`` reaches, and give
        ``var``'s value."""
        outer = self.node, self.reader, self.readers, self.pending
        self.node, self.readers, self.pending = id(f), {}, []
        self.add(var, body, f)
        values, bodies, readers, pending = (self.values, self.bodies,
                                            self.readers, self.pending)
        fair, budget, read = self.fair, self.budget, self.read
        final = _FINAL.get(type(f), (TRUE, FALSE))
        while pending:
            x = self.reader = pending.pop()
            if values[x][0] in final:  # re-running it gives the same value
                continue
            truth = _rules(bodies[x], f, EMPTY_VISITED, fair, budget, read)[0]
            if truth is not values[x][0]:
                values[x] = _SOLVED[truth]
                pending += readers[x]
        self.node, self.reader, self.readers, self.pending = outer
        return values[var]


def solve(program: Term, f: Formula, fair: FairSet = frozenset(),
          budget: Budget | None = None) -> TruthVal:
    """The truth of ``generate(program, f, fair)``, from the rules' equations.

    ``budget`` counts the rule applications of every right-hand side
    evaluated, and ``budget.memo`` holds the variables' values.
    """
    budget = _fresh(program, budget)
    fair = frozenset(fair)
    return _rules(program, f, EMPTY_VISITED, fair, budget,
                  _Equations(fair, budget).read)[0]


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
