"""Independent semantic oracle for temporal formulas over traces.

This module transcribes directly the satisfaction relation over
lasso-shaped models and a bounded three-valued check over finite prefixes.
It deliberately shares no code with the verifier or the witness
builder, so agreement between the two is meaningful evidence.

Both are one rule, ``_step``: the value of every subformula at a state, from
their values one position later. ``_fold`` runs it backwards over a trace,
from Unknown past a prefix's end in ``bounded_check``, and in ``sat_lasso``
from the values at a lasso loop's first position. ``bounded_counts`` runs
it over the simulator's trace DAG (``semantics.trace_dag``), built by the
environment machine of ``semantics``, to count the event sequences that give
each value; ``witness``'s rules share only ``atom_truth`` and the parser's where
blocks, which give each call its definitions, with that machine, and none of
its rules. ``enumerate_traces`` expands the DAG to one trace per event
sequence."""

from __future__ import annotations

import enum
from collections.abc import Sequence
from functools import lru_cache
from itertools import repeat

from .terms import (
    TRUE, UNDEFINED, Always, And, Atom, Eventually, Formula, Implies, Next, Not,
    Or, Record, Term, TruthVal,
)
from .semantics import TraceNode, atom_truth, trace_dag
from .semantics import run_trace  # noqa: F401  (rebound by benchmarks/tracer.py)


class OracleError(Exception):
    pass


class AtomUndefined(OracleError):
    """An atom came out Undefined; the two-valued oracle cannot proceed."""


class DepthTooLarge(OracleError):
    pass


class PositionedModel(Record):
    """An infinite trace: a finite prefix, then a loop repeated forever; an
    empty loop stands for the prefix alone, a finite trace."""

    __slots__ = __match_args__ = ("prefix", "loop")


# Atoms are pure functions of their term and state, so a truth computed once
# holds for every later check in the process; keyed by value, no key can
# stand for another term. A CLI process runs one command, and the benchmark
# forks one per command. A check meets it only once per atom row and state:
# the rows of _subformulas keep each atom's values by the state's identity,
# for as long as the check holds the rows.
@lru_cache(maxsize=None)
def _cached_atom(atom_term: Term, state: Term) -> TruthVal:
    return atom_truth(atom_term, state)


class Bounded(enum.Enum):
    SAT = "Sat"
    UNSAT = "Unsat"
    UNKNOWN = "Unknown"

    # the members are singletons, compared by identity; Enum.__hash__ is a
    # Python call per hash, and bounded_counts hashes tuples of them
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


# --- one rule, folded over a prefix, a loop or the trace DAG ----------------------
#
# The value of a subformula at a position is a Bounded, or the exception the
# recursive definition of the semantics raises there, with no connective cut
# short: an atom that is Undefined or fails to evaluate. An error is kept as a
# value and raised only when it reaches the formula itself, so it is the one
# the recursion meets first.


def _subformulas(f: Formula) -> tuple[tuple, ...]:
    """The subformula objects of ``f``, children first and ``f`` last.

    A row is the operator's class and its operands: for an atom, its term
    and the table of its values at the states it has met, keyed on the id of
    the state, which each entry keeps alive; otherwise the rows of the
    subformulas, by index. Subformulas are told apart by identity, which
    ``f`` keeps for the call, so no formula is hashed by value.
    """
    rows: list[tuple] = []
    _visit(f, rows, {})
    return tuple(rows)


def _visit(g: Formula, rows: list[tuple], index: dict[int, int]) -> int:
    """The index of ``g``'s row, appended after its subformulas' if new;
    ``index`` gives the row of each subformula met, by its id."""
    k = index.get(id(g))
    if k is not None:
        return k
    match g:
        case Atom(term):
            row = (Atom, term, {})
        case Not(sub) | Next(sub) | Always(sub) | Eventually(sub):
            row = (type(g), _visit(sub, rows, index))
        case And(l, r) | Or(l, r) | Implies(l, r):
            row = (type(g), _visit(l, rows, index), _visit(r, rows, index))
        case _:
            raise TypeError(f"not a formula: {g!r}")
    k = index[id(g)] = len(rows)
    rows.append(row)
    return k


def _atom_value(term: Term, state: Term) -> Bounded | Exception:
    try:
        value = _cached_atom(term, state)
    except Exception as exc:  # kept, and raised only if the formula reaches it
        return exc
    if value is UNDEFINED:
        return AtomUndefined("atom evaluated to Undefined")
    return Bounded.SAT if value is TRUE else Bounded.UNSAT


def _step(rows: tuple[tuple, ...], state: Term, later: tuple) -> tuple:
    """The value of every subformula at ``state``, from their values one position later.

    A connective passes on its left operand's error before its right one's,
    and ``G``/``F`` their operand's error here before their own value later.
    """
    now: list = []
    for row in rows:
        op = row[0]
        if op is Atom:
            hit = row[2].get(id(state))
            if hit is None:
                hit = row[2][id(state)] = state, _atom_value(row[1], state)
            value = hit[1]
        elif op is Next:
            value = later[row[1]]
        else:
            a = now[row[1]]
            b = now[row[-1]]  # the right operand, or the only one again
            if type(a) is not Bounded:
                value = a
            elif type(b) is not Bounded:
                value = b
            elif op is Not:
                value = _neg(a)
            elif op is Always:
                value = a if a is Bounded.UNSAT else later[len(now)]
            elif op is Eventually:
                value = a if a is Bounded.SAT else later[len(now)]
            elif op is And:
                value = _and(a, b)
            elif op is Or:
                value = _neg(_and(_neg(a), _neg(b)))
            else:
                value = _neg(_and(a, _neg(b)))
        now.append(value)
    return tuple(now)


def _decided(value: Bounded | Exception) -> Bounded:
    if type(value) is not Bounded:
        raise value
    return value


def _fold(rows: tuple[tuple, ...], trace: Sequence[Term], later: tuple) -> tuple:
    """Every subformula's value at the first state of ``trace``, from those past its end."""
    for state in reversed(trace):
        later = _step(rows, state, later)
    return later


def bounded_check(trace: Sequence[Term], f: Formula) -> Bounded:
    """Three-valued check of ``f`` on a finite prefix.

    Sat and Unsat are decisive for every infinite extension of the prefix;
    Unknown means the prefix ran out before the formula was decided. The
    rule ``_step`` is folded over the trace from its end.
    """
    rows = _subformulas(f)
    return _decided(_fold(rows, trace, (Bounded.UNKNOWN,) * len(rows))[-1])


# G's greatest and F's least fixed point, one position past a loop
_FIXED_POINT = {Always: Bounded.SAT, Eventually: Bounded.UNSAT}


def sat_lasso(m: PositionedModel, f: Formula) -> bool:
    """Whether ``m.prefix`` followed by ``m.loop`` forever satisfies ``f``.

    Labels the loop as Markey and Schnoebelen do ("Model checking a path",
    2003), children first, with one ``_fold`` over it per row that ``_step``
    reads one position later: each ``G``/``F`` row, from its fixed point, and
    each operand of an ``X``. A pass starts from the exact values at the
    loop's first position that earlier passes left; no other row's value
    there is read. The last pass, for ``f`` itself, labels every row at that
    position, and the prefix is folded from there.
    """
    if not m.loop:
        raise ValueError("lasso model needs a nonempty loop")
    rows = _subformulas(f)
    start = [_FIXED_POINT.get(row[0], Bounded.UNKNOWN) for row in rows]
    read = {row[1] if row[0] is Next else k for k, row in enumerate(rows)
            if row[0] in (Next, Always, Eventually)}
    for k in sorted(read | {len(rows) - 1}):
        at_loop = _fold(rows, m.loop, tuple(start))
        start[k] = at_loop[k]
    return _decided(_fold(rows, m.prefix, at_loop)[-1]) is Bounded.SAT


def _neg(b: Bounded) -> Bounded:
    if b is Bounded.SAT:
        return Bounded.UNSAT
    if b is Bounded.UNSAT:
        return Bounded.SAT
    return Bounded.UNKNOWN


def _and(a: Bounded, b: Bounded) -> Bounded:
    if a is Bounded.UNSAT or b is Bounded.UNSAT:
        return Bounded.UNSAT
    if a is Bounded.SAT and b is Bounded.SAT:
        return Bounded.SAT
    return Bounded.UNKNOWN


MAX_ENUM_DEPTH = 8


def enumerate_traces(program: Term, event_names: Sequence[str],
                     depth: int) -> list[list[Term]]:
    """Every trace of the program over event sequences of the given length.

    Equal to ``[run_trace(program, seq, max_states=depth + 1) for seq in
    itertools.product(event_names, repeat=depth)]``, exceptions included:
    the expansion of the simulator's trace DAG. A trace finished after
    ``k`` events stands for ``len(event_names) ** (depth - k)`` sequences
    and appears that many times, as one shared list.
    """
    _check_depth(depth)
    out: list[list[Term]] = []
    _expand(trace_dag(program, event_names, depth), [], len(event_names) ** depth,
            len(event_names), out)
    return out


def _expand(node: TraceNode, prefix: list[Term], sequences: int, width: int,
            out: list[list[Term]]) -> None:
    """Append the traces below ``node``, after ``prefix``, once for each of
    the ``sequences`` event sequences that reach it."""
    states, children = node
    trace = [*prefix, *states]
    if children is None:
        out.extend(repeat(trace, sequences))
        return
    for child in children:
        _expand(child, trace, sequences // width, width, out)


def bounded_counts(program: Term, event_names: Sequence[str], depth: int,
                   f: Formula) -> dict[Bounded, int]:
    """How many event sequences of the given length give each bounded value of ``f``.

    Equal to ``Counter(bounded_check(t, f) for t in enumerate_traces(...))``
    with every value present, and raising what the first trace that raises
    there raises, but folded over the trace DAG without expanding it. A node
    maps the values of every subformula at its first state to the number of
    sequences that reach them; a leaf starts from the all-Unknown values
    past the end, a shared tuple of children merges its tables once, and
    ``_step`` runs once per state, which the DAG holds as one object per
    value, and values one position later. The tables
    keep the order of their first sequence, so the first error among the
    values of ``f`` is that of the first sequence in product order.
    """
    _check_depth(depth)
    fold = _DagFold(_subformulas(f), len(event_names), depth)
    counts = dict.fromkeys(Bounded, 0)
    for values, n in fold.fold(trace_dag(program, event_names, depth), 0).items():
        counts[_decided(values[-1])] += n
    return counts


class _DagFold:
    """The bounded fold of one ``bounded_counts`` call over a trace DAG."""

    __slots__ = ("rows", "width", "depth", "past_end", "steps", "tables")

    def __init__(self, rows: tuple[tuple, ...], width: int, depth: int):
        self.rows, self.width, self.depth = rows, width, depth
        self.past_end = (Bounded.UNKNOWN,) * len(rows)
        # by state object, one per value in the DAG: the values at the
        # state, by the values one position later
        self.steps: dict[int, tuple[Term, dict[tuple, tuple]]] = {}
        # by tuple of children: their tables merged
        self.tables: dict[int, dict[tuple, int]] = {}

    def fold(self, node: TraceNode, bound: int) -> dict[tuple, int]:
        """The number of sequences that reach each values at ``node``'s
        first state, ``bound`` events bound before it."""
        states, children = node
        if children is None:
            table = {self.past_end: self.width ** (self.depth - bound)}
        else:
            table = self.tables.get(id(children))
            if table is None:
                table = {}
                for child in children:
                    for values, n in self.fold(child, bound + 1).items():
                        table[values] = table.get(values, 0) + n
                self.tables[id(children)] = table
        rows, steps = self.rows, self.steps
        for state in reversed(states):
            at = steps.get(id(state))
            if at is None:
                at = steps[id(state)] = state, {}
            after = at[1]
            earlier: dict[tuple, int] = {}
            for values, n in table.items():
                now = after.get(values)
                if now is None:
                    now = after[values] = _step(rows, state, values)
                earlier[now] = earlier.get(now, 0) + n
            table = earlier
        return table


def _check_depth(depth: int) -> None:
    if depth > MAX_ENUM_DEPTH:
        raise DepthTooLarge(f"depth {depth} exceeds {MAX_ENUM_DEPTH}")
