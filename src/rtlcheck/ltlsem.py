"""Independent semantic oracle for temporal formulas over traces.

This module is a direct, naive transcription of the satisfaction relation
over lasso-shaped models and a bounded three-valued check over finite
prefixes. It deliberately shares no code with the verifier or the witness
builder, so agreement between the two is meaningful evidence. The traces it
samples come from the simulator (``semantics.run_traces``), which shares
the reduction relation with them but none of ``witness.gen``'s rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .terms import (
    Always, And, Atom, Eventually, Formula, Implies, Next, Not, Or, Term,
)
from .kleene import FALSE, TRUE, Trace, TruthVal, UNDEFINED
from .semantics import atom_truth, run_traces
from .semantics import run_trace  # noqa: F401  (rebound by benchmarks/tracer.py)


class OracleError(Exception):
    pass


class AtomUndefined(OracleError):
    """An atom came out Undefined; the two-valued oracle cannot proceed."""


class DepthTooLarge(OracleError):
    pass


@dataclass(frozen=True)
class PositionedModel:
    """An infinite trace presented as a finite prefix and a repeating loop."""

    prefix: Trace
    loop: Trace

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso model needs a nonempty loop")

    def state_at(self, j: int) -> Term:
        if j < len(self.prefix):
            return self.prefix[j]
        return self.loop[(j - len(self.prefix)) % len(self.loop)]

    def canon(self, j: int) -> int:
        """Fold a position into the prefix plus one loop copy."""
        edge = len(self.prefix)
        if j < edge:
            return j
        return edge + (j - edge) % len(self.loop)


@lru_cache(maxsize=None)
def _cached_atom(atom_term: Term, state: Term) -> TruthVal:
    return atom_truth(atom_term, state)


def _atom_bool(atom_term: Term, state: Term) -> bool:
    value = _cached_atom(atom_term, state)
    if value is TRUE:
        return True
    if value is FALSE:
        return False
    raise AtomUndefined("atom evaluated to Undefined")


def sat_lasso(m: PositionedModel, i: int, f: Formula) -> bool:
    """Whether the model satisfies ``f`` at position ``i``.

    Quantifiers range over positions up to one prefix plus two loop copies;
    beyond that the suffix repeats a position already inspected.
    """
    i = m.canon(i)
    horizon = len(m.prefix) + 2 * len(m.loop)
    match f:
        case Atom(term):
            return _atom_bool(term, m.state_at(i))
        case Not(sub):
            return not sat_lasso(m, i, sub)
        case And(l, r):
            return sat_lasso(m, i, l) and sat_lasso(m, i, r)
        case Or(l, r):
            return sat_lasso(m, i, l) or sat_lasso(m, i, r)
        case Implies(l, r):
            return (not sat_lasso(m, i, l)) or sat_lasso(m, i, r)
        case Always(sub):
            return all(sat_lasso(m, j, sub) for j in range(i, horizon))
        case Eventually(sub):
            return any(sat_lasso(m, j, sub) for j in range(i, horizon))
        case Next(sub):
            return sat_lasso(m, i + 1, sub)
    raise TypeError(f"not a formula: {f!r}")


class Bounded(enum.Enum):
    SAT = "Sat"
    UNSAT = "Unsat"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


def bounded_check(trace: Sequence[Term], f: Formula, i: int = 0) -> Bounded:
    """Three-valued check of ``f`` on a finite prefix.

    Sat and Unsat are decisive for every infinite extension of the prefix;
    Unknown means the prefix ran out before the formula was decided.
    """
    match f:
        case Atom(term):
            if i >= len(trace):
                return Bounded.UNKNOWN
            value = _cached_atom(term, trace[i])
            if value is UNDEFINED:
                raise AtomUndefined("atom evaluated to Undefined")
            return Bounded.SAT if value is TRUE else Bounded.UNSAT
        case Not(sub):
            return _neg(bounded_check(trace, sub, i))
        case And(l, r):
            return _and(bounded_check(trace, l, i), bounded_check(trace, r, i))
        case Or(l, r):
            return _neg(_and(_neg(bounded_check(trace, l, i)),
                             _neg(bounded_check(trace, r, i))))
        case Implies(l, r):
            return _neg(_and(bounded_check(trace, l, i),
                             _neg(bounded_check(trace, r, i))))
        case Next(sub):
            return bounded_check(trace, sub, i + 1)
        case Always(sub):
            if any(bounded_check(trace, sub, j) is Bounded.UNSAT
                   for j in range(i, len(trace))):
                return Bounded.UNSAT
            return Bounded.UNKNOWN
        case Eventually(sub):
            if any(bounded_check(trace, sub, j) is Bounded.SAT
                   for j in range(i, len(trace))):
                return Bounded.SAT
            return Bounded.UNKNOWN
    raise TypeError(f"not a formula: {f!r}")


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

    One trace per sequence, in ``itertools.product`` order, from the
    simulator's prefix-sharing walk (``semantics.run_traces``); sequences
    with the same trace may share one list.
    """
    if depth > MAX_ENUM_DEPTH:
        raise DepthTooLarge(f"depth {depth} exceeds {MAX_ENUM_DEPTH}")
    return run_traces(program, event_names, depth)
