"""Three-valued truth values, their connectives, and the verdict algebra.

A verdict pairs a truth value with the trace of observable states that
evidences it. When a connective combines two verdicts, the result keeps the
trace of the single operand that produced the result truth; when both
operands carry it, the choice depends on what the evidence must cover:

* an annihilator result (``and`` giving False, ``or`` giving True) is fully
  explained by one operand, so the shortest trace wins;
* an identity result (``and`` giving True, ``or`` giving False) needed both
  operands, and since both traces start at the same term, the longest
  covers the most;
* Undefined carries no semantic claim, so the shortest trace wins.

Ties go to the left operand. This selection is pinned byte-exactly by the
golden counterexample traces in the test suite.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from .terms import Term

Trace = tuple[Term, ...]


class TruthVal(enum.Enum):
    TRUE = "True"
    FALSE = "False"
    UNDEFINED = "Undefined"

    def __str__(self) -> str:
        return self.value


TRUE = TruthVal.TRUE
FALSE = TruthVal.FALSE
UNDEFINED = TruthVal.UNDEFINED

_BY_NAME = {v.value: v for v in TruthVal}


def truthval_from_name(name: str) -> Optional[TruthVal]:
    return _BY_NAME.get(name)


# --- strong Kleene connectives ------------------------------------------------

def not3(a: TruthVal) -> TruthVal:
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    return UNDEFINED


# --- verdicts -----------------------------------------------------------------

class Verdict(NamedTuple):
    truth: TruthVal
    trace: Trace


def _combine(annihilator: TruthVal, v1: Verdict, v2: Verdict) -> Verdict:
    """``and`` (annihilator False) or ``or`` (annihilator True) of two verdicts.

    The result is always one operand's verdict, so no new one is built, and
    the truth value is decided inline: this runs once per combination on the
    engine's hot path.
    """
    t1, t2 = v1.truth, v2.truth
    if t1 is not t2:
        # the annihilator decides, and failing that Undefined
        if t1 is annihilator or (t1 is UNDEFINED and t2 is not annihilator):
            return v1
        return v2
    if t1 is annihilator or t1 is UNDEFINED:
        return v2 if len(v2.trace) < len(v1.trace) else v1
    # identity result: the longer trace subsumes the other
    return v2 if len(v2.trace) > len(v1.trace) else v1


def and_v(v1: Verdict, v2: Verdict) -> Verdict:
    return _combine(FALSE, v1, v2)


def or_v(v1: Verdict, v2: Verdict) -> Verdict:
    return _combine(TRUE, v1, v2)


def not_v(v: Verdict) -> Verdict:
    return Verdict(not3(v.truth), v.trace)
