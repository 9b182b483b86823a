"""Three-valued LTL verification over simplified-form programs.

The verification rules exist once, in :func:`rtlcheck.witness.gen`, which
decides a property and builds the trace that evidences the answer in the
same pass; :func:`verify` returns the truth value of that verdict. This
module holds what the rules share with their callers: the rule-application
budget, call unfolding, and the errors.
"""

from __future__ import annotations

from .terms import Formula, Lam, Term
from .terms import substitute  # noqa: F401  (rebound by benchmarks/tracer.py)
from .kleene import TruthVal
from .semantics import atom_truth  # noqa: F401  (rebound by benchmarks/tracer.py)
from .normform import FormReport
from .normform import check_simplified  # noqa: F401  (rebound by benchmarks/tracer.py)

DEFAULT_BUDGET = 10 ** 6

VisitedSet = frozenset[int]  # ids of the definitions unfolded
FairSet = frozenset[str]

EMPTY_VISITED: VisitedSet = frozenset()


class VerifyError(Exception):
    pass


class NotSimplified(VerifyError):
    """The program is not in simplified form; run the form check for details."""


def require_simplified(report: FormReport) -> None:
    """Raise NotSimplified, naming the first violation, unless ``report`` conforms."""
    if not report.conforms:
        first = report.violations[0]
        raise NotSimplified(f"{first.path}: {first.message}")


class BudgetExceeded(VerifyError):
    """More rule applications than the configured budget."""


class Budget:
    """Mutable countdown of rule applications shared across one run.

    ``memo`` is the run's table of verdicts for calls that open a fresh
    obligation (see :func:`rtlcheck.witness.gen`), and ``atoms`` its table
    of atom truths by atom formula node and state; ``generate`` empties both
    at the start of every run, since their keys hold neither the fairness
    set nor the formula itself.
    """

    __slots__ = ("limit", "used", "memo", "atoms")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0
        self.memo: dict = {}
        self.atoms: dict = {}

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(f"exceeded {self.limit} rule applications")


def unfold_call(fname: str, body: Term | None, arity: int) -> Term:
    """``fname``'s definition ``body`` under ``arity`` lambdas, its parameters
    unrenamed.

    States are ground and case scrutinees are read by shape, so no rule looks
    at the name a parameter has: renaming it to the argument changes nothing.
    """
    if body is None:
        raise VerifyError(f"call to undefined function {fname}")
    for _ in range(arity):
        if not isinstance(body, Lam):
            raise VerifyError(f"function {fname} applied to more arguments "
                              "than it abstracts")
        body = body.body
    return body


def verify(program: Term, f: Formula, fair: FairSet = frozenset(),
           budget: Budget | None = None) -> TruthVal:
    """Truth value of ``f`` for ``program``: the truth of its generated verdict.

    Raises NotSimplified unless the program passes the simplified-form check.
    """
    # imported here: witness imports Budget, unfold_call, ... from this module
    from .witness import generate
    return generate(program, f, fair, budget).truth
