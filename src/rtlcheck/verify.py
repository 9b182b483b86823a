"""The public entry point: :func:`verify`, the truth value of a property for
a simplified-form program, solved by the verification engine in
:mod:`rtlcheck.witness` as an equation system in time linear in definitions
times formula nodes.

The other names here are the engine's run state and the layers it calls,
which ``benchmarks/tracer.py`` rebinds at this import site.
"""

from .witness import solve as verify  # noqa: F401
from .witness import Budget, BudgetExceeded, unfold_call  # noqa: F401  (rebound by benchmarks/tracer.py)
from .terms import substitute  # noqa: F401  (rebound by benchmarks/tracer.py)
from .semantics import atom_truth  # noqa: F401  (rebound by benchmarks/tracer.py)
from .normform import check_simplified  # noqa: F401  (rebound by benchmarks/tracer.py)
