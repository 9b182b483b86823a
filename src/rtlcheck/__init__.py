"""Model checker for reactive systems written as tail-recursive stream programs.

Programs map an external event list to a stream of observable states;
temporal properties over those states are verified with three-valued
verification rules, and every True/False answer comes with a witness or
counterexample trace that is validated against the satisfaction semantics.
"""

from .terms import (
    Alt, Always, And, App, Atom, Case, Con, DataDecl, Eventually, Formula,
    Fun, Implies, Lam, Let, Next, Not, Or, PCon, PWild, Pattern, Term, Var,
    WILD, Where, alpha_equal, free_vars, substitute,
)
from .kleene import (
    FALSE, TRUE, Trace, TruthVal, UNDEFINED, Verdict,
    and3, and_v, imp3, imp_v, not3, not_v, or3, or_v,
)
from .parser import (
    Diagnostic, ParseError, PropertyFile, SourceFile,
    parse_program, parse_properties,
)
from .pretty import pretty_formula, pretty_term
from .semantics import (
    AtomError, EvalError, FuelExhausted, FunEnv, NonConsOutput, StuckError,
    atom_truth, eval_whnf, run_trace, step,
)
from .normform import FormReport, Violation, check_simplified
from .verify import (
    Budget, BudgetExceeded, NotSimplified, VerifyError, verify,
)
from .witness import (
    LassoTrace, Validation, ValidationReport, gen, generate, lassoify,
    validate_verdict,
)
from .ltlsem import (
    AtomUndefined, Bounded, DepthTooLarge, PositionedModel,
    bounded_check, enumerate_traces, sat_lasso,
)
from .lts import (
    InconsistentNodeState, Lts, LtsEdge, LtsNode, NotReactiveShape,
    extract_lts, to_dot, to_json, walk,
)
from .corpus import CorpusEntry, load_corpus, load_program, load_properties

__version__ = "0.1.0"
