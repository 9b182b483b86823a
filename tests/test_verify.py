import pytest

from rtlcheck.kleene import FALSE, TRUE, UNDEFINED
from rtlcheck.parser import parse_program
from rtlcheck.semantics import AtomError, FunEnv
from rtlcheck.terms import (
    Always, And, App, Atom, Con, Eventually, Fun, Lam, Next, Not, Var,
)
from rtlcheck.verify import (
    Budget, BudgetExceeded, EMPTY_VISITED, NotSimplified, VerifyError, verify,
)
from rtlcheck.witness import gen, generate

NOFAIR = frozenset()
ALLFAIR = frozenset(("Request1", "Request2", "Take1", "Take2",
                     "Release1", "Release2"))


def test_expected_verdict_matrix(corpus):
    for entry, source, props in corpus:
        for name, expected in entry.expected_verdicts.items():
            got = verify(source.term, props.get(name), props.fair)
            assert got is expected, (entry.name, name, got)


SINGLE_LOOP = """\
data S = A
Cons A (f es)
where
f = \\es -> case es of Cons e es -> case e of _ -> Cons A (f es)
"""


def test_constant_loop_always_true_atom():
    source = parse_program(SINGLE_LOOP)
    assert source.term is not None, source.diagnostics
    assert verify(source.term, Always(Atom(Con("True")))) is TRUE


# a definition whose unfolded body, a bare lambda, no rule can read
UNREADABLE = Lam("es", Var("es"))


def test_revisit_semantics_without_unfolding():
    # f's definition is visited: a revisit answers before f is unfolded
    t = Fun("f")
    env = FunEnv.empty().extend([("f", UNREADABLE)])
    visited = frozenset((id(UNREADABLE),))
    atom = Atom(Con("True"))
    assert gen(t, Always(atom), env, visited, NOFAIR, Budget()).truth is TRUE
    assert gen(t, Eventually(atom), env, visited, NOFAIR, Budget()).truth is FALSE
    assert gen(t, Next(atom), env, visited, NOFAIR, Budget()).truth is UNDEFINED
    assert gen(t, atom, env, visited, NOFAIR, Budget()).truth is UNDEFINED


def test_a_name_defined_again_is_a_new_call():
    # the visited set holds definitions: another block's f is unfolded
    env = FunEnv.empty().extend([("f", UNREADABLE)])
    env = env.extend([("f", Lam("es", Var("es")))])
    with pytest.raises(VerifyError, match="no verification rule for Lam"):
        gen(Fun("f"), Always(Atom(Con("True"))), env,
            frozenset((id(UNREADABLE),)), NOFAIR, Budget())


def test_unvisited_call_requires_definition():
    with pytest.raises(VerifyError):
        gen(Fun("f"), Always(Atom(Con("True"))), FunEnv.empty(),
            EMPTY_VISITED, NOFAIR, Budget())


def test_deciding_head_leaves_its_tail_unfolded():
    # F met, or G failed, at a Cons cell's own state stops there; the tail's
    # call to an undefined function is never reached
    t = Con("Cons", (Con("A"), App(Fun("f"), Var("es"))))
    for formula, truth in ((Eventually(Atom(Con("True"))), TRUE),
                           (Always(Atom(Con("False"))), FALSE)):
        budget = Budget()
        verdict = gen(t, formula, FunEnv.empty(), EMPTY_VISITED, NOFAIR, budget)
        assert verdict == (truth, (Con("A"),)) and budget.used == 2
    with pytest.raises(VerifyError):
        gen(t, Eventually(Atom(Con("False"))), FunEnv.empty(), EMPTY_VISITED,
            NOFAIR, Budget())


def test_call_needs_variable_arguments_even_when_revisited():
    with pytest.raises(VerifyError, match="non-variable argument"):
        gen(App(Fun("f"), Con("A")), Always(Atom(Con("True"))),
            FunEnv.empty().extend([("f", UNREADABLE)]),
            frozenset((id(UNREADABLE),)), NOFAIR, Budget())


def test_structural_rules_fire_before_connectives(corpus_by_name):
    # a where whose formula is a conjunction exercises rule order
    _, source, _ = corpus_by_name["example1"]
    atom = Atom(Con("True"))
    formula = And(Always(atom), Eventually(atom))
    assert verify(source.term, formula, ALLFAIR) is TRUE


def test_rho_variable_application_is_undefined():
    text = """\
data S = A
Cons A (let h = \\x -> f x in h (f es))
where
f = \\es -> case es of Cons e es -> case e of _ -> Cons A (f es)
"""
    source = parse_program(text)
    assert source.term is not None, source.diagnostics
    # the tail of the stream is abstracted away, so always-True is undecided
    assert verify(source.term, Always(Atom(Con("True")))) is UNDEFINED


def test_fairness_changes_liveness_verdict(corpus_by_name):
    # without fair events the wildcard self-loop can be taken forever
    entry, source, props = corpus_by_name["example1"]
    ns1 = props.get("nonstarve1")
    assert verify(source.term, ns1, props.fair) is TRUE
    assert verify(source.term, ns1, NOFAIR) is FALSE


def test_partial_fairness_on_relevant_events(corpus_by_name):
    # fairness only on process-1 moves still guarantees its progress
    entry, source, props = corpus_by_name["example1"]
    ns1 = props.get("nonstarve1")
    assert verify(source.term, ns1,
                  frozenset(("Take1", "Release1", "Release2"))) is TRUE


def test_atom_error_on_non_truthvalue():
    source = parse_program(SINGLE_LOOP)
    with pytest.raises(AtomError):
        verify(source.term, Always(Atom(Var("s"))))


def test_not_simplified_guard():
    bad = parse_program("data S = A\ncase f es of Cons e es -> Cons A (f es)")
    # scrutinee is not a variable: parse succeeds, conformance fails
    assert bad.term is not None
    with pytest.raises(NotSimplified):
        verify(bad.term, Always(Atom(Con("True"))))


def test_budget_exhaustion(corpus_by_name):
    _, source, props = corpus_by_name["example1"]
    with pytest.raises(BudgetExceeded):
        verify(source.term, props.get("mutex"), props.fair, budget=Budget(10))


def test_verdicts_within_default_budget(corpus):
    for entry, source, props in corpus:
        for name in entry.expected_verdicts:
            budget = Budget()
            verify(source.term, props.get(name), props.fair, budget=budget)
            assert budget.used < budget.limit


def _formula_size(f):
    from rtlcheck.terms import Atom
    if isinstance(f, Atom):
        return 1
    parts = [getattr(f, a) for a in ("sub", "left", "right") if hasattr(f, a)]
    return 1 + sum(_formula_size(p) for p in parts)


def test_rule_applications_scale_with_functions_and_formula():
    # empirical termination bound on random conforming programs; the
    # measured worst case sits at 41.3x (67.5x before G and F stopped at a
    # deciding head, 221.2x without the memo of calls on fresh obligations),
    # asserted with headroom
    import random
    from gen_programs import formula_battery, random_fair, random_program

    rng = random.Random(5)
    for _ in range(100):
        program, events = random_program(rng, max_funcs=8)
        n = len(program.defs)
        for formula in formula_battery():
            budget = Budget()
            verify(program, formula, random_fair(rng, events), budget=budget)
            assert budget.used <= 200 * (n + 1) * _formula_size(formula)


def test_handler_graph_decides_within_default_budget():
    # without the memo this check takes more than 10**6 rule applications;
    # with it, one table entry per function and formula node at most
    from gen_programs import formula_battery, handler_graph

    program = handler_graph(12)
    formula = formula_battery()[2]  # always (St0 implies eventually St1)
    budget = Budget()
    truth = verify(program, formula, frozenset(("EvA", "EvB")), budget)
    assert truth is not UNDEFINED
    assert len(budget.memo) <= len(program.defs) * _formula_size(formula)


def test_reused_budget_gives_fresh_verdicts():
    # a memo entry must not outlive its run, into a run of another formula
    # or of the same formula under other fairness
    import random
    from gen_programs import formula_battery, random_fair, random_program

    rng = random.Random(3)
    for _ in range(40):
        program, events = random_program(rng)
        fairs = (random_fair(rng, events), random_fair(rng, events))
        budget = Budget()
        for formula in formula_battery():
            for fair in fairs:
                shared = generate(program, formula, fair, budget)
                assert shared == generate(program, formula, fair, Budget())


def test_response_on_a_ring_takes_linear_work():
    # an F obligation stops at the first state that meets it, and a G one at
    # the first that fails it; going on round the ring until a revisit made
    # this check quadratic (29,526 and 116,646 rule applications)
    from gen_programs import ring_program, state_atom

    for n in (60, 120):
        budget = Budget()
        formula = Always(Eventually(state_atom("St0")))
        assert verify(ring_program(n), formula, frozenset(("EvA", "EvB")),
                      budget) is TRUE
        assert budget.used <= 11 * n


def test_inner_where_ring_verdicts_equal_the_flat_ring():
    # every handler of the inner ring opens a block that defines its own g; a
    # call is known by its definition, so one block's g is no revisit of
    # another's
    from gen_programs import formula_battery, inner_where_ring, ring_program

    events = ("EvA", "EvB", "EvC", "EvD")
    for n in (1, 2, 3, 5, 8, 12):
        flat, inner = ring_program(n), inner_where_ring(n)
        for formula in formula_battery():
            for fair in (frozenset(), frozenset(events), frozenset(("EvA",))):
                assert generate(inner, formula, fair) == generate(flat, formula, fair), \
                    (n, formula, fair)


def test_deep_ring_stays_within_recursion_limit():
    # each handler nests four rule applications (call, two cases, Cons); with
    # the default recursion limit these properties hold up to 236 handlers
    # under pytest and raise RecursionError from 237. One more Python frame
    # per rule application would lower that ceiling to about 190.
    from gen_programs import ring_program, state_atom

    program = ring_program(230)
    fair = frozenset(("EvA", "EvB"))
    for formula in (Always(Not(state_atom("St3"))), Eventually(state_atom("St2")),
                    Always(Eventually(state_atom("St0")))):
        assert verify(program, formula, fair) is TRUE
        assert generate(program, formula, fair).truth is TRUE


def test_submodule_import_gives_the_module():
    # the package root re-exports nothing, so no name shadows the module
    import rtlcheck.verify as V

    assert V.Budget is Budget
    assert V.verify is verify
