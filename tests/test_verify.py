import pytest

from rtlcheck.kleene import FALSE, TRUE, UNDEFINED
from rtlcheck.parser import parse_program
from rtlcheck.semantics import AtomError, run_trace
from rtlcheck.terms import (
    Alt, Always, And, Atom, Case, Con, Eventually, Implies, Next, Not, Or, PCon,
    Var, WILD,
)
from rtlcheck.verify import (
    Budget, BudgetExceeded, EMPTY_VISITED, NotSimplified, VerifyError,
    unfold_call, verify,
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


# f's definition unfolds to a bare lambda, which no rule can read
UNREADABLE = parse_program("data S = A\nCons A (f es)\nwhere\nf = \\es -> \\x -> x").term


def test_revisit_semantics_without_unfolding():
    # f's definition is visited: a revisit answers before f is unfolded
    (_, definition), = UNREADABLE.defs
    call = UNREADABLE.body.args[1]
    assert call.fn.block["f"] is definition
    budget = Budget()
    visited = 1 << call.fn.index
    atom = Atom(Con("True"))
    assert gen(call, Always(atom), visited, NOFAIR, budget).truth is TRUE
    assert gen(call, Eventually(atom), visited, NOFAIR, budget).truth is FALSE
    assert gen(call, Next(atom), visited, NOFAIR, budget).truth is UNDEFINED
    assert gen(call, atom, visited, NOFAIR, budget).truth is UNDEFINED


def test_a_name_defined_again_is_a_new_call():
    # the visited set holds definitions: the inner block's f, which the inner
    # call means, is unfolded though the outer f is visited
    source = parse_program("data S = A\nCons A (f es)\nwhere\n"
                           "f = \\es -> (f es where f = \\xs -> \\x -> x)")
    (_, outer), = source.term.defs
    outer_call, inner_call = source.term.body.args[1], outer.body.body
    assert inner_call.fn.block["f"] is outer.body.defs[0][1]
    assert outer_call.fn.index != inner_call.fn.index
    budget = Budget()
    with pytest.raises(VerifyError, match="no verification rule for Lam"):
        gen(inner_call, Always(Atom(Con("True"))), 1 << outer_call.fn.index,
            NOFAIR, budget)


def test_unvisited_call_requires_definition():
    # a name that no where block defines is parsed as a variable, never a
    # call, so no rule meets a call without a definition
    source = parse_program("data S = A\nCons A (f es)")
    assert source.term.args[1].fn == Var("f")
    with pytest.raises(NotSimplified, match="variable f is not let-bound"):
        verify(source.term, Always(Atom(Con("True"))))


def test_deciding_head_leaves_its_tail_unfolded():
    # F met, or G failed, at a Cons cell's own state stops there; the tail's
    # call to a definition no rule can read is never unfolded
    t = UNREADABLE.body
    for formula, truth in ((Eventually(Atom(Con("True"))), TRUE),
                           (Always(Atom(Con("False"))), FALSE)):
        budget = Budget()
        verdict = gen(t, formula, EMPTY_VISITED, NOFAIR, budget)
        assert verdict == (truth, (Con("A"),)) and budget.used == 2
    with pytest.raises(VerifyError, match="no verification rule for Lam"):
        gen(t, Eventually(Atom(Con("False"))), EMPTY_VISITED, NOFAIR, Budget())


def test_deciding_left_operand_leaves_the_right_unevaluated():
    # at a Cons cell, a left operand that gives the annihilator with one
    # state decides the connective; the right operand, whose tail calls a
    # definition no rule can read, is never evaluated
    t = UNREADABLE.body
    yes, no = Atom(Con("True")), Atom(Con("False"))
    unreadable = Eventually(no)
    for formula, truth in ((And(no, unreadable), FALSE),
                           (Or(yes, unreadable), TRUE),
                           (Implies(no, unreadable), TRUE)):
        budget = Budget()
        verdict = gen(t, formula, EMPTY_VISITED, NOFAIR, budget)
        assert verdict == (truth, (Con("A"),)) and budget.used == 2
    # a left operand that does not decide leaves the right one to run
    for formula in (And(yes, unreadable), Or(no, unreadable), Implies(yes, unreadable)):
        with pytest.raises(VerifyError, match="no verification rule for Lam"):
            gen(t, formula, EMPTY_VISITED, NOFAIR, Budget())


def test_call_with_a_constructor_argument_is_not_simplified():
    # gen reads no argument of a call: the form check's call rule refuses one
    # that is not a variable before any rule runs
    source = parse_program(SINGLE_LOOP.replace("Cons A (f es)\nwhere",
                                               "Cons A (f A)\nwhere"))
    assert source.term is not None, source.diagnostics
    with pytest.raises(NotSimplified, match=r"^program\.body\.tail: arguments "
                       "of call to f must be variables$"):
        generate(source.term, Always(Atom(Con("True"))))


TWO_HANDLERS = """\
data Ev = EvA | EvB
data St = St0 | St1
Cons St0 (f es)
where
f = \\es -> case es of Cons e xs -> case e of EvA -> Cons St1 (g xs) | _ -> Cons St0 (g es)
g = \\ys -> case ys of Cons e rest -> case e of EvA -> Cons St0 (f rest) | _ -> Cons St1 (g rest)
"""


def test_memo_keys_a_call_on_its_definition_not_its_argument():
    # f calls g on xs and on es: one call, one memo entry per visited set;
    # keyed on argument names as well, the check takes 8 entries and 82 rule
    # applications, with the same verdict
    from gen_programs import state_atom

    source = parse_program(TWO_HANDLERS)
    assert source.term is not None, source.diagnostics
    formula = Always(Implies(state_atom("St0"), Eventually(state_atom("St1"))))
    st0, st1 = Con("St0"), Con("St1")
    for fair, verdict in ((NOFAIR, (FALSE, (st0, st0, st0))),
                          (frozenset(("EvA", "EvB")), (TRUE, (st0, st1, st0, st1)))):
        budget = Budget()
        assert generate(source.term, formula, fair, budget) == verdict
        assert (len(budget.memo), budget.used) == (6, 62)


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


# ROADMAP item 3: gen's Case rule lets a fair branch meet an eventuality even
# at a handler visited once, so a run that takes the other branch is missed
FAIR_BRANCH_ONCE = """\
data Ev = EvA | EvB
data St = St0 | St1 | St2
Cons St2 (g0 es)
where
g0 = \\es -> case es of Cons e r -> case e of EvB -> Cons St0 (g1 r) | _ -> Cons St1 (g1 r)
g1 = \\es -> case es of Cons e r -> case e of _ -> Cons St0 (g1 r)
"""


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: fair branch taken outside a loop")
def test_a_fair_branch_taken_once_proves_no_eventuality():
    source = parse_program(FAIR_BRANCH_ONCE)
    st1 = Con("St1")
    # a run fair to both events that starts with EvB never reaches St1
    assert st1 not in run_trace(source.term, ["EvB", "EvA", "EvB", "EvA"])
    reach = Eventually(Atom(Case(Var("s"), (Alt(PCon("St1"), Con("True")),
                                            Alt(WILD, Con("False"))))))
    assert verify(source.term, reach, frozenset(source.events)) is not TRUE


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
    # empirical termination bound of the tableau on random conforming
    # programs; the measured worst case sits at 19.7x (41.3x with calls
    # memoised on fresh obligations only and connectives that ran both
    # operands, 67.5x before G and F stopped at a deciding head, 221.2x
    # without the memo), asserted with headroom
    import random
    from gen_programs import formula_battery, random_fair, random_program

    rng = random.Random(5)
    for _ in range(100):
        program, events = random_program(rng, max_funcs=8)
        n = len(program.defs)
        for formula in formula_battery():
            budget = Budget()
            generate(program, formula, random_fair(rng, events), budget=budget)
            assert budget.used <= 200 * (n + 1) * _formula_size(formula)


def test_handler_graph_decides_within_default_budget(monkeypatch):
    # without the memo the tableau takes more than 10**6 rule applications
    # for this check, with calls memoised on fresh obligations only 21,183;
    # every entry is stored by the one unfold of a call that missed, and a
    # hit unfolds none
    import rtlcheck.witness as W
    from gen_programs import formula_battery, handler_graph

    unfolds = 0

    def counted(*args):
        nonlocal unfolds
        unfolds += 1
        return unfold_call(*args)

    monkeypatch.setattr(W, "unfold_call", counted)
    program = handler_graph(12)
    formula = formula_battery()[2]  # always (St0 implies eventually St1)
    budget = Budget()
    verdict = generate(program, formula, frozenset(("EvA", "EvB")), budget)
    assert verdict.truth is TRUE
    assert budget.used == 5963
    assert len(budget.memo) <= unfolds


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
    # in the tableau, an F obligation stops at the first state that meets
    # it, and a G one at the first that fails it; going on round the ring
    # until a revisit made this check quadratic (29,526 and 116,646 rule
    # applications)
    from gen_programs import ring_program, state_atom

    for n in (60, 120):
        budget = Budget()
        formula = Always(Eventually(state_atom("St0")))
        assert generate(ring_program(n), formula, frozenset(("EvA", "EvB")),
                        budget).truth is TRUE
        assert budget.used <= 11 * n


# the solver's rule applications for G (St0 => F St1) on ring_program(n), fair
# to EvA and EvB: about 8n, where the tableau takes about 8n² (29,282 /
# 116,162 / 462,722 / 1,847,042 at n = 60/120/240/480)
RING_RESPONSE_SOLVED = {120: 967, 240: 1927, 480: 3847}


def test_solver_takes_linear_work_on_ring_response():
    # no state is St1: every F variable starts False and stays False, so each
    # is evaluated once; the G obligation fails at the root's own state, so no
    # G variable is read
    from gen_programs import formula_battery, ring_program

    response = formula_battery()[2]
    for n, used in RING_RESPONSE_SOLVED.items():
        budget = Budget()
        assert verify(ring_program(n), response, frozenset(("EvA", "EvB")),
                      budget) is FALSE
        assert (budget.used, len(budget.memo)) == (used, n)


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
    # in the tableau each handler nests four frames (the rules at the call,
    # the call rule, the cases, where the outer case of one alternative goes
    # on in the same frame, and the Cons); with the default recursion limit
    # these properties hold up to about 236 handlers under pytest and raise
    # RecursionError from about 237. One more Python frame per handler would
    # lower that ceiling to about 190. verify spends no frame per call.
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
