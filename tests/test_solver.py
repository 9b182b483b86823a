"""``verify`` solves the rules' equations; its truth is ``generate``'s.

``verify`` reads each call as a variable and solves one block of variables
per formula node, while ``generate`` unfolds calls along paths. The two
share every per-shape rule, so they must give the same truth, or raise the
same exception, on every check.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from rtlcheck.parser import parse_program, parse_properties
from rtlcheck.semantics import AtomError, run_trace
from rtlcheck.terms import FALSE, TRUE, Always, Atom, Con, Eventually, Implies, Next, Var
from rtlcheck.verify import Budget, BudgetExceeded, verify
from rtlcheck.witness import NotSimplified, generate

from gen_programs import (
    formula_battery, handler_graph, inner_where_ring, random_fair,
    random_program, ring_program, state_atom,
)

ROOT = Path(__file__).resolve().parent.parent
EVENTS = ("EvA", "EvB", "EvC", "EvD")


def _next_formulas():
    """The six formulas with X of ROADMAP item 21."""
    st0, st1 = state_atom("St0"), state_atom("St1")
    return [Next(Next(Always(st0))), Next(Next(Eventually(st1))),
            Next(Always(st0)), Next(Eventually(st1)), Always(Next(st0)),
            Always(Implies(st0, Next(Always(st0))))]


def _agree(program, formula, fair) -> bool:
    """``verify`` gives ``generate``'s truth, or raises the exception type
    ``generate`` raises; whether ``generate`` raised."""
    try:
        expected = generate(program, formula, fair).truth
    except Exception as exc:
        with pytest.raises(Exception) as info:
            verify(program, formula, fair)
        assert type(info.value) is type(exc), (formula, fair, exc)
        return True
    assert verify(program, formula, fair) is expected, (formula, fair)
    return False


def test_random_programs_agree():
    formulas = formula_battery() + _next_formulas()
    checks = 0
    for seed in (1, 2):
        rng = random.Random(seed)
        for _ in range(200):
            program, events = random_program(rng)
            for fair in (random_fair(rng, events), frozenset(events)):
                for formula in formulas:
                    assert not _agree(program, formula, fair)
                    checks += 1
    assert checks == 2 * 200 * 2 * 13


def test_rings_and_handler_graphs_agree():
    formulas = (formula_battery() + _next_formulas()
                + [Always(Eventually(state_atom("St0")))])
    programs = ([ring_program(n) for n in (1, 2, 3, 5, 8, 20, 60)]
                + [inner_where_ring(n) for n in (1, 2, 3, 5, 8, 12)]
                + [handler_graph(n, seed) for n in (4, 6, 8, 10) for seed in (0, 1)])
    for program in programs:
        for fair in (frozenset(), frozenset(("EvA",)), frozenset(("EvA", "EvB")),
                     frozenset(EVENTS)):
            for formula in formulas:
                assert not _agree(program, formula, fair)


def test_corpus_agrees_under_every_fairness(corpus):
    for entry, source, props in corpus:
        for fair in (frozenset(source.events), props.fair, frozenset()):
            for name in entry.expected_verdicts:
                assert not _agree(source.term, props.get(name), fair)


def test_errors_agree():
    # a definition that is no handler, an atom that is no truth value, and a
    # budget too small for either engine
    unreadable = parse_program("data S = A\nCons A (f es)\nwhere\nf = \\es -> \\x -> x").term
    loop = parse_program("data S = A\nCons A (f es)\nwhere\n"
                         "f = \\es -> case es of Cons e es -> case e of _ -> Cons A (f es)").term
    yes = Atom(Con("True"))
    assert _agree(unreadable, Always(yes), frozenset())
    assert _agree(loop, Always(Atom(Var("s"))), frozenset())
    assert _agree(loop, Next(Atom(Var("s"))), frozenset())
    with pytest.raises(NotSimplified):
        verify(unreadable, Next(yes))
    with pytest.raises(AtomError):
        verify(loop, Eventually(Atom(Var("s"))))
    with pytest.raises(BudgetExceeded):
        verify(ring_program(20), formula_battery()[2], frozenset(EVENTS), Budget(50))


def _graph_shape_program(n: int, index: int):
    """The benchmark's handler graph of ``n`` handlers with shape ``index``,
    and its property file."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    shape, states = workloads.graph_shape(n, index)
    table, order = workloads.graph_table(random.Random(0), shape, states)
    source = parse_program(workloads.render_program(
        table, workloads.GRAPH_EVENTS, workloads.GRAPH_STATES, order))
    props = parse_properties("".join(f"prop {name}: {text}\n" for name, text
                                     in workloads.GRAPH_FORMULAS), source.arities())
    assert not props.diagnostics, props.diagnostics
    return source, props


def test_checks_past_the_tableau_decide_within_default_budget():
    # the tableau exceeds the default 10**6 rule applications on both
    # graph shapes, and takes 1,847,042 on the ring
    response = formula_battery()[2]
    fair = frozenset(("EvA", "EvB"))
    budget = Budget()
    assert verify(ring_program(480), response, fair, budget) is FALSE
    assert budget.used < 5000
    budget = Budget()
    assert verify(handler_graph(20), response, fair, budget) is TRUE
    assert budget.used < 1000
    for n in (24, 26):
        source, props = _graph_shape_program(n, 0)
        budget = Budget()
        assert verify(source.term, props.get("response"), frozenset(source.events),
                      budget) is TRUE
        assert budget.used < 1000


def _test_and_set(corpus_text):
    """``example1`` without its two double takes: the test-and-set lock."""
    text = corpus_text["example1.rsl"]
    for take in ("      | Take2 -> Cons (ObsState U U) (f9 es)\n",
                 "      | Take1 -> Cons (ObsState U U) (f9 es)\n"):
        assert text.count(take) == 1
        text = text.replace(take, "")
    source = parse_program(text)
    assert source.term is not None, source.diagnostics
    props = parse_properties(corpus_text["mutex.ltl"], source.arities())
    assert not props.diagnostics, props.diagnostics
    return source, props


def test_test_and_set_lock_is_safe_and_can_starve(corpus_text):
    source, props = _test_and_set(corpus_text)
    assert verify(source.term, props.get("mutex"), props.fair) is TRUE
    # every event once per cycle, so the run is fair, yet Take1 always
    # arrives while process 2 holds the resource: process 1 waits forever
    cycle = ["Request1", "Request2", "Take2", "Take1", "Release1", "Request1", "Release2"]
    trace = run_trace(source.term, cycle, cycle=True, max_states=8 * len(cycle))
    assert {state.args[0] for state in trace[2:]} == {Con("W")}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: fair branch taken outside a loop")
def test_test_and_set_lock_is_not_proved_starvation_free(corpus_text):
    # the solver reproduces the tableau's fair-branch rule, wrong True included
    source, props = _test_and_set(corpus_text)
    nonstarve1 = props.get("nonstarve1")
    truths = {verify(source.term, nonstarve1, props.fair),
              generate(source.term, nonstarve1, props.fair).truth}
    assert TRUE not in truths
