import random

import pytest

from rtlcheck import semantics
from rtlcheck.corpus import obs
from rtlcheck.parser import parse_program
from rtlcheck.semantics import (
    FuelExhausted, NonConsOutput, StuckError, atom_truth, deep_eval, run_trace,
)
from rtlcheck.terms import (
    FALSE, TRUE, Alt, App, Case, Con, Fun, Lam, Let, PCon, Var, WILD, Where,
)
from gen_programs import resolved
# the step relation the machine reproduces, kept as its reference
from reference_stepper import FunEnv, eval_whnf, step

EVENTS = ("Request1", "Request2", "Take1", "Take2", "Release1", "Release2")


def test_step_beta():
    term, _ = step(App(Lam("x", Var("x")), Con("A")), FunEnv.empty())
    assert term == Con("A")


def test_step_let_is_beta():
    term, _ = step(Let("x", Con("A"), Var("x")), FunEnv.empty())
    assert term == Con("A")


def test_step_case_elimination():
    t = Case(Con("Cons", (Con("A"), Con("Nil"))),
             (Alt(PCon("Cons", ("h", "t")), Var("h")),))
    term, _ = step(t, FunEnv.empty())
    assert term == Con("A")


def test_step_unfold_example1(corpus_by_name):
    _, source, _ = corpus_by_name["example1"]
    program = source.term
    env = FunEnv.empty().extend(program.defs)
    term, _ = step(Fun("f1"), env)
    assert isinstance(term, Lam)
    assert term == dict(program.defs)["f1"]


def test_step_is_deterministic_and_progresses(corpus_by_name):
    # walk a corpus evaluation; every configuration is a value or steps one way
    _, source, _ = corpus_by_name["example1"]
    t = source.term
    from rtlcheck.terms import substitute, free_vars
    t = substitute(t, {"es": Con("Cons", (Con("Take1"), Con("Nil")))})
    env = FunEnv.empty()
    for _ in range(50):
        red = step(t, env)
        again = step(t, env)
        assert (red is None) == (again is None)
        if red is None:
            break
        assert red[0] == again[0]
        t, env = red


def test_step_preserves_closedness_and_wellformedness(corpus_by_name):
    from rtlcheck.terms import free_vars, substitute
    from gen_programs import check_term
    _, source, _ = corpus_by_name["example1"]
    arities = source.arities()
    events = Con("Cons", (Con("Request1"),
                          Con("Cons", (Con("Take2"), Con("Nil")))))
    t = substitute(source.term, {"es": events})
    env = FunEnv.empty()
    steps, cells = 0, 0
    while cells < 3:  # initial state plus one cell per event
        assert free_vars(t) == frozenset()
        assert check_term(t, arities) == []
        red = step(t, env)
        if red is None:
            assert isinstance(t, Con) and t.con == "Cons"
            cells += 1
            t = t.args[1]  # keep walking down the stream
            continue
        steps += 1
        t, env = red
    # where-open plus unfold/beta/two eliminations per consumed event
    assert steps == 9


def test_values_do_not_step():
    assert step(Con("A"), FunEnv.empty()) is None
    assert step(Lam("x", Var("x")), FunEnv.empty()) is None
    assert eval_whnf(Con("A"), fuel=0) == Con("A")


def test_stuck_configurations():
    with pytest.raises(StuckError):
        step(Var("x"), FunEnv.empty())
    with pytest.raises(StuckError):
        step(Case(Lam("x", Var("x")), (Alt(WILD, Con("A")),)), FunEnv.empty())
    with pytest.raises(StuckError):
        eval_whnf(Fun("nowhere"))


def test_fuel_exhaustion_on_divergence():
    env = FunEnv.empty().extend([("loop", Fun("loop"))])
    with pytest.raises(FuelExhausted):
        eval_whnf(Fun("loop"), env, fuel=100)


def _mutex_atom(corpus_by_name):
    _, _, props = corpus_by_name["example1"]
    return props.get("mutex").sub.term


def test_atom_truth_false_at_contested_state(corpus_by_name):
    assert atom_truth(_mutex_atom(corpus_by_name), obs("U", "U")) is FALSE


def test_atom_truth_true_via_wildcard(corpus_by_name):
    assert atom_truth(_mutex_atom(corpus_by_name), obs("T", "T")) is TRUE


def test_run_trace_cycled_example1(corpus_by_name):
    # hand-walk of the first handler chain, cross-checked by the lts walker
    _, source, _ = corpus_by_name["example1"]
    trace = run_trace(source.term, ["Request1", "Take1", "Release1"],
                      cycle=True, max_states=4)
    assert trace == [obs("T", "T"), obs("W", "T"), obs("U", "T"), obs("T", "T")]


def test_run_trace_budget_is_per_state(corpus_by_name, monkeypatch):
    # example1 needs 5 steps a state: 1000 states fit 20 steps each, not in total
    monkeypatch.setattr(semantics, "DEFAULT_FUEL", 20)
    _, source, _ = corpus_by_name["example1"]
    trace = run_trace(source.term, ["Request1", "Take1", "Release1"],
                      cycle=True, max_states=1000)
    assert trace == ([obs("T", "T"), obs("W", "T"), obs("U", "T")] * 334)[:1000]


def test_run_trace_wildcard_branch(corpus_by_name):
    _, source, _ = corpus_by_name["example1"]
    trace = run_trace(source.term, ["Take1"], max_states=2)
    assert trace == [obs("T", "T"), obs("T", "T")]


def test_run_trace_initial_state_only(corpus):
    for _, source, _ in corpus:
        assert run_trace(source.term, [], max_states=1) == [obs("T", "T")]


def test_run_trace_one_state_per_event(corpus):
    rng = random.Random(7)
    for _, source, _ in corpus:
        for _ in range(10):
            k = rng.randint(0, 6)
            events = [rng.choice(EVENTS) for _ in range(k)]
            trace = run_trace(source.term, events, max_states=99)
            assert len(trace) == k + 1


def test_run_trace_substitutes_a_long_event_list_under_a_binder():
    # f = \es -> case es of Cons e rest -> Cons St0 ((\x -> f rest) St0) | Nil -> Nil
    # puts the rest of the list under the binder x at every event
    body = Case(Var("es"), (
        Alt(PCon("Cons", ("e", "rest")),
            Con("Cons", (Con("St0"), App(Lam("x", App(Fun("f"), Var("rest"))), Con("St0"))))),
        Alt(PCon("Nil"), Con("Nil"))))
    # through the parser, which gives the block and its call their definitions
    program = resolved(Where(App(Fun("f"), Var("es")), (("f", Lam("es", body)),)))
    trace = run_trace(program, ["EvA"] * 30000, max_states=30001)
    assert trace == [Con("St0")] * 30000


def test_run_trace_rejects_non_stream():
    bad = Con("ObsState", (Var("es"), Var("es")))
    with pytest.raises(NonConsOutput):
        run_trace(bad, ["x"], max_states=2)


def test_run_trace_refuses_empty_cycle(corpus_by_name):
    _, source, _ = corpus_by_name["example1"]
    with pytest.raises(ValueError):
        run_trace(source.term, [], cycle=True, max_states=2)


def test_fuel_is_shared_by_the_arguments_of_a_state(monkeypatch):
    # 7 steps in all: the where block, then 3 for each g St0
    program = parse_program(
        "data S = St0 | P X X\n"
        "Cons (P (g St0) (g St0)) es where g = \\x -> case x of St0 -> St0 | _ -> x").term
    monkeypatch.setattr(semantics, "DEFAULT_FUEL", 6)
    with pytest.raises(FuelExhausted):
        run_trace(program, ["A"], max_states=1)
    monkeypatch.setattr(semantics, "DEFAULT_FUEL", 7)
    assert run_trace(program, ["A"], max_states=1) == [
        Con("P", (Con("St0"), Con("St0")))]


def test_deep_eval_normalizes_under_constructors():
    t = Con("Pair2", (App(Lam("x", Var("x")), Con("A")), Con("B")))
    # one beta step, taken from the fuel the second argument then gets
    assert deep_eval(t, fuel=5) == (Con("Pair2", (Con("A"), Con("B"))), 4)
