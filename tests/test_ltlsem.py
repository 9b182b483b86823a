import itertools
import random

import pytest

from gen_programs import random_program
from rtlcheck.corpus import obs
from rtlcheck.ltlsem import (
    AtomUndefined, Bounded, DepthTooLarge, PositionedModel,
    bounded_check, enumerate_traces, sat_lasso,
)
from rtlcheck.parser import parse_program
from rtlcheck.semantics import run_trace
from rtlcheck.terms import Always, Atom, Con, Eventually, Next, Not, Var
from rtlcheck.witness import generate, lassoify


def _props(corpus_by_name, which="example1"):
    _, _, props = corpus_by_name[which]
    return props


def test_sat_lasso_mutex_violation(corpus_by_name):
    # stationary extension of the safety counterexample: (U,U) repeats forever
    mutex = _props(corpus_by_name).get("mutex")
    model = PositionedModel(
        (obs("T", "T"), obs("W", "T"), obs("W", "W"), obs("U", "W")),
        (obs("U", "U"),))
    assert sat_lasso(model, 0, mutex) is False


def test_sat_lasso_starvation_loop(corpus_by_name):
    # the expected counterexample for example2: (W,W) loops, process 1 never uses
    ns1 = _props(corpus_by_name).get("nonstarve1")
    model = PositionedModel((obs("T", "T"), obs("W", "T")), (obs("W", "W"),))
    assert sat_lasso(model, 0, ns1) is False


def test_sat_lasso_constant_model():
    atom = Atom(Con("True"))
    model = PositionedModel((), (Con("A"),))
    assert sat_lasso(model, 0, Always(atom)) is True


def test_sat_lasso_positions_and_next(corpus_by_name):
    ns1 = _props(corpus_by_name).get("nonstarve1")
    wait = ns1.sub.left      # process 1 waiting
    use = ns1.sub.right.sub  # process 1 using
    model = PositionedModel((obs("W", "T"),), (obs("U", "T"), obs("T", "T")))
    assert sat_lasso(model, 0, wait) is True
    assert sat_lasso(model, 1, wait) is False
    assert sat_lasso(model, 0, Next(use)) is True
    assert sat_lasso(model, 0, Eventually(use)) is True
    assert sat_lasso(model, 3, use) is True   # positions fold into the loop
    assert sat_lasso(model, 4, use) is False  # 4 lands on the (T,T) slot


def test_sat_lasso_negation_clause(corpus_by_name):
    props = _props(corpus_by_name)
    models = [
        PositionedModel((obs("T", "T"),), (obs("U", "U"),)),
        PositionedModel((), (obs("W", "W"),)),
        PositionedModel((obs("U", "T"), obs("W", "T")), (obs("T", "T"),)),
    ]
    formulas = [props.get(n) for n, _ in props.props]
    for model in models:
        for f in formulas:
            for i in range(3):
                assert sat_lasso(model, i, Not(f)) == (not sat_lasso(model, i, f))


def test_sat_lasso_stable_under_unrolling(corpus):
    for entry, source, props in corpus:
        for name in entry.expected_verdicts:
            formula = props.get(name)
            verdict = generate(source.term, formula, props.fair)
            lasso = lassoify(verdict.trace) if verdict.trace else None
            if not lasso or not lasso.loop:
                continue
            rolled = PositionedModel(lasso.prefix, lasso.loop)
            unrolled = PositionedModel(lasso.prefix + lasso.loop, lasso.loop)
            assert sat_lasso(rolled, 0, formula) == sat_lasso(unrolled, 0, formula)


def test_sat_lasso_undefined_atom_raises():
    atom = Atom(Var("s"))  # evaluates to the state itself, not a truth value
    model = PositionedModel((), (Con("Undefined"),))
    with pytest.raises(AtomUndefined):
        sat_lasso(model, 0, atom)


# --- bounded prefix check ---------------------------------------------------------

def test_bounded_mutex_unsat(corpus_by_name):
    mutex = _props(corpus_by_name).get("mutex")
    assert bounded_check((obs("T", "T"), obs("U", "U")), mutex) is Bounded.UNSAT


def test_bounded_mutex_unknown_without_violation(corpus_by_name):
    mutex = _props(corpus_by_name).get("mutex")
    assert bounded_check((obs("T", "T"),), mutex) is Bounded.UNKNOWN


def test_bounded_empty_prefix(corpus_by_name):
    mutex = _props(corpus_by_name).get("mutex")
    assert bounded_check((), mutex) is Bounded.UNKNOWN


def test_bounded_eventually_sat(corpus_by_name):
    ns1 = _props(corpus_by_name).get("nonstarve1")
    use = ns1.sub.right  # F { process 1 using }
    assert bounded_check((obs("W", "T"), obs("U", "T")), use) is Bounded.SAT
    assert bounded_check((obs("W", "T"),), use) is Bounded.UNKNOWN


def test_bounded_next_beyond_end(corpus_by_name):
    ns1 = _props(corpus_by_name).get("nonstarve1")
    wait = ns1.sub.left
    assert bounded_check((obs("W", "T"),), Next(wait)) is Bounded.UNKNOWN
    assert bounded_check((obs("W", "T"), obs("W", "W")), Next(wait)) is Bounded.SAT


def test_bounded_undefined_atom_raises():
    atom = Atom(Var("s"))
    with pytest.raises(AtomUndefined):
        bounded_check((Con("Undefined"),), atom)


def test_bounded_sat_never_contradicts_lasso_semantics(corpus):
    # a decisive Sat must hold on every extension by a corpus loop
    loops = []
    for entry, source, props in corpus:
        for name in entry.expected_verdicts:
            verdict = generate(source.term, props.get(name), props.fair)
            if verdict.trace:
                lasso = lassoify(verdict.trace)
                if lasso.loop:
                    loops.append(lasso.loop)
    assert loops
    for entry, source, props in corpus:
        for name in entry.expected_verdicts:
            formula = props.get(name)
            verdict = generate(source.term, formula, props.fair)
            if not verdict.trace:
                continue
            decision = bounded_check(verdict.trace, formula)
            if decision is Bounded.SAT:
                for loop in loops:
                    model = PositionedModel(verdict.trace, loop)
                    assert sat_lasso(model, 0, formula) is True


# --- trace enumeration ------------------------------------------------------------

EVENTS = ("Request1", "Request2", "Take1", "Take2", "Release1", "Release2")


def test_enumerate_counts_depth1(corpus_by_name):
    _, source, _ = corpus_by_name["example1"]
    traces = enumerate_traces(source.term, EVENTS, 1)
    assert len(traces) == 6
    assert all(t[0] == obs("T", "T") for t in traces)
    assert all(len(t) == 2 for t in traces)


def test_enumerate_depth0(corpus_by_name):
    _, source, _ = corpus_by_name["example2"]
    assert enumerate_traces(source.term, EVENTS, 0) == [[obs("T", "T")]]


def test_enumerate_counts_depth2(corpus_by_name):
    _, source, _ = corpus_by_name["example3"]
    assert len(enumerate_traces(source.term, EVENTS, 2)) == 36


def test_enumerate_depth_guard(corpus_by_name):
    _, source, _ = corpus_by_name["example1"]
    with pytest.raises(DepthTooLarge):
        enumerate_traces(source.term, EVENTS, 9)


def _outcome(run):
    """The traces, or the type and message of the exception raised."""
    try:
        return run()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _assert_enumeration_is_run_trace(program, events, depth):
    walked = _outcome(lambda: enumerate_traces(program, events, depth))
    one_by_one = _outcome(lambda: [
        run_trace(program, seq, max_states=depth + 1)
        for seq in itertools.product(events, repeat=depth)])
    assert walked == one_by_one, (events, depth)


def test_enumerate_equals_run_trace_on_corpus(corpus):
    for _, source, _ in corpus:
        for depth in range(6):
            _assert_enumeration_is_run_trace(source.term, EVENTS, depth)


def test_enumerate_equals_run_trace_on_random_programs():
    rng = random.Random(20261018)
    for _ in range(300):
        program, events = random_program(rng)
        for depth in range(4):
            _assert_enumeration_is_run_trace(program, events, depth)


HAND_BUILT_HEADER = """data Event = EvA | EvB | EvC
data State = St0 | St1 | Pair Event Event
data TruthVal = True | False | Undefined
"""

# programs that read events out of the usual one-per-state rhythm, stop
# early, or fail; the same exception must come out of both sides
HAND_BUILT = {
    "cases on es before its first Cons":
        "case es of Nil -> Nil | Cons e rest -> Cons (Pair e e) (f rest)\n"
        "where\nf = \\es -> case es of Nil -> Nil | Cons e es -> Cons St0 (f es)",
    "state reads an event only when printed":
        "Cons (case es of Nil -> St1 | Cons e r -> e) (f es)\n"
        "where\nf = \\es -> case es of Cons e es -> Cons St0 (f es)",
    "two events per state":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Nil -> Nil | Cons a es -> "
        "case es of Nil -> Nil | Cons b es -> Cons (Pair a b) (f es)",
    "ends in Nil before the depth":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Cons e es -> "
        "case e of EvA -> Cons St1 (f es) | _ -> Nil",
    "never reads an event":
        "Cons St0 (f es)\nwhere\nf = \\es -> Cons St1 (f es)",
    "emits a non-stream":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Cons e es -> "
        "case e of EvB -> St1 | _ -> Cons St0 (f es)",
    "gets stuck":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Cons e es -> "
        "case e of EvC -> (case St0 of St1 -> Nil) | _ -> Cons St0 (f es)",
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_enumerate_equals_run_trace_on_hand_built_programs(name):
    source = parse_program(HAND_BUILT_HEADER + HAND_BUILT[name])
    assert not source.diagnostics
    for events in (("EvA", "EvB", "EvC"), ("EvB", "EvA"), ("EvA",)):
        for depth in range(5):
            _assert_enumeration_is_run_trace(source.term, events, depth)


def test_enumerate_empty_alphabet(corpus_by_name):
    _, source, _ = corpus_by_name["example1"]
    assert enumerate_traces(source.term, (), 3) == []
    assert enumerate_traces(source.term, (), 0) == [[obs("T", "T")]]
