"""The environment machine against the substituting stepper it replaced.

``tests/reference_stepper.py`` keeps that stepper. On the corpus, on random
programs and on hand-built programs that read events out of rhythm, stop,
fail or reread consumed events, under per-state fuel from 0 to 60 steps,
both must give the same traces, the same trace DAG and the same exception,
type and message, since the fuel counts the same contractions.
"""

import itertools
import random

import pytest

import reference_stepper as reference
from gen_programs import formula_battery, inner_where_ring, random_program, ring_program
from rtlcheck import semantics
from rtlcheck.ltlsem import bounded_counts
from rtlcheck.parser import parse_program
from rtlcheck.pretty import pretty_term
from test_ltlsem import (
    HAND_BUILT, HAND_BUILT_HEADER, READ_CONSUMED_EVENTS, UNEVEN_STEPS,
)

EVENTS = ("Request1", "Request2", "Take1", "Take2", "Release1", "Release2")


def _outcome(run):
    """The result, or the type and message of the exception raised."""
    try:
        return "returned", run()
    except Exception as exc:
        return "raised", type(exc), str(exc)


def _assert_same(program, events, depths, sequences):
    for depth in depths:
        assert (_outcome(lambda: semantics.trace_dag(program, events, depth))
                == _outcome(lambda: reference.trace_dag(program, events, depth))), depth
    for seq in sequences:
        for cycle, n in ((False, len(seq) + 1), (True, 3 * len(seq) + 2)):
            if cycle and not seq:
                continue
            assert (_outcome(lambda: semantics.run_trace(program, seq, cycle, n))
                    == _outcome(lambda: reference.run_trace(program, seq, cycle, n))), (seq, cycle)


def test_machine_equals_stepper_on_corpus(corpus):
    rng = random.Random(23)
    sequences = [[rng.choice(EVENTS) for _ in range(rng.randint(0, 12))]
                 for _ in range(20)]
    for _, source, _ in corpus:
        _assert_same(source.term, EVENTS, range(5), sequences)


def test_machine_equals_stepper_on_random_programs():
    rng = random.Random(2310)
    for _ in range(300):
        program, events = random_program(rng)
        sequences = [[rng.choice(events) for _ in range(rng.randint(0, 6))]
                     for _ in range(3)]
        _assert_same(program, events, range(4), sequences)


LITTLE_FUEL_PROGRAMS = {**HAND_BUILT, **UNEVEN_STEPS, **READ_CONSUMED_EVENTS}


@pytest.mark.parametrize("name", sorted(LITTLE_FUEL_PROGRAMS))
def test_machine_equals_stepper_under_little_fuel(name, monkeypatch):
    source = parse_program(HAND_BUILT_HEADER + LITTLE_FUEL_PROGRAMS[name])
    assert not source.diagnostics
    events = ("EvA", "EvB", "EvC")
    sequences = [list(seq) for k in range(3) for seq in itertools.product(events, repeat=k)]
    for fuel in range(61):
        monkeypatch.setattr(semantics, "DEFAULT_FUEL", fuel)
        _assert_same(source.term, events, range(3), sequences)


RING_EVENTS = ("EvA", "EvB", "EvC", "EvD")


@pytest.mark.parametrize("n", range(1, 6))
def test_machine_equals_stepper_on_inner_where_rings(n):
    # each handler opens a block of its own: the reference renames its g
    # apart at every opening after the first, the machine binds a new scope
    rng = random.Random(n)
    sequences = [[rng.choice(RING_EVENTS) for _ in range(rng.randint(0, 12))]
                 for _ in range(10)]
    _assert_same(inner_where_ring(n), RING_EVENTS, range(4), sequences)


def test_trace_dag_shares_branch_points_under_inner_where_blocks(monkeypatch):
    # each call of a handler opens a new instance of its inner block; a branch
    # point is keyed on the block and the values it captured, so the inner
    # ring shares its branch points about as the flat ring does
    calls = 0
    next_state = semantics._next_state

    def counted(c):
        nonlocal calls
        calls += 1
        return next_state(c)

    monkeypatch.setattr(semantics, "_next_state", counted)
    inner, flat = inner_where_ring(3), ring_program(3)
    for depth in (4, 6, 8):
        work = []
        for program in (inner, flat):
            calls = 0
            semantics.trace_dag(program, RING_EVENTS, depth)
            work.append(calls)
        assert work[0] <= 2 * work[1], (depth, work)
    # and the two programs are equivalent
    for f in formula_battery():
        for depth in (4, 6, 8):
            assert (bounded_counts(inner, RING_EVENTS, depth, f)
                    == bounded_counts(flat, RING_EVENTS, depth, f)), (f, depth)


# trace_dag's _next_state calls at depths 4, 6 and 8, as its memo key shares
# branch points; a key that shares less, or more work per branch point,
# changes them
NEXT_STATE_CALLS = {
    "example1": (170, 380, 596),
    "example2": (158, 302, 446),
    "example3": (188, 404, 620),
    "inner_where_ring(3)": (82, 178, 274),
    "ring_program(3)": (62, 110, 158),
}


def test_trace_dag_next_state_calls_pinned(corpus_by_name, monkeypatch):
    calls = 0
    next_state = semantics._next_state

    def counted(c):
        nonlocal calls
        calls += 1
        return next_state(c)

    monkeypatch.setattr(semantics, "_next_state", counted)
    programs = {name: (source.term, source.events)
                for name, (_, source, _) in corpus_by_name.items()}
    programs["inner_where_ring(3)"] = inner_where_ring(3), RING_EVENTS
    programs["ring_program(3)"] = ring_program(3), RING_EVENTS
    work = {}
    for name, (program, events) in programs.items():
        work[name] = []
        for depth in (4, 6, 8):
            calls = 0
            semantics.trace_dag(program, events, depth)
            work[name].append(calls)
        work[name] = tuple(work[name])
    assert work == NEXT_STATE_CALLS


# h opens a block whose m shadows the outer m; n, defined beside h, calls m
SHADOWING = HAND_BUILT_HEADER + """Cons St0 (h es)
where
h = \\es -> (k es where
  k = \\es -> case es of Cons e es -> Cons St1 (n es)
  m = \\es -> case es of Cons e es -> Cons St1 (m es))
n = \\es -> case es of Cons e es -> Cons St0 (m es)
m = \\es -> case es of Cons e es -> Cons St0 (m es)
"""


def _shadowing():
    source = parse_program(SHADOWING)
    assert not source.diagnostics
    return source.term


def test_machine_equals_stepper_under_shadowing():
    events = ("EvA", "EvB")
    sequences = [list(seq) for k in range(6) for seq in itertools.product(events, repeat=k)]
    _assert_same(_shadowing(), events, range(6), sequences)
    # the inner m, once opened, does not answer n's call
    trace = semantics.run_trace(_shadowing(), ["EvA"] * 4)
    assert [pretty_term(s) for s in trace] == ["St0", "St1", "St0", "St0", "St0"]


def test_where_bound_names_are_scoped_lexically():
    # n is defined beside the outer m, so its call means that m
    trace = semantics.run_trace(_shadowing(), ["EvA"] * 4)
    assert [pretty_term(s) for s in trace] == ["St0", "St1", "St0", "St0", "St0"]


# both m's are called: k's inner m after EvA, n's outer m after EvB; the two
# calls read back to the same term, m applied to the unread events
LIVE_SHADOWING = HAND_BUILT_HEADER + """Cons St0 (n es)
where
n = \\es -> case es of Cons e es -> case e of EvA -> Cons St1 (h es) | _ -> Cons St0 (m es)
h = \\es -> (k es where
  k = \\es -> case es of Cons e es -> case e of EvA -> Cons St1 (m es) | _ -> Cons St0 (n es)
  m = \\es -> case es of Cons e es -> case e of EvA -> Cons St1 (m es) | _ -> Cons St1 (n es))
m = \\es -> case es of Cons e es -> case e of EvA -> Cons St0 (m es) | _ -> Cons St0 (n es)
"""


def test_trace_dag_tells_a_shadowed_call_from_the_outer_one():
    source = parse_program(LIVE_SHADOWING)
    assert not source.diagnostics
    events = ("EvA", "EvB")
    sequences = [list(seq) for k in range(6) for seq in itertools.product(events, repeat=k)]
    _assert_same(source.term, events, range(7), sequences)
    trace = semantics.run_trace(source.term, ["EvA", "EvA", "EvA", "EvB", "EvB", "EvA"])
    assert [pretty_term(s) for s in trace] == [
        "St0", "St1", "St1", "St1", "St1", "St0", "St0"]


# h's block captures the event h read, which k, called at the next event,
# emits: k's calls read back alike after EvA and after EvB, and only the
# values that the block's instance captured tell them apart
CAPTURING = HAND_BUILT_HEADER + """Cons St0 (h es)
where
h = \\es -> case es of Cons e es -> (Cons St0 (k es) where
  k = \\es -> case es of Cons d es -> Cons (Pair e d) (h es))
"""


# a and b each open a block that defines an m of its own, which captures
# nothing; after a state that both emit alike, each call of m reads back to
# the same term under the same scope depth, and only the block tells them apart
SIBLING_BLOCKS = HAND_BUILT_HEADER + """Cons St0 (n es)
where
n = \\es -> case es of Cons e es -> case e of EvA -> Cons St0 (a es) | _ -> Cons St0 (b es)
a = \\es -> case es of Cons e es -> (Cons St1 (m es) where
  m = \\es -> case es of Cons e es -> Cons St1 (n es))
b = \\es -> case es of Cons e es -> (Cons St1 (m es) where
  m = \\es -> case es of Cons e es -> Cons St0 (n es))
"""


@pytest.mark.parametrize("text, run, states", [
    (CAPTURING, ["EvA", "EvB", "EvB", "EvA"],
     ["St0", "St0", "Pair EvA EvB", "St0", "Pair EvB EvA"]),
    (SIBLING_BLOCKS, ["EvB", "EvA", "EvA"], ["St0", "St0", "St1", "St0"]),
], ids=["captured-values", "sibling-blocks"])
def test_trace_dag_tells_apart_calls_that_read_back_alike(text, run, states):
    source = parse_program(text)
    assert not source.diagnostics
    events = ("EvA", "EvB")
    sequences = [list(seq) for k in range(5) for seq in itertools.product(events, repeat=k)]
    _assert_same(source.term, events, range(6), sequences)
    assert [pretty_term(s) for s in semantics.run_trace(source.term, run)] == states


def test_fuel_exhaustion_names_the_outermost_node(monkeypatch):
    # the stepper names the node its whole term begins with; the machine,
    # which keeps no such term, must name the same one at every budget
    source = parse_program(
        "data S = St0 | St1 | Q S S S S S\n"
        "Cons (Q ((\\y -> y) (g St0)) (case g St0 of St0 -> St1 | _ -> St0)"
        " (let z = g St1 in z) (k St0 where k = \\y -> g y) c) (h es)\nwhere\n"
        "g = \\x -> case x of St0 -> St0 | _ -> St1\n"
        "c = g St1\n"
        "h = \\es -> case es of Cons e es -> Cons St0 (h es) | Nil -> Nil")
    assert not source.diagnostics
    messages = set()
    for fuel in range(40):
        monkeypatch.setattr(semantics, "DEFAULT_FUEL", fuel)
        got = _outcome(lambda: semantics.run_trace(source.term, ["St0"]))
        assert got == _outcome(lambda: reference.run_trace(source.term, ["St0"])), fuel
        messages.add(got[-1] if got[0] == "raised" else "returned")
    assert {"no value after step budget: App", "no value after step budget: Case",
            "no value after step budget: Let", "no value after step budget: Where",
            "no value after step budget: Fun", "returned"} <= messages


def test_simulation_and_atoms_substitute_nothing(corpus, monkeypatch):
    # the machine binds variables in environments, over long event lists and
    # cycled ones alike; test_terms checks the same for the whole library
    calls = []
    monkeypatch.setattr(semantics, "substitute", lambda *a: calls.append(a))
    for _, source, props in corpus:
        trace = semantics.run_trace(source.term, list(EVENTS) * 4)
        semantics.run_trace(source.term, EVENTS, cycle=True, max_states=50)
        mutex = props.get("mutex").sub.term  # G {atom}
        for state in trace:
            semantics.atom_truth(mutex, state)
    assert calls == []
