import gc
import itertools
import random
from collections import Counter

import pytest

from gen_programs import formula_battery, random_program, state_atom
from rtlcheck.corpus import obs
from rtlcheck.ltlsem import (
    AtomUndefined, Bounded, DepthTooLarge, PositionedModel, _cached_atom,
    bounded_check, bounded_counts, enumerate_traces, sat_lasso,
)
from rtlcheck import semantics
from rtlcheck.parser import parse_program, parse_properties
from rtlcheck.semantics import run_trace
from rtlcheck.terms import (
    TRUE, UNDEFINED, Alt, Always, And, Atom, Case, Con, Eventually, Implies, Next, Not, Or,
    PCon, Var, WILD,
)
from rtlcheck.witness import Validation, generate, lassoify, validate_verdict


def _props(corpus_by_name, which="example1"):
    _, _, props = corpus_by_name[which]
    return props


def _next(i, f):
    """``f`` under ``i`` Next operators: ``f`` at position ``i``."""
    for _ in range(i):
        f = Next(f)
    return f


def test_sat_lasso_mutex_violation(corpus_by_name):
    # stationary extension of the safety counterexample: (U,U) repeats forever
    mutex = _props(corpus_by_name).get("mutex")
    model = PositionedModel(
        (obs("T", "T"), obs("W", "T"), obs("W", "W"), obs("U", "W")),
        (obs("U", "U"),))
    assert sat_lasso(model, mutex) is False


def test_sat_lasso_starvation_loop(corpus_by_name):
    # the expected counterexample for example2: (W,W) loops, process 1 never uses
    ns1 = _props(corpus_by_name).get("nonstarve1")
    model = PositionedModel((obs("T", "T"), obs("W", "T")), (obs("W", "W"),))
    assert sat_lasso(model, ns1) is False


def test_sat_lasso_constant_model():
    atom = Atom(Con("True"))
    model = PositionedModel((), (Con("A"),))
    assert sat_lasso(model, Always(atom)) is True


def test_sat_lasso_positions_and_next(corpus_by_name):
    ns1 = _props(corpus_by_name).get("nonstarve1")
    wait = ns1.sub.left      # process 1 waiting
    use = ns1.sub.right.sub  # process 1 using
    model = PositionedModel((obs("W", "T"),), (obs("U", "T"), obs("T", "T")))
    assert sat_lasso(model, wait) is True
    assert sat_lasso(model, Next(wait)) is False
    assert sat_lasso(model, Next(use)) is True
    assert sat_lasso(model, Eventually(use)) is True
    assert sat_lasso(model, _next(3, use)) is True   # positions fold into the loop
    assert sat_lasso(model, _next(4, use)) is False  # 4 lands on the (T,T) slot


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
                assert sat_lasso(model, _next(i, Not(f))) == \
                    (not sat_lasso(model, _next(i, f)))


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
            assert sat_lasso(rolled, formula) == sat_lasso(unrolled, formula)


def test_sat_lasso_undefined_atom_raises():
    atom = Atom(Var("s"))  # evaluates to the state itself, not a truth value
    model = PositionedModel((), (Con("Undefined"),))
    with pytest.raises(AtomUndefined):
        sat_lasso(model, atom)


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
                    assert sat_lasso(model, formula) is True


# --- the bounded check against its recursive definition -----------------------------

def reference_bounded_check(trace, f, i=0):
    """The bounded check as the recursion over positions that defines it."""
    match f:
        case Atom(term):
            if i >= len(trace):
                return Bounded.UNKNOWN
            value = _cached_atom(term, trace[i])
            if value is UNDEFINED:
                raise AtomUndefined("atom evaluated to Undefined")
            return Bounded.SAT if value is TRUE else Bounded.UNSAT
        case Not(sub):
            return _neg(reference_bounded_check(trace, sub, i))
        case And(l, r):
            return _and(reference_bounded_check(trace, l, i),
                        reference_bounded_check(trace, r, i))
        case Or(l, r):
            return _neg(_and(_neg(reference_bounded_check(trace, l, i)),
                             _neg(reference_bounded_check(trace, r, i))))
        case Implies(l, r):
            return _neg(_and(reference_bounded_check(trace, l, i),
                             _neg(reference_bounded_check(trace, r, i))))
        case Next(sub):
            return reference_bounded_check(trace, sub, i + 1)
        case Always(sub):
            if any(reference_bounded_check(trace, sub, j) is Bounded.UNSAT
                   for j in range(i, len(trace))):
                return Bounded.UNSAT
            return Bounded.UNKNOWN
        case Eventually(sub):
            if any(reference_bounded_check(trace, sub, j) is Bounded.SAT
                   for j in range(i, len(trace))):
                return Bounded.SAT
            return Bounded.UNKNOWN
    raise TypeError(f"not a formula: {f!r}")


def _neg(b):
    return {Bounded.SAT: Bounded.UNSAT, Bounded.UNSAT: Bounded.SAT}.get(b, Bounded.UNKNOWN)


def _and(a, b):
    if Bounded.UNSAT in (a, b):
        return Bounded.UNSAT
    return Bounded.SAT if a is b is Bounded.SAT else Bounded.UNKNOWN


def _outcome(run):
    """The result, or the type and message of the exception raised."""
    try:
        return run()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _atom(on_state, otherwise="True", field=None):
    """An atom giving ``on_state[name]`` at a state named ``name``.

    With ``field`` set, the name is that of the field-th argument of an
    ``ObsState``. The value may be Undefined, or a constructor that is no
    truth value; with ``otherwise`` None, other states leave the case stuck.
    """
    alts = tuple(Alt(PCon(name, ()), Con(value)) for name, value in on_state.items())
    if otherwise is not None:
        alts += (Alt(WILD, Con(otherwise)),)
    if field is None:
        return Atom(Case(Var("s"), alts))
    names = ("p1", "p2")
    return Atom(Case(Var("s"), (Alt(PCon("ObsState", names), Case(Var(names[field]), alts)),)))


# atoms that are Undefined, no truth value, or stuck on some states
FAULTY_ATOMS = (
    _atom({"St2": "Undefined", "St1": "False"}),
    _atom({"St1": "St0"}, otherwise="False"),
    _atom({"St0": "True", "St1": "False"}, otherwise=None),
)


def random_formula(rng, atoms, size):
    if size <= 1:
        return rng.choice(atoms)
    unary = (Not, Next, Always, Eventually)
    binary = (And, Or, Implies)
    op = rng.choice(unary + binary)
    if op in unary:
        return op(random_formula(rng, atoms, size - 1))
    left = rng.randint(1, size - 2) if size > 2 else 1
    return op(random_formula(rng, atoms, left),
              random_formula(rng, atoms, max(1, size - 1 - left)))


RANDOM_ATOMS = (state_atom("St0"), state_atom("St1"), *FAULTY_ATOMS)
STATES = (Con("St0"), Con("St1"), Con("St2"))


def test_bounded_check_equals_reference_on_random_traces():
    rng = random.Random(20261020)
    battery = formula_battery() + list(FAULTY_ATOMS) + [
        Always(Implies(state_atom("St0"), Eventually(a))) for a in FAULTY_ATOMS]
    raised = 0
    for n in range(4000):
        f = battery[n % len(battery)] if n < 2 * len(battery) else \
            random_formula(rng, RANDOM_ATOMS, rng.randint(1, 7))
        trace = tuple(rng.choice(STATES) for _ in range(rng.randint(0, 6)))
        for i in (0, rng.randint(0, len(trace) + 1)):
            got = _outcome(lambda: bounded_check(trace[i:], f))
            assert got == _outcome(lambda: reference_bounded_check(trace, f, i)), (f, trace, i)
            raised += isinstance(got, tuple)
    assert raised > 500  # the faulty atoms are reached, not only stored


# --- the lasso check against its recursive definition ------------------------------

def reference_sat_lasso(m, f, i=0):
    """The lasso check as the recursion over positions that defines it.

    A position past the prefix folds into one loop copy, and ``G``/``F``
    range up to one prefix plus two loop copies, beyond which the suffix
    repeats a position already inspected. Connectives evaluate both
    operands, left first, so the error raised is the first one met.
    """
    edge = len(m.prefix)
    if i >= edge:
        i = edge + (i - edge) % len(m.loop)
    horizon = edge + 2 * len(m.loop)
    match f:
        case Atom(term):
            value = _cached_atom(term, m.prefix[i] if i < edge else m.loop[i - edge])
            if value is UNDEFINED:
                raise AtomUndefined("atom evaluated to Undefined")
            return Bounded.SAT if value is TRUE else Bounded.UNSAT
        case Not(sub):
            return _neg(reference_sat_lasso(m, sub, i))
        case And(l, r):
            return _and(reference_sat_lasso(m, l, i), reference_sat_lasso(m, r, i))
        case Or(l, r):
            return _neg(_and(_neg(reference_sat_lasso(m, l, i)),
                             _neg(reference_sat_lasso(m, r, i))))
        case Implies(l, r):
            return _neg(_and(reference_sat_lasso(m, l, i),
                             _neg(reference_sat_lasso(m, r, i))))
        case Next(sub):
            return reference_sat_lasso(m, sub, i + 1)
        case Always(sub):
            if any(reference_sat_lasso(m, sub, j) is Bounded.UNSAT
                   for j in range(i, horizon)):
                return Bounded.UNSAT
            return Bounded.SAT
        case Eventually(sub):
            if any(reference_sat_lasso(m, sub, j) is Bounded.SAT
                   for j in range(i, horizon)):
                return Bounded.SAT
            return Bounded.UNSAT
    raise TypeError(f"not a formula: {f!r}")


def test_sat_lasso_equals_reference_on_random_lassos():
    rng = random.Random(20261021)
    battery = formula_battery() + [
        Always(Implies(state_atom("St0"), Eventually(a))) for a in FAULTY_ATOMS]
    raised = 0
    for n in range(10000):
        f = battery[n % len(battery)] if n < 2 * len(battery) else \
            random_formula(rng, RANDOM_ATOMS, rng.randint(1, 6))
        m = PositionedModel(tuple(rng.choice(STATES) for _ in range(rng.randint(0, 3))),
                            tuple(rng.choice(STATES) for _ in range(rng.randint(1, 4))))
        got = _outcome(lambda: sat_lasso(m, f))
        assert got == _outcome(lambda: reference_sat_lasso(m, f) is Bounded.SAT), (f, m)
        raised += isinstance(got, tuple)
    assert raised > 2000  # the faulty atoms are reached, not only stored


def test_sat_lasso_labels_a_long_loop():
    # G F G F p holds on a lasso exactly when p holds somewhere in its loop;
    # the recursion over positions takes hours on a loop this long
    p = state_atom("St1")
    f = Always(Eventually(Always(Eventually(p))))
    n = 5000
    for where in (None, 0, n - 1):
        loop = tuple(Con("St1") if k == where else Con("St0") for k in range(n))
        assert sat_lasso(PositionedModel((Con("St1"),), loop), f) is (where is not None)


def _assert_counts_are_enumeration(program, events, depth, formulas):
    """``bounded_counts`` is ``Counter(reference_bounded_check(t, f) for t in
    enumerate_traces(...))``, exception included.

    The reference runs once per distinct trace, in the order of the first
    sequence that gives it, so the first trace that raises still raises.
    """
    traces = _outcome(lambda: Counter(map(tuple, enumerate_traces(program, events, depth))))

    def expanded(f):
        if not isinstance(traces, Counter):
            return traces
        counts = dict.fromkeys(Bounded, 0)
        for trace, n in traces.items():
            counts[reference_bounded_check(trace, f)] += n
        return list(counts.items())

    for f in formulas:
        counted = _outcome(lambda: list(bounded_counts(program, events, depth, f).items()))
        assert counted == _outcome(lambda: expanded(f)), (events, depth, f)


def _corpus_formulas(props):
    """The properties, and two that reach atoms failing at some corpus states."""
    wait1, use1 = props.get("nonstarve1").sub.left, props.get("nonstarve1").sub.right.sub
    undefined_when_used = _atom({"U": "Undefined"}, field=0)
    stuck_unless_waiting = _atom({"W": "True"}, otherwise=None, field=1)
    return [props.get(name) for name, _ in props.props] + [
        Always(Implies(wait1, Eventually(And(use1, undefined_when_used)))),
        Or(Eventually(Next(use1)), Always(stuck_unless_waiting)),
    ]


def test_bounded_counts_equal_enumeration_on_corpus(corpus):
    for _, source, props in corpus:
        for depth in range(7):
            _assert_counts_are_enumeration(source.term, EVENTS, depth,
                                           _corpus_formulas(props))


def test_bounded_counts_equal_enumeration_on_random_programs():
    rng = random.Random(20261019)
    battery = formula_battery()
    for k in range(300):
        program, events = random_program(rng)
        formulas = [battery[k % len(battery)], battery[(k + 3) % len(battery)],
                    *(random_formula(rng, RANDOM_ATOMS, rng.randint(1, 6)) for _ in range(2))]
        for depth in range(4):
            _assert_counts_are_enumeration(program, events, depth, formulas)


def test_bounded_counts_depth_guard_and_empty_alphabet(corpus_by_name):
    _, source, props = corpus_by_name["example1"]
    mutex = props.get("mutex")
    with pytest.raises(DepthTooLarge):
        bounded_counts(source.term, EVENTS, 9, mutex)
    none = dict.fromkeys(Bounded, 0)
    assert bounded_counts(source.term, (), 3, mutex) == none
    assert bounded_counts(source.term, (), 0, mutex) == {**none, Bounded.UNKNOWN: 1}


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
    "emits a lambda":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Cons e es -> "
        "case e of EvB -> Cons (\\x -> es) (f es) | _ -> Cons St0 (f es)",
    "gets stuck":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Cons e es -> "
        "case e of EvC -> (case St0 of St1 -> Nil) | _ -> Cons St0 (f es)",
    # a position keeps only the states of an event that its length allows
    "three states per event":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Nil -> Nil | Cons e es -> "
        "Cons (Pair e e) (Cons St1 (Cons St0 (f es)))",
    # f is reached after one state or after three, so a run cut short on one
    # path is taken further on another
    "three states after EvA, one after the others":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Nil -> Nil | Cons e es -> "
        "case e of EvA -> Cons St0 (Cons St1 (Cons (Pair e e) (f es))) "
        "| _ -> Cons (Pair e e) (f es)",
    # past the last event, the states of the Nil case fill the trace up
    "Nil branch emits states forever":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Nil -> Cons St1 (f es) "
        "| Cons a es -> case es of Nil -> Cons (Pair a a) (f es) "
        "| Cons b es -> Cons (Pair a b) (f es)",
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_enumerate_equals_run_trace_on_hand_built_programs(name):
    source = parse_program(HAND_BUILT_HEADER + HAND_BUILT[name])
    assert not source.diagnostics
    for events in (("EvA", "EvB", "EvC"), ("EvB", "EvA"), ("EvA",)):
        for depth in range(5):
            _assert_enumeration_is_run_trace(source.term, events, depth)


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_bounded_counts_equal_enumeration_on_hand_built_programs(name):
    source = parse_program(HAND_BUILT_HEADER + HAND_BUILT[name])
    assert not source.diagnostics
    for events in (("EvA", "EvB", "EvC"), ("EvB", "EvA")):
        for depth in range(5):
            _assert_counts_are_enumeration(source.term, events, depth, HAND_BUILT_FORMULAS)


def test_enumerate_empty_alphabet(corpus_by_name):
    _, source, _ = corpus_by_name["example1"]
    assert enumerate_traces(source.term, (), 3) == []
    assert enumerate_traces(source.term, (), 0) == [[obs("T", "T")]]


# the bounded values of these over the hand-built programs' traces reach
# atoms that fail on their Pair, event or St1 states
HAND_BUILT_FORMULAS = (
    Always(Implies(state_atom("St0"), Eventually(state_atom("St1")))),
    And(Eventually(FAULTY_ATOMS[0]), Next(FAULTY_ATOMS[1])),
    Or(Always(FAULTY_ATOMS[2]), Eventually(state_atom("St1"))),
)


# programs whose paths reach the same handler at the same event position
# after different numbers of reduction steps; under budgets from 0 to 60
# steps a state, the lazily bound enumeration raises or returns exactly what
# run_trace does on each sequence
UNEVEN_STEPS = {
    "slow branch into the same handler":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Cons e es -> case e of "
        "EvA -> Cons St1 (f es) | EvB -> (\\x -> x) (Cons St1 (f es)) "
        "| _ -> case St0 of St0 -> (case St1 of St1 -> Cons St0 (f es))",
    "state head costs steps":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Cons e es -> Cons "
        "(case e of EvA -> St1 | EvB -> (case St0 of St0 -> St1) "
        "| _ -> (\\x -> (\\y -> y) x) St0) (f es)",
    "detour through a handler":
        "Cons St0 (f es)\nwhere\n"
        "f = \\es -> case es of Cons e es -> case e of "
        "EvA -> Cons St1 (g es) | _ -> Cons St0 (h es)\n"
        "h = \\es -> case es of Cons e es -> Cons St1 (g es)\n"
        "g = \\es -> case es of Cons e es -> case e of "
        "EvC -> Nil | _ -> (\\x -> x) (Cons St0 (f es))",
}


@pytest.mark.parametrize("name", sorted(UNEVEN_STEPS))
def test_enumeration_with_little_fuel_equals_run_trace(name, monkeypatch):
    source = parse_program(HAND_BUILT_HEADER + UNEVEN_STEPS[name])
    assert not source.diagnostics
    for fuel in range(61):
        monkeypatch.setattr(semantics, "DEFAULT_FUEL", fuel)
        for events in (("EvA", "EvB", "EvC"), ("EvC", "EvB", "EvA")):
            for depth in range(4):
                _assert_enumeration_is_run_trace(source.term, events, depth)
                _assert_counts_are_enumeration(source.term, events, depth,
                                               HAND_BUILT_FORMULAS)


# programs with one state that diverges on its own, after event EvC: in its
# head, or in its stream cell
DIVERGES = {
    "state head":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Cons e es -> case e of "
        "EvC -> Cons (g St0) (f es) | _ -> Cons St1 (f es)\ng = \\x -> g x",
    "stream cell":
        "Cons St0 (f es)\nwhere\nf = \\es -> case es of Cons e es -> case e of "
        "EvC -> g es | _ -> Cons St1 (f es)\ng = \\es -> g es",
}


@pytest.mark.parametrize("name", sorted(DIVERGES))
def test_state_that_diverges_on_its_own_exhausts_its_budget(name, monkeypatch):
    monkeypatch.setattr(semantics, "DEFAULT_FUEL", 200)
    source = parse_program(HAND_BUILT_HEADER + DIVERGES[name])
    assert not source.diagnostics
    program = source.term
    assert run_trace(program, ["EvA", "EvB"] * 200, max_states=401)[-1] == Con("St1")
    with pytest.raises(semantics.FuelExhausted):
        run_trace(program, ["EvA", "EvC"], max_states=3)
    assert len(enumerate_traces(program, ("EvA", "EvB"), 3)) == 8
    with pytest.raises(semantics.FuelExhausted):
        enumerate_traces(program, ("EvA", "EvB", "EvC"), 2)
    for f in HAND_BUILT_FORMULAS:
        with pytest.raises(semantics.FuelExhausted):
            bounded_counts(program, ("EvA", "EvB", "EvC"), 2, f)


# programs that read an event again after later ones were bound: a memoised
# branch point must not be shared by paths that consumed different events
READ_CONSUMED_EVENTS = {
    "a where definition reads the first event":
        "Cons St0 (f es)\nwhere\n"
        "f = \\xs -> case xs of Cons e rest -> Cons (g St0) (f rest)\n"
        "g = \\x -> case es of Cons e r -> e",
    "the tail keeps the first event":
        "Cons St0 (f es es)\nwhere\nf = \\old -> \\xs -> case xs of Cons e rest -> "
        "Cons (case old of Cons a r -> Pair a e) (f old rest)",
    "a handler's where reads its list":
        "Cons St0 (f es)\nwhere\n"
        "f = \\xs -> case xs of Cons e rest -> Cons (g St0) (f rest)\n"
        "  where\n  g = \\x -> case xs of Cons a r -> a",
    # f's run on the last event is cut after its first state, and taken on
    # from an earlier position once other runs have set f's cell: its second
    # state must still read the event it matched
    "a handler rereads its event a state later":
        "Cons St0 (h es)\nwhere\n"
        "h = \\es -> case es of Cons e es -> case e of EvA -> Cons St0 (h es) "
        "| _ -> Cons St1 (f es)\n"
        "f = \\xs -> case xs of Cons e rest -> "
        "Cons St0 (Cons (case xs of Cons a r -> Pair a a) (f rest))",
}


@pytest.mark.parametrize("name", sorted(READ_CONSUMED_EVENTS))
def test_enumeration_of_programs_reading_consumed_events(name):
    source = parse_program(HAND_BUILT_HEADER + READ_CONSUMED_EVENTS[name])
    assert not source.diagnostics
    for events in (("EvA", "EvB", "EvC"), ("EvB", "EvA")):
        for depth in range(5):
            _assert_enumeration_is_run_trace(source.term, events, depth)
            _assert_counts_are_enumeration(source.term, events, depth,
                                           HAND_BUILT_FORMULAS)


# EvA steps through four states, so an atom on each decides differently
RING4 = """data Event = EvA | EvB
data State = St0 | St1 | St2 | St3
data TruthVal = True | False | Undefined
Cons St0 (h0 es)
where
h0 = \\es -> case es of Cons e es -> case e of EvA -> Cons St1 (h1 es) | _ -> Cons St0 (h0 es)
h1 = \\es -> case es of Cons e es -> case e of EvA -> Cons St2 (h2 es) | _ -> Cons St1 (h1 es)
h2 = \\es -> case es of Cons e es -> case e of EvA -> Cons St3 (h3 es) | _ -> Cons St2 (h2 es)
h3 = \\es -> case es of Cons e es -> case e of EvA -> Cons St0 (h0 es) | _ -> Cons St3 (h3 es)
"""


def test_atom_values_do_not_outlive_their_formula():
    # each round parses a property whose atom differs from the last round's,
    # uses it and drops it, so that a new atom's term now and then takes a
    # dropped one's address: a table of atom values that outlived its
    # formula, keyed on the id of the atom's term, would then answer for the
    # dropped atom. The expected values evaluate each atom by value. Each
    # round ends in a collection, so that its objects are freed even if a
    # reference cycle held them.
    source = parse_program(RING4)
    assert not source.diagnostics
    events = ("EvA", "EvB")
    traces = enumerate_traces(source.term, events, 3)
    for k in range(200):
        props = parse_properties(
            f"prop p: F {{ case s of St{k % 4} -> True | _ -> False }}\n", source.arities())
        assert not props.diagnostics
        f = props.get("p")
        verdict = generate(source.term, f, frozenset(events))
        report = validate_verdict(verdict, f)
        holds = reference_sat_lasso(report.lasso, f) is Bounded.SAT
        assert report.status is (Validation.VALID if holds == (verdict.truth is TRUE)
                                 else Validation.INVALID), k
        counts = dict.fromkeys(Bounded, 0)
        counts.update(Counter(reference_bounded_check(t, f) for t in traces))
        assert bounded_counts(source.term, events, 3, f) == counts, k
        del props, f, verdict, report
        gc.collect()


def test_checks_leave_no_reference_cycles(corpus_by_name):
    # a finished check's tables, trace DAG and where-block instances are
    # freed by reference counting alone, not left for the cyclic collector:
    # with the collector off, a collection after each call finds nothing
    from gen_programs import inner_where_ring
    from rtlcheck.verify import verify

    _, source, props = corpus_by_name["example3"]
    formula, fair, events = props.get("mutex"), props.fair, sorted(source.events)
    verdict = generate(source.term, formula, fair)
    ring = inner_where_ring(3)
    calls = {
        "trace_dag": lambda: semantics.trace_dag(source.term, events, 4),
        "bounded_counts": lambda: bounded_counts(source.term, events, 4, formula),
        "enumerate_traces": lambda: enumerate_traces(source.term, events, 2),
        "validate_verdict": lambda: validate_verdict(verdict, formula),
        "generate": lambda: generate(source.term, formula, fair),
        "verify": lambda: verify(source.term, formula, fair),
        "run_trace": lambda: run_trace(ring, ["EvA", "EvB"], cycle=True, max_states=20),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        found = {}
        for name, call in calls.items():
            call()
            found[name] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == dict.fromkeys(calls, 0)
