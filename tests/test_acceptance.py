"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines. Every expected value here is exact; there are no tolerances.
"""

import itertools
import random

from rtlcheck.corpus import obs
from rtlcheck.lts import extract_lts
from rtlcheck.ltlsem import Bounded, bounded_check, enumerate_traces
from rtlcheck.parser import parse_program
from rtlcheck.semantics import run_trace
from rtlcheck.terms import FALSE, TRUE, UNDEFINED, Always, Atom, Con, Implies
from rtlcheck.verify import Budget, verify
from rtlcheck.witness import Validation, generate, validate_verdict

from gen_programs import formula_battery, random_fair, random_program
from test_kleene import (
    AND_TABLE, IMP_TABLE, NOT_TABLE, OR_TABLE, and_t, imp_t, not_t, or_t,
)
from test_lts import walk

EVENTS = ("Request1", "Request2", "Take1", "Take2", "Release1", "Release2")
SEED = 20260808


def _report(number: int, label: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_1_verdict_matrix(corpus):
    ok = True
    for entry, source, props in corpus:
        for name, expected in entry.expected_verdicts.items():
            got = verify(source.term, props.get(name), props.fair)
            ok = ok and (got is expected)
    _report(1, "verdict matrix matches the expected corpus verdicts exactly", ok)


def test_criterion_2_golden_counterexample_traces(corpus):
    expected = {
        ("example1", "mutex"): (obs("T", "T"), obs("W", "T"), obs("W", "W"),
                                obs("U", "W"), obs("U", "U")),
        ("example2", "nonstarve1"): (obs("T", "T"), obs("W", "T"),
                                     obs("W", "W"), obs("W", "W")),
    }
    ok = True
    for entry, source, props in corpus:
        for name in entry.expected_verdicts:
            want = expected.get((entry.name, name))
            if want is None:
                continue
            verdict = generate(source.term, props.get(name), props.fair)
            ok = ok and verdict.truth is FALSE and verdict.trace == want
    _report(2, "golden counterexample traces match byte-exactly", ok)


def test_criterion_3_trace_validity(corpus):
    ok = True
    checked = 0
    for entry, source, props in corpus:
        for name in entry.expected_verdicts:
            formula = props.get(name)
            verdict = generate(source.term, formula, props.fair)
            if verdict.truth is UNDEFINED:
                continue
            report = validate_verdict(verdict, formula)
            if report.lasso.loop:
                checked += 1
                ok = ok and report.status is Validation.VALID
    ok = ok and checked >= 7
    _report(3, f"every decided verdict with a lasso validates ({checked} checked)", ok)


def test_criterion_4_mirror_on_corpus_and_random_programs(corpus):
    ok = True
    for entry, source, props in corpus:
        for name in entry.expected_verdicts:
            formula = props.get(name)
            ok = ok and generate(source.term, formula, props.fair).truth is \
                verify(source.term, formula, props.fair)

    rng = random.Random(SEED)
    battery = formula_battery()
    programs = 0
    while programs < 500:
        program, events = random_program(rng, max_funcs=6, n_events=4)
        programs += 1
        for k in range(2):
            formula = battery[(programs + k) % len(battery)]
            fair = random_fair(rng, events)
            ok = ok and generate(program, formula, fair).truth is \
                verify(program, formula, fair)
    _report(4, f"truth(generate) = verify on corpus and {programs} random "
               "programs", ok)


def test_criterion_5_termination_within_budget(corpus):
    limit = 10 ** 6
    ok = True
    for entry, source, props in corpus:
        for name in entry.expected_verdicts:
            formula = props.get(name)
            b1, b2 = Budget(limit), Budget(limit)
            verify(source.term, formula, props.fair, budget=b1)
            generate(source.term, formula, props.fair, budget=b2)
            ok = ok and b1.used < limit and b2.used < limit

    rng = random.Random(SEED + 1)
    battery = formula_battery()
    for i in range(200):
        program, events = random_program(rng)
        formula = battery[i % len(battery)]
        fair = random_fair(rng, events)
        b1, b2 = Budget(limit), Budget(limit)
        verify(program, formula, fair, budget=b1)
        generate(program, formula, fair, budget=b2)
        ok = ok and b1.used < limit and b2.used < limit
    _report(5, "verify and generate halt within 10^6 rule applications", ok)


# a program whose first state is where an atom is read; each atom's term is
# the truth value it evaluates to
ONE_STATE = parse_program("data S = A\nCons A (f es)\nwhere\n"
                          "f = \\es -> case es of Cons e es -> Cons A (f es)").term
ATOMS = {v: Atom(Con(str(v))) for v in (TRUE, FALSE, UNDEFINED)}


def test_criterion_6_kleene_algebra():
    vals = (TRUE, FALSE, UNDEFINED)
    ok = True
    for a, b in itertools.product(vals, vals):
        ok = ok and and_t(a, b) is AND_TABLE[a, b] and or_t(a, b) is OR_TABLE[a, b]
        ok = ok and imp_t(a, b) is IMP_TABLE[a, b] and not_t(a) is NOT_TABLE[a]
        ok = ok and and_t(a, b) is and_t(b, a) and or_t(a, b) is or_t(b, a)
        ok = ok and not_t(and_t(a, b)) is or_t(not_t(a), not_t(b))
        ok = ok and not_t(or_t(a, b)) is and_t(not_t(a), not_t(b))
        # the verifier's implication rule, on atoms that evaluate to a and b
        implies = Implies(ATOMS[a], ATOMS[b])
        ok = ok and generate(ONE_STATE, implies).truth is IMP_TABLE[a, b]
    for a, b, c in itertools.product(vals, vals, vals):
        ok = ok and and_t(and_t(a, b), c) is and_t(a, and_t(b, c))
        ok = ok and or_t(or_t(a, b), c) is or_t(a, or_t(b, c))
    _report(6, "Kleene tables, De Morgan, and verdict truth projection", ok)


def test_criterion_7_lts_golden_and_simulation_agreement(corpus):
    expected = {"example1": (9, 16), "example2": (6, 8), "example3": (9, 14)}
    ok = True
    for entry, source, _ in corpus:
        graph = extract_lts(source.term, EVENTS)
        nodes, edges = expected[entry.name]
        non_self = [e for e in graph.edges if e.src != e.dst]
        ok = ok and len(graph.nodes) == nodes and len(non_self) == edges
        for seq in itertools.product(EVENTS, repeat=3):
            if walk(graph, seq) != run_trace(source.term, seq, max_states=4):
                ok = False
                break
    _report(7, "LTS node/edge counts and exhaustive depth-3 simulation "
               "agreement", ok)


def test_criterion_8_bounded_soundness_sampling(corpus):
    from rtlcheck.terms import Atom

    ok = True
    sampled = 0
    for entry, source, props in corpus:
        for name, expected in entry.expected_verdicts.items():
            formula = props.get(name)
            is_safety = isinstance(formula, Always) and isinstance(formula.sub, Atom)
            if expected is not TRUE or not is_safety:
                continue
            for trace in enumerate_traces(source.term, EVENTS, 5):
                sampled += 1
                if bounded_check(tuple(trace), formula) is Bounded.UNSAT:
                    ok = False
                    break
    ok = ok and sampled >= 2 * 6 ** 5
    _report(8, f"no depth-5 prefix contradicts a True safety verdict "
               f"({sampled} traces)", ok)
