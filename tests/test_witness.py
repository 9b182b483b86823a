import hashlib
import random

import pytest

import rtlcheck.kleene as kleene
from rtlcheck.corpus import obs
from rtlcheck.kleene import FALSE, TRUE, UNDEFINED, Verdict
from rtlcheck.ltlsem import PositionedModel, sat_lasso
from rtlcheck.parser import parse_program
from rtlcheck.pretty import pretty_term
from rtlcheck.terms import Always, Atom, Con
from rtlcheck.verify import NotSimplified, verify
from rtlcheck.witness import Validation, generate, lassoify, validate_verdict

from gen_programs import formula_battery, random_fair, random_program


def test_example1_mutex_counterexample(corpus_by_name):
    entry, source, props = corpus_by_name["example1"]
    verdict = generate(source.term, props.get("mutex"), props.fair)
    assert verdict.truth is FALSE
    assert verdict.trace == entry.expected_traces["mutex"]


def test_example2_nonstarvation_counterexample(corpus_by_name):
    entry, source, props = corpus_by_name["example2"]
    verdict = generate(source.term, props.get("nonstarve1"), props.fair)
    assert verdict.truth is FALSE
    assert verdict.trace == entry.expected_traces["nonstarve1"]


SINGLE_LOOP = """\
data S = A
Cons A (f es)
where
f = \\es -> case es of Cons e es -> case e of _ -> Cons A (f es)
"""


def test_constant_loop_witness():
    source = parse_program(SINGLE_LOOP)
    verdict = generate(source.term, Always(Atom(Con("True"))))
    assert verdict == Verdict(TRUE, (Con("A"), Con("A")))


# truth and trace of every corpus check under the property file's fairness,
# each state written as the two process states of its ObsState
PINNED = {
    ("example1", "mutex"): (FALSE, "TT WT WW UW UU"),
    ("example1", "nonstarve1"): (TRUE, "TT WT WW UW TW WW UW"),
    ("example1", "nonstarve2"): (TRUE, "TT WT WW UW TW WW WU"),
    ("example2", "mutex"): (TRUE, "TT WT UT TT"),
    ("example2", "nonstarve1"): (FALSE, "TT WT WW WW"),
    ("example2", "nonstarve2"): (FALSE, "TT WT WW WW"),
    ("example3", "mutex"): (TRUE, "TT WT UT UW TW TU WU WT"),
    ("example3", "nonstarve1"): (TRUE, "TT WT UT UW TW TU WU WU WT UT"),
    ("example3", "nonstarve2"): (TRUE, "TT TW TU WU WT UT UW UW TW TU"),
}


def test_corpus_truth_and_traces_pinned(corpus):
    checked = set()
    for entry, source, props in corpus:
        for name in entry.expected_verdicts:
            truth, states = PINNED[entry.name, name]
            verdict = generate(source.term, props.get(name), props.fair)
            assert verdict.truth is truth, (entry.name, name)
            assert verdict.trace == tuple(obs(p1, p2) for p1, p2 in
                                          states.split()), (entry.name, name)
            checked.add((entry.name, name))
    assert checked == set(PINNED)


def _pin_line(verdict: Verdict) -> bytes:
    """One line per check: the truth and then the trace's states."""
    truth, trace = verdict
    return " ".join([truth.value] + [pretty_term(s) for s in trace]).encode() + b"\n"


# sha256 of one line per check, the truth and then the trace's states, over
# 1500 random checks; recorded before calls on fresh obligations were memoised
BATTERY_DIGEST = "1fdd058a8bbac543ea20390eb490a87b3b6b5729689f163ba5143af96a0e77ba"


def test_random_battery_truth_and_traces_pinned():
    rng = random.Random(20261018)
    battery = formula_battery()
    digest = hashlib.sha256()
    for i in range(1500):
        program, events = random_program(rng)
        fair = random_fair(rng, events)
        digest.update(_pin_line(generate(program, battery[i % len(battery)], fair)))
    assert digest.hexdigest() == BATTERY_DIGEST


# sha256 as above over rings and handler graphs deep enough that a G or F
# obligation is often decided many states before a revisit; recorded before
# the Cons rules of G and F stopped at a deciding head. A ring's response
# check nests about 8n frames (an F obligation opened at the last handler goes
# round the ring once more), so n stays below the recursion limit under pytest
DEEP_DIGEST = "ca252629bc0f1d4a1c16880cc6c6682d4e051f21539112e9e0c3d3eca1cf5085"


def test_deep_truth_and_traces_pinned():
    from gen_programs import handler_graph, ring_program, state_atom
    from rtlcheck.terms import Eventually

    battery = formula_battery() + [Always(Eventually(state_atom("St0")))]
    fair = frozenset(("EvA", "EvB"))
    programs = ([ring_program(n) for n in (20, 60, 100)]
                + [handler_graph(n) for n in (8, 10, 12)])
    digest = hashlib.sha256()
    for program in programs:
        for formula in battery:
            digest.update(_pin_line(generate(program, formula, fair)))
    assert digest.hexdigest() == DEEP_DIGEST


def test_not_simplified_guard():
    bad = parse_program("data S = A\ncase f es of Cons e es -> Cons A (f es)")
    with pytest.raises(NotSimplified):
        generate(bad.term, Always(Atom(Con("True"))))


# --- lassos ---------------------------------------------------------------------

def test_lassoify_loop_at_end():
    trace = (obs("T", "T"), obs("W", "T"), obs("W", "W"), obs("W", "W"))
    lasso = lassoify(trace)
    assert lasso.prefix == (obs("T", "T"), obs("W", "T"))
    assert lasso.loop == (obs("W", "W"),)


def test_lassoify_no_repetition():
    assert lassoify((Con("A"),)) == PositionedModel((Con("A"),), ())


def test_lassoify_earliest_repeat():
    a, b = Con("A"), Con("B")
    assert lassoify((a, b, a)) == PositionedModel((), (a, b))


def test_lassoify_empty_is_finite():
    assert lassoify(()) == PositionedModel((), ())


# --- validation -----------------------------------------------------------------

def test_validate_example1_mutex(corpus_by_name):
    entry, source, props = corpus_by_name["example1"]
    verdict = generate(source.term, props.get("mutex"), props.fair)
    report = validate_verdict(verdict, props.get("mutex"))
    # no state repeats, but the prefix violation is decisive for safety
    assert report.status is Validation.VALID
    assert verdict.trace[4] == obs("U", "U")


def test_validate_example2_nonstarve(corpus_by_name):
    entry, source, props = corpus_by_name["example2"]
    verdict = generate(source.term, props.get("nonstarve1"), props.fair)
    report = validate_verdict(verdict, props.get("nonstarve1"))
    assert report.status is Validation.VALID
    assert report.lasso.loop == (obs("W", "W"),)


def test_validate_undefined_is_inconclusive(corpus_by_name):
    _, _, props = corpus_by_name["example1"]
    verdict = Verdict(UNDEFINED, (obs("T", "T"),))
    report = validate_verdict(verdict, props.get("mutex"))
    assert report.status is Validation.INCONCLUSIVE


def test_validate_all_corpus_lassos(corpus):
    # every True/False corpus verdict with a nonempty lasso must check out
    for entry, source, props in corpus:
        for name in entry.expected_verdicts:
            formula = props.get(name)
            verdict = generate(source.term, formula, props.fair)
            if verdict.truth is UNDEFINED:
                continue
            report = validate_verdict(verdict, formula)
            if report.lasso.loop:
                assert report.status is Validation.VALID, (entry.name, name)


def test_validate_flags_contradicting_trace(corpus_by_name):
    _, _, props = corpus_by_name["example1"]
    # claims mutex holds forever on a trace that visits the contested state
    bogus = Verdict(TRUE, (obs("U", "U"), obs("T", "T"), obs("U", "U")))
    report = validate_verdict(bogus, props.get("mutex"))
    assert report.status is Validation.INVALID


MIXED_STATE_LOOP = """\
data GEvent = EvA | EvB | EvC | EvD
data GState = St0 | St1 | St2
Cons St1 (g0 es)
where
g0 = \\es -> case es of Cons e es -> case e of EvA -> Cons St2 (g1 es) | _ -> Cons St1 (g0 es)
g1 = \\es -> case es of Cons e es -> case e of EvA -> Cons St1 (g2 es) | _ -> Cons St2 (g1 es)
g2 = \\es -> case es of Cons e es -> case e of EvA -> Cons St0 (g3 es) | _ -> Cons St1 (g2 es)
g3 = \\es -> case es of Cons e es -> case e of _ -> Cons St2 (g3 es)
"""


def test_state_repetition_lassos_are_heuristic():
    # Loop detection keys on repeated states. When distinct handlers emit
    # equal states (g1 is entered on St2 and g0 also emits St2... here the
    # St2 at position 1 coincides with the final St2 from g3's loop), the
    # inferred loop can denote the wrong infinite trace and validation then
    # misjudges a correct verdict. The truth value itself stays sound.
    source = parse_program(MIXED_STATE_LOOP)
    assert source.term is not None, source.diagnostics
    formula = formula_battery()[2]  # always (St0 implies eventually St1)
    fair = frozenset(("EvA", "EvB", "EvC", "EvD"))
    verdict = generate(source.term, formula, fair)
    assert verdict.truth is FALSE
    assert verdict.truth is verify(source.term, formula, fair)
    lasso = lassoify(verdict.trace)
    # earliest repeat of the final state picks position 1, not g3's loop
    assert lasso.prefix == (Con("St1"),)
    assert lasso.loop == (Con("St2"), Con("St1"), Con("St0"))
    report = validate_verdict(verdict, formula)
    assert report.status is Validation.INVALID


INITIAL_STATE_LOOP = """\
data GEvent = EvA | EvB | EvC | EvD
data GState = St0 | St1 | St2
Cons St2 (g0 es)
where
g0 = \\es -> case es of Cons e es -> case e of _ -> Cons St1 (g1 es)
g1 = \\es -> case es of Cons e es -> case e of _ -> Cons St0 (g2 es)
g2 = \\es -> case es of Cons e es -> case e of _ -> Cons St2 (g2 es)
"""


@pytest.mark.parametrize("fair", [frozenset(), frozenset(("EvA", "EvB"))])
def test_lasso_misjudged_without_an_earlier_repeat(fair):
    # Known defect, pinned: no state repeats before the final St2, yet the
    # loop closes at the initial St2 instead of g2's self-loop, so the
    # induced trace cycles through St0 and St1 forever and validation
    # misjudges a correct counterexample.
    source = parse_program(INITIAL_STATE_LOOP)
    assert source.term is not None, source.diagnostics
    formula = formula_battery()[2]  # always (St0 implies eventually St1)
    verdict = generate(source.term, formula, fair)
    assert verdict.truth is FALSE
    assert verdict.trace == (Con("St2"), Con("St1"), Con("St0"), Con("St2"))
    earlier = verdict.trace[:-1]
    assert len(set(earlier)) == len(earlier)
    assert lassoify(verdict.trace) == PositionedModel((), earlier)
    assert validate_verdict(verdict, formula).status is Validation.INVALID


def _validation_line(verdict: Verdict, formula) -> bytes:
    """``_pin_line`` followed by the lasso's prefix and loop lengths and the status."""
    report = validate_verdict(verdict, formula)
    lasso = report.lasso
    return _pin_line(verdict)[:-1] + (f" | {len(lasso.prefix)} {len(lasso.loop)} "
                                      f"{report.status}\n").encode()


# sha256 of _validation_line over every corpus check with all events fair
# (the property file's fairness, which --fair-all equals) and with none, then
# over the 600 random checks of test_invalid_validation_needs_an_earlier_repeat
VALIDATION_DIGEST = "b961d55afc6592a592d2c5f487895b7c79a0ac0fd76a7ac132667b83f1f52586"


def test_validation_reports_pinned(corpus):
    digest = hashlib.sha256()
    for entry, source, props in corpus:
        assert props.fair == frozenset(source.events)
        for fair in (props.fair, frozenset()):
            for name in entry.expected_verdicts:
                formula = props.get(name)
                digest.update(_validation_line(
                    generate(source.term, formula, fair), formula))
    rng = random.Random(987)
    battery = formula_battery()
    for i in range(600):
        program, events = random_program(rng)
        fair = random_fair(rng, events)
        formula = battery[i % len(battery)]
        digest.update(_validation_line(generate(program, formula, fair), formula))
    assert digest.hexdigest() == VALIDATION_DIGEST


def test_sat_lasso_rejects_an_empty_loop():
    with pytest.raises(ValueError):
        sat_lasso(PositionedModel((Con("A"),), ()), Always(Atom(Con("True"))))


# --- trace selection instrumentation ----------------------------------------------

def test_selected_traces_respect_evidence_policy(corpus, monkeypatch):
    # every binary combination and every fold goes through _combine
    observed = []
    combine = kleene._combine

    def spy(annihilator, v1, v2):
        out = combine(annihilator, v1, v2)
        observed.append(("and" if annihilator is FALSE else "or", v1, v2, out))
        return out

    monkeypatch.setattr(kleene, "_combine", spy)
    for entry, source, props in corpus:
        for name in entry.expected_verdicts:
            generate(source.term, props.get(name), props.fair)
    assert observed
    for op, v1, v2, out in observed:
        assert out.trace in (v1.trace, v2.trace)
        matching = [v.trace for v in (v1, v2) if v.truth is out.truth]
        if len(matching) == 2:
            lengths = sorted(len(t) for t in matching)
            covering = (op == "and" and out.truth is TRUE) or \
                       (op == "or" and out.truth is FALSE)
            expected_len = lengths[1] if covering else lengths[0]
            assert len(out.trace) == expected_len
        else:
            assert out.trace == matching[0]


# --- randomized validation ---------------------------------------------------------

def test_invalid_validation_needs_an_earlier_repeat():
    # Validation closes the loop at the earliest earlier occurrence of the
    # final state. On these 600 checks every decided verdict that validates
    # as Invalid also repeats a state before the final one (see
    # test_state_repetition_lassos_are_heuristic). That is a property of
    # this seed, not a rule: with random.Random(1), check 499 validates
    # Invalid without an earlier repeat, the defect pinned by
    # test_lasso_misjudged_without_an_earlier_repeat.
    rng = random.Random(987)
    battery = formula_battery()
    decided = invalid = 0
    for i in range(600):
        program, events = random_program(rng)
        fair = random_fair(rng, events)
        formula = battery[i % len(battery)]
        verdict = generate(program, formula, fair)
        if verdict.truth is UNDEFINED:
            continue
        decided += 1
        if validate_verdict(verdict, formula).status is Validation.INVALID:
            invalid += 1
            earlier = verdict.trace[:-1]
            assert len(set(earlier)) < len(earlier), (i, verdict)
    assert decided > 400 and invalid > 0


def test_atom_evaluated_once_per_node_and_state_per_run(monkeypatch):
    import rtlcheck.witness as witness
    from gen_programs import ring_program, state_atom
    from rtlcheck.terms import Eventually, Implies
    from rtlcheck.verify import Budget

    calls = []
    truth_of = witness.atom_truth

    def counted(term, state):
        calls.append((term, state))
        return truth_of(term, state)

    monkeypatch.setattr(witness, "atom_truth", counted)
    program = ring_program(12)
    formula = Always(Implies(state_atom("St0"), Eventually(state_atom("St2"))))
    budget = Budget()
    first = generate(program, formula, frozenset(("EvA", "EvB")), budget)
    evaluated = len(calls)
    assert evaluated == len(set(calls))
    # the table is emptied per run: a second run evaluates the same atoms again
    again = generate(program, formula, frozenset(("EvA", "EvB")), budget)
    assert again == first and len(calls) == 2 * evaluated
    monkeypatch.undo()
    assert generate(program, formula, frozenset(("EvA", "EvB")), Budget()) == first
