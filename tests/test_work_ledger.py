"""A work ledger: the exact rule applications of fixed checks.

Rule applications (``Budget.used``) do not depend on the machine, so a
change that makes the engine do more or less work shows here on any host,
where timings are too noisy to tell. A change that moves a count names the
old and new counts in CHANGES.md and updates the ledger.
"""

from rtlcheck.verify import Budget, verify
from rtlcheck.witness import generate
from rtlcheck.terms import Always, Eventually

from gen_programs import formula_battery, handler_graph, ring_program, state_atom

# each corpus property under --fair-all (every event of the program fair)
CORPUS_LEDGER = {
    ("example1", "mutex"): 153,
    ("example1", "nonstarve1"): 470,
    ("example1", "nonstarve2"): 470,
    ("example2", "mutex"): 63,
    ("example2", "nonstarve1"): 117,
    ("example2", "nonstarve2"): 117,
    ("example3", "mutex"): 291,
    ("example3", "nonstarve1"): 551,
    ("example3", "nonstarve2"): 551,
}

# response, G (St0 => F St1), on handler graphs fair to EvA and EvB, and
# G F St0 on rings, which the G and F head stops keep linear
GENERATED_LEDGER = {
    ("handler_graph", 8): 593,
    ("handler_graph", 12): 5963,
    ("handler_graph", 16): 30539,
    ("ring_program", 60): 614,
    ("ring_program", 120): 1214,
}


# verify's rule applications, those of the right-hand sides the solver
# evaluates, on the same corpus checks, and on F St2 on rings fair to EvA and
# EvB; a variable popped at a value final for its block is not evaluated again
SOLVER_CORPUS_LEDGER = {
    ("example1", "mutex"): 125,
    ("example1", "nonstarve1"): 177,
    ("example1", "nonstarve2"): 177,
    ("example2", "mutex"): 58,
    ("example2", "nonstarve1"): 109,
    ("example2", "nonstarve2"): 109,
    ("example3", "mutex"): 91,
    ("example3", "nonstarve1"): 186,
    ("example3", "nonstarve2"): 186,
}

SOLVER_GENERATED_LEDGER = {
    ("ring_program", 60): 939,
    ("ring_program", 120): 1899,
}


def _used(program, formula, fair, engine=generate) -> int:
    budget = Budget()
    engine(program, formula, fair, budget)
    return budget.used


def _diff(pinned: dict, got: dict) -> str:
    return "\n".join(f"{key}: pinned {count}, now {got.get(key)}"
                     for key, count in pinned.items() if got.get(key) != count)


def test_corpus_rule_applications(corpus):
    got = {(entry.name, name): _used(source.term, props.get(name),
                                     frozenset(source.events))
           for entry, source, props in corpus
           for name in entry.expected_verdicts}
    diff = _diff(CORPUS_LEDGER, got)
    assert not diff, diff
    assert got.keys() == CORPUS_LEDGER.keys()
    assert sum(got.values()) == 2783


def test_generated_rule_applications():
    fair = frozenset(("EvA", "EvB"))
    response = formula_battery()[2]
    recurrence = Always(Eventually(state_atom("St0")))
    got = {}
    for n in (8, 12, 16):
        got["handler_graph", n] = _used(handler_graph(n), response, fair)
    for n in (60, 120):
        got["ring_program", n] = _used(ring_program(n), recurrence, fair)
    diff = _diff(GENERATED_LEDGER, got)
    assert not diff, diff


def test_solver_corpus_rule_applications(corpus):
    got = {(entry.name, name): _used(source.term, props.get(name),
                                     frozenset(source.events), verify)
           for entry, source, props in corpus
           for name in entry.expected_verdicts}
    diff = _diff(SOLVER_CORPUS_LEDGER, got)
    assert not diff, diff
    assert got.keys() == SOLVER_CORPUS_LEDGER.keys()
    assert sum(got.values()) == 1218


def test_solver_generated_rule_applications():
    fair = frozenset(("EvA", "EvB"))
    eventually = Eventually(state_atom("St2"))
    got = {("ring_program", n): _used(ring_program(n), eventually, fair, verify)
           for n in (60, 120)}
    diff = _diff(SOLVER_GENERATED_LEDGER, got)
    assert not diff, diff
