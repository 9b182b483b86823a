import itertools

from rtlcheck.kleene import (
    FALSE, TRUE, TruthVal, UNDEFINED, Verdict, and_v, imp_v, not3, not_v, or_v,
)
from rtlcheck.terms import Con

VALS = (TRUE, FALSE, UNDEFINED)

A, B, C = Con("A"), Con("B"), Con("C")
T1 = (A,)
T2 = (A, B)
T3 = (A, B, C)

# hand-written strong Kleene tables, the oracle for the exhaustive checks;
# or follows by De Morgan and implication as (not a) or b
AND_TABLE = {
    (TRUE, TRUE): TRUE, (TRUE, FALSE): FALSE, (TRUE, UNDEFINED): UNDEFINED,
    (FALSE, TRUE): FALSE, (FALSE, FALSE): FALSE, (FALSE, UNDEFINED): FALSE,
    (UNDEFINED, TRUE): UNDEFINED, (UNDEFINED, FALSE): FALSE,
    (UNDEFINED, UNDEFINED): UNDEFINED,
}
NOT_TABLE = {TRUE: FALSE, FALSE: TRUE, UNDEFINED: UNDEFINED}
OR_TABLE = {(a, b): NOT_TABLE[AND_TABLE[NOT_TABLE[a], NOT_TABLE[b]]]
            for a in VALS for b in VALS}
IMP_TABLE = {(a, b): OR_TABLE[NOT_TABLE[a], b] for a in VALS for b in VALS}


# the truth of the engine's connectives on verdicts with different traces

def and_t(a: TruthVal, b: TruthVal) -> TruthVal:
    return and_v(Verdict(a, T1), Verdict(b, T2)).truth


def or_t(a: TruthVal, b: TruthVal) -> TruthVal:
    return or_v(Verdict(a, T1), Verdict(b, T2)).truth


def imp_t(a: TruthVal, b: TruthVal) -> TruthVal:
    return imp_v(Verdict(a, T1), Verdict(b, T2)).truth


def not_t(a: TruthVal) -> TruthVal:
    return not_v(Verdict(a, T1)).truth


def test_tables_exhaustive():
    for a, b in itertools.product(VALS, VALS):
        assert and_t(a, b) is AND_TABLE[a, b]
        assert or_t(a, b) is OR_TABLE[a, b]
        assert imp_t(a, b) is IMP_TABLE[a, b]
    for a in VALS:
        assert not3(a) is NOT_TABLE[a]
        assert not_t(a) is NOT_TABLE[a]


def test_spot_values():
    assert and_t(TRUE, UNDEFINED) is UNDEFINED
    assert or_t(TRUE, UNDEFINED) is TRUE
    assert not_t(UNDEFINED) is UNDEFINED


def test_commutative_associative():
    for a, b in itertools.product(VALS, VALS):
        assert and_t(a, b) is and_t(b, a)
        assert or_t(a, b) is or_t(b, a)
    for a, b, c in itertools.product(VALS, VALS, VALS):
        assert and_t(and_t(a, b), c) is and_t(a, and_t(b, c))
        assert or_t(or_t(a, b), c) is or_t(a, or_t(b, c))


def test_de_morgan():
    for a, b in itertools.product(VALS, VALS):
        assert not_t(and_t(a, b)) is or_t(not_t(a), not_t(b))
        assert not_t(or_t(a, b)) is and_t(not_t(a), not_t(b))


def _refinements(a: TruthVal):
    return VALS if a is UNDEFINED else (a,)


def test_monotone_in_information_order():
    # refining an Undefined operand never flips True to False or back
    for a, b in itertools.product(VALS, VALS):
        for a2, b2 in itertools.product(_refinements(a), _refinements(b)):
            for f in (and_t, or_t, imp_t):
                before, after = f(a, b), f(a2, b2)
                if before in (TRUE, FALSE):
                    assert after is before


# --- verdicts -----------------------------------------------------------------

def test_result_always_equals_an_operand():
    # the min set of the verdict rule is never empty
    for a, b in itertools.product(VALS, VALS):
        assert and_t(a, b) in (a, b)
        assert or_t(a, b) in (a, b)


def test_verdict_truth_projection():
    # the truth does not depend on which operand carries the longer trace
    for a, b in itertools.product(VALS, VALS):
        for t1, t2 in ((T1, T2), (T2, T1), (T1, T1)):
            assert and_v(Verdict(a, t1), Verdict(b, t2)).truth is AND_TABLE[a, b]
            assert or_v(Verdict(a, t1), Verdict(b, t2)).truth is OR_TABLE[a, b]
            assert imp_v(Verdict(a, t1), Verdict(b, t2)).truth is IMP_TABLE[a, b]
        assert not_v(Verdict(a, T2)).truth is NOT_TABLE[a]


def test_verdict_trace_is_an_operand_trace():
    for a, b in itertools.product(VALS, VALS):
        for op in (and_v, or_v, imp_v):
            out = op(Verdict(a, T1), Verdict(b, T3))
            assert out.trace in (T1, T3)


def test_and_single_matching_operand():
    assert and_v(Verdict(TRUE, T1), Verdict(FALSE, T3)) == Verdict(FALSE, T3)


def test_and_false_takes_min():
    assert and_v(Verdict(FALSE, T2), Verdict(FALSE, T1)) == Verdict(FALSE, T1)


def test_or_single_matching_undefined():
    # Kleene or of False and Undefined is Undefined, carried by one operand;
    # verified against exhaustive truth tables above
    assert or_v(Verdict(FALSE, T1), Verdict(UNDEFINED, T2)) == Verdict(UNDEFINED, T2)


def test_identity_results_keep_covering_trace():
    # both operands carry the result: and-True and or-False keep the longer
    assert and_v(Verdict(TRUE, T1), Verdict(TRUE, T2)) == Verdict(TRUE, T2)
    assert or_v(Verdict(FALSE, T1), Verdict(FALSE, T2)) == Verdict(FALSE, T2)


def test_ties_go_left():
    left, right = (A,), (B,)
    assert and_v(Verdict(TRUE, left), Verdict(TRUE, right)).trace == left
    assert and_v(Verdict(FALSE, left), Verdict(FALSE, right)).trace == left
    assert or_v(Verdict(FALSE, left), Verdict(FALSE, right)).trace == left
    assert and_v(Verdict(UNDEFINED, left), Verdict(UNDEFINED, right)).trace == left


def test_imp_is_or_of_not():
    for a, b in itertools.product(VALS, VALS):
        v1, v2 = Verdict(a, T1), Verdict(b, T2)
        assert imp_v(v1, v2) == or_v(not_v(v1), v2)

