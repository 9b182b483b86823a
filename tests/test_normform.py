import random

import pytest

from rtlcheck.normform import check_simplified, is_state_term
from rtlcheck.parser import parse_program
from rtlcheck.semantics import StuckError, run_trace
from rtlcheck.terms import (
    Alt, App, Case, Con, Fun, Lam, Let, PCon, Term, Var, WILD, Where,
    free_vars, spine,
)

from gen_programs import random_program


def fun_names(t: Term) -> frozenset[str]:
    """Function names referenced in ``t`` and not bound by an inner where."""
    match t:
        case Fun(name):
            return frozenset((name,))
        case Var(_):
            return frozenset()
        case Con(_, args):
            return frozenset().union(*map(fun_names, args))
        case Lam(_, body):
            return fun_names(body)
        case App(fn, arg):
            return fun_names(fn) | fun_names(arg)
        case Case(scrutinee, alts):
            return fun_names(scrutinee).union(*(fun_names(a.body) for a in alts))
        case Let(_, bound, body):
            return fun_names(bound) | fun_names(body)
        case Where(body, defs):
            inner = fun_names(body).union(*(fun_names(d) for _, d in defs))
            return inner - {f for f, _ in defs}
    raise TypeError(f"not a term: {t!r}")


def only_tail_calls(t: Term) -> bool:
    """Structural consequence of the grammar: function calls only in tail spots.

    A function call may appear only as the head of a call spine, in the tail
    of a Cons cell, or inside arguments of a let-variable application; never
    as the operand of a call or inside a state term. An independent
    cross-check of what ``check_simplified`` accepts.
    """
    match t:
        case Con("Cons", (e0, e1)):
            return not fun_names(e0) and only_tail_calls(e1)
        case Con(_, args):
            return all(not fun_names(a) for a in args)
        case Case(scrut, alts):
            return not fun_names(scrut) and all(only_tail_calls(a.body) for a in alts)
        case Let(_, bound, body):
            return only_tail_calls(_peel(bound)) and only_tail_calls(body)
        case Where(body, defs):
            return only_tail_calls(body) and all(
                only_tail_calls(_peel(d)) for _, d in defs)
        case Var(_) | Fun(_):
            return True
        case Lam(_, body):
            return only_tail_calls(body)
        case _:
            head, args = spine(t)
            if isinstance(head, Fun):
                return all(not fun_names(a) for a in args)
            return all(only_tail_calls(a) for a in args) and only_tail_calls(head)


def _peel(t: Term) -> Term:
    while isinstance(t, Lam):
        t = t.body
    return t


def test_corpus_programs_conform(corpus):
    for entry, source, _ in corpus:
        report = check_simplified(source.term)
        assert report.conforms, (entry.name, report.violations)
        assert report.violations == ()


def test_conforms_iff_no_violations():
    good = check_simplified(Con("Cons", (Con("Nil"), Fun("f"))))
    assert good.conforms and not good.violations


def test_case_scrutinee_must_be_variable():
    t = Case(App(Fun("f"), Var("x")), (Alt(WILD, Con("Cons", (Var("s"), Fun("g")))),))
    report = check_simplified(t)
    assert not report.conforms
    assert any("scrutinee must be a variable" in v.message for v in report.violations)


def test_case_on_let_bound_variable_rejected():
    t = Let("x", Lam("y", Fun("f")),
            Case(Var("x"), (Alt(WILD, Fun("g")),)))
    report = check_simplified(t)
    assert not report.conforms
    assert any(v.rule == "case" and "let-bound" in v.message
               for v in report.violations)


def test_call_arguments_must_be_variables():
    t = App(Fun("f"), Con("A"))
    report = check_simplified(t)
    assert not report.conforms
    assert any(v.rule == "call" for v in report.violations)


def test_let_must_bind_lambda():
    t = Let("x", Fun("f"), App(Var("x"), Fun("g")))
    report = check_simplified(t)
    assert any(v.rule == "let" for v in report.violations)


def test_rho_application_requires_let_binding():
    report = check_simplified(App(Var("x"), Fun("f")))
    assert not report.conforms
    assert any(v.rule == "rho-app" for v in report.violations)


def test_let_variable_application_accepted():
    t = Let("h", Lam("y", Fun("f")), App(Var("h"), Fun("g")))
    assert check_simplified(t).conforms


def test_strict_state_position():
    t = Con("Cons", (App(Fun("f"), Var("x")), Fun("g")))
    assert not check_simplified(t).conforms


def test_non_cons_constructor_rejected():
    report = check_simplified(Con("Nil"))
    assert not report.conforms


def test_violation_carries_offending_subterm():
    scrut = App(Fun("f"), Var("x"))
    t = Case(scrut, (Alt(WILD, Fun("g")),))
    report = check_simplified(t)
    offender = next(v for v in report.violations if v.rule == "case")
    assert offender.term == scrut


def test_reports_are_deterministic(corpus):
    for _, source, _ in corpus:
        assert check_simplified(source.term) == check_simplified(source.term)


def test_accepted_random_programs_target_tail_calls_only():
    rng = random.Random(42)
    for _ in range(60):
        program, _ = random_program(rng)
        report = check_simplified(program)
        assert report.conforms, report.violations
        assert only_tail_calls(program)


def test_only_tail_calls_flags_call_in_state():
    t = Con("Cons", (Con("Wrap1", (Fun("f"),)), Fun("g")))
    assert not only_tail_calls(t)


def test_is_state_term():
    assert is_state_term(Con("ObsState", (Con("T"), Con("F"))))
    assert is_state_term(Con("St0"))
    assert not is_state_term(App(Fun("f"), Var("x")))
    # no variable, let-bound or not, at the top or inside: the verifier binds none
    assert not is_state_term(Var("x"))
    assert not is_state_term(Con("ObsState", (Con("T"), Var("x"))))


def _handler(body: Term) -> Term:
    """``\\es -> case es of Cons e r -> body``"""
    return Lam("es", Case(Var("es"), (Alt(PCon("Cons", ("e", "r")), body),)))


def _emit(call: Term) -> Term:
    return Con("Cons", (Con("St0"), call))


def test_a_second_free_variable_is_reported_once_where_first_used():
    body = Case(Var("e"), (Alt(PCon("EvA"), _emit(App(Fun("f"), Var("y")))),
                           Alt(WILD, _emit(App(App(Fun("f"), Var("y")), Var("z"))))))
    t = Where(_emit(App(Fun("f"), Var("es"))), (("f", _handler(body)),))
    report = check_simplified(t)
    assert [(v.path, v.rule, v.message) for v in report.violations] == [
        ("program.f.alt0.alt0.tail", "scope",
         "free variable y: only the event list es may be free"),
        ("program.f.alt0.alt1.tail", "scope",
         "free variable z: only the event list es may be free"),
    ]
    assert report.violations[0].term == App(Fun("f"), Var("y"))


def test_every_binder_binds_for_the_scope_rule():
    # lambda and where parameters, case patterns and lets; es alone is free
    body = Case(Var("e"), (
        Alt(PCon("EvA"), _emit(App(Fun("f"), Var("r")))),
        Alt(WILD, Let("k", Lam("x", _emit(App(Fun("f"), Var("x")))),
                      App(Var("k"), _emit(App(Fun("f"), Var("es"))))))))
    t = Where(_emit(App(Fun("f"), Var("es"))), (("f", _handler(body)),))
    assert check_simplified(t).conforms
    # a case on a free variable is a use of it
    t = Where(_emit(App(Fun("f"), Var("es"))),
              (("f", _handler(Case(Var("y"), (Alt(WILD, _emit(Fun("f"))),)))),))
    assert [v.rule for v in check_simplified(t).violations] == ["scope"]
    # a let's name is not bound in the term it binds
    t = Let("k", Lam("x", _emit(App(Fun("f"), Var("k")))),
            App(Var("k"), _emit(App(Fun("f"), Var("es")))))
    assert [v.rule for v in check_simplified(t).violations] == ["scope"]


def _rename_nth_var(t: Term, n: list[int], new: str) -> Term:
    """``t`` with its ``n[0]``-th variable occurrence, in preorder, renamed ``new``."""
    match t:
        case Var(name):
            n[0] -= 1
            return Var(new) if n[0] == -1 else t
        case Con(con, args):
            return Con(con, tuple(_rename_nth_var(a, n, new) for a in args))
        case Lam(param, body):
            return Lam(param, _rename_nth_var(body, n, new))
        case App(fn, arg):
            return App(_rename_nth_var(fn, n, new), _rename_nth_var(arg, n, new))
        case Case(scrutinee, alts):
            scrutinee = _rename_nth_var(scrutinee, n, new)
            return Case(scrutinee, tuple(Alt(a.pattern, _rename_nth_var(a.body, n, new))
                                         for a in alts))
        case Let(name, bound, body):
            bound = _rename_nth_var(bound, n, new)
            return Let(name, bound, _rename_nth_var(body, n, new))
        case Where(body, defs):
            body = _rename_nth_var(body, n, new)
            return Where(body, tuple((f, _rename_nth_var(d, n, new)) for f, d in defs))
    return t


def test_a_conforming_program_has_at_most_one_free_variable():
    # random programs with one variable occurrence renamed: the form check
    # refuses exactly those that free_vars finds a second free variable in
    rng = random.Random(14)
    refused = 0
    for _ in range(300):
        program, _ = random_program(rng, let_rate=0.5)
        program = _rename_nth_var(program, [rng.randrange(40)], rng.choice("ey"))
        report = check_simplified(program)
        scope = [v for v in report.violations if v.rule == "scope"]
        if len(free_vars(program)) > 1:
            assert not report.conforms
            refused += bool(scope)
        else:
            assert not scope
    assert refused > 50


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: event cases need not be exhaustive")
def test_an_event_case_without_a_wildcard_covers_every_event():
    # EvB matches no pattern, so a run that reads it gets stuck; yet the
    # program conforms, and verify says G {St0 | St1} holds
    source = parse_program("""\
data Ev = EvA | EvB
data St = St0 | St1
Cons St0 (f es)
where
f = \\es -> case es of Cons e es -> case e of EvA -> Cons St1 (f es)
""")
    with pytest.raises(StuckError):
        run_trace(source.term, ["EvB"])
    assert not check_simplified(source.term).conforms
