"""Conformance checking against the tail-recursive simplified program form.

A conforming expression is built from: a Cons cell of a state (a ground
constructor term) and a conforming continuation; a function call whose
arguments are all variables; a case over a variable that is not
let-bound; an application of a let-bound variable to conforming arguments; a
let binding a lambda abstraction; or a where block of lambda-abstracted
definitions. The program is closed but for one variable, its event list: the
first unbound variable the walk meets, in source order.

This module is the one judge of that form: ``verify``, ``witness``,
``oracle`` and ``lts`` run the check first, refuse what fails it, and test
nothing it guarantees again (``witness``'s rules read no call argument, ``lts``
renders only ground states). Only ``simulate`` runs unchecked programs.

States are ground because the verifier reads them as written: it binds no
variable, neither a case pattern's nor a handler parameter's, so an atom could
not evaluate a state that holds one.
"""

from __future__ import annotations

from .terms import Case, Con, Fun, Lam, Let, PCon, Record, Term, Var, Where, spine


class Violation(Record):
    __slots__ = __match_args__ = ("path", "rule", "message", "term")


class FormReport(Record):
    __slots__ = __match_args__ = ("conforms", "violations")


def check_simplified(program: Term) -> FormReport:
    """Report whether ``program`` is in simplified form."""
    violations: list[Violation] = []
    _check(program, frozenset(), frozenset(), "program", violations, [])
    return FormReport(not violations, tuple(violations))


def is_state_term(t: Term) -> bool:
    """Ground constructor term: the shape of an observable state."""
    return type(t) is Con and (not t.args or all(map(is_state_term, t.args)))


def _params(t: Term) -> tuple[list[str], Term]:
    """The parameters of the lambdas that ``t`` begins with, and their body."""
    params = []
    while type(t) is Lam:
        params.append(t.param)
        t = t.body
    return params, t


def _free(name: str, path: str, t: Term, free: list[str],
          out: list[Violation]) -> None:
    """Note a use of the unbound ``name``; the first such name is the event list."""
    if name in free:
        return
    free.append(name)
    if len(free) > 1:
        out.append(Violation(
            path, "scope",
            f"free variable {name}: only the event list {free[0]} may be free", t))


# rho: the let-bound variables in scope; scope: every bound variable in scope;
# free: the unbound variables met so far, in walk order
def _check(t: Term, rho: frozenset[str], scope: frozenset[str],
           path: str, out: list[Violation], free: list[str]) -> None:
    # runs on every program a command loads: dispatch on type, not match
    tt = type(t)
    if tt is Con:
        if t.con == "Cons" and len(t.args) == 2:
            e0, e1 = t.args
            if not is_state_term(e0):
                out.append(Violation(
                    path + ".state", "cons",
                    "state position of Cons must be a ground constructor "
                    "term", e0))
            _check(e1, rho, scope, path + ".tail", out, free)
        else:
            out.append(Violation(
                path, "cons",
                f"only Cons cells may be constructed here, not {t.con}", t))
    elif tt is Case:
        scrut = t.scrutinee
        if type(scrut) is not Var:
            out.append(Violation(
                path, "case", "case scrutinee must be a variable", scrut))
        elif scrut.name in rho:
            out.append(Violation(
                path, "case",
                f"case scrutinee {scrut.name} is let-bound and may not be "
                "inspected", t))
        elif scrut.name not in scope:
            _free(scrut.name, path, t, free, out)
        for i, alt in enumerate(t.alts):
            pattern = alt.pattern
            inner = scope.union(pattern.vars) if type(pattern) is PCon and pattern.vars else scope
            _check(alt.body, rho, inner, f"{path}.alt{i}", out, free)
    elif tt is Let:
        params, lam_body = _params(t.bound)
        if not params:
            out.append(Violation(
                path + ".bound", "let",
                "let must bind a lambda abstraction", t.bound))
        _check(lam_body, rho, scope.union(params), path + ".bound", out, free)
        _check(t.body, rho | {t.name}, scope | {t.name}, path + ".body", out, free)
    elif tt is Where:
        _check(t.body, rho, scope, path + ".body", out, free)
        for fname, d in t.defs:
            params, lam_body = _params(d)
            _check(lam_body, rho, scope.union(params), f"{path}.{fname}", out, free)
    elif tt is Lam:
        out.append(Violation(
            path, "lambda",
            "lambdas may appear only as let or where definitions", t))
    else:
        head, args = spine(t)
        if type(head) is Fun:
            for a in args:
                if type(a) is not Var:
                    out.append(Violation(
                        path, "call",
                        f"arguments of call to {head.name} must be variables", t))
                    break
            else:
                for a in args:
                    if a.name not in scope:
                        _free(a.name, path, t, free, out)
        elif type(head) is Var:
            if head.name in rho:
                for i, a in enumerate(args):
                    _check(a, rho, scope, f"{path}.arg{i}", out, free)
            else:
                out.append(Violation(
                    path, "rho-app",
                    f"variable {head.name} is not let-bound and cannot stand "
                    "for an expression here", t))
        else:
            out.append(Violation(
                path, "form",
                f"{type(head).__name__} is not a simplified-form "
                "production", t))

