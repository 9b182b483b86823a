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
nothing it guarantees again (``witness.gen`` reads no call argument, ``lts``
renders only ground states). Only ``simulate`` runs unchecked programs.

States are ground because the verifier reads them as written: it binds no
variable, neither a case pattern's nor a handler parameter's, so an atom could
not evaluate a state that holds one. With ground states and a program closed
but for its event list, every term the library substitutes is closed too.
"""

from __future__ import annotations

from .terms import Case, Con, Fun, Lam, Let, PCon, Record, Term, Var, Where, spine


class Violation(Record):
    __slots__ = __match_args__ = ("path", "rule", "message", "term")

    def __init__(self, path: str, rule: str, message: str, term: Term):
        self.path = path
        self.rule = rule
        self.message = message
        self.term = term


class FormReport(Record):
    __slots__ = __match_args__ = ("conforms", "violations")

    def __init__(self, conforms: bool, violations: tuple[Violation, ...]):
        self.conforms = conforms
        self.violations = violations


def check_simplified(program: Term) -> FormReport:
    """Report whether ``program`` is in simplified form."""
    violations: list[Violation] = []
    _check(program, frozenset(), frozenset(), "program", violations, [])
    return FormReport(not violations, tuple(violations))


def is_state_term(t: Term) -> bool:
    """Ground constructor term: the shape of an observable state."""
    return type(t) is Con and (not t.args or all(map(is_state_term, t.args)))


# A path is "program" or a pair (parent path, suffix), joined into a string
# only for a violation: joining at every step costs time quadratic in depth.
def _joined(path: str | tuple) -> str:
    suffixes = []
    while type(path) is tuple:
        path, suffix = path
        suffixes.append(suffix)
    return path + "".join(reversed(suffixes))


def _free(name: str, path: str | tuple, t: Term, free: list[str],
          out: list[Violation]) -> None:
    """Note a use of the unbound ``name``; the first such name is the event list."""
    if name in free:
        return
    free.append(name)
    if len(free) > 1:
        out.append(Violation(
            _joined(path), "scope",
            f"free variable {name}: only the event list {free[0]} may be free", t))


# rho: the let-bound variables in scope; scope: every bound variable in scope;
# free: the unbound variables met so far, in walk order
def _check(t: Term, rho: frozenset[str], scope: frozenset[str],
           path: str | tuple, out: list[Violation], free: list[str]) -> None:
    # runs on every program a command loads: dispatch on type, not match
    tt = type(t)
    if tt is Con:
        if t.con == "Cons" and len(t.args) == 2:
            e0, e1 = t.args
            if not is_state_term(e0):
                out.append(Violation(
                    _joined((path, ".state")), "cons",
                    "state position of Cons must be a ground constructor "
                    "term", e0))
            _check(e1, rho, scope, (path, ".tail"), out, free)
        else:
            out.append(Violation(
                _joined(path), "cons",
                f"only Cons cells may be constructed here, not {t.con}", t))
    elif tt is Case:
        scrut = t.scrutinee
        if type(scrut) is not Var:
            out.append(Violation(
                _joined(path), "case", "case scrutinee must be a variable", scrut))
        elif scrut.name in rho:
            out.append(Violation(
                _joined(path), "case",
                f"case scrutinee {scrut.name} is let-bound and may not be "
                "inspected", t))
        elif scrut.name not in scope:
            _free(scrut.name, path, t, free, out)
        for i, alt in enumerate(t.alts):
            pattern = alt.pattern
            inner = scope.union(pattern.vars) if type(pattern) is PCon and pattern.vars else scope
            _check(alt.body, rho, inner, (path, f".alt{i}"), out, free)
    elif tt is Let:
        lam_body, params = t.bound, []
        while type(lam_body) is Lam:
            params.append(lam_body.param)
            lam_body = lam_body.body
        if not params:
            out.append(Violation(
                _joined((path, ".bound")), "let",
                "let must bind a lambda abstraction", t.bound))
        _check(lam_body, rho, scope.union(params), (path, ".bound"), out, free)
        _check(t.body, rho | {t.name}, scope | {t.name}, (path, ".body"), out, free)
    elif tt is Where:
        _check(t.body, rho, scope, (path, ".body"), out, free)
        for fname, d in t.defs:
            lam_body, params = d, []
            while type(lam_body) is Lam:
                params.append(lam_body.param)
                lam_body = lam_body.body
            _check(lam_body, rho, scope.union(params), (path, f".{fname}"), out, free)
    elif tt is Lam:
        out.append(Violation(
            _joined(path), "lambda",
            "lambdas may appear only as let or where definitions", t))
    else:
        head, args = spine(t)
        if type(head) is Fun:
            for a in args:
                if type(a) is not Var:
                    out.append(Violation(
                        _joined(path), "call",
                        f"arguments of call to {head.name} must be variables", t))
                    break
            else:
                for a in args:
                    if a.name not in scope:
                        _free(a.name, path, t, free, out)
        elif type(head) is Var:
            if head.name in rho:
                for i, a in enumerate(args):
                    _check(a, rho, scope, (path, f".arg{i}"), out, free)
            else:
                out.append(Violation(
                    _joined(path), "rho-app",
                    f"variable {head.name} is not let-bound and cannot stand "
                    "for an expression here", t))
        else:
            out.append(Violation(
                _joined(path), "form",
                f"{type(head).__name__} is not a simplified-form "
                "production", t))

