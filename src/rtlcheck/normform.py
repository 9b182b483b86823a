"""Conformance checking against the tail-recursive simplified program form.

A conforming expression is built from: a Cons cell of a state (a ground
constructor term) and a conforming continuation; a function call whose
arguments are all variables; a case over a variable that is not
let-bound; an application of a let-bound variable to conforming arguments; a
let binding a lambda abstraction; or a where block of lambda-abstracted
definitions. Everything the verifier and witness builder consume must pass
this check first.

States are ground because the verifier reads them as written: it binds no
variable, neither a case pattern's nor a handler parameter's, so an atom could
not evaluate a state that holds one. With ground states and a closed program,
every term the library substitutes is closed too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Case, Con, Fun, Lam, Let, Term, Var, Where, spine


@dataclass(frozen=True)
class Violation:
    path: str
    rule: str
    message: str
    term: Term


@dataclass(frozen=True)
class FormReport:
    conforms: bool
    violations: tuple[Violation, ...]


def check_simplified(program: Term) -> FormReport:
    """Report whether ``program`` is in simplified form."""
    violations: list[Violation] = []
    _check(program, frozenset(), "program", violations)
    return FormReport(not violations, tuple(violations))


def is_state_term(t: Term) -> bool:
    """Ground constructor term: the shape of an observable state."""
    return type(t) is Con and all(is_state_term(a) for a in t.args)


# A path is "program" or a pair (parent path, suffix), joined into a string
# only for a violation: joining at every step costs time quadratic in depth.
def _joined(path: str | tuple) -> str:
    suffixes = []
    while type(path) is tuple:
        path, suffix = path
        suffixes.append(suffix)
    return path + "".join(reversed(suffixes))


def _check(t: Term, rho: frozenset[str], path: str | tuple,
           out: list[Violation]) -> None:
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
            _check(e1, rho, (path, ".tail"), out)
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
        for i, alt in enumerate(t.alts):
            _check(alt.body, rho, (path, f".alt{i}"), out)
    elif tt is Let:
        lam_body = t.bound
        while isinstance(lam_body, Lam):
            lam_body = lam_body.body
        if lam_body is t.bound:
            out.append(Violation(
                _joined((path, ".bound")), "let",
                "let must bind a lambda abstraction", t.bound))
        _check(lam_body, rho, (path, ".bound"), out)
        _check(t.body, rho | {t.name}, (path, ".body"), out)
    elif tt is Where:
        _check(t.body, rho, (path, ".body"), out)
        for fname, d in t.defs:
            lam_body = d
            while isinstance(lam_body, Lam):
                lam_body = lam_body.body
            _check(lam_body, rho, (path, f".{fname}"), out)
    elif tt is Lam:
        out.append(Violation(
            _joined(path), "lambda",
            "lambdas may appear only as let or where definitions", t))
    else:
        head, args = spine(t)
        if type(head) is Fun:
            if not all(type(a) is Var for a in args):
                out.append(Violation(
                    _joined(path), "call",
                    f"arguments of call to {head.name} must be variables", t))
        elif type(head) is Var:
            if head.name in rho:
                for i, a in enumerate(args):
                    _check(a, rho, (path, f".arg{i}"), out)
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
