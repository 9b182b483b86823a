"""Conformance checking against the tail-recursive simplified program form.

A conforming expression is built from: a Cons cell of a state (a
constructor term over variables) and a conforming continuation; a function
call whose arguments are all variables; a case over a variable that is not
let-bound; an application of a let-bound variable to conforming arguments; a
let binding a lambda abstraction; or a where block of lambda-abstracted
definitions. Everything the verifier and witness builder consume must pass
this check first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    Case, Con, Fun, Lam, Let, Term, Var, Where, fun_names, spine,
)


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
    """Constructor term over variables: the shape of an observable state."""
    match t:
        case Var(_):
            return True
        case Con(_, args):
            return all(is_state_term(a) for a in args)
    return False


def _check(t: Term, rho: frozenset[str], path: str,
           out: list[Violation]) -> None:
    match t:
        case Con("Cons", (e0, e1)):
            if not is_state_term(e0):
                out.append(Violation(
                    f"{path}.state", "cons",
                    "state position of Cons must be a constructor term "
                    "over variables", e0))
            _check(e1, rho, f"{path}.tail", out)
        case Con(con, _):
            out.append(Violation(
                path, "cons",
                f"only Cons cells may be constructed here, not {con}", t))
        case Case(Var(x), alts):
            if x in rho:
                out.append(Violation(
                    path, "case",
                    f"case scrutinee {x} is let-bound and may not be inspected",
                    t))
            for i, alt in enumerate(alts):
                _check(alt.body, rho, f"{path}.alt{i}", out)
        case Case(scrut, alts):
            out.append(Violation(
                path, "case", "case scrutinee must be a variable", scrut))
            for i, alt in enumerate(alts):
                _check(alt.body, rho, f"{path}.alt{i}", out)
        case Let(x, bound, body):
            lam_body = bound
            while isinstance(lam_body, Lam):
                lam_body = lam_body.body
            if lam_body is bound:
                out.append(Violation(
                    f"{path}.bound", "let",
                    "let must bind a lambda abstraction", bound))
            _check(lam_body, rho, f"{path}.bound", out)
            _check(body, rho | {x}, f"{path}.body", out)
        case Where(body, defs):
            _check(body, rho, f"{path}.body", out)
            for fname, d in defs:
                lam_body = d
                while isinstance(lam_body, Lam):
                    lam_body = lam_body.body
                _check(lam_body, rho, f"{path}.{fname}", out)
        case Lam(_, _):
            out.append(Violation(
                path, "lambda",
                "lambdas may appear only as let or where definitions", t))
        case _:
            head, args = spine(t)
            match head:
                case Fun(fname):
                    bad = [a for a in args if not isinstance(a, Var)]
                    if bad:
                        out.append(Violation(
                            path, "call",
                            f"arguments of call to {fname} must be variables",
                            t))
                case Var(x):
                    if x in rho:
                        for i, a in enumerate(args):
                            _check(a, rho, f"{path}.arg{i}", out)
                    else:
                        out.append(Violation(
                            path, "rho-app",
                            f"variable {x} is not let-bound and cannot stand "
                            "for an expression here", t))
                case _:
                    out.append(Violation(
                        path, "form",
                        f"{type(head).__name__} is not a simplified-form "
                        "production", t))


def only_tail_calls(t: Term) -> bool:
    """Structural consequence of the grammar: function calls only in tail spots.

    A function call may appear only as the head of a call spine, in the tail
    of a Cons cell, or inside arguments of a let-variable application; never
    as the operand of a call or inside a state term.
    """
    return _tail_ok(t)


def _tail_ok(t: Term) -> bool:
    match t:
        case Con("Cons", (e0, e1)):
            return not fun_names(e0) and _tail_ok(e1)
        case Con(_, args):
            return all(not fun_names(a) for a in args)
        case Case(scrut, alts):
            return not fun_names(scrut) and all(_tail_ok(a.body) for a in alts)
        case Let(_, bound, body):
            return _tail_ok(_peel(bound)) and _tail_ok(body)
        case Where(body, defs):
            return _tail_ok(body) and all(_tail_ok(_peel(d)) for _, d in defs)
        case Var(_) | Fun(_):
            return True
        case Lam(_, body):
            return _tail_ok(body)
        case _:
            head, args = spine(t)
            if isinstance(head, Fun):
                return all(not fun_names(a) for a in args)
            return all(_tail_ok(a) for a in args) and _tail_ok(head)


def _peel(t: Term) -> Term:
    while isinstance(t, Lam):
        t = t.body
    return t
