"""Concrete-syntax rendering of terms.

Output always reparses to an equal tree; nested constructs are
parenthesized whenever they sit in argument position, inside a case
alternative that is not the last one, or in a where definition that is not
the last one and ends in a where block of its own.
"""

from __future__ import annotations

from .terms import (
    App, Case, Con, Fun, Lam, Let, PCon, PWild, Term, Var, Where, spine,
)

# precedence contexts for terms
_TOP = 0     # body positions: may be any construct without parens
_OPERAND = 1  # argument positions: applications and binders need parens


def pretty_term(t: Term, prec: int = _TOP) -> str:
    match t:
        case Var(name) | Fun(name):
            return name
        case Con(con, ()):
            return con
        case Con():
            return _pretty_con(t, prec)
        case App(_, _):
            head, args = spine(t)
            body = " ".join(pretty_term(x, _OPERAND) for x in (head, *args))
            return f"({body})" if prec >= _OPERAND else body
        case Lam(param, body):
            out = f"\\{param} -> {pretty_term(body)}"
            return f"({out})" if prec >= _OPERAND else out
        case Case(scrut, alts):
            rendered = []
            for i, alt in enumerate(alts):
                last = i == len(alts) - 1
                rendered.append(
                    f"{_pretty_pattern(alt.pattern)} -> "
                    f"{pretty_term(alt.body, _TOP if last else _OPERAND)}")
            out = f"case {pretty_term(scrut, _OPERAND)} of " + " | ".join(rendered)
            return f"({out})" if prec >= _OPERAND else out
        case Let(name, bound, body):
            out = f"let {name} = {pretty_term(bound)} in {pretty_term(body)}"
            return f"({out})" if prec >= _OPERAND else out
        case Where(body, defs):
            lines = [f"{pretty_term(body, _OPERAND)} where"]
            for i, (fname, d) in enumerate(defs):
                inner = i < len(defs) - 1 and _ends_in_where(d)
                lines.append(f"  {fname} = {pretty_term(d, _OPERAND if inner else _TOP)}")
            out = "\n".join(lines)
            return f"({out})" if prec >= _OPERAND else out
    raise TypeError(f"not a term: {t!r}")


def _pretty_con(t: Con, prec: int) -> str:
    """A constructor application, its constructor arguments walked on a
    stack, so that a state of any depth prints."""
    out: list[str] = []
    todo: list = [(t, prec)]  # terms to print and text to emit, last first
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        u, p = item
        if type(u) is not Con or not u.args:
            out.append(pretty_term(u, p))
            continue
        if p >= _OPERAND:
            out.append("(")
            todo.append(")")
        out.append(u.con)
        for a in reversed(u.args):
            todo.append((a, _OPERAND))
            todo.append(" ")
    return "".join(out)


def _ends_in_where(t: Term) -> bool:
    """Whether ``t``, printed in a body position, ends in a where block."""
    while True:
        match t:
            case Where():
                return True
            case Lam(_, body) | Let(_, _, body):
                t = body
            case Case(_, alts):
                t = alts[-1].body
            case _:
                return False


def _pretty_pattern(p) -> str:
    match p:
        case PWild():
            return "_"
        case PCon(con, ()):
            return con
        case PCon(con, names):
            return " ".join([con, *names])
    raise TypeError(f"not a pattern: {p!r}")
