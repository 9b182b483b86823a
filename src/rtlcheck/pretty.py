"""Concrete-syntax rendering of states.

A state is a ground constructor term, and the only term a command prints:
``simulate`` and ``witness`` print trace states, and ``lts`` labels its nodes
with them. A constructor with arguments is parenthesized in argument
position, so the text reparses to an equal state. Programs and atoms are
printed only by the tests (``tests/gen_programs.py::pretty_expr``).
"""

from __future__ import annotations

from .terms import Con


def pretty_term(state: Con) -> str:
    """``state`` in concrete syntax, its arguments walked on a stack, so that
    a state of any depth prints."""
    out: list[str] = []
    todo: list = [state]  # states to print and text to emit, last first
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        elif not item.args:
            out.append(item.con)
        else:
            if out:  # an argument: only the root comes before any text
                out.append("(")
                todo.append(")")
            out.append(item.con)
            for a in reversed(item.args):
                todo.append(a)
                todo.append(" ")
    return "".join(out)
