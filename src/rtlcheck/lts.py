"""Labelled transition system extraction from reactive-shaped programs.

A reactive program is a where block whose body emits an initial state and
calls a first handler; every handler cases on the head of the event list
and then on the event, each branch emitting a state and calling the next
handler. Nodes are the handlers, labelled with the state every incoming
transition emits for them; edges carry event names, with "_" for the
wildcard branch, which also keeps its residual: the events of the caller's
alphabet that no earlier pattern of its handler matches. ``to_dot`` draws
the system for Graphviz, and ``to_json`` writes it with the ``json``
encoder, as the CLI writes its other documents.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from .pretty import pretty_term
from .terms import (
    Alt, Case, Con, Fun, Lam, PCon, PWild, Record, Term, Var, Where, spine,
)


class LtsError(Exception):
    pass


class NotReactiveShape(LtsError):
    """Simplified form but not the event-handler idiom this module reads."""


class InconsistentNodeState(LtsError):
    """Two transitions into one handler emit different states."""


class LtsNode(Record):
    __slots__ = __match_args__ = ("id", "fun", "state")

    def __init__(self, id: int, fun: str, state: Term):
        self.id = id
        self.fun = fun
        self.state = state


class LtsEdge(Record):
    __slots__ = __match_args__ = ("src", "label", "dst", "residual")

    def __init__(self, src: int, label: str, dst: int,
                 residual: tuple[str, ...] | None = None):
        self.src = src
        self.label = label  # event constructor, or "_" for the wildcard branch
        self.dst = dst
        self.residual = residual  # events a wildcard stands for


class Lts(Record):
    __slots__ = __match_args__ = ("initial", "nodes", "edges")


def _dest_call(t: Term) -> tuple[Term, str]:
    """Split a branch body ``Cons state (f es)`` into (state, callee)."""
    match t:
        case Con("Cons", (state, tail)):
            head, _ = spine(tail)
            if isinstance(head, Fun):
                return state, head.name
    raise NotReactiveShape(
        "branch body must emit one state and call the next handler")


def extract_lts(program: Term, event_names: Sequence[str]) -> Lts:
    """Read the transition system off a reactive-shaped program.

    ``event_names`` is the full event alphabet; a wildcard edge's residual is
    the part of it the patterns before the wildcard do not match.
    """
    match program:
        case Where(body, defs):
            pass
        case _:
            raise NotReactiveShape("program must be a where block")
    initial_state, initial_fun = _dest_call(body)

    order = {fname: i for i, (fname, _) in enumerate(defs)}
    if initial_fun not in order:
        raise NotReactiveShape(f"initial handler {initial_fun} is not defined")

    states: dict[str, Term] = {initial_fun: initial_state}
    edges: list[LtsEdge] = []
    for fname, d in defs:
        match d:  # the shape, then what it lacks, from the innermost out
            case Lam(_, Case(Var(_), (Alt(PCon("Cons", (_, _)), Case(Var(_), alts)),))):
                pass
            case Lam(_, Case(Var(_), (Alt(PCon("Cons", (_, _))),))):
                raise NotReactiveShape(f"handler {fname} must case on the event")
            case Lam(_, Case(Var(_), (_,))):
                raise NotReactiveShape(
                    f"handler {fname} must split its event list with a Cons pattern")
            case _:
                raise NotReactiveShape(
                    f"handler {fname} must case on the head of its event list")
        preceding: set[str] = set()
        for alt in alts:
            state, target = _dest_call(alt.body)
            match alt.pattern:
                case PWild():
                    label = "_"
                    residual = tuple(e for e in event_names if e not in preceding)
                case PCon(con, ()):
                    label, residual = con, None
                    preceding.add(con)
                case PCon(con, _):
                    raise NotReactiveShape(
                        f"event pattern {con} in {fname} binds variables")
            if target not in order:
                raise NotReactiveShape(f"handler {fname} calls undefined {target}")
            if states.setdefault(target, state) != state:
                raise InconsistentNodeState(
                    f"transitions into {target} emit different states")
            edges.append(LtsEdge(order[fname], label, order[target], residual))

    for fname in order:
        if fname not in states:
            raise NotReactiveShape(f"no transition ever enters handler {fname}")
    nodes = tuple(LtsNode(order[f], f, states[f]) for f, _ in defs)
    return Lts(order[initial_fun], nodes, tuple(edges))


def _state_label(state: Con) -> str:
    match state:
        case Con(_, args) if args and all(
                isinstance(a, Con) and not a.args for a in args):
            return " ".join(f"s{i + 1}={a.con}" for i, a in enumerate(args))
    return pretty_term(state)


def to_dot(lts: Lts, include_self_loops: bool = False) -> str:
    """Graphviz digraph text; self-loops are omitted unless asked for."""
    lines = ["digraph lts {"]
    for node in sorted(lts.nodes, key=lambda n: n.id):
        label = f"{node.fun}\\n{_state_label(node.state)}"
        shape = "doublecircle" if node.id == lts.initial else "box"
        lines.append(f'  n{node.id} [shape={shape} label="{label}"];')
    for edge in lts.edges:
        if edge.src == edge.dst and not include_self_loops:
            continue
        lines.append(f'  n{edge.src} -> n{edge.dst} [label="{edge.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def state_to_json(state: Term):
    """The JSON document of a state, a ground constructor term."""
    return {"con": state.con, "args": [state_to_json(a) for a in state.args]}


def to_json(lts: Lts) -> str:
    """``json.dumps(doc, indent=2)`` and a newline, for the document of
    ``initial``, ``nodes`` and ``edges``, self-loops included."""
    edges = []
    for e in lts.edges:
        edge = {"from": e.src, "label": e.label, "to": e.dst}
        if e.residual is not None:
            edge["residual"] = list(e.residual)
        edges.append(edge)
    doc = {"initial": lts.initial,
           "nodes": [{"id": n.id, "fun": n.fun, "state": state_to_json(n.state)}
                     for n in lts.nodes],
           "edges": edges}
    return json.dumps(doc, indent=2) + "\n"
