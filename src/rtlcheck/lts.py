"""Labelled transition system extraction from reactive-shaped programs.

A reactive program is a where block whose body emits an initial state and
calls a first handler; every handler cases on the head of the event list
and then on the event, each branch emitting a state and calling the next
handler. Nodes are the handlers, labelled with the state every incoming
transition emits for them; edges carry event names, with "_" for the
wildcard branch, which also keeps its residual: the events of the caller's
alphabet that no earlier pattern of its handler matches.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

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


def _state_label(state: Term) -> str:
    from .pretty import pretty_term
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
    """JSON document with the full edge data, self-loops included.

    The text is ``json.dumps(doc, indent=2) + "\\n"`` for the document of
    ``initial``, ``nodes`` and ``edges``, laid out here because ``indent``
    makes ``json`` take its pure-Python encoder, twice as slow on a
    400-handler ring. Strings go through ``json.dumps``; the integer ids are
    written as ``json`` writes them.
    """
    nodes = [_layout([f'"id": {n.id}', f'"fun": {json.dumps(n.fun)}',
                      f'"state": {_indented(state_to_json(n.state), _M3)}'], _M2, "{}")
             for n in lts.nodes]
    edges = []
    for e in lts.edges:
        fields = [f'"from": {e.src}', f'"label": {json.dumps(e.label)}', f'"to": {e.dst}']
        if e.residual is not None:
            fields.append(f'"residual": {_indented(list(e.residual), _M3)}')
        edges.append(_layout(fields, _M2, "{}"))
    return _layout([f'"initial": {lts.initial}', f'"nodes": {_layout(nodes, _M1)}',
                    f'"edges": {_layout(edges, _M1)}'], "\n", "{}") + "\n"


# a newline and the indentation of the first, second and third level
_M1, _M2, _M3 = "\n  ", "\n    ", "\n      "


def _layout(items: list[str], margin: str, brackets: str = "[]") -> str:
    """A list or dict, as ``json``'s ``indent=2`` lays it out, of items laid
    out one level below ``margin``: a newline and the indentation of the
    line that the list or dict ends on."""
    if not items:
        return brackets
    inner = margin + "  "
    return brackets[0] + inner + ("," + inner).join(items) + margin + brackets[1]


def _indented(value, margin: str) -> str:
    """``json.dumps(value, indent=2)`` for dicts with string keys, lists and
    scalars at ``margin`` (see ``_layout``); only the scalars go through
    ``json.dumps``."""
    inner = margin + "  "
    if type(value) is dict:
        return _layout([f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in value.items()],
                       margin, "{}")
    if type(value) is list:
        return _layout([_indented(v, inner) for v in value], margin)
    return json.dumps(value)
