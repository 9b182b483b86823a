import itertools
import pathlib
import random

import pytest

from rtlcheck.corpus import obs
from rtlcheck.lts import (
    InconsistentNodeState, Lts, LtsEdge, LtsError, LtsNode, NotReactiveShape,
    extract_lts, state_to_json, to_dot, to_json,
)
from rtlcheck.parser import parse_program
from rtlcheck.semantics import run_trace
from rtlcheck.terms import Alt, App, Case, Con, Fun, Lam, PCon, Var, WILD, Where

from gen_programs import ring_program

EVENTS = ("Request1", "Request2", "Take1", "Take2", "Release1", "Release2")
GOLDEN = pathlib.Path(__file__).parent / "golden"

EXPECTED_SHAPE = {"example1": (9, 16), "example2": (6, 8), "example3": (9, 14)}


def walk(lts: Lts, events) -> list:
    """State sequence of driving the transition system with an event list.

    The reference that simulation is compared against: it follows the edges
    alone, taking an event's own edge and failing that its handler's wildcard.
    """
    by_id = {n.id: n for n in lts.nodes}
    here = lts.initial
    trace = [by_id[here].state]
    for event in events:
        wildcard = None
        target = None
        for edge in lts.edges:
            if edge.src != here:
                continue
            if edge.label == event:
                target = edge.dst
                break
            if edge.label == "_":
                wildcard = edge.dst
        if target is None:
            target = wildcard
        if target is None:
            raise LtsError(f"no transition from node {here} on {event}")
        here = target
        trace.append(by_id[here].state)
    return trace


def _node(graph: Lts, fun: str) -> LtsNode:
    return next(node for node in graph.nodes if node.fun == fun)


def _lts(corpus_by_name, name):
    _, source, _ = corpus_by_name[name]
    return extract_lts(source.term, EVENTS)


def test_node_and_edge_counts(corpus_by_name):
    for name, (nodes, edges) in EXPECTED_SHAPE.items():
        graph = _lts(corpus_by_name, name)
        non_self = [e for e in graph.edges if e.src != e.dst]
        assert len(graph.nodes) == nodes, name
        assert len(non_self) == edges, name


def test_example1_self_loops_are_the_wildcards(corpus_by_name):
    # nine handlers, each with one wildcard branch looping back to itself
    graph = _lts(corpus_by_name, "example1")
    self_loops = [e for e in graph.edges if e.src == e.dst]
    assert len(self_loops) == 9
    assert all(e.label == "_" for e in self_loops)
    assert len(graph.edges) == 16 + 9


def test_example2_sink_handler(corpus_by_name):
    graph = _lts(corpus_by_name, "example2")
    f5 = _node(graph, "f5")
    outgoing = [e for e in graph.edges if e.src == f5.id]
    assert len(outgoing) == 1
    assert outgoing[0].label == "_" and outgoing[0].dst == f5.id
    assert outgoing[0].residual == EVENTS


def test_node_states_match_expected(corpus_by_name):
    graph = _lts(corpus_by_name, "example2")
    assert _node(graph, "f1").state == obs("T", "T")
    assert _node(graph, "f5").state == obs("W", "W")
    assert graph.initial == _node(graph, "f1").id


def test_wildcard_residual_excludes_named_patterns(corpus_by_name):
    graph = _lts(corpus_by_name, "example1")
    f2 = _node(graph, "f2")
    wild = next(e for e in graph.edges if e.src == f2.id and e.label == "_")
    assert set(wild.residual) == set(EVENTS) - {"Take1", "Request2"}


def test_determinism_one_edge_per_event(corpus_by_name):
    for name in EXPECTED_SHAPE:
        graph = _lts(corpus_by_name, name)
        for node in graph.nodes:
            labels = [e.label for e in graph.edges if e.src == node.id]
            assert len(labels) == len(set(labels))


def test_simulation_agreement_exhaustive_depth3(corpus_by_name):
    for name in EXPECTED_SHAPE:
        _, source, _ = corpus_by_name[name]
        graph = extract_lts(source.term, EVENTS)
        for seq in itertools.product(EVENTS, repeat=3):
            assert walk(graph, seq) == run_trace(source.term, seq, max_states=4)


def test_simulation_agreement_sampled_depth6(corpus_by_name):
    rng = random.Random(3)
    for name in EXPECTED_SHAPE:
        _, source, _ = corpus_by_name[name]
        graph = extract_lts(source.term, EVENTS)
        for _ in range(40):
            seq = [rng.choice(EVENTS) for _ in range(6)]
            assert walk(graph, seq) == run_trace(source.term, seq, max_states=7)


def test_dot_output_matches_golden(corpus_by_name):
    graph = _lts(corpus_by_name, "example2")
    golden = (GOLDEN / "example2.dot").read_text()
    assert to_dot(graph) == golden
    assert to_dot(graph) == to_dot(graph)


def test_dot_line_counts(corpus_by_name):
    graph = _lts(corpus_by_name, "example2")
    lines = to_dot(graph).strip().splitlines()
    node_lines = [l for l in lines if "shape=" in l]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == 6 and len(edge_lines) == 8
    with_loops = to_dot(graph, include_self_loops=True).strip().splitlines()
    assert len([l for l in with_loops if "->" in l]) == 14


def test_json_export_schema(corpus_by_name):
    import json
    graph = _lts(corpus_by_name, "example2")
    doc = json.loads(to_json(graph))
    assert doc["initial"] == 0
    assert {n["fun"] for n in doc["nodes"]} == {f"f{i}" for i in range(1, 7)}
    assert len(doc["edges"]) == 14  # self-loops included in the data
    wild = [e for e in doc["edges"] if e["label"] == "_"]
    assert all("residual" in e for e in wild)
    named = [e for e in doc["edges"] if e["label"] != "_"]
    assert all("residual" not in e for e in named)
    assert doc["nodes"][0]["state"] == {
        "con": "ObsState",
        "args": [{"con": "T", "args": []}, {"con": "T", "args": []}],
    }


def _json_by_the_encoder(graph: Lts) -> str:
    """``to_json``'s text as ``json`` lays it out with ``indent=2``."""
    import json
    doc = {
        "initial": graph.initial,
        "nodes": [{"id": n.id, "fun": n.fun, "state": state_to_json(n.state)}
                  for n in graph.nodes],
        "edges": [
            {"from": e.src, "label": e.label, "to": e.dst,
             **({"residual": list(e.residual)} if e.residual is not None else {})}
            for e in graph.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_json_export_is_the_indented_encoding(corpus):
    # byte for byte: edges with and without a residual, states with nested
    # arguments, a variable state, and empty lists at every level
    graphs = [extract_lts(source.term, EVENTS) for _, source, _ in corpus]
    graphs += [extract_lts(ring_program(n), ("EvA", "EvB", "EvC")) for n in (1, 2, 7, 40)]
    nested = Con("P", (Con("Q", (Con("A"), Con("B", (Con("C"),)))), Con("D")))
    graphs += [
        Lts(0, (LtsNode(0, "f", nested), LtsNode(1, "g\u00e9\"", Var("x"))),
            (LtsEdge(0, "_", 1, ()), LtsEdge(1, "Go", 0), LtsEdge(1, "_", 1, ("Go", "Put")))),
        Lts(0, (LtsNode(0, "f", Con("A")),), ()),
        Lts(0, (), ()),
    ]
    for graph in graphs:
        assert to_json(graph) == _json_by_the_encoder(graph)


def test_non_reactive_shape_rejected():
    source = parse_program(
        "data S = A\nCons A (f es) where f = \\es -> Cons A (f es)")
    assert source.term is not None
    with pytest.raises(NotReactiveShape):
        extract_lts(source.term, EVENTS)


def test_inconsistent_node_state_rejected():
    text = """\
data E = Go
data S = A | B
Cons A (f es)
where
f = \\es -> case es of Cons e es -> case e of Go -> Cons A (g es) | _ -> Cons A (f es)
g = \\es -> case es of Cons e es -> case e of Go -> Cons B (g es) | _ -> Cons B (f es)
"""
    source = parse_program(text)
    assert source.term is not None, source.diagnostics
    with pytest.raises(InconsistentNodeState):
        extract_lts(source.term, EVENTS)


SHAPE_HEADER = "data E = Go | Put S\ndata S = A | B\n"


def _on_event(alts: str) -> str:
    return "\\es -> case es of Cons e es -> case e of " + alts


def _emit(state: str, fun: str) -> Con:
    return Con("Cons", (Con(state), App(Fun(fun), Var("es"))))


def _handler(target: str) -> Lam:
    return Lam("es", Case(Var("es"), (Alt(PCon("Cons", ("e", "es")), Case(
        Var("e"), (Alt(WILD, _emit("A", target)),))),)))


# each way a program can fail to have the handler shape: the program (text
# after SHAPE_HEADER, or a term the parser cannot build), the error and its
# message
SHAPE_ERRORS = {
    "not a where block": (
        "Cons A Nil",
        NotReactiveShape, "program must be a where block"),
    "body emits no state and calls no handler": (
        "Nil where f = " + _on_event("_ -> Cons A (f es)"),
        NotReactiveShape, "branch body must emit one state and call the next handler"),
    "handler does not case on its list": (
        "Cons A (f es) where f = \\es -> Cons A (f es)",
        NotReactiveShape, "handler f must case on the head of its event list"),
    "split other than Cons": (
        "Cons A (f es) where f = \\es -> case es of Nil -> Cons A (f es)",
        NotReactiveShape, "handler f must split its event list with a Cons pattern"),
    "no case on the event": (
        "Cons A (f es) where f = \\es -> case es of Cons e es -> Cons A (f es)",
        NotReactiveShape, "handler f must case on the event"),
    "event pattern binds variables": (
        "Cons A (f es) where f = " + _on_event("Go -> Cons A (f es) | Put s -> Cons A (f es)"),
        NotReactiveShape, "event pattern Put in f binds variables"),
    "call to an undefined handler": (
        Where(_emit("A", "f"), (("f", _handler("g")),)),
        NotReactiveShape, "handler f calls undefined g"),
    "initial handler not defined": (
        Where(_emit("A", "g"), (("f", _handler("f")),)),
        NotReactiveShape, "initial handler g is not defined"),
    "handler no transition enters": (
        "Cons A (f es) where\nf = " + _on_event("_ -> Cons A (f es)")
        + "\ng = " + _on_event("_ -> Cons A (f es)"),
        NotReactiveShape, "no transition ever enters handler g"),
    "inconsistent target states": (
        "Cons A (f es) where\nf = " + _on_event("Go -> Cons A (g es) | _ -> Cons A (f es)")
        + "\ng = " + _on_event("Go -> Cons B (g es) | _ -> Cons B (f es)"),
        InconsistentNodeState, "transitions into g emit different states"),
}


@pytest.mark.parametrize("name", list(SHAPE_ERRORS))
def test_shape_error(name):
    program, error, message = SHAPE_ERRORS[name]
    if isinstance(program, str):
        source = parse_program(SHAPE_HEADER + program)
        assert source.term is not None, source.diagnostics
        program = source.term
    with pytest.raises(LtsError) as info:
        extract_lts(program, ("Go", "Put"))
    assert type(info.value) is error
    assert str(info.value) == message


def test_first_problem_in_definition_order_wins():
    # handlers are read one at a time, each branch's call and state checked
    # right after its shape: f's call to the undefined h comes before g's shape
    program = Where(_emit("A", "f"), (("f", _handler("h")),
                                      ("g", Lam("es", _emit("A", "f")))))
    with pytest.raises(NotReactiveShape, match="^handler f calls undefined h$"):
        extract_lts(program, ("Go", "Put"))
