"""Seeded inputs, command lists and expected answers for the benchmark.

Every workload is one *pass*: a list of ``rtlcheck`` command lines, each
paired with a check of its output. The harness repeats the pass until the
run's time is up, so every pass does the same work.

The expected answers come from the generators' own transition tables (or,
for the bundled corpus, from the hand-written ``rtlcheck.corpus.ENTRIES``
and a regex reading of the program text), never from the code under test.

This module imports nothing from ``rtlcheck`` at import time; the harness
times that import as part of set-up.
"""

from __future__ import annotations

import importlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

TRUTH_EXIT = {"True": 0, "False": 1, "Undefined": 2}
PROPERTY_COMMANDS = ("verify", "witness", "oracle")


# --- transition tables ---------------------------------------------------------

@dataclass(frozen=True)
class Table:
    """A reactive program as handlers with branches ``(event or "_", state, target)``.

    States are kept as the program text prints them (``St1``,
    ``ObsState W T``), which is also how ``rtlcheck`` pretty-prints them.
    """

    initial: str
    initial_state: str
    handlers: tuple[tuple[str, tuple[tuple[str, str, str], ...]], ...]

    def branches(self) -> dict[str, tuple[tuple[str, str, str], ...]]:
        return dict(self.handlers)

    def simulate(self, events: list[str], cycle: bool, max_states: int) -> list[str]:
        """States emitted on an event list, as ``rtlcheck simulate`` defines them."""
        table = self.branches()
        here, out = self.initial, [self.initial_state]
        limit = max_states if cycle else min(max_states, len(events) + 1)
        i = 0
        while len(out) < limit:
            event = events[i % len(events)]
            i += 1
            branch = next(b for b in table[here] if b[0] in (event, "_"))
            out.append(branch[1])
            here = branch[2]
        return out

    def reachable_states(self) -> set[str]:
        table = self.branches()
        seen, todo, states = {self.initial}, [self.initial], {self.initial_state}
        while todo:
            for _, state, target in table[todo.pop()]:
                states.add(state)
                if target not in seen:
                    seen.add(target)
                    todo.append(target)
        return states


def render_program(table: Table, events: tuple[str, ...],
                   states: tuple[str, ...], order: list[str]) -> str:
    """Program text for a table, handlers defined in the given order."""
    lines = [f"data Event = {' | '.join(events)}",
             f"data State = {' | '.join(states)}",
             "",
             f"Cons {table.initial_state} ({table.initial} es)",
             "where"]
    branches = table.branches()
    for name in order:
        lines.append(f"{name} = \\es -> case es of Cons e es -> case e of")
        for i, (label, state, target) in enumerate(branches[name]):
            lead = "        " if i == 0 else "      | "
            lines.append(f"{lead}{label} -> Cons {state} ({target} es)")
    return "\n".join(lines) + "\n"


_HANDLER = re.compile(r"^(\w+)\s*=\s*\\es\s*->\s*case es of Cons e es\s*->\s*case e of",
                      re.MULTILINE)
_BRANCH = re.compile(r"(\w+|_)\s*->\s*Cons\s+(\([^()]*\)|\w+)\s+\((\w+) es\)")
_INITIAL = re.compile(r"^Cons\s+(\([^()]*\)|\w+)\s+\((\w+) es\)\s*$", re.MULTILINE)


def read_table(text: str) -> Table:
    """Transition table of a handler-shaped program, read with regexes only."""
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    head, _, body = text.partition("\nwhere")
    init = _INITIAL.search(head)
    if init is None:
        raise ValueError("no initial 'Cons state (handler es)' line")
    starts = list(_HANDLER.finditer(body))
    handlers = []
    for m, nxt in zip(starts, starts[1:] + [None]):
        chunk = body[m.end(): nxt.start() if nxt else len(body)]
        handlers.append((m.group(1), tuple(
            (b.group(1), b.group(2).strip("()"), b.group(3))
            for b in _BRANCH.finditer(chunk))))
    return Table(init.group(2), init.group(1).strip("()"), tuple(handlers))


def state_json(text: str) -> dict:
    """``rtlcheck``'s JSON encoding of a state written as constructor words."""
    con, *args = text.split()
    return {"con": con, "args": [{"con": a, "args": []} for a in args]}


# --- commands and their checks ---------------------------------------------------

@dataclass
class Outcome:
    """What a completed command showed: its truth value and trace length."""

    error: Optional[str] = None
    truth: Optional[str] = None
    trace_len: Optional[int] = None


@dataclass
class Command:
    argv: list[str]
    check: Callable[[str, int], Outcome]
    # commands sharing a ``pair`` key must report the same truth value
    pair: Optional[str] = None

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def is_property(self) -> bool:
        return self.kind in PROPERTY_COMMANDS


def _mismatch(what: str, got, want) -> Outcome:
    return Outcome(error=f"{what}: got {got!r}, expected {want!r}")


def expect_conforms(out: str, rc: int) -> Outcome:
    if rc != 0 or out != "conforms\n":
        return _mismatch("check", (rc, out[:80]), (0, "conforms"))
    return Outcome()


def expect_lts_json(table: Table) -> Callable[[str, int], Outcome]:
    states = {table.initial: table.initial_state}
    edges = []
    for name, branches in table.handlers:
        for label, state, target in branches:
            states[target] = state
            edges.append((name, label, target))
    want = (0, table.initial, {f: state_json(s) for f, s in states.items()},
            sorted(edges))

    def check(out: str, rc: int) -> Outcome:
        doc = json.loads(out)
        funs = {n["id"]: n["fun"] for n in doc["nodes"]}
        got = (rc, funs.get(doc["initial"]),
               {n["fun"]: n["state"] for n in doc["nodes"]},
               sorted((funs[e["from"]], e["label"], funs[e["to"]]) for e in doc["edges"]))
        return Outcome() if got == want else \
            Outcome(error="lts --json: nodes or edges differ from the table")
    return check


def expect_lts_dot(table: Table) -> Callable[[str, int], Outcome]:
    moves = sum(1 for name, branches in table.handlers
                for _, _, target in branches if target != name)

    def check(out: str, rc: int) -> Outcome:
        lines = out.splitlines()
        nodes = sum(1 for line in lines if "[shape=" in line)
        edges = sum(1 for line in lines if " -> " in line)
        got = (rc, lines[0] if lines else "", nodes, edges)
        want = (0, "digraph lts {", len(table.handlers), moves)
        return Outcome() if got == want else _mismatch("lts --dot", got, want)
    return check


def expect_states(states: list[str]) -> Callable[[str, int], Outcome]:
    def check(out: str, rc: int) -> Outcome:
        got = [" ".join(line.split()) for line in out.splitlines()]
        return Outcome() if (rc, got) == (0, states) else \
            _mismatch("simulate", got[:6], states[:6])
    return check


_WITNESS_HEAD = re.compile(r"^(\w+)  \(\w+, validation: (\w+)\)$")


def read_result(kind: str, out: str, text: bool = False) -> tuple[str, dict]:
    """Truth value and fields of a verify, witness or oracle output.

    ``text`` selects the human-readable witness output, whose trace comes
    back as one string per state.
    """
    if kind == "verify":
        return out.strip(), {}
    if not text:
        doc = json.loads(out)
        return doc["truth"], doc
    head, *rest = out.splitlines() or [""]
    match = _WITNESS_HEAD.match(head)
    if match is None:
        raise ValueError(f"unexpected witness header {head!r}")
    states = [" ".join(line.split()) for line in rest
              if not line.strip().startswith("--")]
    return match.group(1), {"validation": match.group(2), "trace": states}


def expect_truth(kind: str, expected: Optional[str] = None,
                 trace: Optional[list] = None,
                 text: bool = False) -> Callable[[str, int], Outcome]:
    """Check a verify / witness / oracle --json result.

    Every truth value must match its exit code, oracle must report no
    contradiction, and a witness may validate as Invalid only where its
    loop is ambiguous (see :func:`loop_is_exact`). ``expected`` and
    ``trace`` add answers known independently of the code under test.
    """
    def check(out: str, rc: int) -> Outcome:
        truth, doc = read_result(kind, out, text)
        if truth not in TRUTH_EXIT:
            return _mismatch(kind, truth, "a truth value")
        want_rc = 0 if kind == "oracle" else TRUTH_EXIT[truth]
        if rc != want_rc:
            return _mismatch(f"{kind} exit code for {truth}", rc, want_rc)
        if kind == "witness" and doc["validation"] == "Invalid" \
                and loop_is_exact(doc["trace"]):
            return Outcome(error="witness: trace validation is Invalid")
        if doc.get("contradiction"):
            return Outcome(error="oracle found a contradiction")
        if expected is not None and truth != expected:
            return _mismatch(kind, truth, expected)
        if trace is not None and doc["trace"] != trace:
            return _mismatch(f"{kind} trace", doc["trace"], trace)
        trace_len = len(doc["trace"]) if kind == "witness" else None
        return Outcome(truth=truth, trace_len=trace_len)
    return check


def loop_is_exact(trace: list) -> bool:
    """Whether validation's lasso for this trace is the program's own loop.

    Validation closes the loop at the earliest earlier occurrence of the
    final state. In the handler-shaped programs here, where a handler emits
    the same state whenever it is entered, that is the handler the trace
    returned to only when no state repeats before the final one. Otherwise
    validation can misjudge a correct verdict, as the test suite documents
    in ``test_state_repetition_lassos_are_heuristic``.
    """
    earlier = [json.dumps(state, sort_keys=True) for state in trace[:-1]]
    return len(set(earlier)) == len(earlier)


def property_commands(program: str, props: str, prop: str, fair: list[str],
                      pair: str, expected: Optional[str] = None,
                      trace: Optional[list] = None,
                      oracle_depth: Optional[int] = None,
                      text_witness: bool = False) -> list[Command]:
    """``verify`` and ``witness --json``; ``oracle --json`` when a depth is
    given, and the plain-text ``witness`` when asked."""
    base = [program, "--props", props, "--prop", prop, *fair]
    out = [Command(["verify", *base], expect_truth("verify", expected), pair),
           Command(["witness", *base, "--json"],
                   expect_truth("witness", expected, trace), pair)]
    if text_witness:
        text_trace = None if trace is None else [_json_text(s) for s in trace]
        out.append(Command(["witness", *base],
                           expect_truth("witness", expected, text_trace, text=True), pair))
    if oracle_depth is not None:
        out.append(Command(["oracle", *base, "--json", "--depth", str(oracle_depth)],
                           expect_truth("oracle", expected), pair))
    return out


def _atom(state: str) -> str:
    return f"{{ case s of {state} -> True | _ -> False }}"


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _simulate(path: str, table: Table, rng: random.Random,
              events: tuple[str, ...], cycle: bool) -> Command:
    evs = [rng.choice(events) for _ in range(rng.randint(1, 8))]
    n = rng.randint(4, 24)
    argv = ["simulate", path, "--events", ",".join(evs), "-n", str(n)]
    if cycle:
        argv.append("--cycle")
    return Command(argv, expect_states(table.simulate(evs, cycle, n)))


# --- corpus_cli --------------------------------------------------------------------

def corpus_cli(rng: random.Random, workdir: Path, root: Path) -> list[Command]:
    """Every subcommand on the three bundled programs, as a user types them."""
    corpus = importlib.import_module("rtlcheck.corpus")
    folder = root / "src" / "rtlcheck" / "corpus"
    cmds: list[Command] = []
    for entry in corpus.ENTRIES:
        path = str(folder / entry.program_file)
        props = str(folder / entry.property_file)
        table = read_table(Path(path).read_text(encoding="utf-8"))
        events = tuple(sorted({b[0] for _, bs in table.handlers for b in bs} - {"_"}))
        cmds += [Command(["check", path], expect_conforms),
                 Command(["lts", path, "--dot"], expect_lts_dot(table)),
                 Command(["lts", path, "--json"], expect_lts_json(table)),
                 _simulate(path, table, rng, events, cycle=False),
                 _simulate(path, table, rng, events, cycle=True)]
        for prop, truth in entry.expected_verdicts.items():
            states = entry.expected_traces.get(prop)
            trace = None if states is None else [_term_json(s) for s in states]
            cmds += property_commands(path, props, prop, ["--fair-all"],
                                      f"{entry.name}/{prop}", str(truth),
                                      trace, oracle_depth=4, text_witness=True)
    rng.shuffle(cmds)
    return cmds


def _term_json(term) -> dict:
    return {"con": term.con, "args": [_term_json(a) for a in term.args]}


def _json_text(state: dict) -> str:
    """A flat state as the text witness prints it, e.g. ``ObsState W T``."""
    return " ".join([state["con"], *(a["con"] for a in state["args"])])


# --- handler_graphs ----------------------------------------------------------------

GRAPH_EVENTS = ("EvA", "EvB", "EvC", "EvD")
GRAPH_STATES = ("St0", "St1", "St2")
EXPLICIT_BRANCHES = 2

# (handlers, shape index) per pass. The shapes come from fixed seeds, so the
# verifier's work per pass is the same for every --seed: its rule count
# depends only on the call graph, and --seed draws only the labels (names,
# events, fairness). The states come with the shape, which halves the
# seed-to-seed spread of trace_len_mean. For G(a => F b), shapes (7, 0) and (8, 1) need
# about 1.5e5 rule applications, which keeps the exponential tail in every
# pass; the other sixteen need 1.4e4 to 1.9e4, so that p90 falls among
# checks of nearly equal cost instead of between two very different ones.
GRAPH_SHAPES = ((4, 5), (4, 15), (5, 2), (5, 7), (6, 4), (6, 5), (6, 14),
                (6, 15), (6, 18), (6, 22), (6, 31), (7, 2), (7, 3), (7, 4),
                (7, 19), (7, 26), (7, 0), (8, 1))


def graph_shape(n: int, index: int) -> tuple[list[list[int]], list[str]]:
    """Targets of each handler's branches and the state each handler emits
    when entered; handler 0 is initial.

    Every handler has an incoming branch, so the program passes ``lts``.
    """
    rng = random.Random(f"rtlcheck-benchmark-shape/{n}/{index}")
    while True:
        shape = [[rng.randrange(n) for _ in range(EXPLICIT_BRANCHES + 1)]
                 for _ in range(n)]
        if {t for targets in shape for t in targets} == set(range(n)):
            return shape, [rng.choice(GRAPH_STATES) for _ in range(n)]


GRAPH_FORMULAS = (
    ("always_a", f"G {_atom('St0')}"),
    ("eventually_b", f"F {_atom('St1')}"),
    ("response", f"G ({_atom('St0')} => F {_atom('St1')})"),
    ("next_b", f"X {_atom('St1')}"),
    ("not_always_a", f"!G {_atom('St0')}"),
    ("safe_and_live", f"G ({_atom('St0')} || {_atom('St1')}) && F {_atom('St0')}"),
    ("now_a", _atom("St0")),
)


def graph_table(rng: random.Random, shape: list[list[int]],
                state: list[str]) -> tuple[Table, list[str]]:
    """A labelling of a shape: handler names and branch events."""
    n = len(shape)
    names = [f"g{i}" for i in rng.sample(range(n), n)]
    handlers = []
    for i, targets in enumerate(shape):
        labels = rng.sample(GRAPH_EVENTS, EXPLICIT_BRANCHES) + ["_"]
        handlers.append((names[i], tuple(
            (label, state[t], names[t]) for label, t in zip(labels, targets))))
    order = rng.sample(names, n)
    return Table(names[0], state[0], tuple(handlers)), order


def graph_answers(table: Table) -> dict[str, str]:
    """Exact answers for the formulas that need no fairness reasoning.

    Every handler accepts every event, so any finite run extends to a fair
    infinite one: the safety answers are plain reachability.
    """
    table_b = table.branches()
    reach = table.reachable_states()
    always_a = reach == {"St0"}
    first = {state for _, state, _ in table_b[table.initial]}
    return {"always_a": str(always_a), "not_always_a": str(not always_a),
            "next_b": str(first == {"St1"}),
            "now_a": str(table.initial_state == "St0")}


def _fair_flags(rng: random.Random) -> list[str]:
    roll = rng.random()
    if roll < 0.4:
        return ["--fair-all"]
    if roll < 0.6:
        return []
    return ["--fair", ",".join(rng.sample(GRAPH_EVENTS, rng.randint(1, len(GRAPH_EVENTS))))]


def handler_graphs(rng: random.Random, workdir: Path, root: Path) -> list[Command]:
    """verify + witness --json for every (graph, formula); one oracle, lts, simulate per graph."""
    props = _write(workdir / "graphs.ltl", "".join(
        f"prop {name}: {text}\n" for name, text in GRAPH_FORMULAS))
    cmds: list[Command] = []
    for n, index in GRAPH_SHAPES:
        table, order = graph_table(rng, *graph_shape(n, index))
        path = _write(workdir / f"graph_{n}_{index}.rsl",
                      render_program(table, GRAPH_EVENTS, GRAPH_STATES, order))
        answers = graph_answers(table)
        cmds += [Command(["check", path], expect_conforms),
                 Command(["lts", path, "--json"], expect_lts_json(table)),
                 _simulate(path, table, rng, GRAPH_EVENTS, rng.random() < 0.5)]
        for name, _ in GRAPH_FORMULAS:
            fair = _fair_flags(rng)
            depth = 2 if name == "next_b" else None
            cmds += property_commands(path, props, name, fair,
                                      f"{path}/{name}/{fair}", answers.get(name),
                                      oracle_depth=depth)
    rng.shuffle(cmds)
    return cmds


# --- handler_chain -----------------------------------------------------------------

# Each size is drawn from a narrow band so that the verifier's quadratic work
# on the response property changes little from seed to seed. The bands stay
# clear of the sizes where today's recursion depth runs out (response from
# N of about 140, every property by N = 300), so failures are steady too.
# Five chains of about 61 handlers put p90 among checks of nearly equal cost.
CHAIN_SIZES = ((10, 12), (24, 26), (40, 42), (60, 62), (60, 62), (60, 62),
               (60, 62), (60, 62), (88, 90), (150, 152), (396, 400))
CHAIN_EVENTS = ("EvA", "EvB")
CHAIN_STATES = ("St0", "St1", "St2", "St3")
CHAIN_PROPS = (
    ("safe", f"G !{_atom('St3')}"),
    ("response", f"G ({_atom('St0')} => F {_atom('St1')})"),
    ("eventually_last", f"F {_atom('St2')}"),
)


def chain_table(n: int, phase: int) -> Table:
    """A ring: EvA advances to the next handler, any other event stays.

    Every fifth handler (from ``phase``) emits St1, the handler farthest from
    the start emits St2, and all others St0. No handler emits St3.
    """
    def state(j: int) -> str:
        if j == n - 1:
            return "St2"
        return "St1" if j % 5 == phase else "St0"

    handlers = tuple((f"h{i}", (("EvA", state((i + 1) % n), f"h{(i + 1) % n}"),
                                ("_", state(i), f"h{i}")))
                     for i in range(n))
    return Table("h0", state(0), handlers)


def handler_chain(rng: random.Random, workdir: Path, root: Path) -> list[Command]:
    """Deep, narrow ring programs; every property holds under --fair-all."""
    props = _write(workdir / "chain.ltl", "".join(
        f"prop {name}: {text}\n" for name, text in CHAIN_PROPS))
    cmds: list[Command] = []
    for i, (lo, hi) in enumerate(CHAIN_SIZES):
        n = rng.randint(lo, hi)
        table = chain_table(n, rng.randrange(5))
        order = [name for name, _ in table.handlers]
        rng.shuffle(order)
        path = _write(workdir / f"chain{i}_{n}.rsl",
                      render_program(table, CHAIN_EVENTS, CHAIN_STATES, order))
        cmds += [Command(["check", path], expect_conforms),
                 Command(["lts", path, "--json"], expect_lts_json(table)),
                 _simulate(path, table, rng, CHAIN_EVENTS, rng.random() < 0.5)]
        for name, _ in CHAIN_PROPS:
            depth = 3 if name == "safe" else None
            cmds += property_commands(path, props, name, ["--fair-all"],
                                      f"{path}/{name}", "True", oracle_depth=depth)
    rng.shuffle(cmds)
    return cmds


GENERATORS = {"corpus_cli": corpus_cli, "handler_graphs": handler_graphs,
            "handler_chain": handler_chain}
WORKLOADS = tuple(GENERATORS)


def build(workload: str, seed: int, workdir: Path, root: Path) -> list[Command]:
    """The pass of a workload for a seed, writing its input files to ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](random.Random(seed), workdir, root)
