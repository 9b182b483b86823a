import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rtlcheck import cli, ltlsem, semantics
from rtlcheck.cli import EX_DATA, EX_USAGE, USAGE, main, parse_args
from rtlcheck.ltlsem import MAX_ENUM_DEPTH
from rtlcheck.parser import parse_program

CORPUS = "src/rtlcheck/corpus"


@pytest.fixture()
def corpus_paths(tmp_path, corpus_text):
    paths = {}
    for fname, text in corpus_text.items():
        target = tmp_path / fname
        target.write_text(text)
        paths[fname] = str(target)
    return paths


def test_verify_false_prints_and_exits_1(corpus_paths, capsys):
    code = main(["verify", corpus_paths["example1.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "mutex",
                 "--fair-all"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "False"


def test_verify_true_exits_0(corpus_paths, capsys):
    code = main(["verify", corpus_paths["example2.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "mutex",
                 "--fair-all"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "True"


def test_verify_json(corpus_paths, capsys):
    code = main(["verify", corpus_paths["example3.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "nonstarve1",
                 "--fair-all", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"property": "nonstarve1", "truth": "True"}


def test_witness_trace_output(corpus_paths, capsys):
    code = main(["witness", corpus_paths["example1.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "mutex",
                 "--fair-all"])
    assert code == 1
    out = capsys.readouterr().out
    lines = [l.strip() for l in out.strip().splitlines()]
    assert lines[0].startswith("False")
    assert lines[-1] == "ObsState U U"
    assert len([l for l in lines if l.startswith("ObsState")]) == 5


def test_witness_json_schema(corpus_paths, capsys):
    code = main(["witness", corpus_paths["example2.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "nonstarve1",
                 "--fair-all", "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["truth"] == "False"
    assert doc["validation"] == "Valid"
    assert doc["lasso"] == {"prefixLen": 2, "loopLen": 1}
    assert doc["trace"][0] == {"con": "ObsState", "args": [
        {"con": "T", "args": []}, {"con": "T", "args": []}]}


def test_check_exit_codes(corpus_paths, tmp_path, capsys):
    assert main(["check", corpus_paths["example3.rsl"]]) == 0
    bad = tmp_path / "bad.rsl"
    bad.write_text("data S = A\ncase f es of Cons e es -> Cons A (f es)")
    assert main(["check", str(bad)]) == 1
    assert "scrutinee" in capsys.readouterr().out


def test_lts_dot_and_json(corpus_paths, capsys):
    assert main(["lts", corpus_paths["example2.rsl"], "--dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert main(["lts", corpus_paths["example2.rsl"], "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nodes"]) == 6


def test_lts_json_matches_golden(corpus_paths, capsys):
    assert main(["lts", corpus_paths["example2.rsl"], "--json"]) == 0
    golden = Path(__file__).parent / "golden" / "example2.json"
    assert capsys.readouterr().out == golden.read_text()


def test_simulate(corpus_paths, capsys):
    code = main(["simulate", corpus_paths["example1.rsl"],
                 "--events", "Request1,Take1,Release1", "--cycle", "-n", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["ObsState T T", "ObsState W T", "ObsState U T",
                     "ObsState T T"]


CLASH_PROGRAM = """data Event = EvA | EvB
data State = St0 | St1
data TruthVal = True | False | Undefined

Cons St0 (events1 es)
where
events1 = \\es -> case es of Cons e es -> Cons St1 (g es)
g = \\es -> case es of Cons e es -> Cons St0 (events1 es)
"""


@pytest.mark.parametrize("fname", ["events1", "h"])
def test_simulate_cycle_ignores_program_function_names(tmp_path, capsys, fname):
    # the cycled event list is bound beside the program's functions, under a
    # name no program can define, so a function called events1 cannot shadow it
    path = tmp_path / "p.rsl"
    path.write_text(CLASH_PROGRAM.replace("events1", fname))
    code = main(["simulate", str(path), "--events", "EvA,EvB", "--cycle", "-n", "5"])
    assert code == 0
    assert capsys.readouterr().out.split() == ["St0", "St1", "St0", "St1", "St0"]


def test_simulate_cycle_budget_is_per_state(corpus_paths, capsys, monkeypatch):
    # example1 needs 5 steps a state: 1000 states fit 20 steps each, not in total
    monkeypatch.setattr(semantics, "DEFAULT_FUEL", 20)
    code = main(["simulate", corpus_paths["example1.rsl"],
                 "--events", "Request1,Take1,Release1", "--cycle", "-n", "1000"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1000
    assert lines[-1] == "ObsState T T"


DIVERGING_PROGRAM = """data Event = EvA | EvB
data State = St0 | St1
data TruthVal = True | False | Undefined

Cons St0 (f es)
where
f = \\es -> case es of Cons e es -> case e of EvB -> g es | _ -> Cons St1 (f es)
g = \\es -> g es
"""


def test_state_that_diverges_on_its_own_exits_70(tmp_path, capsys, monkeypatch):
    # in simplified form, so the oracle's verifier accepts it; its stream cell
    # after EvB never reaches a value
    monkeypatch.setattr(semantics, "DEFAULT_FUEL", 200)
    path = tmp_path / "p.rsl"
    path.write_text(DIVERGING_PROGRAM)
    props = tmp_path / "p.ltl"
    props.write_text("prop p: G {case s of St0 -> True | _ -> False}\n")
    assert main(["simulate", str(path), "--events", "EvA,EvB"]) == 70
    assert capsys.readouterr().out == ""
    assert main(["oracle", str(path), "--props", str(props), "--prop", "p",
                 "--depth", "2"]) == 70
    assert "FuelExhausted" in capsys.readouterr().err


# a case whose scrutinee calls the function the case is in: each call opens
# one more pending case, and no value ever comes back to one
SELF_NESTING_ATOM = "{ g s where g = \\x -> case (g x) of True -> True | _ -> False }"
SELF_NESTING_PROGRAM = """\
data Ev = EvA | EvB
data St = St0 | St1
Cons St0 (f es)
where
f = \\es -> case (f es) of Cons s r -> Cons s r
"""


def test_self_nesting_scrutinees_exhaust_the_fuel(tmp_path, corpus_paths,
                                                   capsys, monkeypatch):
    # atoms get DEFAULT_FUEL as states do; 5,000 steps nest more pending
    # cases than Python's recursion limit, which a call per scrutinee hit
    monkeypatch.setattr(semantics, "DEFAULT_FUEL", 5000)
    props = tmp_path / "p.ltl"
    props.write_text(f"prop p: G {SELF_NESTING_ATOM}\n")
    check = [corpus_paths["example1.rsl"], "--props", str(props), "--prop", "p"]
    program = tmp_path / "p.rsl"
    program.write_text(SELF_NESTING_PROGRAM)
    for argv in (["verify", *check], ["witness", *check],
                 ["oracle", *check, "--depth", "2"],
                 ["simulate", str(program), "--events", "EvA,EvA"]):
        assert main(argv) == 70
        assert "FuelExhausted" in capsys.readouterr().err


# a state that is a constructor applied to itself without end
CONSTRUCTOR_TOWER = """\
data Ev = EvA | EvB
data N = Z | S N
Cons (g es) Nil
where
g = \\x -> S (g x)
"""


def test_a_constructor_tower_exhausts_the_fuel(tmp_path, capsys, monkeypatch):
    # 5,000 steps build more levels than Python's recursion limit, which a
    # call per constructor argument hit
    monkeypatch.setattr(semantics, "DEFAULT_FUEL", 5000)
    path = tmp_path / "p.rsl"
    path.write_text(CONSTRUCTOR_TOWER)
    assert main(["simulate", str(path), "--events", "EvA"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "rtlcheck: FuelExhausted: no value after step budget: App\n"


def test_a_state_deeper_than_the_recursion_limit_prints(tmp_path, capsys):
    # 3,000 handlers each wrap the next one's state in S: printing the state
    # with a call per constructor argument hit Python's recursion limit
    n = 3000
    handlers = "".join(f"n{i} = \\x -> S (n{i + 1} x)\n" for i in range(n))
    path = tmp_path / "p.rsl"
    path.write_text("data Ev = EvA | EvB\ndata N = Z | S N\nCons (n0 es) Nil\n"
                    f"where\n{handlers}n{n} = \\x -> Z\n")
    assert main(["simulate", str(path), "--events", "EvA"]) == 0
    out, err = capsys.readouterr()
    assert out == "S (" * (n - 1) + "S Z" + ")" * (n - 1) + "\n"
    assert err == ""


# the same state, 400 constructors deep, at the root and in the one handler:
# comparing two states with a frame per level hit Python's recursion limit
DEEP_STATE = "(S " * 400 + "Z" + ")" * 400
DEEP_STATE_PROGRAM = f"""data N = Z | S N
data E = Ev
Cons {DEEP_STATE} (h es) where
  h = \\es -> case es of Cons e es -> case e of _ -> Cons {DEEP_STATE} (h es)
"""


@pytest.mark.parametrize("command", [
    ["verify"], ["witness"], ["oracle", "--depth", "2"], ["lts", "--json"]])
def test_a_state_deeper_than_the_recursion_limit_compares(tmp_path, capsys, command):
    path = tmp_path / "p.rsl"
    path.write_text(DEEP_STATE_PROGRAM)
    props = tmp_path / "p.ltl"
    props.write_text("prop p: G { case s of Z -> False | _ -> True }\n")
    if command[0] != "lts":
        command += ["--props", str(props), "--prop", "p"]
    assert main([*command, str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith({"verify": "True\n", "witness": "True  (witness",
                           "oracle": "verdict: True", "lts": "{"}[command[0]])


def test_a_long_let_chain_runs_as_its_body(tmp_path, capsys):
    # 900 lets above the root: two calls per let hit Python's recursion limit
    # in the free-variable walk that binds the event list
    body = ("Cons St0 (f es)\nwhere\nf = \\es -> case es of Cons e es -> "
            "case e of EvA -> Cons St1 (f es) | _ -> Cons St0 (f es)\n")
    lets = "".join(f"let v{i} = St0 in " for i in range(900))
    outs = []
    for root in (body, lets + body):
        path = tmp_path / "p.rsl"
        path.write_text("data Ev = EvA | EvB\ndata St = St0 | St1\n" + root)
        assert main(["simulate", str(path), "--events", "EvA,EvB"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0] == "St0\nSt1\nSt0\n"


# a lambda is no state: printing one would show the simulator's own name for
# the event list, which the lambda closes over
LAMBDA_STATE = """data E = EvA | EvB
Cons (\\x -> es) Nil
"""


@pytest.mark.parametrize("cycle", [[], ["--cycle", "-n", "3"]])
def test_simulate_lambda_state_exits_70(tmp_path, capsys, cycle):
    path = tmp_path / "p.rsl"
    path.write_text(LAMBDA_STATE)
    assert main(["simulate", str(path), "--events", "EvA,EvB", *cycle]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("rtlcheck: NonConsOutput: program output is not a state "
                   "stream: a state holds a lambda\n")


LET_LAMBDA_STATE = """data E = EvA | EvB
data S = St0 | St1
data TruthVal = True | False | Undefined

Cons St0 (f es)
where
f = \\es -> case es of Cons e es -> case e of
      EvB -> (let g = \\x -> Cons St0 (f x) in Cons g (f es))
    | _ -> Cons St1 (f es)
"""


def test_oracle_sampling_a_let_bound_lambda_state_exits_70(tmp_path, capsys):
    # a let-bound name stands for a lambda, so a state that holds one is not
    # in simplified form: G True, which never looks at the state, is refused
    # before any sampling
    path = tmp_path / "p.rsl"
    path.write_text(LET_LAMBDA_STATE)
    props = tmp_path / "p.ltl"
    props.write_text("prop p: G { True }\n")
    assert main(["oracle", str(path), "--props", str(props), "--prop", "p",
                 "--depth", "2"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert "NotSimplified" in err


@pytest.mark.parametrize("command", ["verify", "witness", "oracle"])
def test_let_bound_variable_as_a_state_is_not_simplified(tmp_path, capsys, command):
    path = tmp_path / "p.rsl"
    path.write_text(LET_LAMBDA_STATE)
    props = tmp_path / "p.ltl"
    props.write_text("prop p: G {case s of St0 -> True | _ -> False}\n")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "program.f.alt0.alt0.body.state: [cons] state position of Cons must be "
        "a ground constructor term\n")
    assert main([command, str(path), "--props", str(props), "--prop", "p"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("rtlcheck: NotSimplified: program.f.alt0.alt0.body.state:")


# the verifier binds no variable: a state that is a case pattern's variable, or
# a handler parameter a call binds to one, would reach the atom unbound
VARIABLE_STATES = {
    "case pattern": ("Cons EvA (f es)\nwhere\n"
                     "f = \\es -> case es of Cons e r -> Cons e (f r)\n",
                     "program.f.alt0.state"),
    "handler parameter": ("Cons EvA (f es)\nwhere\n"
                          "f = \\es -> case es of Cons e r -> g e r\n"
                          "g = \\x -> \\r -> Cons x (f r)\n",
                          "program.g.state"),
}


@pytest.mark.parametrize("name", sorted(VARIABLE_STATES))
@pytest.mark.parametrize("command", ["verify", "witness", "oracle"])
def test_variable_as_a_state_is_not_simplified(tmp_path, capsys, command, name):
    text, where = VARIABLE_STATES[name]
    path = tmp_path / "p.rsl"
    path.write_text("data Ev = EvA | EvB\n" + text)
    props = tmp_path / "p.ltl"
    props.write_text("prop p: G {case s of EvA -> True | _ -> False}\n")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"{where}: [cons] state position of Cons must be a ground constructor term\n")
    assert main([command, str(path), "--props", str(props), "--prop", "p"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"rtlcheck: NotSimplified: {where}:")


@pytest.mark.parametrize("fmt", ["--dot", "--json"])
def test_lts_refuses_a_program_check_refuses(tmp_path, capsys, fmt):
    # the form check runs first, so no state is rendered that is not ground
    path = tmp_path / "varstate.rsl"
    path.write_text("data Ev = EvA | EvB\nCons EvA (f es)\nwhere\n"
                    "f = \\es -> case es of Cons e r -> case e of _ -> Cons e (g r)\n"
                    "g = \\es -> case es of Cons e r -> case e of _ -> Cons e (g r)\n")
    assert main(["lts", str(path), fmt]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("rtlcheck: NotSimplified: program.f.alt0.alt0.state: state "
                   "position of Cons must be a ground constructor term\n")


TWO_FREE_VARIABLES = """data Ev = EvA | EvB
data St = St0 | St1
Cons St0 (f es)
where
f = \\es -> case es of Cons e r -> case e of EvA -> Cons St0 (f y) | _ -> Cons St1 (f r)
"""


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_program_with_two_free_variables_exits_70(tmp_path, capsys, command):
    # the form check refuses it, though a call's arguments are variables; the
    # simulator runs no form check, and has one event list to bind
    path = tmp_path / "p.rsl"
    path.write_text(TWO_FREE_VARIABLES)
    props = tmp_path / "p.ltl"
    props.write_text("prop p: G {case s of St0 -> True | _ -> False}\n")
    where = "program.f.alt0.alt0.tail"
    message = "free variable y: only the event list es may be free"
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == f"{where}: [scope] {message}\n"
    options = {"simulate": ["--events", "EvA,EvB"],
               "oracle": ["--props", str(props), "--prop", "p", "--depth", "2"]}
    errors = {"simulate": "EvalError: program has several free variables: es, y",
              "oracle": f"NotSimplified: {where}: {message}"}
    assert main([command, str(path), *options[command]]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"rtlcheck: {errors[command]}\n"


def test_closed_program_simulates(tmp_path, capsys):
    # a program that reads no event has no event list to bind: it runs as
    # it is, one state per event
    path = tmp_path / "closed.rsl"
    path.write_text("data Ev = EvA | EvB\ndata St = St0 | St1\nCons St0 f\nwhere\n"
                    "f = Cons St1 f\n")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "conforms\n"
    assert main(["simulate", str(path), "--events", "EvA,EvA"]) == 0
    assert capsys.readouterr().out.split() == ["St0", "St1", "St1"]


def test_simulate_an_application_of_1200_arguments_exits_70(tmp_path, capsys):
    # the free variables of an application are read down its function spine
    # in a loop and the machine pushes its arguments in one, so no walk
    # recurses once per argument: the run gets as far as the second state's
    # stream cell, a constructor applied to 1,199 more arguments
    args = " ".join(["es"] * 1200)
    path = tmp_path / "wide.rsl"
    path.write_text("data Ev = EvA | EvB\ndata St = St0 | St1\nCons St0 (f es)\nwhere\n"
                    f"f = \\es -> case es of Cons e es -> Cons St0 (f {args})\n")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "conforms\n"
    assert main(["simulate", str(path), "--events", "EvA,EvA"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "rtlcheck: StuckError: stuck: constructor Cons applied beyond its arity\n"


def test_where_defining_a_name_twice_exits_66(tmp_path, capsys):
    path = tmp_path / "twice.rsl"
    path.write_text(DIVERGING_PROGRAM + "f = \\es -> Cons St1 (f es)\n")
    props = tmp_path / "p.ltl"
    props.write_text("prop p: G {case s of St0 -> True | _ -> False}\n")
    assert main(["check", str(path)]) == EX_DATA
    assert main(["verify", str(path), "--props", str(props), "--prop", "p"]) == EX_DATA
    assert "function f defined twice in one where block" in capsys.readouterr().err


def test_oracle_consistency(corpus_paths, capsys):
    code = main(["oracle", corpus_paths["example2.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "mutex",
                 "--fair-all", "--depth", "2", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["truth"] == "True"
    assert doc["sampled"] == 36
    assert doc["contradiction"] is False


# h's block defines an m of its own, which only that block's calls mean: n's
# call of m is the outer m's, so every state is St0
INNER_SHADOW = """\
data Ev = EvA | EvB
data St = St0 | St1
Cons St0 (n es)
where
n = \\es -> case es of Cons e es -> case e of EvA -> Cons St0 (h es) | _ -> Cons St0 (m es)
m = \\es -> case es of Cons e es -> Cons St0 (n es)
h = \\es -> (k es where
  k = \\es -> case es of Cons e es -> Cons St0 (n es)
  m = \\es -> case es of Cons e es -> Cons St1 (m es))
"""


def test_commands_agree_on_an_inner_block_that_shadows_a_name(tmp_path, capsys):
    # with where-bound names scoped dynamically, simulate ended in St1 and the
    # oracle found 4 Unsat sequences against the verifier's True
    program = tmp_path / "p.rsl"
    program.write_text(INNER_SHADOW)
    props = tmp_path / "p.ltl"
    props.write_text("prop always0: G { case s of St0 -> True | _ -> False }\n")
    check = ["--props", str(props), "--prop", "always0"]
    assert main(["verify", str(program), *check]) == 0
    assert capsys.readouterr().out == "True\n"
    assert main(["simulate", str(program), "--events", "EvA,EvB,EvB,EvB"]) == 0
    assert capsys.readouterr().out.split() == ["St0"] * 5
    assert main(["oracle", str(program), *check, "--depth", "4", "--fair-all",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["truth"], doc["validation"], doc["bounded"]["Unsat"],
            doc["contradiction"]) == ("True", "Valid", 0, False)


# sha256 of the nine outputs of oracle --json --depth 4 --fair-all, in the
# order of the loops below, recorded while every event sequence was
# simulated and bounded-checked on its own
ORACLE_JSON_DIGEST = "b48e8bc1b62d5dd7cfb6b1fce45c85da5ef4ab16060404c59ed3b26117b30a3b"


# emits St0 forever; a formula that nests X over G St1 is False at the root
# Cons cell and at a root call alike
ST0_FOREVER = """\
data Ev = EvA | EvB
data St = St0 | St1
{root}
where
f = \\es -> case es of Cons e es -> case e of EvA -> Cons St0 (f es) | _ -> Cons St0 (f es)
"""


@pytest.mark.parametrize("root, formula", [
    ("Cons St0 (f es)", "X (X (G {st1}))"),
    ("f es", "X (X (G {st1}))"),
    ("f es", "X (G {st1})"),
])
def test_a_revisit_under_next_closes_only_its_own_obligation(tmp_path, capsys,
                                                             root, formula):
    # the tail of an X is a fresh obligation: a call revisited there closes
    # the fixpoint of G St1, not that of an enclosing X or of nothing
    program = tmp_path / "p.rsl"
    program.write_text(ST0_FOREVER.format(root=root))
    props = tmp_path / "p.ltl"
    props.write_text("prop p: " + formula.format(
        st1="{ case s of St1 -> True | _ -> False }") + "\n")
    check = [str(program), "--props", str(props), "--prop", "p"]
    for fair in ([], ["--fair-all"]):
        assert main(["verify", *check, *fair]) == 1
        assert capsys.readouterr().out == "False\n"
    assert main(["witness", *check, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["truth"], doc["validation"]) == ("False", "Valid")
    if root == "f es":
        # a root call's oracle exits 70 (StuckError): pinned as a strict
        # xfail by test_a_root_call_runs_every_event_sequence (item 14)
        return
    assert main(["oracle", *check, "--depth", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["truth"], doc["validation"], doc["bounded"]["Unsat"],
            doc["contradiction"]) == ("False", "Valid", 16, False)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: a list case need not match Nil")
def test_a_root_call_runs_every_event_sequence(tmp_path, capsys):
    # a root call reads an event before its first state, so a run of n events
    # asks f for a state at Nil, which it has no case for
    program = tmp_path / "p.rsl"
    program.write_text(ST0_FOREVER.format(root="f es"))
    props = tmp_path / "p.ltl"
    props.write_text("prop p: X (X (G { case s of St1 -> True | _ -> False }))\n")
    main(["simulate", str(program), "--events", "EvA,EvB"])
    assert "StuckError" not in capsys.readouterr().err
    main(["oracle", str(program), "--props", str(props), "--prop", "p", "--depth", "4"])
    assert "StuckError" not in capsys.readouterr().err


def test_oracle_json_pinned_on_corpus(corpus_paths, capsys):
    digest, unsat = _oracle_json_on_corpus(corpus_paths, capsys, 4)
    assert unsat == {"example1/mutex": 4}
    assert digest == ORACLE_JSON_DIGEST


def test_fair_list_flag(corpus_paths, capsys):
    # fairness on process-1 moves alone still rules out its starvation
    code = main(["verify", corpus_paths["example1.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "nonstarve1",
                 "--fair", "Take1,Release1,Release2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "True"


def test_fair_list_rejects_unknown_names(corpus_paths, capsys):
    code = main(["verify", corpus_paths["example1.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "nonstarve1",
                 "--fair", "NotAnEvent"])
    assert code == EX_DATA


_STATE_FAIR_PROGRAM = """\
data Ev = EvA | EvB
data St = St0 | St1
Cons St0 (f es)
where
f = \\es -> case es of Cons e es -> case e of EvA -> Cons St0 (f es) | _ -> Cons St1 (f es)
"""


@pytest.mark.parametrize("header, fair", [
    ("", ["--fair", "EvA"]),
    ("", ["--fair", "EvA,St0"]),
    ("fair: St0\n", []),
], ids=["fair_EvA", "fair_EvA_St0", "header_St0"])
def test_a_fair_name_that_is_no_event_constrains_nothing(tmp_path, capsys, header, fair):
    # the run of EvA alone is fair to EvA and never reaches St1; St0 is a
    # declared nullary constructor but no event, so naming it changes nothing
    program = tmp_path / "p.rsl"
    program.write_text(_STATE_FAIR_PROGRAM)
    props = tmp_path / "p.ltl"
    props.write_text(header + "prop reach1: F { case s of St1 -> True | _ -> False }\n")
    code = main(["verify", str(program), "--props", str(props), "--prop", "reach1", *fair])
    assert (code, capsys.readouterr().out.strip()) == (1, "False")


def test_missing_file_exits_66(capsys):
    assert main(["check", "no/such/file.rsl"]) == EX_DATA


def test_declaration_problem_exits_66_at_its_name(tmp_path, capsys):
    path = tmp_path / "decls.rsl"
    path.write_text("data D = A\ndata E = B | A\nA\n")
    assert main(["check", str(path)]) == EX_DATA
    assert f"{path}: 2:14: constructor A already declared in D" in capsys.readouterr().err


def test_malformed_file_exits_66(tmp_path, capsys):
    bad = tmp_path / "oops.rsl"
    bad.write_text("case x of C y y -> (")
    assert main(["check", str(bad)]) == EX_DATA


def test_nesting_too_deep_to_parse_exits_66(corpus_paths, tmp_path, capsys):
    deep = tmp_path / "deep.rsl"
    deep.write_text("(" * 5000 + "Nil" + ")" * 5000)
    assert main(["check", str(deep)]) == EX_DATA
    props = tmp_path / "deep.ltl"
    props.write_text("prop p: " + "(" * 5000 + "G { True }" + ")" * 5000)
    assert main(["verify", corpus_paths["example1.rsl"],
                 "--props", str(props), "--prop", "p"]) == EX_DATA
    assert "nested too deeply to parse" in capsys.readouterr().err


def test_internal_error_exits_70(corpus_paths, tmp_path, capsys):
    # parses fine but is not in simplified form: verify refuses, exit > 2
    bad = tmp_path / "unsimplified.rsl"
    bad.write_text(
        "data Event = Request1 | Request2 | Take1 | Take2 | Release1 | Release2\n"
        "data State = ObsState ProcState ProcState\n"
        "data ProcState = T | W | U\n"
        "case f es of Cons e es -> Cons (ObsState T T) (f es)")
    code = main(["verify", str(bad),
                 "--props", corpus_paths["mutex.ltl"], "--prop", "mutex"])
    assert code == 70
    assert "NotSimplified" in capsys.readouterr().err


def test_reader_closing_stdout_early_exits_74(corpus_paths):
    # as in `rtlcheck simulate ... | head -1`: a closed pipe is not a verdict
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "rtlcheck.cli", "simulate", corpus_paths["example1.rsl"],
         "--events", "Request1,Take1,Release1", "--cycle", "-n", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline() == "ObsState T T\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 74
    assert "Traceback" not in err


@pytest.mark.parametrize("command", (["witness"], ["oracle", "--depth", "2"]))
def test_a_check_deeper_than_the_recursion_limit_exits_70(corpus_paths, capsys,
                                                          monkeypatch, command):
    # an internal failure, not the False verdict's exit 1 with a traceback
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "generate", too_deep)
    code = main([*command, corpus_paths["example1.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "mutex",
                 "--fair-all"])
    assert code == 70
    assert capsys.readouterr() == (
        "", "rtlcheck: RecursionError: maximum recursion depth exceeded\n")


def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing file and property flags
    assert exc.value.code == EX_USAGE


def test_unknown_property_exits_66(corpus_paths, capsys):
    code = main(["verify", corpus_paths["example1.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "nope"])
    assert code == EX_DATA


def test_non_utf8_file_exits_66(tmp_path, corpus_paths, capsys):
    bad = tmp_path / "latin1.rsl"
    bad.write_bytes("data S = \xc4\n".encode("latin-1"))
    assert main(["check", str(bad)]) == EX_DATA
    assert main(["verify", corpus_paths["example1.rsl"], "--props", str(bad),
                 "--prop", "mutex"]) == EX_DATA
    assert "not UTF-8" in capsys.readouterr().err


def test_directory_as_file_exits_66(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == EX_DATA
    assert f"cannot read {tmp_path}: Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_crlf_and_lone_cr_files_read_as_lf(corpus_paths, tmp_path, capsys, newline):
    # a file's "\r\n" and lone "\r" end lines, as a text-mode read gives them
    copies = {}
    for name in ("example3.rsl", "mutex.ltl"):
        copy = tmp_path / f"{newline.hex()}-{name}"
        copy.write_bytes(Path(corpus_paths[name]).read_bytes().replace(b"\n", newline))
        copies[name] = str(copy)
    prop = ["--props", "mutex.ltl", "--prop", "nonstarve1", "--fair-all"]
    for argv in (["check", "example3.rsl"], ["verify", "example3.rsl", *prop],
                 ["witness", "example3.rsl", *prop, "--json"],
                 ["lts", "example3.rsl", "--dot"]):
        runs = []
        for paths in (corpus_paths, copies):
            code = main([paths.get(arg, arg) for arg in argv])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1], argv


def test_byte_order_mark_files_read_as_the_originals(corpus_paths, tmp_path, capsys):
    # the commands drop a leading UTF-8 byte-order mark; parse_program, given
    # a string, still refuses it
    copies = {}
    for name in ("example1.rsl", "mutex.ltl"):
        copy = tmp_path / f"bom-{name}"
        copy.write_bytes(b"\xef\xbb\xbf" + Path(corpus_paths[name]).read_bytes())
        copies[name] = str(copy)
    prop = ["--props", "mutex.ltl", "--prop", "mutex", "--fair-all"]
    for argv in (["check", "example1.rsl"], ["verify", "example1.rsl", *prop],
                 ["witness", "example1.rsl", *prop, "--json"],
                 ["oracle", "example1.rsl", *prop, "--depth", "2"],
                 ["lts", "example1.rsl", "--json"]):
        runs = []
        for paths in (corpus_paths, copies):
            code = main([paths.get(arg, arg) for arg in argv])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1], argv
    text = Path(copies["example1.rsl"]).read_text(encoding="utf-8")
    assert [str(d) for d in parse_program(text).diagnostics] == [
        "1:1: unexpected character '\\ufeff'"]


def test_negative_oracle_depth_is_usage_error(corpus_paths, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", corpus_paths["example1.rsl"],
              "--props", corpus_paths["mutex.ltl"], "--prop", "mutex",
              "--depth", "-1"])
    assert exc.value.code == EX_USAGE


def test_oracle_depth_above_enumeration_limit_is_usage_error(corpus_paths,
                                                              capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", corpus_paths["example1.rsl"],
              "--props", corpus_paths["mutex.ltl"], "--prop", "mutex",
              "--depth", str(MAX_ENUM_DEPTH + 1)])
    assert exc.value.code == EX_USAGE


@pytest.mark.parametrize("fair", ["--fair=", "--fair=,"])
def test_empty_fair_list_means_no_fair_events(corpus_paths, capsys, fair):
    # the property file declares every event fair, under which this holds
    code = main(["verify", corpus_paths["example3.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "nonstarve1",
                 fair])
    assert code == 1
    assert capsys.readouterr().out.strip() == "False"


@pytest.mark.parametrize("events", ["", ",", " , "])
def test_cycle_without_events_is_usage_error(corpus_paths, capsys, events):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", corpus_paths["example1.rsl"], "--events", events,
              "--cycle"])
    assert exc.value.code == EX_USAGE


# sha256 of the nine outputs of oracle --json --depth 6 --fair-all, in the
# order of the loops below, recorded while the enumeration still reduced
# every event prefix on its own path
ORACLE_JSON_DEPTH6_DIGEST = \
    "1640f2b6642a46f419dcdff085e8ef20d94440f5864ab1ab2d1276023ddee330"

# the same at depth 8, recorded while every distinct trace was still
# bounded-checked on its own
ORACLE_JSON_DEPTH8_DIGEST = \
    "c20f41c96af6817e0735b78e193e840536e7a3bf2d2ac25197360945088a2a42"


def _oracle_json_on_corpus(corpus_paths, capsys, depth):
    """The sha256 of the nine oracle --json outputs and their Unsat counts."""
    digest = hashlib.sha256()
    unsat = {}
    for example in ("example1", "example2", "example3"):
        for prop in ("mutex", "nonstarve1", "nonstarve2"):
            code = main(["oracle", corpus_paths[f"{example}.rsl"],
                         "--props", corpus_paths["mutex.ltl"], "--prop", prop,
                         "--json", "--depth", str(depth), "--fair-all"])
            assert code == 0
            out = capsys.readouterr().out
            digest.update(out.encode())
            doc = json.loads(out)
            assert doc["sampled"] == 6 ** depth
            if doc["bounded"]["Unsat"]:
                unsat[f"{example}/{prop}"] = doc["bounded"]["Unsat"]
    return digest.hexdigest(), unsat


def test_oracle_json_pinned_on_corpus_at_depth_6(corpus_paths, capsys):
    digest, unsat = _oracle_json_on_corpus(corpus_paths, capsys, 6)
    assert unsat == {"example1/mutex": 1168}
    assert digest == ORACLE_JSON_DEPTH6_DIGEST


def test_oracle_json_pinned_on_corpus_at_depth_8(corpus_paths, capsys):
    digest, unsat = _oracle_json_on_corpus(corpus_paths, capsys, 8)
    assert unsat == {"example1/mutex": 109160}
    assert digest == ORACLE_JSON_DEPTH8_DIGEST


def test_oracle_reductions_grow_linearly_with_depth(corpus_paths, corpus_by_name,
                                                    capsys, monkeypatch):
    # each branch point (one per handler reached) runs the machine once per
    # event and once on Nil, and each run reduces twice: to the state it
    # emits, and to where the next event is unbound. So at most
    # 2 · handlers · (events + 1) reductions at any depth (110 here) for 6^8
    # sequences, not 2·10^6 reduced prefixes
    calls = 0
    next_state = semantics._next_state

    def counted(*args):
        nonlocal calls
        calls += 1
        return next_state(*args)

    monkeypatch.setattr(semantics, "_next_state", counted)
    depth = MAX_ENUM_DEPTH
    code = main(["oracle", corpus_paths["example3.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "mutex",
                 "--json", "--depth", str(depth), "--fair-all"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["sampled"] == 6 ** depth
    _, source, _ = corpus_by_name["example3"]
    handlers, events = len(source.term.defs), len(source.events)
    assert (handlers, events) == (9, 6)
    assert calls <= 2 * handlers * (events + 1)


def test_oracle_bounded_steps_grow_linearly_with_depth(corpus_paths, corpus_by_name,
                                                       capsys, monkeypatch):
    # the bounded rule runs once per state and values one position later,
    # not once per position of each of the thousands of distinct traces
    calls = 0
    step = ltlsem._step

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(ltlsem, "_step", counted)
    depth = MAX_ENUM_DEPTH
    for example in ("example1", "example2", "example3"):
        _, source, _ = corpus_by_name[example]
        handlers, events = len(source.term.defs), len(source.events)
        for prop in ("mutex", "nonstarve1", "nonstarve2"):
            calls = 0
            code = main(["oracle", corpus_paths[f"{example}.rsl"],
                         "--props", corpus_paths["mutex.ltl"], "--prop", prop,
                         "--json", "--depth", str(depth), "--fair-all"])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["sampled"] == 6 ** depth
            assert 0 < calls <= 2 * handlers * events * depth + 1, (example, prop)


NO_EVENT_READ = """data Event = EvA | EvB
data State = St0 | St1
data TruthVal = True | False | Undefined

Cons St0 (f es)
where
f = \\es -> Cons St1 (f es)
"""


def test_oracle_false_verdict_without_sampled_traces_is_consistent(tmp_path,
                                                                    capsys):
    # the program matches no event, so no event sequence is sampled; nothing
    # then satisfies G St0, and the False verdict stands uncontradicted
    program = tmp_path / "p.rsl"
    program.write_text(NO_EVENT_READ)
    props = tmp_path / "p.ltl"
    props.write_text("prop always0: G { case s of St0 -> True | _ -> False }\n")
    args = ["oracle", str(program), "--props", str(props), "--prop", "always0",
            "--depth", "3"]
    assert main(args + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["truth"], doc["sampled"], doc["contradiction"]) == ("False", 0, False)
    assert main(args) == 0
    assert "sampling consistent with verdict" in capsys.readouterr().out


def test_negative_simulate_length_is_usage_error(corpus_paths, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", corpus_paths["example1.rsl"], "--events", "Take1",
              "-n", "-3"])
    assert exc.value.code == EX_USAGE


# --- argument reading -------------------------------------------------------------

# the attributes each handler reads, with {ex1}, {ex2}, {ex3} and {ltl} standing
# for the corpus files
_PROPERTY = {"props": "{ltl}", "fair": None, "fair_all": False, "json": False}
_VERIFY = {**_PROPERTY, "func": "_cmd_verify", "file": "{ex1}", "prop": "mutex",
           "fair_all": True}
_LTS = {"func": "_cmd_lts", "file": "{ex2}", "keep_self_loops": False}
_SIMULATE = {"func": "_cmd_simulate", "file": "{ex1}", "cycle": False, "n": 16}
_ORACLE = {**_PROPERTY, "func": "_cmd_oracle", "file": "{ex2}", "prop": "mutex",
           "fair_all": True, "depth": 4}

# argv -> exit code, and the parsed attributes where the arguments parse
ARGV_TABLE = [
    ("check {ex3}", 0, {"func": "_cmd_check", "file": "{ex3}"}),
    # options before or after the file
    ("verify {ex1} --props {ltl} --prop mutex --fair-all", 1, _VERIFY),
    ("verify --props {ltl} --prop mutex --fair-all {ex1}", 1, _VERIFY),
    ("verify --props {ltl} {ex1} --fair-all --prop mutex", 1, _VERIFY),
    # --opt value and --opt=value
    ("verify {ex1} --props={ltl} --prop=mutex --fair-all", 1, _VERIFY),
    ("verify {ex1} --props {ltl} --prop mutex --fair Take1,Release1,Release2",
     1, {**_VERIFY, "fair": "Take1,Release1,Release2", "fair_all": False}),
    ("verify {ex3} --props {ltl} --prop nonstarve1 --fair=", 1,
     {**_VERIFY, "file": "{ex3}", "prop": "nonstarve1", "fair": "",
      "fair_all": False}),
    # a repeated option keeps its last value
    ("verify {ex2} --props {ltl} --prop nope --prop mutex --fair-all --json", 0,
     {**_VERIFY, "file": "{ex2}", "json": True}),
    ("witness {ex2} --json --props {ltl} --prop nonstarve1 --fair-all", 1,
     {**_VERIFY, "func": "_cmd_witness", "file": "{ex2}", "prop": "nonstarve1",
      "json": True}),
    ("lts {ex2} --dot", 0, {**_LTS, "format_json": False}),
    ("lts --json {ex2}", 0, {**_LTS, "format_json": True}),
    ("lts {ex2} --keep-self-loops --dot", 0,
     {**_LTS, "format_json": False, "keep_self_loops": True}),
    ("simulate {ex1} --events Request1,Take1,Release1 --cycle -n 4", 0,
     {**_SIMULATE, "events": "Request1,Take1,Release1", "cycle": True, "n": 4}),
    ("simulate {ex1} --events=Take1 -n=2", 0,
     {**_SIMULATE, "events": "Take1", "n": 2}),
    ("simulate {ex1} --events Take1 -n2", 0,
     {**_SIMULATE, "events": "Take1", "n": 2}),
    ("simulate --events Take1 {ex1}", 0, {**_SIMULATE, "events": "Take1"}),
    ("oracle {ex2} --props {ltl} --prop mutex --fair-all", 0, _ORACLE),
    ("oracle {ex2} --props {ltl} --prop mutex --fair-all --depth 1 --json", 0,
     {**_ORACLE, "depth": 1, "json": True}),
    ("oracle --depth=0 {ex2} --props {ltl} --prop mutex --fair-all", 0,
     {**_ORACLE, "depth": 0}),
    # usage errors: the command
    ("", EX_USAGE, None),
    ("bogus {ex1}", EX_USAGE, None),
    ("--bogus", EX_USAGE, None),
    # an unknown option
    ("check {ex1} --json", EX_USAGE, None),
    ("check {ex1} -x", EX_USAGE, None),
    ("verify {ex1} --props {ltl} --prop mutex --bogus", EX_USAGE, None),
    # option names are spelt out in full, and -- ends no option list
    ("verify {ex3} --props {ltl} --prop nonstarve1 --fair-a", EX_USAGE, None),
    ("check -- {ex1}", EX_USAGE, None),
    # no file, or more than one
    ("check", EX_USAGE, None),
    ("check {ex1} {ex2}", EX_USAGE, None),
    ("verify --props {ltl} --prop mutex", EX_USAGE, None),
    ("oracle {ex1} {ex2} --props {ltl} --prop mutex", EX_USAGE, None),
    # a missing --props, --prop or --events
    ("verify {ex1} --prop mutex", EX_USAGE, None),
    ("witness {ex1} --props {ltl}", EX_USAGE, None),
    ("oracle {ex1} --fair-all", EX_USAGE, None),
    ("simulate {ex1} -n 3", EX_USAGE, None),
    # an option without its value, or a value that is not an integer
    ("verify {ex1} --props {ltl} --prop", EX_USAGE, None),
    ("verify {ex1} --prop --props {ltl}", EX_USAGE, None),
    ("simulate {ex1} --events", EX_USAGE, None),
    ("oracle {ex1} --props {ltl} --prop mutex --depth", EX_USAGE, None),
    ("simulate {ex1} --events Take1 -n x", EX_USAGE, None),
    ("simulate {ex1} --events Take1 -n=", EX_USAGE, None),
    ("oracle {ex1} --props {ltl} --prop mutex --depth 2.5", EX_USAGE, None),
    # a flag given a value
    ("verify {ex1} --props {ltl} --prop mutex --json=yes", EX_USAGE, None),
    # negative numbers are values, which the range checks reject
    ("simulate {ex1} --events Take1 -n -3", EX_USAGE,
     {**_SIMULATE, "events": "Take1", "n": -3}),
    ("oracle {ex1} --props {ltl} --prop mutex --depth -1", EX_USAGE,
     {**_ORACLE, "file": "{ex1}", "fair_all": False, "depth": -1}),
    ("oracle {ex1} --props {ltl} --prop mutex --depth 9", EX_USAGE, None),
    # options that exclude each other
    ("verify {ex1} --props {ltl} --prop mutex --fair Take1 --fair-all",
     EX_USAGE, None),
    ("oracle {ex1} --props {ltl} --prop mutex --fair-all --fair=", EX_USAGE,
     None),
    ("lts {ex2}", EX_USAGE, None),
    ("lts {ex2} --keep-self-loops", EX_USAGE, None),
    ("lts {ex2} --dot --json", EX_USAGE, None),
]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


@pytest.mark.parametrize("line, code, parsed", ARGV_TABLE,
                         ids=[line or "<none>" for line, _, _ in ARGV_TABLE])
def test_argv_table(corpus_paths, capsys, line, code, parsed):
    names = {"ex1": corpus_paths["example1.rsl"],
             "ex2": corpus_paths["example2.rsl"],
             "ex3": corpus_paths["example3.rsl"],
             "ltl": corpus_paths["mutex.ltl"]}
    argv = [word.format(**names) for word in line.split()]
    assert _exit_code(argv) == code
    if code == EX_USAGE:
        err = capsys.readouterr().err
        assert err.startswith(USAGE) and "\nrtlcheck: error: " in err
    if parsed is not None:
        args = parse_args(argv)
        got = {attr: getattr(args, attr) for attr in parsed}
        got["func"] = got["func"].__name__
        want = {attr: value.format(**names) if isinstance(value, str) else value
                for attr, value in parsed.items()}
        assert got == want


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "-h"],
                                  ["oracle", "x.rsl", "--help"]])
def test_help_exits_0(capsys, argv):
    assert _exit_code(argv) == 0
    out = capsys.readouterr().out
    assert out == USAGE
    for command in ("check", "verify", "witness", "lts", "simulate", "oracle"):
        assert f"\n  {command} FILE" in out


def test_import_leaves_argparse_unloaded():
    # building an argparse parser cost about half of a short command's time
    code = "import sys, rtlcheck.cli; print('argparse' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
