import hashlib
import json

import pytest

from rtlcheck.cli import EX_DATA, EX_USAGE, main
from rtlcheck.corpus import read_text
from rtlcheck.ltlsem import MAX_ENUM_DEPTH

CORPUS = "src/rtlcheck/corpus"


@pytest.fixture()
def corpus_paths(tmp_path):
    paths = {}
    for fname in ("example1.rsl", "example2.rsl", "example3.rsl", "mutex.ltl"):
        target = tmp_path / fname
        target.write_text(read_text(fname))
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


def test_oracle_consistency(corpus_paths, capsys):
    code = main(["oracle", corpus_paths["example2.rsl"],
                 "--props", corpus_paths["mutex.ltl"], "--prop", "mutex",
                 "--fair-all", "--depth", "2", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["truth"] == "True"
    assert doc["sampled"] == 36
    assert doc["contradiction"] is False


# sha256 of the nine outputs of oracle --json --depth 4 --fair-all, in the
# order of the loops below, recorded while every event sequence was
# simulated and bounded-checked on its own
ORACLE_JSON_DIGEST = "b48e8bc1b62d5dd7cfb6b1fce45c85da5ef4ab16060404c59ed3b26117b30a3b"


def test_oracle_json_pinned_on_corpus(corpus_paths, capsys):
    digest = hashlib.sha256()
    unsat = {}
    for example in ("example1", "example2", "example3"):
        for prop in ("mutex", "nonstarve1", "nonstarve2"):
            code = main(["oracle", corpus_paths[f"{example}.rsl"],
                         "--props", corpus_paths["mutex.ltl"], "--prop", prop,
                         "--json", "--depth", "4", "--fair-all"])
            assert code == 0
            out = capsys.readouterr().out
            digest.update(out.encode())
            doc = json.loads(out)
            assert doc["sampled"] == 6 ** 4
            if doc["bounded"]["Unsat"]:
                unsat[f"{example}/{prop}"] = doc["bounded"]["Unsat"]
    assert unsat == {"example1/mutex": 4}
    assert digest.hexdigest() == ORACLE_JSON_DIGEST


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


def test_missing_file_exits_66(capsys):
    assert main(["check", "no/such/file.rsl"]) == EX_DATA


def test_malformed_file_exits_66(tmp_path, capsys):
    bad = tmp_path / "oops.rsl"
    bad.write_text("case x of C y y -> (")
    assert main(["check", str(bad)]) == EX_DATA


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
