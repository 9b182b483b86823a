"""Tests of the benchmark harness itself.

Run from the root of the repository with ``python -m pytest benchmarks``.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
import rtlcheck.cli  # noqa: E402,F401  (the forked children run it)
from rtlcheck.normform import check_simplified  # noqa: E402
from rtlcheck.parser import parse_program, parse_properties  # noqa: E402


def _build(workload, tmp_path, seed=5):
    return workloads.build(workload, seed, tmp_path / workload, ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_inputs_parse_and_conform(workload, tmp_path):
    commands = _build(workload, tmp_path)
    programs = {c.argv[1] for c in commands}
    props = {c.argv[c.argv.index("--props") + 1] for c in commands if "--props" in c.argv}
    tables = {"corpus_cli": 3, "handler_graphs": len(workloads.GRAPH_SHAPES),
              "handler_chain": len(workloads.CHAIN_SIZES)}
    assert len(programs) == tables[workload]  # one file per generated table
    for path in programs:
        text = Path(path).read_text()
        source = parse_program(text)
        assert source.term is not None and not source.diagnostics, path
        assert check_simplified(source.term).conforms, path
        table = workloads.read_table(text)
        assert table.initial in dict(table.handlers)
        for props_path in props:
            parsed = parse_properties(Path(props_path).read_text(), source.arities())
            assert not parsed.diagnostics, props_path


def test_rendered_program_reads_back_as_its_table():
    table = workloads.chain_table(12, 3)
    order = [name for name, _ in reversed(table.handlers)]
    text = workloads.render_program(table, workloads.CHAIN_EVENTS,
                                    workloads.CHAIN_STATES, order)
    back = workloads.read_table(text)
    assert (back.initial, back.initial_state) == (table.initial, table.initial_state)
    assert back.branches() == table.branches()


def _counts(result):
    return result["trace"]["counts"]


def test_counters_repeat_exactly(tmp_path):
    commands = [c for c in _build("handler_graphs", tmp_path)
                if "graph_4_" in c.argv[1]]
    first = run.run_pass(commands, traced=True)
    second = run.run_pass(commands, traced=True)
    assert not first.errors and not second.errors
    assert [_counts(r) for r in first.results] == [_counts(r) for r in second.results]
    one = run.per_layer([first], [first])
    two = run.per_layer([second], [second])
    for name, (value, unit) in one.items():
        if unit == "count":
            assert two[name][0] == value, name


def test_times_are_scaled_by_the_nearby_reference_slices():
    # the host turns twice as slow at the tenth command: the slices and the
    # commands take twice as long from there, and scaling takes that out
    slow = [1 if i < 10 else 2 for i in range(40)]
    results = [{"ref_s": run.REF_S * k, "elapsed": 0.01 * k, "wall": 0.02 * k} for k in slow]
    run.set_scales(results)
    assert [r["elapsed"] * r["scale"] for r in results] == pytest.approx([0.01] * 40)
    assert run.Pass(results=results).wall_s == pytest.approx(0.02 * 40)


def test_handler_graphs_reach_the_exponential_tail(tmp_path):
    commands = [c for c in _build("handler_graphs", tmp_path)
                if "graph_8_1" in c.argv[1] and c.argv[0] == "verify"
                and c.argv[c.argv.index("--prop") + 1] == "response"]
    result = run.run_pass(commands, traced=True).results[0]
    assert _counts(result)["verify.rule_apps"] > 10 ** 5


def test_command_still_running_at_the_deadline_is_killed_and_fails(tmp_path):
    commands = [c for c in _build("handler_graphs", tmp_path)
                if "graph_8_1" in c.argv[1] and c.argv[0] == "witness"
                and c.argv[c.argv.index("--prop") + 1] == "response"]
    result = run.run_pass(commands, traced=False, deadline=time.monotonic() + 0.2).results[0]
    assert result["failed"] and result["exc"] == "timeout"


def test_wrong_expected_verdict_trips_the_gate(tmp_path):
    commands = [c for c in _build("corpus_cli", tmp_path)
                if c.argv[0] in ("verify", "witness")
                and "example1" in c.argv[1] and "mutex" in c.argv]
    assert len(commands) == 3  # verify, witness --json, plain witness
    assert not run.run_pass(commands, traced=False).errors
    for cmd in commands:  # the answer is False
        cmd.check = workloads.expect_truth(cmd.kind, "True", text="--json" not in cmd.argv)
    errors = run.run_pass(commands, traced=False).errors
    assert len(errors) == 3 and all("expected 'True'" in e for e in errors)


def test_invalid_validation_is_wrong_only_where_the_loop_is_exact():
    check = workloads.expect_truth("witness")
    state = [{"con": name, "args": []} for name in ("St0", "St1", "St2")]

    def witness(trace):
        return json.dumps({"truth": "False", "trace": trace, "validation": "Invalid"})

    assert check(witness([state[0], state[1], state[2], state[1]]), 1).error
    # St0 repeats before the end: the lasso may not be the program's loop
    assert check(witness([state[0], state[1], state[0], state[2], state[0]]), 1).error is None


def _chain_commands(tmp_path, pick):
    """Commands on the smallest (``pick=min``) or largest chain of a pass."""
    commands = _build("handler_chain", tmp_path)
    path = pick((c.argv[1] for c in commands), key=lambda p: int(Path(p).stem.split("_")[1]))
    return [c for c in commands if c.argv[1] == path]


def _select(commands, kind, prop):
    return next(c for c in commands
                if c.kind == kind and c.argv[c.argv.index("--prop") + 1] == prop)


def test_disagreeing_verify_and_witness_trip_the_gate(tmp_path):
    commands = _chain_commands(tmp_path, min)
    verify, witness = _select(commands, "verify", "safe"), _select(commands, "witness", "safe")
    negated = tmp_path / "negated.ltl"
    negated.write_text("prop safe: F { case s of St3 -> True | _ -> False }\n")
    witness.argv[witness.argv.index("--props") + 1] = str(negated)
    witness.check = workloads.expect_truth("witness")  # no expected answer of its own
    errors = run.run_pass([verify, witness], traced=False).errors
    assert len(errors) == 1 and "disagree" in errors[0]


def test_recursion_error_counts_as_failure(tmp_path):
    verify = _select(_chain_commands(tmp_path, max), "verify", "safe")
    result = run.run_pass([verify], traced=False).results[0]
    assert result["failed"] and result["exc"] == "RecursionError"


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "corpus_cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
