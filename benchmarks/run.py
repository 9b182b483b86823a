"""Closed-loop benchmark of the ``rtlcheck`` command line.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload corpus_cli --seed 1 --seconds 20 --trace 0

One client in one process runs ``rtlcheck.cli.main(argv)`` commands one
after another; the next starts only when the previous one has returned.
Each command runs in a child forked after ``rtlcheck`` is imported, so it
starts from the state a fresh CLI process has: caches such as
``ltlsem._cached_atom`` never carry over from one command to the next.

The workload's pass (see ``workloads.py``) is repeated until ``--seconds``
have passed and at least 100 commands have run; a started pass is always
finished, so every pass counts the same work. ``--trace 0`` prints the
end-to-end metrics. ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics of the traced ones (see ``tracer.py``),
including the traced-minus-untraced wall time per pass.

Every time is scaled to a fixed host speed (see ``reference_s``): the
shared host's speed drifts by a quarter or more within seconds, and the
scaling takes that drift out of the figures while keeping every change in
the speed of ``rtlcheck`` itself.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary goes to
standard error. A wrong answer makes ``correct`` false. A command that
raises out of ``cli.main``, exits 64/66/70 on these valid inputs, dies or
times out counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
MIN_COMMANDS = 100
# a run must end within 180 s: no pass starts that would likely end past
# this, no command starts after it, and a command still running is killed
RUN_LIMIT_S = 165.0
FAILURE_EXITS = (64, 66, 70)
# the reference slice's time at the speed every figure is scaled to: a round
# figure near its time on the 2-vCPU Xeon host of the baseline (1.9-3.0 ms
# there as the host's speed drifted), so scaled times read about as seconds
REF_S = 0.0025
# a command's speed is the median of the slices run before it and the
# SMOOTH commands on either side of it in the pass
SMOOTH = 7


# --- host speed ---------------------------------------------------------------------

def reference_s() -> float:
    """Seconds one fixed slice of pure-Python work takes now.

    The slice does what the interpreter does most in ``rtlcheck``: it
    allocates small tuples and strings, hashes them into a dict, looks them
    up and sorts them. It runs in this process right before each command,
    on the CPU the command's child will use (``main`` pins the run to one
    CPU), and a time measured at host speed ``r`` is reported as
    ``time * REF_S / r``. Of the slices tried, this one followed the speed
    of ``rtlcheck`` commands most closely.
    """
    start = time.perf_counter()
    rows = [(i, str(i), (i & 7,)) for i in range(4000)]
    table = {}
    for row in rows:
        table[row[2], row[0] % 97] = row
    for row in rows[::3]:
        table.get((row[2], row[0] % 97))
    sorted(rows, key=lambda row: row[1])
    return time.perf_counter() - start


def set_scales(results: list[dict]) -> None:
    """Give each command of a pass its ``scale`` from the nearby slices."""
    refs = [r["ref_s"] for r in results]
    for i, res in enumerate(results):
        res["scale"] = REF_S / statistics.median(refs[max(0, i - SMOOTH): i + SMOOTH + 1])


# --- one command in a forked child ----------------------------------------------

def _child(argv: list[str], traced: bool) -> dict:
    gc.enable()
    cli = sys.modules["rtlcheck.cli"]
    rec = tracer.Recorder() if traced else None
    if rec is not None:
        tracer.install(rec)
    out = io.StringIO()
    rc: Optional[int] = None
    exc: Optional[str] = None
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        if rec is not None:
            rec.enter("cli")
        try:
            rc = cli.main(argv)
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else 1
        except Exception as error:  # escaped cli.main: a failed command
            exc = type(error).__name__
        finally:
            if rec is not None:
                rec.exit()
    elapsed = time.perf_counter() - start
    return {"rc": rc, "exc": exc, "out": out.getvalue(), "elapsed": elapsed,
            "trace": rec.summary() if rec is not None else None}


def run_command(argv: list[str], traced: bool, deadline: float) -> dict:
    """Fork, run one command in the child, and collect its result.

    ``wall`` in the result is the time from fork to reaped child. The child
    is killed if it is still running at ``deadline``
    (``time.monotonic()``); the command then counts as timed out.
    """
    read_fd, write_fd = os.pipe()
    # With collection off in this process and everything frozen, every child
    # starts with the same collector state and never scans earlier results.
    gc.freeze()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(_child(argv, traced)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks: list[bytes] = []
    timed_out = False
    reaped = False
    try:
        with os.fdopen(read_fd, "rb", buffering=0) as pipe:
            while True:
                wait = deadline - time.monotonic()
                ready, _, _ = select.select([pipe], [], [],
                                            max(0.0, wait) if wait < math.inf else None)
                if not ready:
                    timed_out = True
                    os.kill(pid, signal.SIGKILL)
                    break
                chunk = pipe.read(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status = os.waitpid(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    if timed_out:
        res = {"rc": None, "exc": "timeout", "out": "", "elapsed": wall, "trace": None}
    elif status != 0 or not chunks:
        res = {"rc": None, "exc": f"child status {status}", "out": "",
               "elapsed": wall, "trace": None}
    else:
        res = json.loads(b"".join(chunks))
    res["wall"] = wall
    return res


# --- passes and the correctness gate ----------------------------------------------

@dataclass
class Pass:
    results: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Scaled wall time of the pass's commands, fork to reaped child."""
        return sum(r["wall"] * r["scale"] for r in self.results)


def run_pass(commands: list[workloads.Command], traced: bool,
             deadline: float = math.inf) -> Pass:
    """Run every command once, checking each output; none starts after ``deadline``."""
    out = Pass()
    truths: dict[str, set[str]] = {}
    for cmd in commands:
        if time.monotonic() > deadline:
            break
        ref_s = reference_s()
        res = run_command(cmd.argv, traced, deadline)
        res["ref_s"] = ref_s
        res["command"] = cmd
        res["failed"] = res["exc"] is not None or res["rc"] in FAILURE_EXITS
        if not res["failed"]:
            try:
                outcome = cmd.check(res["out"], res["rc"])
            except (ValueError, KeyError, TypeError, IndexError) as error:
                outcome = workloads.Outcome(error=f"unreadable output: {error!r}")
            res["outcome"] = outcome
            if outcome.error:
                out.errors.append(f"{' '.join(cmd.argv)}: {outcome.error}")
            if cmd.pair is not None and outcome.truth is not None:
                truths.setdefault(cmd.pair, set()).add(outcome.truth)
        out.results.append(res)
    set_scales(out.results)
    out.errors += [f"{pair}: commands disagree on the truth value {sorted(seen)}"
                   for pair, seen in truths.items() if len(seen) > 1]
    return out


# --- metrics ----------------------------------------------------------------------

def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    results = [r for p in passes for r in p.results]
    done = [r for r in results if not r["failed"]]
    props = [r for r in results if r["command"].is_property]
    decided = [r for r in props if not r["failed"]
               and r["outcome"].truth in ("True", "False")]
    traces = [r["outcome"].trace_len for r in decided
              if r["outcome"].trace_len is not None]
    latency = [r["elapsed"] * r["scale"] for r in results]
    return {
        "commands_per_s": (len(done) / sum(p.wall_s for p in passes), "1/s"),
        "latency_p50_s": (statistics.median(latency), "s"),
        "latency_p90_s": (statistics.quantiles(latency, n=10, method="inclusive")[8], "s"),
        "decided_frac": (len(decided) / len(props), "frac"),
        "completed_frac": (len(done) / len(results), "frac"),
        "trace_len_mean": (statistics.fmean(traces), "states"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }


def peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict:
    """Per-pass means of the traced passes' layer times and counts."""
    n = len(traced)
    self_s: Counter[str] = Counter()
    total_s: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    largest_check = 0
    for p in traced:
        for r in p.results:
            if r["trace"] is None:
                continue
            for layer, entry in r["trace"]["layers"].items():
                self_s[layer] += entry["self_s"] * r["scale"]
                total_s[layer] += entry["total_s"] * r["scale"]
            counts.update(r["trace"]["counts"])
            largest_check = max(largest_check, r["trace"]["counts"].get("verify.rule_apps", 0))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    overhead = statistics.fmean(t.wall_s - u.wall_s for t, u in zip(traced, untraced))
    return {
        "verify.prove_s": (self_s["verify"] / n, "s"),
        "verify.rule_apps": (counts["verify.rule_apps"] / n, "count"),
        "verify.rule_apps_max": (largest_check, "count"),
        "verify.unfolds": (counts["verify.unfolds"] / n, "count"),
        "verify.budget_exceeded": (counts["verify.budget_exceeded"] / n, "count"),
        "witness.gen_s": (self_s["witness.gen"] / n, "s"),
        "witness.rule_apps": (counts["witness.rule_apps"] / n, "count"),
        "witness.validate_s": (total_s["witness.validate"] / n, "s"),
        "witness.trace_states": (counts["witness.trace_states"] / n, "count"),
        "witness.valid_frac": (ratio(counts["witness.valid"],
                                     counts["witness.validations"]), "frac"),
        "kleene.combines": (counts["kleene.combines"] / n, "count"),
        "semantics.atom_evals": (counts["semantics.atom_evals"] / n, "count"),
        "semantics.atom_distinct": (counts["semantics.atom_distinct"] / n, "count"),
        "semantics.atom_reuse": (ratio(counts["semantics.atom_evals"],
                                       counts["semantics.atom_distinct"]), "ratio"),
        "semantics.run_trace_s": (self_s["semantics.run_trace"] / n, "s"),
        "ltlsem.enumerate_s": (self_s["ltlsem.enumerate"] / n, "s"),
        "ltlsem.bounded_check_s": (self_s["ltlsem.bounded_check"] / n, "s"),
        "ltlsem.traces_sampled": (counts["ltlsem.traces_sampled"] / n, "count"),
        "ltlsem.sat_lasso_s": (self_s["ltlsem.sat_lasso"] / n, "s"),
        "parser.parse_s": (self_s["parser"] / n, "s"),
        "parser.bytes_per_s": (ratio(counts["parser.bytes"], self_s["parser"]), "B/s"),
        "normform.check_s": (self_s["normform"] / n, "s"),
        "terms.substitute_calls": (counts["terms.substitute_calls"] / n, "count"),
        "lts.extract_s": (self_s["lts.extract"] / n, "s"),
        "lts.render_s": (self_s["lts.render"] / n, "s"),
        "lts.nodes": (counts["lts.nodes"] / n, "count"),
        "lts.edges": (counts["lts.edges"] / n, "count"),
        "pretty.s": (self_s["pretty"] / n, "s"),
        "cli.self_s": (self_s["cli"] / n, "s"),
        "trace.overhead_s": (overhead, "s"),
    }


# --- set-up and the run -----------------------------------------------------------

def set_up(workload: str, seed: int, workdir: Path) -> tuple[list[workloads.Command], float]:
    """Import rtlcheck and write the inputs, several times; median scaled time, last inputs."""
    times, refs = [], []
    commands: list[workloads.Command] = []
    for i in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "rtlcheck" or m.startswith("rtlcheck.")]:
            del sys.modules[name]
        refs += [reference_s() for _ in range(3)]
        start = time.perf_counter()
        importlib.import_module("rtlcheck.cli")
        commands = workloads.build(workload, seed, workdir / f"setup{i}", ROOT)
        times.append(time.perf_counter() - start)
    return commands, statistics.median(times) * REF_S / statistics.median(refs)


def measure(commands: list[workloads.Command], seconds: float, trace: bool,
            deadline: float) -> tuple[list[Pass], list[Pass]]:
    """Repeat the pass (untraced, then traced when asked) until time is up."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(commands, False, deadline))
        if trace:
            traced.append(run_pass(commands, True, deadline))
        elapsed = time.perf_counter() - start
        ran = len(commands) * len(untraced)
        if elapsed >= seconds and (trace or ran >= MIN_COMMANDS):
            break
        if time.monotonic() + elapsed / len(untraced) > deadline:
            break
    return untraced, traced


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if hasattr(os, "sched_setaffinity"):  # see reference_s
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "rtlcheck" / "__init__.py").is_file():
        print(f"benchmark: no rtlcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        commands, setup_s = set_up(args.workload, args.seed, workdir)
        gc.collect()
        gc.disable()  # children turn it back on; see run_command
        untraced, traced = measure(commands, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    passes = untraced + traced
    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r["failed"]]
    errors = [e for p in passes for e in p.errors]
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced, setup_s)

    reasons = Counter(r["exc"] or f"exit {r['rc']}" for r in failed)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(commands)} commands; "
          f"{sum(len(p.results) for p in untraced)} latency samples; "
          f"failures {dict(reasons)}", file=sys.stderr)
    for error in errors[:20]:
        print(f"WRONG ANSWER: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
