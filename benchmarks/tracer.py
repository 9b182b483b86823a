"""Per-layer tracing by rebinding ``rtlcheck`` functions at their import sites.

Nothing in ``rtlcheck`` is edited: :func:`install` replaces module
attributes (``rtlcheck.cli.verify``, ``rtlcheck.witness.and_v``, ...) with
wrappers that feed a :class:`Recorder`. Calls that cross a layer boundary
get a span with a parent id; hot inner calls (atom evaluation, verdict
combination, substitution, call unfolding) get counts only.

Modules are reached through ``sys.modules``: ``rtlcheck/__init__`` rebinds
the name ``rtlcheck.verify`` to the function, so ``import rtlcheck.verify``
does not yield the module.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable

# (layer, module, attribute): calls through these names get a span
SPAN_SITES = (
    ("normform", "rtlcheck.cli", "check_simplified"),
    ("normform", "rtlcheck.verify", "check_simplified"),
    ("normform", "rtlcheck.witness", "check_simplified"),
    ("semantics.run_trace", "rtlcheck.cli", "run_trace"),
    ("semantics.run_trace", "rtlcheck.ltlsem", "run_trace"),
    ("ltlsem.bounded_check", "rtlcheck.cli", "bounded_check"),
    ("ltlsem.bounded_check", "rtlcheck.witness", "bounded_check"),
    ("ltlsem.sat_lasso", "rtlcheck.witness", "sat_lasso"),
    ("lts.render", "rtlcheck.cli", "to_dot"),
    ("lts.render", "rtlcheck.cli", "to_json"),
    ("pretty", "rtlcheck.cli", "pretty_term"),
)

# (counter, module, attribute): calls through these names are only counted
COUNT_SITES = (
    ("kleene.combines", "rtlcheck.witness", "and_v"),
    ("kleene.combines", "rtlcheck.witness", "or_v"),
    ("terms.substitute_calls", "rtlcheck.verify", "substitute"),
    ("terms.substitute_calls", "rtlcheck.semantics", "substitute"),
    ("verify.unfolds", "rtlcheck.verify", "unfold_call"),
)

ATOM_SITES = ("rtlcheck.verify", "rtlcheck.witness", "rtlcheck.ltlsem")


class Recorder:
    """Spans and counts of one command, kept in memory.

    A span is ``(id, parent id, layer, start, end)``. Self time is a span's
    duration minus the time its child spans cover.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.atom_pairs: set = set()
        # open spans: [id, layer, start, time covered by children]
        self._stack: list[list] = []
        self._self: Counter[str] = Counter()
        self._next_id = 0

    def enter(self, layer: str) -> None:
        self._stack.append([self._next_id, layer, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, layer, start, covered = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += end - start
        self._self[layer] += end - start - covered
        self.spans.append((span_id, parent[0] if parent else -1, layer, start, end))

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: number of spans, total and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for _, _, layer, start, end in self.spans:
            entry = out.setdefault(layer, {"spans": 0, "total_s": 0.0,
                                           "self_s": self._self[layer]})
            entry["spans"] += 1
            entry["total_s"] += end - start
        return out

    def summary(self) -> dict:
        counts = dict(self.counts)
        counts["semantics.atom_distinct"] = len(self.atom_pairs)
        return {"layers": self.layers(), "counts": counts}

    def span(self, layer: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    def counted(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        def traced(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return traced


def _rebind(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
    mod = sys.modules[module]
    setattr(mod, attr, make(getattr(mod, attr)))


def install(rec: Recorder) -> None:
    """Wrap every traced import site; meant for a process that is about to exit."""
    for layer, module, attr in SPAN_SITES:
        _rebind(module, attr, lambda fn, layer=layer: rec.span(layer, fn))
    for counter, module, attr in COUNT_SITES:
        _rebind(module, attr, lambda fn, counter=counter: rec.counted(counter, fn))
    for module in ATOM_SITES:
        _rebind(module, "atom_truth", lambda fn: _atom_truth(rec, fn))

    verify_mod = sys.modules["rtlcheck.verify"]
    _rebind("rtlcheck.cli", "verify",
            lambda fn: _with_budget(rec, "verify", fn, verify_mod))
    _rebind("rtlcheck.cli", "generate",
            lambda fn: _with_budget(rec, "witness.gen", fn, verify_mod))
    _rebind("rtlcheck.cli", "validate_verdict", lambda fn: _validate(rec, fn))
    _rebind("rtlcheck.cli", "parse_program", lambda fn: _parse(rec, fn))
    _rebind("rtlcheck.cli", "parse_properties", lambda fn: _parse(rec, fn))
    _rebind("rtlcheck.cli", "extract_lts", lambda fn: _extract(rec, fn))
    _rebind("rtlcheck.cli", "enumerate_traces", lambda fn: _enumerate(rec, fn))


def _atom_truth(rec: Recorder, fn: Callable) -> Callable:
    counts, pairs = rec.counts, rec.atom_pairs

    def atom_truth(atom_term, state, *args, **kwargs):
        counts["semantics.atom_evals"] += 1
        pairs.add((atom_term, state))
        return fn(atom_term, state, *args, **kwargs)
    return atom_truth


def _with_budget(rec: Recorder, layer: str, fn: Callable, verify_mod) -> Callable:
    """verify/generate with a default-limit Budget passed in, so its use can be read."""
    prefix = layer.split(".")[0]

    def run(program, formula, fair=frozenset(), budget=None, *args, **kwargs):
        budget = verify_mod.Budget() if budget is None else budget
        rec.enter(layer)
        try:
            verdict = fn(program, formula, fair, budget, *args, **kwargs)
        except verify_mod.BudgetExceeded:
            rec.counts[f"{prefix}.budget_exceeded"] += 1
            raise
        finally:
            rec.counts[f"{prefix}.rule_apps"] += budget.used
            rec.exit()
        if prefix == "witness":
            rec.counts["witness.trace_states"] += len(verdict.trace)
        return verdict
    return run


def _validate(rec: Recorder, fn: Callable) -> Callable:
    def validate_verdict(*args, **kwargs):
        rec.enter("witness.validate")
        try:
            report = fn(*args, **kwargs)
        finally:
            rec.exit()
        rec.counts["witness.validations"] += 1
        rec.counts["witness.valid"] += str(report.status) == "Valid"
        return report
    return validate_verdict


def _parse(rec: Recorder, fn: Callable) -> Callable:
    def parse(text, *args, **kwargs):
        rec.counts["parser.bytes"] += len(text.encode("utf-8"))
        rec.enter("parser")
        try:
            return fn(text, *args, **kwargs)
        finally:
            rec.exit()
    return parse


def _extract(rec: Recorder, fn: Callable) -> Callable:
    def extract_lts(*args, **kwargs):
        rec.enter("lts.extract")
        try:
            graph = fn(*args, **kwargs)
        finally:
            rec.exit()
        rec.counts["lts.nodes"] += len(graph.nodes)
        rec.counts["lts.edges"] += len(graph.edges)
        return graph
    return extract_lts


def _enumerate(rec: Recorder, fn: Callable) -> Callable:
    def enumerate_traces(*args, **kwargs):
        rec.enter("ltlsem.enumerate")
        try:
            traces = fn(*args, **kwargs)
        finally:
            rec.exit()
        rec.counts["ltlsem.traces_sampled"] += len(traces)
        return traces
    return enumerate_traces
