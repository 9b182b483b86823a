"""Bundled example systems with their expected verdicts and traces.

The three programs model two processes sharing a critical resource; the
property file defines mutual exclusion plus one non-starvation property per
process. Expected verdicts and the two counterexample traces are the golden
values the test suite reproduces exactly. The files themselves ship as
package data in ``corpus/``.
"""

from __future__ import annotations

from collections.abc import Mapping

from .terms import FALSE, TRUE, Con, Record, Term, Trace, TruthVal


class CorpusEntry(Record):
    __slots__ = __match_args__ = ("name", "program_file", "property_file",
                                  "expected_verdicts", "expected_traces")

    def __init__(self, name: str, program_file: str, property_file: str,
                 expected_verdicts: Mapping[str, TruthVal],
                 expected_traces: Mapping[str, Trace]):
        self.name = name
        self.program_file = program_file
        self.property_file = property_file
        self.expected_verdicts = expected_verdicts
        self.expected_traces = expected_traces


def obs(p1: str, p2: str) -> Term:
    """Shorthand for an observable state of the two-process systems."""
    return Con("ObsState", (Con(p1), Con(p2)))


def _trace(*pairs: tuple[str, str]) -> Trace:
    return tuple(obs(a, b) for a, b in pairs)


ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="example1",
        program_file="example1.rsl",
        property_file="mutex.ltl",
        expected_verdicts={"mutex": FALSE, "nonstarve1": TRUE,
                           "nonstarve2": TRUE},
        expected_traces={
            "mutex": _trace(("T", "T"), ("W", "T"), ("W", "W"),
                            ("U", "W"), ("U", "U")),
        },
    ),
    CorpusEntry(
        name="example2",
        program_file="example2.rsl",
        property_file="mutex.ltl",
        expected_verdicts={"mutex": TRUE, "nonstarve1": FALSE,
                           "nonstarve2": FALSE},
        expected_traces={
            "nonstarve1": _trace(("T", "T"), ("W", "T"), ("W", "W"),
                                 ("W", "W")),
        },
    ),
    CorpusEntry(
        name="example3",
        program_file="example3.rsl",
        property_file="mutex.ltl",
        expected_verdicts={"mutex": TRUE, "nonstarve1": TRUE,
                           "nonstarve2": TRUE},
        expected_traces={},
    ),
)
