"""Command-line interface wiring the checker together.

Exit codes: verify uses 0/1/2 for True/False/Undefined; check uses 0/1 for
conforming or not; 64 flags a usage error, 66 a missing or malformed input
file, 70 an internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Optional, Sequence

from .kleene import FALSE, TRUE, UNDEFINED, Verdict
from .lts import LtsError, extract_lts, to_dot, to_json, state_to_json
from .normform import check_simplified
from .parser import PropertyFile, SourceFile, parse_program, parse_properties
from .pretty import pretty_term
from .semantics import EvalError, run_trace
from .terms import BUILTIN_DECLS, Case, Con, Formula, PCon, Term
from .verify import VerifyError, verify
from .witness import generate, validate_verdict
from .ltlsem import (
    bounded_check, Bounded, enumerate_traces, MAX_ENUM_DEPTH, OracleError,
)

EX_USAGE = 64
EX_DATA = 66
EX_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


class InputError(Exception):
    """Missing or malformed input file; maps to exit code 66."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 ({exc.reason})") from exc


def _load_program(path: str) -> SourceFile:
    source = parse_program(_read(path))
    if source.term is None:
        msgs = "; ".join(str(d) for d in source.diagnostics)
        raise InputError(f"{path}: {msgs}")
    return source


def _load_property(args, source: SourceFile) -> tuple[Formula, frozenset[str]]:
    props = parse_properties(_read(args.props), source.arities())
    if props.diagnostics:
        msgs = "; ".join(str(d) for d in props.diagnostics)
        raise InputError(f"{args.props}: {msgs}")
    formula = props.get(args.prop)
    if formula is None:
        known = ", ".join(n for n, _ in props.props) or "none"
        raise InputError(f"{args.props}: no property {args.prop!r} "
                         f"(defined: {known})")
    fair = _fair_set(args, source, props)
    return formula, fair


def _pattern_constructors(t: Term) -> set[str]:
    from .terms import App, Lam, Let, Var, Fun, Where

    out: set[str] = set()

    def visit(term: Term) -> None:
        match term:
            case Case(scrutinee, alts):
                visit(scrutinee)
                for alt in alts:
                    if isinstance(alt.pattern, PCon):
                        out.add(alt.pattern.con)
                    visit(alt.body)
            case Con(_, args):
                for a in args:
                    visit(a)
            case App(fn, arg):
                visit(fn)
                visit(arg)
            case Lam(_, body):
                visit(body)
            case Let(_, bound, body):
                visit(bound)
                visit(body)
            case Where(body, defs):
                visit(body)
                for _, d in defs:
                    visit(d)
            case Var(_) | Fun(_):
                pass

    visit(t)
    return out


def event_alphabet(source: SourceFile) -> list[str]:
    """Nullary constructors of the datatypes the program pattern-matches on."""
    assert source.term is not None
    builtin = {name for d in BUILTIN_DECLS for name, _ in d.constructors}
    matched = _pattern_constructors(source.term) - builtin
    owners = {d.name for d in source.decls
              if any(c == m for c, _ in d.constructors for m in matched)}
    out: list[str] = []
    for d in source.decls:
        if d.name in owners:
            out.extend(c for c, arity in d.constructors if arity == 0)
    return out


def _fair_set(args, source: SourceFile, props: PropertyFile) -> frozenset[str]:
    if args.fair_all:
        return frozenset(event_alphabet(source))
    if args.fair is not None:
        names = [n.strip() for n in args.fair.split(",") if n.strip()]
        arities = source.arities()
        for name in names:
            if arities.get(name) != 0:
                raise InputError(f"--fair: {name} is not a declared nullary "
                                 "constructor")
        return frozenset(names)
    return props.fair


# --- subcommands ---------------------------------------------------------------

def _cmd_check(args) -> int:
    source = _load_program(args.file)
    report = check_simplified(source.term)
    if report.conforms:
        print("conforms")
        return 0
    for v in report.violations:
        print(f"{v.path}: [{v.rule}] {v.message}")
    return 1


_EXIT_BY_TRUTH = {TRUE: 0, FALSE: 1, UNDEFINED: 2}


def _cmd_verify(args) -> int:
    source = _load_program(args.file)
    formula, fair = _load_property(args, source)
    truth = verify(source.term, formula, fair)
    if args.json:
        print(json.dumps({"property": args.prop, "truth": str(truth)}))
    else:
        print(truth)
    return _EXIT_BY_TRUTH[truth]


def _verdict_json(verdict: Verdict, formula: Formula, prop: str) -> dict:
    report = validate_verdict(verdict, formula)
    return {
        "property": prop,
        "truth": str(verdict.truth),
        "trace": [state_to_json(s) for s in verdict.trace],
        "lasso": {"prefixLen": len(report.lasso.prefix),
                  "loopLen": len(report.lasso.loop)},
        "validation": str(report.status),
    }


def _cmd_witness(args) -> int:
    source = _load_program(args.file)
    formula, fair = _load_property(args, source)
    verdict = generate(source.term, formula, fair)
    if args.json:
        print(json.dumps(_verdict_json(verdict, formula, args.prop), indent=2))
    else:
        report = validate_verdict(verdict, formula)
        kind = {TRUE: "witness", FALSE: "counterexample",
                UNDEFINED: "trace"}[verdict.truth]
        print(f"{verdict.truth}  ({kind}, validation: {report.status})")
        loop_start = len(report.lasso.prefix) if report.lasso.loop else None
        for i, state in enumerate(verdict.trace):
            if loop_start is not None and i == loop_start:
                print("  -- loop from here --")
            print(f"  {pretty_term(state)}")
    return _EXIT_BY_TRUTH[verdict.truth]


def _cmd_lts(args) -> int:
    source = _load_program(args.file)
    graph = extract_lts(source.term, event_alphabet(source))
    if args.format_json:
        print(to_json(graph), end="")
    else:
        print(to_dot(graph, include_self_loops=args.keep_self_loops), end="")
    return 0


def _cmd_simulate(args) -> int:
    source = _load_program(args.file)
    events = [e.strip() for e in args.events.split(",") if e.strip()]
    arities = source.arities()
    for e in events:
        if arities.get(e) != 0:
            raise InputError(f"--events: {e} is not a declared nullary "
                             "constructor")
    trace = run_trace(source.term, events, cycle=args.cycle, max_states=args.n)
    for state in trace:
        print(pretty_term(state))
    return 0


def _cmd_oracle(args) -> int:
    source = _load_program(args.file)
    formula, fair = _load_property(args, source)
    verdict = generate(source.term, formula, fair)
    report = validate_verdict(verdict, formula)

    counts = {Bounded.SAT: 0, Bounded.UNSAT: 0, Bounded.UNKNOWN: 0}
    alphabet = event_alphabet(source)
    traces = Counter(map(tuple, enumerate_traces(source.term, alphabet, args.depth)))
    for trace, sequences in traces.items():
        counts[bounded_check(trace, formula)] += sequences
    contradiction = (verdict.truth is TRUE and counts[Bounded.UNSAT] > 0) or \
                    (verdict.truth is FALSE and
                     counts[Bounded.UNSAT] + counts[Bounded.UNKNOWN] == 0)

    if args.json:
        print(json.dumps({
            "property": args.prop,
            "truth": str(verdict.truth),
            "validation": str(report.status),
            "depth": args.depth,
            "sampled": sum(counts.values()),
            "bounded": {str(k): v for k, v in counts.items()},
            "contradiction": contradiction,
        }, indent=2))
    else:
        print(f"verdict: {verdict.truth}   trace validation: {report.status}")
        total = sum(counts.values())
        print(f"bounded sampling at depth {args.depth}: {total} traces "
              f"(Sat {counts[Bounded.SAT]}, Unsat {counts[Bounded.UNSAT]}, "
              f"Unknown {counts[Bounded.UNKNOWN]})")
        print("contradiction found" if contradiction
              else "sampling consistent with verdict")
    return 0 if not contradiction else 1


def _add_property_flags(sub) -> None:
    sub.add_argument("--props", required=True, help="property file (.ltl)")
    sub.add_argument("--prop", required=True, help="property name")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--fair", help="comma-separated fair event constructors")
    group.add_argument("--fair-all", action="store_true",
                       help="treat every declared event as fair")


def build_parser() -> _Parser:
    parser = _Parser(prog="rtlcheck",
                     description="Model checker for reactive stream programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check simplified-form conformance")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="verify a temporal property")
    p.add_argument("file")
    _add_property_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("witness", help="build a counterexample or witness")
    p.add_argument("file")
    _add_property_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("lts", help="extract the labelled transition system")
    p.add_argument("file")
    fmt = p.add_mutually_exclusive_group(required=True)
    fmt.add_argument("--dot", dest="format_json", action="store_false")
    fmt.add_argument("--json", dest="format_json", action="store_true")
    p.add_argument("--keep-self-loops", action="store_true")
    p.set_defaults(func=_cmd_lts)

    p = sub.add_parser("simulate", help="run the program on an event list")
    p.add_argument("file")
    p.add_argument("--events", required=True,
                   help="comma-separated event constructors")
    p.add_argument("--cycle", action="store_true",
                   help="repeat the event list forever")
    p.add_argument("-n", type=int, default=16, help="maximum states to emit")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="validate a verdict against the "
                                      "satisfaction semantics")
    p.add_argument("file")
    _add_property_flags(p)
    p.add_argument("--depth", type=int, default=4,
                   help="event-sequence length for bounded sampling")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0 <= getattr(args, "depth", 0) <= MAX_ENUM_DEPTH:
        parser.error(f"oracle: --depth must be between 0 and {MAX_ENUM_DEPTH}")
    if getattr(args, "cycle", False) and not args.events.replace(",", "").strip():
        parser.error("simulate: --cycle needs at least one event in --events")
    try:
        return args.func(args)
    except InputError as exc:
        print(f"rtlcheck: {exc}", file=sys.stderr)
        return EX_DATA
    except (EvalError, VerifyError, LtsError, OracleError) as exc:
        print(f"rtlcheck: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
