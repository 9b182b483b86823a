"""Command-line interface wiring the checker together.

``_COMMANDS`` is the whole grammar: each subcommand's handler, options and
their defaults. ``parse_args`` reads ``COMMAND [OPTION ...] FILE [OPTION ...]``
against it, each option spelt out in full as ``--opt value`` or
``--opt=value``; ``USAGE`` is the help text.

The module holds no term logic. The event alphabet that ``--fair-all``,
``lts`` residuals and ``oracle`` sampling use is ``SourceFile.events``, which
the parser reads off the program's case patterns.

Exit codes: verify uses 0/1/2 for True/False/Undefined; check uses 0/1 for
conforming or not; 64 flags a usage error, 66 a missing or malformed input
file, 70 an internal failure, 74 a standard output that its reader closed
before the command had written everything.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .kleene import FALSE, TRUE, UNDEFINED, Verdict
from .lts import LtsError, extract_lts, to_dot, to_json, state_to_json
from .normform import check_simplified
from .parser import PropertyFile, SourceFile, parse_program, parse_properties
from .pretty import pretty_term
from .semantics import EvalError, run_trace
from .terms import Formula
from .verify import VerifyError, require_simplified, verify
from .witness import generate, validate_verdict
from .ltlsem import Bounded, MAX_ENUM_DEPTH, OracleError, bounded_counts
from .ltlsem import (  # noqa: F401  (rebound by benchmarks/tracer.py)
    bounded_check, enumerate_traces,
)

EX_USAGE = 64
EX_DATA = 66
EX_INTERNAL = 70
EX_IOERR = 74


class InputError(Exception):
    """Missing or malformed input file; maps to exit code 66."""


def _read(path: str) -> str:
    """The file's text, decoded as UTF-8, with "\\r\\n" and a lone "\\r" read
    as "\\n", as a text-mode read gives it. Read as bytes: the first
    text-mode read of a process costs about twice as much."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            data = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
        finally:
            os.close(fd)
        text = data.decode("utf-8")
    except OSError as exc:  # a directory fails at the read, as at a text-mode open
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 ({exc.reason})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


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


def _fair_set(args, source: SourceFile, props: PropertyFile) -> frozenset[str]:
    """The events that ``--fair-all``, ``--fair`` or the ``fair:`` header
    names; any other name, a state constructor say, constrains nothing."""
    events = frozenset(source.events)
    if args.fair_all:
        return events
    named = props.fair if args.fair is None else _constructors("--fair", args.fair, source)
    return events.intersection(named)


def _constructors(option: str, value: str, source: SourceFile) -> list[str]:
    """The names of a comma list, each a declared nullary constructor."""
    names = [n.strip() for n in value.split(",") if n.strip()]
    arities = source.arities()
    for name in names:
        if arities.get(name) != 0:
            raise InputError(f"{option}: {name} is not a declared nullary "
                             "constructor")
    return names


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
    require_simplified(check_simplified(source.term))
    graph = extract_lts(source.term, source.events)
    if args.format_json:
        print(to_json(graph), end="")
    else:
        print(to_dot(graph, include_self_loops=args.keep_self_loops), end="")
    return 0


def _cmd_simulate(args) -> int:
    source = _load_program(args.file)
    events = _constructors("--events", args.events, source)
    trace = run_trace(source.term, events, cycle=args.cycle, max_states=args.n)
    for state in trace:
        print(pretty_term(state))
    return 0


def _cmd_oracle(args) -> int:
    source = _load_program(args.file)
    formula, fair = _load_property(args, source)
    verdict = generate(source.term, formula, fair)
    report = validate_verdict(verdict, formula)

    counts = bounded_counts(source.term, source.events, args.depth, formula)
    total = sum(counts.values())
    # a False verdict is refuted only when traces were sampled and all satisfy it
    contradiction = (verdict.truth is TRUE and counts[Bounded.UNSAT] > 0) or \
                    (verdict.truth is FALSE and 0 < counts[Bounded.SAT] == total)

    if args.json:
        print(json.dumps({
            "property": args.prop,
            "truth": str(verdict.truth),
            "validation": str(report.status),
            "depth": args.depth,
            "sampled": total,
            "bounded": {str(k): v for k, v in counts.items()},
            "contradiction": contradiction,
        }, indent=2))
    else:
        print(f"verdict: {verdict.truth}   trace validation: {report.status}")
        print(f"bounded sampling at depth {args.depth}: {total} traces "
              f"(Sat {counts[Bounded.SAT]}, Unsat {counts[Bounded.UNSAT]}, "
              f"Unknown {counts[Bounded.UNKNOWN]})")
        print("contradiction found" if contradiction
              else "sampling consistent with verdict")
    return 0 if not contradiction else 1


# --- arguments -----------------------------------------------------------------

USAGE = f"""\
usage: rtlcheck COMMAND [OPTION ...] FILE [OPTION ...]

commands:
  check FILE              check simplified-form conformance
  verify FILE PROPERTY [--json]
                          verify a temporal property
  witness FILE PROPERTY [--json]
                          build a counterexample or witness
  lts FILE (--dot | --json) [--keep-self-loops]
                          extract the labelled transition system
  simulate FILE --events E,... [--cycle] [-n N]
                          run the program on an event list, emitting at
                          most N states (default 16)
  oracle FILE PROPERTY [--depth D] [--json]
                          validate a verdict against the satisfaction
                          semantics by bounded sampling of event sequences
                          of length D (0 to {MAX_ENUM_DEPTH}, default 4)

PROPERTY is --props FILE.ltl --prop NAME [--fair E,... | --fair-all].
Options go before or after FILE, as --opt VALUE or --opt=VALUE, and are
spelt out in full. -h or --help prints this text.
"""

_HELP = ("-h", "--help")

# option -> (attribute, kind, default); kind is str, int or bool, and a bool
# option is a flag that stores True
_PROPERTY_OPTIONS = {
    "--props": ("props", str, None),
    "--prop": ("prop", str, None),
    "--fair": ("fair", str, None),
    "--fair-all": ("fair_all", bool, False),
    "--json": ("json", bool, False),
}
# (options, required): at most one of the options may be given, and one must
# be if the group is required
_PROPERTY_GROUPS = ((("--props",), True), (("--prop",), True),
                    (("--fair", "--fair-all"), False))

# command -> (handler, options, groups); every command takes one FILE
_COMMANDS = {
    "check": (_cmd_check, {}, ()),
    "verify": (_cmd_verify, _PROPERTY_OPTIONS, _PROPERTY_GROUPS),
    "witness": (_cmd_witness, _PROPERTY_OPTIONS, _PROPERTY_GROUPS),
    "lts": (_cmd_lts, {"--dot": ("dot", bool, False),
                       "--json": ("format_json", bool, False),
                       "--keep-self-loops": ("keep_self_loops", bool, False)},
            ((("--dot", "--json"), True),)),
    "simulate": (_cmd_simulate, {"--events": ("events", str, None),
                                 "--cycle": ("cycle", bool, False),
                                 "-n": ("n", int, 16)},
                 ((("--events",), True),)),
    "oracle": (_cmd_oracle, {**_PROPERTY_OPTIONS, "--depth": ("depth", int, 4)},
               _PROPERTY_GROUPS),
}


def _usage_error(reason: str):
    """Print ``USAGE`` and ``reason`` to stderr; raises ``SystemExit`` (64)."""
    sys.stderr.write(f"{USAGE}rtlcheck: error: {reason}\n")
    raise SystemExit(EX_USAGE)


def _help():
    """Print ``USAGE``; raises ``SystemExit`` (0)."""
    sys.stdout.write(USAGE)
    raise SystemExit(0)


def _is_option(arg: str) -> bool:
    """Whether ``arg`` names an option; ``-`` and negative integers do not."""
    return arg[:1] == "-" and arg != "-" and not arg[1:].isdecimal()


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read ``COMMAND [OPTION ...] FILE`` into the attributes its handler reads.

    ``func`` is the handler. Prints ``USAGE`` and exits 0 on ``-h``/``--help``;
    exits 64 on a usage error.
    """
    if not argv:
        _usage_error("no command given")
    command = argv[0]
    if command in _HELP:
        _help()
    if command not in _COMMANDS:
        _usage_error(f"unknown command {command!r}")
    func, options, groups = _COMMANDS[command]
    values = {attr: default for attr, _, default in options.values()}
    files: list[str] = []
    given: set[str] = set()
    rest = iter(argv[1:])
    for arg in rest:
        if not _is_option(arg):
            files.append(arg)
            continue
        if arg in _HELP:
            _help()
        name, eq, value = arg.partition("=")
        if name not in options and arg[:2] in options:  # a short option, as in -n5
            name, eq, value = arg[:2], "=", arg[2:]
        if name not in options:
            _usage_error(f"{command}: unknown option {name}")
        attr, kind, _ = options[name]
        if kind is bool:
            if eq:
                _usage_error(f"{name} takes no value")
            value = True
        else:
            if not eq:
                value = next(rest, None)
                if value is None or _is_option(value):
                    _usage_error(f"{name} needs a value")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(f"{name}: not an integer: {value!r}")
        values[attr] = value
        given.add(name)
    if len(files) != 1:
        _usage_error(f"{command} takes one FILE, not {len(files)}")
    for names, required in groups:
        present = [n for n in names if n in given]
        if len(present) > 1:
            _usage_error(f"{present[0]} and {present[1]} exclude each other")
        if required and not present:
            _usage_error(f"{command} needs {' or '.join(names)}")
    values["file"] = files[0]
    values["func"] = func
    return SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not 0 <= getattr(args, "depth", 0) <= MAX_ENUM_DEPTH:
        _usage_error(f"oracle: --depth must be between 0 and {MAX_ENUM_DEPTH}")
    if getattr(args, "n", 0) < 0:
        _usage_error("simulate: -n must not be negative")
    if getattr(args, "cycle", False) and not args.events.replace(",", "").strip():
        _usage_error("simulate: --cycle needs at least one event in --events")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at the exit flush
        return code
    except BrokenPipeError:  # the reader closed stdout: keep the exit flush silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_IOERR
    except InputError as exc:
        print(f"rtlcheck: {exc}", file=sys.stderr)
        return EX_DATA
    except (EvalError, VerifyError, LtsError, OracleError) as exc:
        print(f"rtlcheck: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
