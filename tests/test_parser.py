import hashlib
import random
import re

from hypothesis import given, settings, strategies as st

from rtlcheck import parser
from rtlcheck.corpus import obs
from rtlcheck.parser import (
    Diagnostic, PropertyFile, SourceFile, TOO_DEEP, parse_program, parse_properties,
)
from rtlcheck.terms import (
    Alt, Always, And, App, Atom, BUILTIN_DECLS, Case, Con, Eventually, Fun,
    Implies, Lam, Let, Not, PCon, Term, Var, WILD, Where, arity_table,
)

from gen_programs import (
    check_term, formula_battery, handler_graph, inner_where_ring,
    pretty_expr, pretty_formula, random_program, ring_program,
)

DECLS = """\
data Event = Request1 | Request2 | Take1 | Take2 | Release1 | Release2
data State = ObsState ProcState ProcState
data ProcState = T | W | U
"""

GEN_DECLS = """\
data GEvent = EvA | EvB | EvC | EvD
data GState = St0 | St1 | St2
"""


def test_example1_parses_to_nine_function_where(corpus_by_name):
    _, source, _ = corpus_by_name["example1"]
    program = source.term
    assert isinstance(program, Where)
    assert [name for name, _ in program.defs] == [f"f{i}" for i in range(1, 10)]
    assert program.body == Con("Cons", (obs("T", "T"), App(Fun("f1"), Var("es"))))
    # spot-check one handler against the hand-built tree
    f4 = dict(program.defs)["f4"]
    expected_f4 = Lam("es", Case(Var("es"), (
        Alt(PCon("Cons", ("e", "es")), Case(Var("e"), (
            Alt(PCon("Release1", ()),
                Con("Cons", (obs("T", "T"), App(Fun("f1"), Var("es"))))),
            Alt(WILD,
                Con("Cons", (obs("U", "T"), App(Fun("f4"), Var("es"))))),
        ))),)))
    assert f4 == expected_f4


def test_repeated_pattern_variable_is_rejected():
    source = parse_program("data D2 = C a a\ncase x of C y y -> y")
    assert source.term is None
    assert any("repeated pattern variable" in d.message for d in source.diagnostics)


def test_constructor_arity_mismatch_is_rejected():
    source = parse_program("Cons Nil")
    assert source.term is None
    assert any("arity" in d.message for d in source.diagnostics)


def test_nested_pattern_is_rejected():
    source = parse_program("data D1 = C a\ncase x of C (C y) -> y")
    assert source.term is None
    assert any("nested pattern" in d.message for d in source.diagnostics)


def test_wildcard_must_be_last():
    source = parse_program("data D0 = C\ncase x of _ -> x | C -> x")
    assert source.term is None
    assert any("last" in d.message for d in source.diagnostics)


def test_duplicate_case_constructor_rejected():
    source = parse_program("data D0 = C\ncase x of C -> x | C -> x")
    assert source.term is None
    assert any("two patterns" in d.message for d in source.diagnostics)


def test_unknown_constructor_rejected():
    source = parse_program("Cons Mystery Nil")
    assert source.term is None
    assert any("unknown constructor" in d.message for d in source.diagnostics)


def test_builtin_redeclaration_must_be_verbatim():
    source = parse_program("data TruthVal = True | False\nNil")
    assert source.term is None
    assert any("redeclared verbatim" in d.message for d in source.diagnostics)
    ok = parse_program("data TruthVal = True | False | Undefined\nNil")
    assert ok.term == Con("Nil")


def test_declaration_diagnostics_point_at_the_name():
    # a constructor declared twice at its second name, a builtin datatype
    # redeclared otherwise than verbatim at the datatype's name
    source = parse_program("data D = A\ndata E = B | A\nA")
    assert [str(d) for d in source.diagnostics] == [
        "2:14: constructor A already declared in D"]
    source = parse_program("data D = A | A\n  data TruthVal = True | False\nNil")
    assert [str(d) for d in source.diagnostics] == [
        "1:14: constructor A already declared in D",
        "2:8: datatype TruthVal is built in and may only be redeclared verbatim"]
    # a term diagnostic points at its token, after the declaration problems
    source = parse_program("data D = A\n\nCons Mystery Nil")
    assert [str(d) for d in source.diagnostics] == ["3:6: unknown constructor Mystery"]
    source = parse_program("data D = A | A\nCons Mystery (A Nil)")
    assert [str(d) for d in source.diagnostics] == [
        "1:14: constructor A already declared in D",
        "2:6: unknown constructor Mystery",
        "2:15: constructor arity: A expects 0 arguments, got 1"]


def test_bad_arity_points_at_the_constructor():
    assert _diagnostics("Cons\n  Nil") == [
        "1:1: constructor arity: Cons expects 2 arguments, got 1"]
    # a parenthesized constructor is saturated by the enclosing application,
    # so (B) g gives B one argument, judged at B
    assert _diagnostics("data D = A | B\n(B) g") == [
        "2:2: constructor arity: B expects 0 arguments, got 1"]
    assert _diagnostics("data D = A | B X\nf ((B)) (B) A") == [
        "2:5: constructor arity: B expects 1 arguments, got 0",
        "2:10: constructor arity: B expects 1 arguments, got 0"]
    assert _diagnostics("data D = A | B X\n((B)) (A) g") == [
        "2:3: constructor arity: B expects 1 arguments, got 2"]


def test_duplicate_case_constructor_points_at_the_second_pattern():
    assert _diagnostics("case x of Nil -> x\n  | Nil -> x") == [
        "2:5: constructor Nil appears in two patterns of the same case"]


def test_misplaced_wildcard_points_at_its_underscore():
    assert _diagnostics("case x of\n _ -> x | Nil -> x") == [
        "2:2: wildcard pattern must be the last alternative"]


def test_function_defined_twice_points_at_the_second_name():
    assert _diagnostics("f where f = \\es -> f\n  g = \\es -> f\n  f = \\es -> f") == [
        "3:3: function f defined twice in one where block"]
    # a nested block may redefine an outer name
    assert _diagnostics("f where f = (f where f = \\es -> f)") == []


def test_pattern_problems_point_at_the_constructor_in_reference_order():
    text = "data D = C X\ncase x of C y y z -> x | C -> x\n| Q -> x | _ -> x"
    assert _diagnostics(text) == [
        "2:11: repeated pattern variable in C pattern",
        "2:11: pattern arity: C expects 1 variables, got 3",
        "2:26: constructor C appears in two patterns of the same case",
        "2:26: pattern arity: C expects 1 variables, got 0",
        "3:3: unknown constructor Q in pattern"]


def test_diagnostics_carry_positions():
    source = parse_program("case x of\n  C y -> )")
    assert source.term is None
    diag = source.diagnostics[0]
    assert diag.line == 2 and diag.col > 0


def test_function_resolution_shadowing():
    text = "f (\\f -> f x) where f = \\y -> Nil"
    source = parse_program(text)
    program = source.term
    assert isinstance(program, Where)
    head, args = program.body.fn, program.body.arg
    assert head == Fun("f")  # where-bound occurrence
    assert args == Lam("f", App(Var("f"), Var("x")))  # lambda shadows it
    # in the body and in a definition, by a lambda, a let or a pattern
    assert _term("f (\\f -> f) where f = \\f -> f") == Where(
        App(Fun("f"), Lam("f", Var("f"))), (("f", Lam("f", Var("f"))),))
    # a let name is bound in the let body only, not in what it binds
    assert _term("(let g = g in g) where g = let g = Nil in g") == Where(
        Let("g", Fun("g"), Var("g")), (("g", Let("g", Con("Nil"), Var("g"))),))
    # a pattern variable is bound in its own alternative only
    assert _term("(case s of B f -> f | _ -> f) where "
                 "f = case s of C g f -> f | _ -> f") == Where(
        Case(Var("s"), (Alt(PCon("B", ("f",)), Var("f")), Alt(WILD, Fun("f")))),
        (("f", Case(Var("s"), (Alt(PCon("C", ("g", "f")), Var("f")),
                               Alt(WILD, Fun("f"))))),))


def test_roundtrip_corpus_programs(corpus):
    for entry, source, _ in corpus:
        text = DECLS + pretty_expr(source.term)
        again = parse_program(text)
        assert again.term is not None, again.diagnostics
        assert again.term == source.term


def _diagnostics(text: str) -> list[str]:
    return [str(d) for d in parse_program(text).diagnostics]


def test_long_input_positions():
    # positions many lines into a long program
    text = GEN_DECLS + pretty_expr(ring_program(400))
    rows = text.split("\n")
    last, width = len(rows), len(rows[-1])
    assert _diagnostics(text) == []
    assert _diagnostics(text + " )") == [
        f"{last}:{width + 2}: unexpected ')' after program"]
    # a tab and a carriage return are one blank column each; a comment hides
    # the rest of its line, so the error is on the next line
    for tail, where in (("\t?", f"{last}:{width + 2}"),
                        ("\r\t?", f"{last}:{width + 3}"),
                        (" # ? c\n \t?", f"{last + 1}:3"),
                        ("\n#?\n\r ?", f"{last + 2}:3")):
        assert _diagnostics(text + tail) == [f"{where}: unexpected character '?'"], tail
    # the first bad character in the text is reported, not a later one nor a
    # later occurrence of the same one
    middle = len(rows) // 2
    bad = rows[:middle] + ["  \t" + "?" + rows[middle].lstrip()] + rows[middle + 1:]
    assert _diagnostics("\n".join(bad) + " ? ;") == [
        f"{middle + 1}:4: unexpected character '?'"]
    bad[-1] = "; " + bad[-1]
    assert _diagnostics("\n".join(bad)) == [
        f"{middle + 1}:4: unexpected character '?'"]


def test_long_ring_roundtrips():
    program = ring_program(2000)
    again = parse_program(GEN_DECLS + pretty_expr(program))
    assert again.diagnostics == ()
    assert again.term == program


def test_inner_where_rings_roundtrip():
    # a where block that ends an outer definition other than the last is
    # printed in parentheses, or it would take in the later definitions
    for n in (3, 50, 2000):
        program = inner_where_ring(n)
        again = parse_program(GEN_DECLS + pretty_expr(program))
        assert again.diagnostics == ()
        assert again.term == program


def test_roundtrip_random_programs():
    rng = random.Random(11)
    for _ in range(40):
        program, _ = random_program(rng)
        text = GEN_DECLS + pretty_expr(program)
        again = parse_program(text)
        assert again.term is not None, again.diagnostics
        assert again.term == program


# --- where-bound names ----------------------------------------------------------

def _resolve(t: Term, funs: frozenset[str]) -> Term:
    """The reference resolver: ``t`` with each name decided again from scratch.

    A name is a ``Fun`` where an enclosing where block defines it and no inner
    lambda, let or pattern binder shadows it, else a ``Var``; a ``Fun`` in
    ``t`` counts as erased to ``Var`` first. ``funs`` holds the where-bound
    names in scope.
    """
    tt = type(t)
    if tt is Var or tt is Fun:
        return Fun(t.name) if t.name in funs else Var(t.name)
    if tt is App:
        return App(_resolve(t.fn, funs), _resolve(t.arg, funs))
    if tt is Con:
        return Con(t.con, tuple(_resolve(a, funs) for a in t.args))
    if tt is Case:
        alts = []
        for alt in t.alts:
            bound = alt.pattern.vars if isinstance(alt.pattern, PCon) else ()
            alts.append(Alt(alt.pattern, _resolve(alt.body, funs.difference(bound))))
        return Case(_resolve(t.scrutinee, funs), tuple(alts))
    if tt is Lam:
        return Lam(t.param, _resolve(t.body, funs - {t.param}))
    if tt is Let:
        return Let(t.name, _resolve(t.bound, funs), _resolve(t.body, funs - {t.name}))
    if tt is Where:
        inner = funs.union(f for f, _ in t.defs)
        return Where(_resolve(t.body, inner),
                     tuple((f, _resolve(d, inner)) for f, d in t.defs))
    raise TypeError(f"not a term: {t!r}")


def _known(t: Term, blocks: dict[str, dict[str, Term]]) -> bool:
    """Whether each call in ``t`` holds the definitions of the innermost where
    block that defines its name; ``blocks`` maps each name in scope to them."""
    def hiding(names) -> dict[str, dict[str, Term]]:
        return {f: defs for f, defs in blocks.items() if f not in names}

    tt = type(t)
    if tt is Fun:
        mine = blocks[t.name]
        return t.block.keys() == mine.keys() and t.block[t.name] is mine[t.name]
    if tt is App:
        return _known(t.fn, blocks) and _known(t.arg, blocks)
    if tt is Con:
        return all(_known(a, blocks) for a in t.args)
    if tt is Case:
        return _known(t.scrutinee, blocks) and all(
            _known(alt.body, hiding(getattr(alt.pattern, "vars", ()))) for alt in t.alts)
    if tt is Lam:
        return _known(t.body, hiding((t.param,)))
    if tt is Let:
        return _known(t.bound, blocks) and _known(t.body, hiding((t.name,)))
    if tt is Where:
        mine = dict(t.defs)
        inner = {**blocks, **dict.fromkeys(mine, mine)}
        return _known(t.body, inner) and all(_known(d, inner) for d in mine.values())
    return tt is Var


SCOPE_DECLS = "data D = A | B X | C X X\n"
SCOPE_NAMES = ("f", "g", "h", "x")
SCOPE_PATTERNS = ("A", "B f", "C g x", "Cons h x")


def _nested_text(rng: random.Random, depth: int, scope: frozenset[str]) -> str:
    """An expression over the names in ``scope`` and ``s``, nesting where
    blocks, lets, cases and lambdas that rebind and shadow the same few names."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return _nested_app(rng, depth, scope)
    if roll < 0.35:
        params = rng.sample(SCOPE_NAMES, rng.randint(1, 2))
        return (f"\\{' '.join(params)} -> "
                f"{_nested_text(rng, depth - 1, scope.union(params))}")
    if roll < 0.5:
        name = rng.choice(SCOPE_NAMES)
        return (f"let {name} = {_nested_text(rng, depth - 1, scope)} "
                f"in {_nested_text(rng, depth - 1, scope | {name})}")
    if roll < 0.65:
        pats = rng.sample(SCOPE_PATTERNS, rng.randint(1, 3)) + ["_"] * rng.randint(0, 1)
        alts = []
        for pat in pats:
            # a bare body may end in a where block that the next "|" closes
            body = _nested_text(rng, depth - 1, scope.union(pat.split()[1:]))
            alts.append(f"{pat} -> " + (body if rng.random() < 0.5 else f"({body})"))
        return f"case {_nested_app(rng, 0, scope)} of " + " | ".join(alts)
    names = rng.sample(SCOPE_NAMES, rng.randint(1, 3))
    inner = scope.union(names)
    defs = " ".join(f"{name} = {_nested_text(rng, depth - 1, inner)}" for name in names)
    return f"{_nested_app(rng, depth, inner)} where {defs}"


def _nested_app(rng: random.Random, depth: int, scope: frozenset[str]) -> str:
    words = sorted(scope) + ["s"]
    parts = []
    for i in range(rng.randint(1, 3)):
        roll = rng.random()
        if depth > 0 and roll < 0.25:  # a group, perhaps a where block
            parts.append(f"({_nested_text(rng, depth - 1, scope)})")
        elif i > 0 and roll < 0.4:
            parts.append(rng.choice(("Nil", "A", "True")))
        else:
            parts.append(rng.choice(words))
    return " ".join(parts)



def _nested_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [_nested_text(rng, rng.randint(1, 5), frozenset()) for _ in range(count)]


def test_roundtrip_nested_where_blocks():
    for text in _nested_texts(3, 2000):
        term = parse_program(SCOPE_DECLS + text).term
        if term is not None:
            assert parse_program(SCOPE_DECLS + pretty_expr(term)).term == term, text


def _mixes_fun_and_var(term: Term) -> bool:
    text = repr(term)
    return any(f"Fun(name='{n}')" in text and f"Var(name='{n}')" in text
               for n in SCOPE_NAMES)


def test_descent_resolves_names_like_the_reference_resolver(corpus):
    terms = [source.term for _, source, _ in corpus]
    rng = random.Random(5)
    for _ in range(40):
        program, _ = random_program(rng)
        terms.append(parse_program(GEN_DECLS + pretty_expr(program)).term)
    nested = [parse_program(SCOPE_DECLS + text).term for text in _nested_texts(3, 2000)]
    nested = [term for term in nested if term is not None]
    # the generator reaches blocks inside blocks and names bound both ways
    assert len(nested) > 1200
    assert sum(repr(term).count("Where(") > 1 for term in nested) > 350
    assert sum(map(_mixes_fun_and_var, nested)) > 350
    for term in terms + nested:
        assert term is not None
        assert _resolve(term, frozenset()) == term
        assert _known(term, {})


def test_atoms_resolve_names_like_the_reference_resolver():
    arities = parse_program(SCOPE_DECLS + "Nil").arities()
    accepted = []
    for text in _nested_texts(4, 1000):
        props = parse_properties(f"prop p: G {{ {text} }}", arities)
        if props.props:
            term = props.get("p").sub.term
            assert _resolve(term, frozenset()) == term
            assert _known(term, {})
            accepted.append((text, term))
    assert len(accepted) > 550
    assert sum(_mixes_fun_and_var(term) for _, term in accepted) > 120
    # one file of many atoms: each atom starts with no where-bound names
    whole = "".join(f"prop p{i}: {{ {text} }}\n" for i, (text, _) in enumerate(accepted))
    assert [f.term for _, f in parse_properties(whole, arities).props] == [
        term for _, term in accepted]


def _term(text: str) -> Term:
    source = parse_program(SCOPE_DECLS + text)
    assert source.diagnostics == (), source.diagnostics
    return source.term


def test_where_blocks_close_where_the_descent_closes_them():
    lam_x = Lam("x", Var("x"))
    # in a let binding, closed by "in": the h after it is the outer block's
    assert _term("g h where g = let y = f h where f = \\x -> x in f y\n  h = Nil") == Where(
        App(Fun("g"), Fun("h")),
        (("g", Let("y", Where(App(Fun("f"), Fun("h")), (("f", lam_x),)),
                   App(Var("f"), Var("y")))),
         ("h", Con("Nil"))))
    # in a case alternative, closed by "|": likewise
    assert _term("g h where g = case s of A -> f h where f = s | _ -> f\n  h = Nil") == Where(
        App(Fun("g"), Fun("h")),
        (("g", Case(Var("s"), (
            Alt(PCon("A", ()), Where(App(Fun("f"), Fun("h")), (("f", Var("s")),))),
            Alt(WILD, Var("f"))))),
         ("h", Con("Nil"))))
    # an inner block takes the definitions after it, so the outer h is free
    assert _term("f h where f = g where g = h  h = Nil") == Where(
        App(Fun("f"), Var("h")),
        (("f", Where(Fun("g"), (("g", Fun("h")), ("h", Con("Nil"))))),))
    # a parenthesized block ends at its ")"; the atoms after it are outside
    assert _term("(g h where g = \\x -> x) g h where h = Nil") == Where(
        App(App(Where(App(Fun("g"), Fun("h")), (("g", lam_x),)), Var("g")), Fun("h")),
        (("h", Con("Nil")),))


def test_where_in_a_property_atom():
    arities = parse_program("Nil").arities()
    props = parse_properties("prop p: G { f s where f = \\x -> x }", arities)
    assert props.get("p") == Always(Atom(Where(
        App(Fun("f"), Var("s")), (("f", Lam("x", Var("x"))),))))
    # the next atom starts with no where-bound names, so its f is free
    props = parse_properties("prop p: { f s where f = \\x -> x }\nprop q: { f s }",
                             arities)
    assert [str(d) for d in props.diagnostics] == ["2:6: free variable f in atom"]


def test_block_tokens_out_of_place_keep_their_diagnostics():
    assert _diagnostics("f x) where f = Nil") == ["1:4: unexpected ')' after program"]
    assert _diagnostics("f in x where f = Nil") == ["1:3: unexpected 'in' after program"]
    assert _diagnostics("let x = Nil in f in x") == [
        "1:18: unexpected 'in' after program"]
    assert _diagnostics("f | x where f = Nil") == ["1:3: unexpected '|' after program"]
    assert _diagnostics("f where f = x | g") == ["1:15: unexpected '|' after program"]
    assert _diagnostics("f = x") == ["1:3: unexpected '=' after program"]
    assert _diagnostics("f where f = (g = x)") == ["1:16: expected ')', found '='"]


# --- term checks -------------------------------------------------------------------

# declarations under which the same texts break different arity rules
ARITY_DECLS = (SCOPE_DECLS, "data D = A X | B | C X X X\n",
               "data D = A | B X X | C\n", "data D = A X X | B | C X\n")

# the token each term problem names: a constructor, "_" or a function
_NAMED = re.compile(r"arity: (\w+)|constructor (?!arity)(\w+)|variable in (\w+)"
                    r"|function (\w+)|(wildcard)")


def _descent(text: str) -> tuple[Term, dict[str, int], int] | None:
    """The term the descent builds from a program, problems or not, its
    constructor table and its number of declaration problems; None when the
    text does not parse."""
    ts = parser._Tokens(text)
    decls, problems = parser._parse_decls(ts)
    ts.arities = arity_table(decls)
    ts.blocks = parser._where_blocks(ts, ts.pos)
    term = parser._parse_expr(ts)
    if ts.tags[ts.pos] != "eof":
        return None
    return term, ts.arities, len(problems)


def _problem_token(message: str) -> str:
    name = next(g for g in _NAMED.search(message).groups() if g)
    return "_" if name == "wildcard" else name


def _token_at(text: str, diagnostic) -> str:
    row = text.split("\n")[diagnostic.line - 1]
    return re.match(r"\w+|\S", row[diagnostic.col - 1:]).group()


def _assert_checks_like_the_reference(text: str) -> int:
    """The number of term problems ``parse_program`` reports for ``text``,
    after checking them against the reference walk: the same messages in the
    same order, each at the token it names."""
    try:
        built = _descent(text)
    except parser.ParseError:
        built = None
    source = parse_program(text)
    if built is None:
        assert source.term is None and len(source.diagnostics) == 1
        return 0
    term, arities, declared = built
    found = source.diagnostics[declared:]
    assert [d.message for d in found] == check_term(term, arities), text
    for d in found:
        assert _token_at(text, d) == _problem_token(d.message), (text, d)
    return len(found)


UIDS = ("Cons", "Nil", "St0", "St1", "EvA", "EvB", "Mystery", "True")


def _token_mutation(text: str, rng: random.Random, count: int) -> str:
    """``text`` with ``count`` constructors renamed, parenthesized, given an
    argument or deleted, or alternatives put in at a ``|``."""
    tokens = re.findall(r"\w+|->|\S|\n", text)
    for i in rng.choices([i for i, t in enumerate(tokens) if t[0].isupper() or t == "|"],
                         k=count):
        if tokens[i] == "|":
            tokens[i] = rng.choice(("| _ -> Nil |", "| St0 -> Nil |", "| Cons e e -> Nil |"))
        else:
            tokens[i] = rng.choice((rng.choice(UIDS), f"({tokens[i]})",
                                    f"{tokens[i]} {rng.choice(('x', 'St0', '(St1)'))}", ""))
    return " ".join(tokens)


def test_descent_checks_terms_like_the_reference(corpus_text):
    for i in (1, 2, 3):
        assert _assert_checks_like_the_reference(corpus_text[f"example{i}.rsl"]) == 0
    rng = random.Random(19)
    mutated = [_assert_checks_like_the_reference(
                   GEN_DECLS + _token_mutation(pretty_expr(random_program(rng)[0]),
                                               rng, rng.randint(2, 6)))
               for _ in range(300)]
    nested = [_assert_checks_like_the_reference(ARITY_DECLS[i % len(ARITY_DECLS)] + text)
              for i, text in enumerate(_nested_texts(19, 2400))]
    # many texts break several rules at once
    assert sum(n > 1 for n in mutated) > 60
    assert sum(n > 1 for n in nested) > 700


def test_atoms_check_terms_like_the_reference():
    checked = 0
    for i, text in enumerate(_nested_texts(20, 600)):
        decls = ARITY_DECLS[i % len(ARITY_DECLS)]
        atom = f"prop p: G {{ {text} }}"
        props = parse_properties(atom, parse_program(decls + "Nil").arities())
        built = _descent(decls + text)
        if built is None:
            continue
        term, arities, _ = built
        found = [d for d in props.diagnostics if not d.message.startswith("free variable")]
        assert [d.message for d in found] == check_term(term, arities), text
        for d in found:
            assert _token_at(atom, d) == _problem_token(d.message), (atom, d)
        checked += bool(found)
    assert checked > 250


# --- properties ------------------------------------------------------------------

def _corpus_arities(corpus_by_name):
    _, source, _ = corpus_by_name["example1"]
    return source.arities()


def test_mutex_property_shape(corpus_by_name):
    _, _, props = corpus_by_name["example1"]
    mutex = props.get("mutex")
    assert isinstance(mutex, Always)
    assert isinstance(mutex.sub, Atom)
    inner = mutex.sub.term
    assert isinstance(inner, Case)
    assert inner.scrutinee == Var("s")


def test_nonstarve_property_shape(corpus_by_name):
    _, _, props = corpus_by_name["example1"]
    ns1 = props.get("nonstarve1")
    assert isinstance(ns1, Always)
    assert isinstance(ns1.sub, Implies)
    assert isinstance(ns1.sub.left, Atom)
    assert isinstance(ns1.sub.right, Eventually)


def test_operator_precedence(corpus_by_name):
    arities = _corpus_arities(corpus_by_name)
    src = "prop p: G { True } => F { False }"
    props = parse_properties(src, arities)
    formula = props.get("p")
    assert isinstance(formula, Implies)
    assert isinstance(formula.left, Always)
    assert isinstance(formula.right, Eventually)

    src = "prop p: ! { True } && { False } || { True }"
    formula = parse_properties(src, arities).get("p")
    # ! binds tightest, then &&, then ||
    from rtlcheck.terms import Or
    assert isinstance(formula, Or)
    assert isinstance(formula.left, And)
    assert isinstance(formula.left.left, Not)


def test_implies_right_associative(corpus_by_name):
    arities = _corpus_arities(corpus_by_name)
    formula = parse_properties("prop p: { True } => { True } => { False }",
                               arities).get("p")
    assert isinstance(formula, Implies)
    assert isinstance(formula.right, Implies)


def test_atom_with_stray_free_variable_rejected(corpus_by_name):
    props = parse_properties("prop bad: G { t }", _corpus_arities(corpus_by_name))
    assert props.props == ()
    assert any("free variable t in atom" in d.message for d in props.diagnostics)


def test_unknown_fairness_constructor_rejected(corpus_by_name):
    props = parse_properties("fair: Imaginary\nprop p: G { True }",
                             _corpus_arities(corpus_by_name))
    assert any("unknown fairness constructor" in d.message
               for d in props.diagnostics)


def test_fairness_must_be_nullary(corpus_by_name):
    props = parse_properties("fair: ObsState\nprop p: G { True }",
                             _corpus_arities(corpus_by_name))
    assert any("not nullary" in d.message for d in props.diagnostics)


def test_semantic_diagnostics_point_at_the_name(corpus_by_name):
    # duplicates and free variables at the property's name, fairness problems
    # at the fairness name, an atom's term problems at their tokens
    text = ("prop mutex: G { True }\n"
            "prop free: G { t }\n"
            "fair: Take1, Nope\n"
            "  prop mutex: F { Cons }\n")
    props = parse_properties(text, _corpus_arities(corpus_by_name))
    assert [str(d) for d in props.diagnostics] == [
        "4:8: duplicate property mutex",
        "2:6: free variable t in atom",
        "4:19: constructor arity: Cons expects 2 arguments, got 0",
        "3:14: unknown fairness constructor Nope",
    ]
    # each property's atom problems follow its own free-variable problems,
    # in token order
    text = ("prop p: { Nope t } && { (True) s }\n"
            "prop q: G { Cons Nil }")
    props = parse_properties(text, _corpus_arities(corpus_by_name))
    assert [str(d) for d in props.diagnostics] == [
        "1:6: free variable t in atom",
        "1:11: unknown constructor Nope",
        "1:26: constructor arity: True expects 0 arguments, got 1",
        "2:13: constructor arity: Cons expects 2 arguments, got 1",
    ]


def test_missing_fair_header_defaults_to_empty(corpus_by_name):
    props = parse_properties("prop p: G { True }", _corpus_arities(corpus_by_name))
    assert props.fair == frozenset()


def test_formula_roundtrip(corpus_by_name):
    arities = _corpus_arities(corpus_by_name)
    _, _, props = corpus_by_name["example1"]
    for name, formula in props.props:
        text = f"prop {name}: {pretty_formula(formula)}"
        again = parse_properties(text, arities)
        assert again.get(name) is not None, again.diagnostics
        assert again.get(name) == formula


# --- pinned results ----------------------------------------------------------------

# characters a one-character mutation inserts or substitutes: the grammar's
# own plus line ends, tabs and letters where str.isalpha, str.isupper and the
# regex classes \w and \d disagree
MUTATION_CHARS = ("\n", "\r", "\t", " ", "#", "(", ")", "{", "}", "|", "=",
                  ">", "-", "\\", "_", ":", ",", "!", "&", "x", "X", "1",
                  "²", "ǅ", "変", "\u2028", "é", "É")

# lexical corner cases, each mapped to the str of its diagnostics
EXPLICIT_PROPERTIES = {
    # end of input after a comment is past the line, as after trailing spaces
    "prop x: # c": "1:12: expected a formula, found 'end of input'",
    "prop ²x: G { True }": "1:6: unexpected character '²'",
    "prop x²: G {\tTrue }\r\n": "",
    # U+2028 is not a line end: the error stays on line 1
    "prop x: G { True }\u2028prop y: G { True }":
        "1:19: unexpected character '\\u2028'",
    "prop ǅ: G { True }\nprop 変: F { False }": "",
}

EXPLICIT_PROGRAMS = (
    "Cons\tNil\r\n  Nil\r\n",
    "data D = A\r\n| B\nA",
    "x² where x² = Nil",
    "ǅ 変",
    "Nil # trailing\n# only a comment",
    "Nil\u2028Nil",
    "case x of _abc -> x",
    "1x",
)


def _pattern_constructors(t: Term) -> set[str]:
    """The constructor of every pattern in ``t``, found by walking the term."""
    out: set[str] = set()

    def visit(term: Term) -> None:
        tt = type(term)
        if tt is App:
            visit(term.fn)
            visit(term.arg)
        elif tt is Case:
            visit(term.scrutinee)
            for alt in term.alts:
                if type(alt.pattern) is PCon:
                    out.add(alt.pattern.con)
                visit(alt.body)
        elif tt is Con:
            for a in term.args:
                visit(a)
        elif tt is Lam:
            visit(term.body)
        elif tt is Let:
            visit(term.bound)
            visit(term.body)
        elif tt is Where:
            visit(term.body)
            for _, d in term.defs:
                visit(d)

    visit(t)
    return out


def reference_events(source: SourceFile) -> tuple[str, ...]:
    """The event alphabet by a walk over the parsed term, the parser's reference."""
    builtin = {name for d in BUILTIN_DECLS for name, _ in d.constructors}
    matched = _pattern_constructors(source.term) - builtin
    owners = {d.name for d in source.decls
              if any(c == m for c, _ in d.constructors for m in matched)}
    out: list[str] = []
    for d in source.decls:
        if d.name in owners:
            out.extend(c for c, arity in d.constructors if arity == 0)
    return tuple(out)


def test_events_equal_the_term_walk(corpus_text):
    texts = [corpus_text[f"example{i}.rsl"] for i in (1, 2, 3)]
    rng = random.Random(18)
    texts += [GEN_DECLS + pretty_expr(random_program(rng)[0]) for _ in range(300)]
    texts += [GEN_DECLS + pretty_expr(p) for p in (
        ring_program(5), inner_where_ring(5), handler_graph(8))]
    # one-character mutations that still parse: other patterns, other matches
    texts += [m for text in texts[:3] for m in _mutations(text, rng, 300)]
    texts += [  # a datatype named twice, a redeclared built-in, a state pattern
        "data E = A\ndata E = B\ndata F = C\ncase es of Cons e r -> case e of A -> Nil",
        "data List = Nil | Cons a (List a)\ndata E = A | B\ncase es of Nil -> Nil",
        DECLS + "case es of Cons e r -> case e of ObsState p q -> case p of T -> Nil",
    ]
    parsed = [s for s in map(parse_program, texts) if s.term is not None]
    assert len(parsed) > 500
    assert sum(not s.events for s in parsed) > 10  # some match no event
    for source in parsed:
        assert source.events == reference_events(source)


def test_events_stay_out_of_repr_and_equality():
    source = parse_program(GEN_DECLS + pretty_expr(ring_program(3)))
    assert source.events == ("EvA", "EvB", "EvC", "EvD")
    assert "events" not in repr(source)
    assert source == SourceFile(source.decls, source.term, ())
    assert hash(source) == hash(SourceFile(source.decls, source.term, ()))


# sha256 over the results of test_parse_results_pinned: a change to the
# grammar, to a parsed term or to a diagnostic moves it; re-recorded when
# property files' semantic diagnostics moved from 1:1 to the names they
# concern, again when program files' declaration diagnostics did (25
# results), and again when term diagnostics moved from 1:1 and from the
# property's name to their tokens (273 results), all else checked equal
# result by result each time
PARSE_DIGEST = "f939ad6247175003e0084e6d06c1e4b41795aebd655d7cf43093cbfff54645b8"


def _canonical(result) -> str:
    # a frozenset's repr order follows string hashing, which varies per process
    fair = getattr(result, "fair", None)
    if fair is not None:
        return repr((result.props, sorted(fair), result.diagnostics))
    return repr(result)


def _mutations(text: str, rng: random.Random, count: int):
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        ch = rng.choice(MUTATION_CHARS)
        if op == 0:
            yield text[:i] + text[i + 1:]
        elif op == 1:
            yield text[:i] + ch + text[i:]
        else:
            yield text[:i] + ch + text[i + 1:]


def test_explicit_lexical_cases():
    arities = parse_program("Nil").arities()
    for text, want in EXPLICIT_PROPERTIES.items():
        result = parse_properties(text, arities)
        assert "; ".join(map(str, result.diagnostics)) == want, text
    assert parse_properties("prop ǅ: G { True }", arities).get("ǅ")
    assert parse_program("ǅ 変").term == App(Var("ǅ"), Var("変"))


def test_parse_results_pinned(corpus_text):
    digest = hashlib.sha256()

    def pin(result) -> None:
        digest.update(_canonical(result).encode("utf-8") + b"\n")

    programs = [corpus_text[f"example{i}.rsl"] for i in (1, 2, 3)]
    props = corpus_text["mutex.ltl"]
    arities = parse_program(programs[0]).arities()
    gen_arities = parse_program(GEN_DECLS + "Nil").arities()
    for text in programs:
        pin(parse_program(text))
    pin(parse_properties(props, arities))

    rng = random.Random(2024)
    for _ in range(300):
        program, _ = random_program(rng)
        pin(parse_program(GEN_DECLS + pretty_expr(program)))
    battery = "".join(f"prop p{i}: {pretty_formula(f)}\n"
                      for i, f in enumerate(formula_battery()))
    pin(parse_properties(battery, gen_arities))

    rng = random.Random(7)
    for text in programs:
        for mutated in _mutations(text, rng, 400):
            pin(parse_program(mutated))
    for mutated in _mutations(props, rng, 800):
        pin(parse_properties(mutated, arities))

    for text in EXPLICIT_PROPERTIES:
        pin(parse_properties(text, arities))
    for text in EXPLICIT_PROGRAMS:
        pin(parse_program(text))

    assert digest.hexdigest() == PARSE_DIGEST


def test_nesting_too_deep_for_the_stack_is_a_diagnostic():
    deep = "(" * 5000 + "Nil" + ")" * 5000
    source = parse_program(deep)
    assert source.term is None
    assert [d.message for d in source.diagnostics] == [TOO_DEEP]
    arities = parse_program("Nil").arities()
    for text in ("prop p: " + "(" * 5000 + "G { True }" + ")" * 5000,
                 "prop p: G { " + deep + " }"):
        props = parse_properties(text, arities)
        assert props.props == ()
        assert [d.message for d in props.diagnostics] == [TOO_DEEP]


def _deeper(frames, parse):
    """``parse()``, called ``frames`` frames deeper than the caller."""
    return parse() if frames == 0 else _deeper(frames - 1, parse)


def test_nesting_too_deep_is_reported_where_the_descent_began():
    # not where the cursor stood when the stack ran out, which moves with the
    # depth of the caller's stack
    deep = "(" * 5000 + "Nil" + ")" * 5000
    arities = parse_program("Nil").arities()
    for frames in (0, 100, 300):
        source = _deeper(frames, lambda: parse_program("data D = A\n" + deep))
        assert source.diagnostics == (Diagnostic(2, 1, TOO_DEEP),), frames
        props = _deeper(frames, lambda: parse_properties("prop p: G { " + deep + " }",
                                                         arities))
        assert props.diagnostics == (Diagnostic(1, 9, TOO_DEEP),), frames


# grammar fragments mixed with arbitrary characters, so that fuzzed text
# gets past the lexer and into the descent
FRAGMENTS = ("case", "of", "let", "in", "where", "data", "prop", "fair", "G",
             "F", "X", "Cons", "Nil", "True", "s", "es", "f", "->", "=>", "&&",
             "||", "\\", "(", ")", "{", "}", "|", "=", ":", ",", "_", "!", " ",
             "\n", "#")


@settings(deadline=None, max_examples=300)
@given(text=st.lists(st.sampled_from(FRAGMENTS) | st.characters()).map("".join))
def test_parsers_never_raise(text):
    source = parse_program(text)
    assert isinstance(source, SourceFile)
    assert (source.term is None) == bool(source.diagnostics)
    props = parse_properties(text, parse_program("Nil").arities())
    assert isinstance(props, PropertyFile)
    assert not (props.props and props.diagnostics)
