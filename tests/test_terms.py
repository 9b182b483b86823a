import ast
import importlib
import pkgutil
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rtlcheck
from rtlcheck import semantics
from rtlcheck.lts import Lts
from rtlcheck.ltlsem import PositionedModel, bounded_counts
from rtlcheck.normform import FormReport, Violation
from rtlcheck.parser import Diagnostic, PropertyFile, SourceFile, parse_program
from rtlcheck.semantics import EvalError, run_trace
from rtlcheck import terms
from rtlcheck.terms import (
    Alt, Always, And, App, Atom, Case, Con, DataDecl, Eventually, Fun, Lam, Let, Next,
    Not, Or, PCon, PWild, Term, Var, WILD, Where, free_vars, substitute,
)
from rtlcheck.witness import ValidationReport, generate, validate_verdict

from gen_programs import (
    formula_battery, handler_graph, random_fair, random_program, ring_program,
    state_atom,
)
from test_ltlsem import HAND_BUILT, HAND_BUILT_FORMULAS, HAND_BUILT_HEADER, READ_CONSUMED_EVENTS


def naive_free(t, bound=frozenset()):
    """Independent scope-walker used as the oracle for free_vars."""
    match t:
        case Var(name):
            return set() if name in bound else {name}
        case Con(_, args):
            return set().union(*(naive_free(a, bound) for a in args), set())
        case Fun(_):
            return set()
        case Lam(p, body):
            return naive_free(body, bound | {p})
        case App(fn, arg):
            return naive_free(fn, bound) | naive_free(arg, bound)
        case Case(scrut, alts):
            out = naive_free(scrut, bound)
            for alt in alts:
                extra = set(alt.pattern.vars) if isinstance(alt.pattern, PCon) else set()
                out |= naive_free(alt.body, bound | extra)
            return out
        case Let(name, b, body):
            return naive_free(b, bound) | naive_free(body, bound | {name})
        case Where(body, defs):
            out = naive_free(body, bound)
            for _, d in defs:
                out |= naive_free(d, bound)
            return out
    raise AssertionError


def test_free_vars_var():
    assert free_vars(Var("x")) == {"x"}


def test_free_vars_identity_lambda():
    assert free_vars(Lam("x", Var("x"))) == frozenset()


def test_free_vars_case_binders():
    # cross-checked against the naive scope walker
    t = Case(Var("es"), (Alt(PCon("Cons", ("e", "es")), Var("e")),))
    assert free_vars(t) == {"es"} == naive_free(t)


def test_substitute_simple():
    assert substitute(Var("x"), {"x": Con("A")}) == Con("A")


def test_a_binder_hides_only_its_own_names_from_the_bindings():
    a, b = Con("A"), Con("B")
    sub = {"x": a, "y": b}
    assert substitute(Lam("x", App(Var("x"), Var("y"))), sub) == \
        Lam("x", App(Var("x"), b))
    # a let's name is bound in its body, not in the term it binds
    assert substitute(Let("x", Var("x"), App(Var("x"), Var("y"))), sub) == \
        Let("x", a, App(Var("x"), b))
    # a pattern's variables are bound in its alternative only
    t = Case(Var("x"), (Alt(PCon("C", ("x", "z")), App(Var("x"), Var("y"))),
                        Alt(WILD, Var("x"))))
    assert substitute(t, sub) == \
        Case(a, (Alt(PCon("C", ("x", "z")), App(Var("x"), b)), Alt(WILD, a)))


# --- the node contract ---------------------------------------------------------

NODE_CLASSES = (Var, Con, Lam, Fun, App, Alt, Case, Let, Where, PCon, PWild)


def _nodes():
    """One fresh node of each term and pattern class."""
    handler = Lam("es", Case(Var("es"), (
        Alt(PCon("Cons", ("e", "r")), App(Fun("f"), Var("r"))), Alt(WILD, Fun("f")))))
    return [Var("x"), Con("Cons", (Con("St0"), Var("es"))), handler, Fun("f"),
            App(Fun("f"), Var("es")), Alt(PCon("EvA"), Fun("f")), handler.body,
            Let("h", Lam("x", Fun("f")), App(Var("h"), Var("es"))),
            Where(App(Fun("f"), Var("es")), (("f", handler),)),
            PCon("Cons", ("e", "r")), PWild()]


def test_nodes_are_slotted_and_not_frozen():
    assert {type(n) for n in _nodes()} == set(NODE_CLASSES)
    for node in _nodes():
        assert not hasattr(node, "__dict__"), type(node).__name__
        for name in node.__match_args__:
            setattr(node, name, getattr(node, name))


def test_node_equality_is_structural_and_class_sensitive():
    for a, b in zip(_nodes(), _nodes()):
        assert a is not b and a == b and hash(a) == hash(b)
    assert Var("x") != Fun("x")
    assert Con("A") != Con("A", (Con("B"),))
    assert PCon("EvA") != PCon("EvA", ("x",))
    assert len(set(_nodes() + _nodes())) == len(NODE_CLASSES)


def test_formula_and_record_equality_is_class_sensitive():
    p, q = Atom(Var("s")), Atom(Con("A"))
    assert And(p, q) == And(Atom(Var("s")), q) and hash(And(p, q)) == hash(And(Atom(Var("s")), q))
    assert And(p, q) != Or(p, q) and Always(p) != Eventually(p) != Next(p) != Not(p)
    assert repr(Not(q)) == "Not(sub=Atom(term=Con(con='A', args=())))"
    assert PositionedModel((), ()) != FormReport((), ())
    # the event alphabet is no part of a source file's value
    source = SourceFile((), Con("A"), (), ("EvA",))
    assert source == SourceFile((), Con("A"), ()) and hash(source) == hash(SourceFile((), Con("A"), ()))
    assert repr(source) == "SourceFile(decls=(), term=Con(con='A', args=()), diagnostics=())"
    # the records without a constructor of their own build through Record's:
    # positional fields only, as many as __match_args__ names, set in its order
    for cls in (DataDecl, Atom, Not, And, Diagnostic, PropertyFile, Lts, Violation,
                FormReport, ValidationReport, PositionedModel):
        fields = cls.__match_args__
        assert cls.__init__ is terms.Record.__init__
        assert repr(cls(*range(len(fields)))) == \
            f"{cls.__name__}({', '.join(f'{f}={i}' for i, f in enumerate(fields))})"
        for wrong in (len(fields) - 1, len(fields) + 1):
            with pytest.raises(TypeError, match=cls.__name__):
                cls(*range(wrong))
        with pytest.raises(TypeError):
            cls(*range(len(fields) - 1), **{fields[-1]: 0})


def test_node_repr_is_the_dataclass_repr():
    assert repr(Con("A")) == "Con(con='A', args=())"
    assert repr(App(Fun("f"), Var("x"))) == "App(fn=Fun(name='f'), arg=Var(name='x'))"
    assert repr(Alt(WILD, Var("x"))) == "Alt(pattern=PWild(), body=Var(name='x'))"


def test_match_class_patterns_bind_fields():
    match Con("Cons", (Con("St0"), App(Fun("f"), Var("es")))):
        case Con("Cons", (Con(state), App(Fun(name), Var(arg)))):
            assert (state, name, arg) == ("St0", "f", "es")
        case _:
            raise AssertionError("no match")
    match Case(Var("e"), (Alt(PCon("EvA", ("x",)), Fun("g")),)):
        case Case(Var(scrutinee), (Alt(PCon(con, pvars), body),)):
            assert (scrutinee, con, pvars, body) == ("e", "EvA", ("x",), Fun("g"))
        case _:
            raise AssertionError("no match")


def test_free_vars_fills_the_slot_without_changing_the_value():
    t = App(Lam("x", App(Var("x"), Var("y"))), Var("z"))
    assert t._fv is None
    fv = free_vars(t)
    assert fv == {"y", "z"} and t._fv is fv
    assert t.fn._fv == {"y"} and t.arg._fv == {"z"}
    twin = App(Lam("x", App(Var("x"), Var("y"))), Var("z"))
    assert twin._fv is None
    assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)
    # so for every term node, Lam, Let and Where among them, which compare
    # through Record
    for filled, fresh in zip(_nodes(), _nodes()):
        if isinstance(filled, Term):
            free_vars(filled)
            assert filled._fv is not None and fresh._fv is None
            assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)


def test_a_calls_definitions_are_no_part_of_its_value():
    # the parser's resolution keeps every term's equality, hash and repr
    defs = {"f": Lam("x", Var("x"))}
    call = Fun("f", defs, 3)
    assert call == Fun("f") and hash(call) == hash(Fun("f"))
    assert repr(call) == "Fun(name='f')"
    block, bare = Where(call, tuple(defs.items()), defs), Where(Fun("f"), tuple(defs.items()))
    assert block == bare and hash(block) == hash(bare)
    free_vars(block)
    assert block == bare and hash(block) == hash(bare)
    assert repr(block) == repr(bare) == (
        "Where(body=Fun(name='f'), defs=(('f', Lam(param='x', body=Var(name='x'))),))")


def test_a_block_and_its_calls_hold_one_dict_of_its_definitions():
    outer = parse_program("f es where\nf = \\es -> (g es where g = \\x -> f x)\n").term
    inner = outer.defs[0][1].body
    for where in (outer, inner):
        assert where.block == dict(where.defs)
        assert where.body.fn.block is where.block
    # g's body calls the f of the block around it
    assert inner.defs[0][1].body.fn.block is outer.block


def test_each_definition_is_numbered_once_in_parse_order():
    # blocks in the order the descent enters their bodies, each block's names
    # in order; every call of a definition shares its one Fun
    term = parse_program("f es where\nf = \\es -> (g es where g = \\x -> f x)\n"
                         "h = \\es -> (g es where g = \\x -> h x)\n").term
    (_, f), (_, h) = term.defs
    assert term.body.fn.index == 0
    assert f.body.body.fn.index == 2 and h.body.body.fn.index == 3
    assert f.body.defs[0][1].body.fn is term.body.fn
    assert h.body.defs[0][1].body.fn.index == 1
    assert Fun("f").index is None


def test_no_module_but_terms_assigns_a_node_field():
    # nodes are not frozen: this scan is what keeps them immutable
    names = {name for cls in NODE_CLASSES for base in cls.__mro__
             for name in getattr(base, "__slots__", ())}
    assert {"name", "args", "body", "alts", "_fv", "block", "index"} <= names
    offences = []
    for path in sorted(Path(terms.__file__).parent.glob("*.py")):
        if path.name == "terms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # a record's __init__ sets its own fields on self, and no class
            # outside terms.py is a node class
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load) \
                    and node.attr in names \
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                offences.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.Call) and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant) \
                    and node.args[1].value in names \
                    and (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                         or isinstance(node.func, ast.Attribute)
                         and node.func.attr == "__setattr__"):
                offences.append(f"{path.name}:{node.lineno}: {node.args[1].value}")
    assert not offences


# --- randomized laws ---------------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "w"])


def _terms():
    leaves = st.one_of(
        st.builds(Var, _names),
        st.builds(lambda: Con("A")),
        st.builds(lambda: Fun("f")),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(App, inner, inner),
            st.builds(Lam, _names, inner),
            st.builds(Let, _names, inner, inner),
            st.builds(lambda a, b: Con("P", (a, b)), inner, inner),
            st.builds(
                lambda s, v, b1, b2: Case(
                    s, (Alt(PCon("C", (v,)), b1), Alt(WILD, b2))),
                inner, _names, inner, inner),
        ),
        max_leaves=10,
    )


def _closed(t):
    """``t`` under one lambda per free variable: a closed term."""
    for name in sorted(free_vars(t)):
        t = Lam(name, t)
    return t


# substitute's precondition: every bound term is closed
_bindings = st.dictionaries(_names, _terms().map(_closed), max_size=3)


@settings(deadline=None)
@given(t=_terms(), b=_bindings)
def test_substitution_free_var_law(t, b):
    assert free_vars(substitute(t, b)) == free_vars(t) - set(b)


@settings(deadline=None)
@given(t=_terms(), b=_bindings)
def test_substitution_noop_without_free_occurrences(t, b):
    live = free_vars(t) & set(b)
    if not live:
        assert substitute(t, b) == t


# --- the library substitutes nothing --------------------------------------------

def _exercise(program, events, formulas, fair=frozenset(), verdicts=True):
    """Simulate, sample and (for a conforming program) check and validate."""
    for f in formulas:
        try:
            bounded_counts(program, events, 3, f)
        except EvalError:
            pass
        if verdicts:
            verdict = generate(program, f, fair)
            validate_verdict(verdict, f)
    try:
        run_trace(program, list(events) * 3)
        run_trace(program, events, cycle=True, max_states=10)
    except EvalError:
        pass


HAND_BUILT_PROGRAMS = {**HAND_BUILT, **READ_CONSUMED_EVENTS}


@pytest.mark.parametrize("programs", [
    "the corpus", "random programs", "rings and handler graphs", *sorted(HAND_BUILT_PROGRAMS)])
def test_library_substitutes_nothing(programs, corpus, monkeypatch):
    # the machine binds variables in environments and trace_dag keys its
    # branch points on closures, so every library binding of substitute and
    # _unshadowed may raise
    def refuse(*args):
        raise AssertionError(f"the library substituted: {args!r}")

    real = {name: getattr(terms, name) for name in ("substitute", "_unshadowed")}
    patched = set()
    for info in pkgutil.iter_modules(rtlcheck.__path__):
        module = importlib.import_module(f"rtlcheck.{info.name}")
        for name, function in real.items():
            if getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, refuse)
                patched.add(f"{info.name}.{name}")
    assert {"terms.substitute", "terms._unshadowed", "semantics.substitute",
            "verify.substitute"} <= patched
    keys = []
    key = semantics._key
    monkeypatch.setattr(semantics, "_key", lambda c: keys.append(c) or key(c))
    if programs == "the corpus":
        for _, source, props in corpus:
            _exercise(source.term, source.events, [f for _, f in props.props],
                      frozenset(source.events))
    elif programs == "random programs":
        rng = random.Random(20)
        battery = formula_battery()
        for _ in range(300):
            program, events = random_program(rng)
            _exercise(program, events, [rng.choice(battery)], random_fair(rng, events))
    elif programs == "rings and handler graphs":
        response = Eventually(state_atom("St2"))
        for program in (ring_program(20), ring_program(60), handler_graph(8), handler_graph(10)):
            _exercise(program, ("EvA", "EvB", "EvC"), [response], frozenset(("EvA",)))
    else:
        # outside simplified form, some of them: simulated and sampled only
        program = parse_program(HAND_BUILT_HEADER + HAND_BUILT_PROGRAMS[programs]).term
        _exercise(program, ("EvA", "EvB", "EvC"), HAND_BUILT_FORMULAS, verdicts=False)
    # the enumeration reached branch points, but for a program that never
    # reads an event
    assert keys or programs == "never reads an event"
