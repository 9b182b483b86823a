from hypothesis import given, settings, strategies as st

from rtlcheck.terms import (
    Alt, App, Case, Con, Fun, Lam, Let, PCon, Var, WILD, Where,
    free_vars, fresh_name, substitute,
)


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


def test_substitute_capture_avoidance():
    # the binder is renamed deterministically, away from the incoming y
    assert substitute(Lam("y", Var("x")), {"x": Var("y")}) == Lam("y1", Var("y"))


def test_substitute_case_pattern_capture():
    t = Case(Var("zs"), (Alt(PCon("Cons", ("y", "ys")), App(Var("y"), Var("x"))),))
    out = substitute(t, {"x": Var("y")})
    assert free_vars(out) == {"zs", "y"}
    alt = out.alts[0]
    assert alt.pattern.vars[0] != "y"


def test_fresh_name_smallest_suffix():
    assert fresh_name("y", {"y", "y1", "y3"}) == "y2"


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


_bindings = st.dictionaries(_names, _terms(), max_size=3)


@settings(deadline=None)
@given(t=_terms(), b=_bindings)
def test_substitution_free_var_law(t, b):
    expected = (free_vars(t) - set(b)) | set().union(
        set(), *(free_vars(b[x]) for x in free_vars(t) & set(b)))
    assert free_vars(substitute(t, b)) == expected


@settings(deadline=None)
@given(t=_terms(), b=_bindings)
def test_substitution_noop_without_free_occurrences(t, b):
    live = free_vars(t) & set(b)
    if not live:
        assert substitute(t, b) == t


@settings(deadline=None)
@given(t=_terms(), b=_bindings)
def test_renaming_only_introduces_absent_names(t, b):
    def all_names(term):
        match term:
            case Var(n) | Fun(n):
                return {n}
            case Lam(p, body):
                return {p} | all_names(body)
            case Con(_, args):
                return set().union(set(), *(all_names(a) for a in args))
            case App(fn, a):
                return all_names(fn) | all_names(a)
            case Let(n, bd, body):
                return {n} | all_names(bd) | all_names(body)
            case Case(s, alts):
                out = all_names(s)
                for alt in alts:
                    if isinstance(alt.pattern, PCon):
                        out |= set(alt.pattern.vars)
                    out |= all_names(alt.body)
                return out
            case Where(body, defs):
                return all_names(body).union(*(all_names(d) for _, d in defs), set())
        raise AssertionError

    before = all_names(t) | set().union(set(), *(all_names(e) for e in b.values()))
    introduced = all_names(substitute(t, b)) - before
    assert all(name not in before for name in introduced)
