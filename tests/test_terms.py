import pytest
from hypothesis import given, settings, strategies as st

import copying_reference
from primelog.errors import NonGroundError
from primelog.sld import _head_singletons
from primelog.terms import (
    Clause,
    Literal,
    NIL,
    Num,
    Term,
    Var,
    apply_subst,
    compare,
    flat_key,
    format_clause,
    format_term,
    list_parts,
    mk_list,
    normalize_clause,
    occurs,
    syntactic_key,
    unify,
    unify_track,
    variables,
    walk,
)


def t(functor, *args):
    return Term(functor, args)


def test_ground_flag():
    assert t("at", t("agent"), Num(1)).ground
    assert not t("at", Var("X")).ground
    assert NIL.ground


def test_numeric_atoms_compare_numerically():
    assert compare(Num(9), Num(10)) < 0
    assert compare(Num(10), Num(9)) > 0
    assert compare(t("b"), Num(10)) > 0  # numbers order before symbols


def test_compare_rejects_variables():
    with pytest.raises(NonGroundError):
        compare(Var("X"), t("a"))


def test_unify_basic():
    s = unify(t("f", Var("X"), t("b")), t("f", t("a"), Var("Y")))
    assert format_term(apply_subst(Var("X"), s)) == "a"
    assert format_term(apply_subst(Var("Y"), s)) == "b"


def test_unify_clash():
    assert unify(t("f", t("a")), t("f", t("b"))) is None
    assert unify(t("f", t("a")), t("g", t("a"))) is None
    assert unify(t("f", t("a")), t("f", t("a"), t("a"))) is None


def test_unify_shared_variable():
    s = unify(t("f", Var("X"), Var("X")), t("f", t("a"), Var("Z")))
    assert format_term(apply_subst(Var("Z"), s)) == "a"


def test_unify_occurs_check():
    assert unify(Var("X"), t("f", Var("X"))) is None
    assert unify(t("g", Var("X"), Var("X")), t("g", Var("Y"), t("f", Var("Y")))) is None


def test_unify_does_not_mutate_base():
    base = {"X": t("a")}
    s = unify(Var("Y"), Var("X"), base)
    assert base == {"X": t("a")}
    assert s["Y"].functor == "a"


def test_unify_result_idempotent():
    s = unify(t("f", Var("X"), Var("Y")), t("f", Var("Y"), t("a")))
    for value in s.values():
        assert apply_subst(value, s) is apply_subst(apply_subst(value, s), s)


def test_walk_chases_chains():
    b = {"X": Var("Y"), "Y": t("a")}
    assert walk(Var("X"), b).functor == "a"


def test_variables_collects_names():
    assert variables(t("f", Var("X"), t("g", Var("Y"))), set()) == {"X", "Y"}
    assert variables([Var("Z"), [t("g", Var("Y"))], t("a")]) == {"Y", "Z"}


def test_variables_of_a_3000_deep_term():
    term = Var("X")
    for i in range(3000):
        term = t("f", term, Var(f"Y{i % 3}"))
    assert variables(term) == {"X", "Y0", "Y1", "Y2"}


def _nest(inner, depth=3000):
    for _ in range(depth):
        inner = t("f", inner)
    return inner


def test_unify_of_two_3000_deep_non_ground_terms():
    s = unify(_nest(t("g", Var("X"), t("b"))), _nest(t("g", t("a"), Var("Y"))))
    assert s == {"X": t("a"), "Y": t("b")}
    # X is bound to one deep term and then meets another
    s = unify(t("p", Var("X"), Var("X")), t("p", _nest(Var("Y")), _nest(Var("Z"))))
    assert s["Y"] == Var("Z")
    assert format_term(s["X"]) == format_term(_nest(Var("Z")))
    assert unify(Var("X"), _nest(Var("X"))) is None


def test_flat_key_of_deep_and_numeric_terms():
    def key(term, bindings=None):
        return flat_key([term], bindings or {})

    assert key(_nest(Var("X"))) == key(_nest(Var("X")))
    assert key(_nest(Var("X"))) != key(_nest(Var("Y")))
    assert key(Var("X"), {"X": _nest(t("a"))}) == key(_nest(t("a")))
    assert key(t("f", Term("01"), Var("X"))) == key(t("f", Num(1), Var("X")))


def test_occurs():
    assert occurs("X", t("f", Var("X")), {})
    assert not occurs("X", t("f", Var("Y")), {})
    assert occurs("X", Var("Z"), {"Z": t("f", Var("X"))})


def test_occurs_on_a_long_non_ground_list():
    cells = mk_list([Var(f"Y{i}") for i in range(5000)], Var("T"))
    assert occurs("T", cells, {})
    assert not occurs("Z", cells, {})
    assert occurs("Z", cells, {"Y4999": t("f", Var("Z"))})
    bindings, trail = {}, []
    assert unify_track(Var("Z"), cells, bindings, trail)
    assert trail == ["Z"]
    assert not unify_track(Var("T"), cells, {}, [])


def test_head_singleton_skips_no_needed_occurs_check():
    # X occurs twice in the head, so binding it to f(X) must still fail
    head = t("p", t("f", Var("X")), Var("X"))
    goal = t("p", Var("Y"), Var("Y"))
    assert not unify_track(goal, head, {}, [], frozenset())
    # V occurs once in the head, but the goal reaches it through Y, which
    # is bound to V before V meets f(U) with U bound to s(Y)
    head = t("q", t("f", Var("U")), Var("U"), Var("V"))
    goal = t("q", Var("Y"), t("s", Var("Y")), Var("Y"))
    assert not unify_track(goal, head, {}, [], frozenset({"V"}))
    assert unify(goal, head) is None
    # V is met inside W's binding g(Y), not at its own position, with Y
    # bound to g(V) through W
    head = t("p", Var("W"), Var("W"), t("g", Var("V")))
    goal = t("p", t("g", Var("Y")), Var("Y"), Var("Y"))
    assert not unify_track(goal, head, {}, [], frozenset({"V"}))
    assert unify(goal, head) is None


def test_head_singletons_bind_like_the_checked_unifier():
    head = t("p", t("f", Var("A")), mk_list([Var("B")], Var("T")))
    goal = t("p", Var("Y"), mk_list([Num(1), Num(2)]))
    bindings, trail = {}, []
    assert unify_track(goal, head, bindings, trail, frozenset({"A", "B", "T"}))
    expected = unify(goal, head)
    for name in ("Y", "B", "T"):
        assert format_term(apply_subst(Var(name), bindings)) == format_term(expected[name])


def test_ground_terms_hash_by_key():
    assert Term("01") == Term("1")
    assert len({Term("01"), Term("1")}) == 1
    assert {t("f", Term("007")): 1}.get(t("f", Num(7))) == 1


def test_mk_list_roundtrip():
    term = mk_list([Num(1), Num(2), Num(3)])
    items, tail = list_parts(term)
    assert [format_term(i) for i in items] == ["1", "2", "3"]
    assert tail is NIL
    assert format_term(term) == "[1,2,3]"


def test_format_partial_list():
    assert format_term(mk_list([Num(1)], Var("T"))) == "[1|T]"


def test_normalize_clause_sorts_and_dedups():
    c = normalize_clause(
        [Literal(t("q")), Literal(t("p")), Literal(t("q"))]
    )
    assert format_clause(c) == "[p,q]"


def test_normalize_clause_tautology_is_none():
    assert normalize_clause([Literal(t("p")), Literal(t("p"), False)]) is None


def test_clause_subsumes():
    small = normalize_clause([Literal(t("p"))])
    big = normalize_clause([Literal(t("p")), Literal(t("q"))])
    assert small.subsumes(big)
    assert not big.subsumes(small)


def test_anonymous_variables_print_underscore():
    assert format_term(Var("_#3")) == "_"
    assert format_term(Var("Xs")) == "Xs"


# ---------------------------------------------------------------- properties

_functors = st.sampled_from(["a", "b", "f", "g"])
_varnames = st.sampled_from(["X", "Y", "Z"])


def _terms(depth):
    if depth == 0:
        return st.one_of(
            _functors.map(Term),
            st.integers(0, 9).map(Num),
            _varnames.map(Var),
        )
    sub = _terms(depth - 1)
    return st.one_of(
        _terms(0),
        st.tuples(_functors, st.lists(sub, min_size=1, max_size=3)).map(
            lambda fc: Term(fc[0], tuple(fc[1]))
        ),
    )


@given(_terms(2), _terms(2))
def test_unify_is_a_unifier(t1, t2):
    s = unify(t1, t2)
    expected = copying_reference.unify(t1, t2)
    assert (s is None) == (expected is None)
    if s is not None:
        # the same bindings in the same order as the recursive unifier
        assert list(s.items()) == list(expected.items())
        a = apply_subst(t1, s)
        b = apply_subst(t2, s)
        assert format_term(a) == format_term(b)


@given(_terms(2), _terms(2))
def test_unify_symmetric_in_success(t1, t2):
    ok = unify(t1, t2) is not None
    assert ok == (unify(t2, t1) is not None)
    assert ok == (copying_reference.unify(t2, t1) is not None)


@given(_terms(2), _terms(2), _terms(2), _terms(2))
def test_flat_key_equality_is_syntactic_key_equality(t1, t2, t3, t4):
    bindings = {}
    if not unify_track(t3, t4, bindings, []):
        bindings = {}
    k1, k2 = flat_key([t1], bindings), flat_key([t2], bindings)
    s1, s2 = apply_subst(t1, bindings), apply_subst(t2, bindings)
    assert (k1 == k2) == (syntactic_key(s1) == syntactic_key(s2))
    assert k1 == flat_key([s1], {})
    # a sequence keys like its terms one after the other
    assert flat_key([t1, t2], bindings) == k1 + k2


_head_vars = st.sampled_from(["U", "V", "W"]).map(Var)


def _heads(depth):
    """Terms over variables of their own, like a renamed clause head."""
    if depth == 0:
        return st.one_of(_functors.map(Term), _head_vars)
    sub = _heads(depth - 1)
    return st.one_of(
        _heads(0),
        st.tuples(_functors, st.lists(sub, min_size=1, max_size=3)).map(
            lambda fc: Term(fc[0], tuple(fc[1]))
        ),
    )


@settings(max_examples=500)
@given(st.lists(st.tuples(_terms(2), _heads(2)), min_size=1, max_size=4))
def test_unify_track_with_head_singletons_agrees_with_unify(pairs):
    goal = Term("p", tuple(g for g, _ in pairs))
    head = Term("p", tuple(h for _, h in pairs))
    bindings = {}
    ok = unify_track(goal, head, bindings, [], frozenset(_head_singletons(head)))
    expected = copying_reference.unify(goal, head)
    assert ok == (expected is not None)
    if ok:
        assert format_term(apply_subst(goal, bindings)) == format_term(apply_subst(head, bindings))


@given(_terms(2))
def test_self_unification_binds_nothing(term):
    s = unify(term, term)
    assert s == {}


@given(st.lists(st.tuples(st.sampled_from("pqr"), st.booleans()), max_size=6))
def test_normalize_clause_idempotent(pairs):
    lits = [Literal(Term(name), pos) for name, pos in pairs]
    once = normalize_clause(lits)
    if once is not None:
        again = normalize_clause(list(once.literals))
        assert format_clause(again) == format_clause(once)
