import random

import pytest
from hypothesis import example, given, settings, strategies as st

import copying_reference
from copying_reference import syntactic_key
from helpers import Num
from primelog.errors import NonGroundError
from primelog.pi import prime_closure
from primelog.terms import (
    _NUM,
    _VAR,
    Clause,
    Literal,
    NIL,
    Term,
    Var,
    apply_subst,
    flat_key,
    format_clause,
    format_literal,
    format_term,
    list_parts,
    mk_list,
    normalize_clause,
    undo,
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
    assert Num(9).key < Num(10).key
    assert Num(10).key > Num(9).key
    assert t("b").key > Num(10).key  # numbers order before symbols


# Decimal digits of four scripts: ASCII, Arabic-Indic, Devanagari, fullwidth.
_SCRIPTS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
            "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
            "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


def _numeral(rng, value=None):
    """A numeral for `value` (random when None), with up to three leading
    zeros and each digit written in a random script."""
    if value is None:
        value = rng.choice((rng.randrange(12), rng.randrange(10 ** rng.randint(1, 60))))
    text = "0" * rng.choice((0, 0, 1, 3)) + str(value)
    return "".join(rng.choice(_SCRIPTS)[int(c)] for c in text)


def test_numeral_keys_order_and_equate_as_their_integers():
    """Seeded differential of numeral keys against `int()` keys: 1,000
    pairs of numerals below Python's conversion limit, half of them the
    same integer written another way, alone and as the first argument of
    a compound, compare by key exactly as `copying_reference.syntactic_key`
    (which values numerals with `int()`) compares them."""
    rng = random.Random(27)
    same = 0
    for _ in range(1000):
        a = _numeral(rng)
        b = _numeral(rng, int(a) if rng.random() < 0.5 else None)
        same += int(a) == int(b)
        for left, right in ((Term(a), Term(b)), (t("f", Term(a), t("x")), t("f", Term(b), t("x")))):
            want_less = syntactic_key(left) < syntactic_key(right)
            want_equal = syntactic_key(left) == syntactic_key(right)
            assert (left.key < right.key, left == right) == (want_less, want_equal), (a, b)
            if want_equal:
                assert hash(left) == hash(right)
    assert same > 400
    assert Term("\u0663") == Term("3") and Term("0\u0663").key < Term("4").key


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
    assert not unify_track(Var("X"), t("f", Var("X")), {}, [])
    assert unify_track(Var("X"), t("f", Var("Y")), {}, [])
    assert not unify_track(Var("X"), Var("Z"), {"Z": t("f", Var("X"))}, [])


def test_occurs_on_a_long_non_ground_list():
    cells = mk_list([Var(f"Y{i}") for i in range(5000)], Var("T"))
    assert not unify_track(Var("T"), cells, {}, [])
    assert not unify_track(Var("Z"), cells, {"Y4999": t("f", Var("Z"))}, [])
    bindings, trail = {}, []
    assert unify_track(Var("Z"), cells, bindings, trail)
    assert trail == ["Z"] and bindings["Z"] is cells


def test_head_singleton_skips_no_needed_occurs_check():
    # X occurs twice in the head, so binding it to f(X) must still fail
    head = t("p", t("f", Var("X")), Var("X"))
    goal = t("p", Var("Y"), Var("Y"))
    assert not unify_track(goal, head, {}, [])
    # V occurs once in the head, but the goal reaches it through Y, which
    # is bound to V before V meets f(U) with U bound to s(Y)
    head = t("q", t("f", Var("U")), Var("U"), Var("V"))
    goal = t("q", Var("Y"), t("s", Var("Y")), Var("Y"))
    assert not unify_track(goal, head, {}, [])
    assert unify(goal, head) is None
    # V is met inside W's binding g(Y), not at its own position, with Y
    # bound to g(V) through W
    head = t("p", Var("W"), Var("W"), t("g", Var("V")))
    goal = t("p", t("g", Var("Y")), Var("Y"), Var("Y"))
    assert not unify_track(goal, head, {}, [])
    assert unify(goal, head) is None


def test_head_singletons_bind_like_the_checked_unifier():
    head = t("p", t("f", Var("A")), mk_list([Var("B")], Var("T")))
    goal = t("p", Var("Y"), mk_list([Num(1), Num(2)]))
    bindings, trail = {}, []
    assert unify_track(goal, head, bindings, trail)
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
    ok = unify_track(goal, head, bindings, [])
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


_store_vars = st.sampled_from(["X", "Y", "T", "_#1", "_#2"]).map(Var)


def _store_terms(depth):
    """Terms with lists whose tails may be a variable or a non-list."""
    if depth == 0:
        return st.one_of(
            _functors.map(Term), st.integers(0, 9).map(Num), _store_vars, st.just(NIL)
        )
    sub = _store_terms(depth - 1)
    return st.one_of(
        _store_terms(0),
        st.tuples(_functors, st.lists(sub, min_size=1, max_size=3)).map(
            lambda fc: Term(fc[0], tuple(fc[1]))
        ),
        st.tuples(st.lists(sub, max_size=3), sub).map(lambda it: mk_list(*it)),
    )


@settings(max_examples=300)
@example(
    Term("f", (Var("X"),)),
    [
        (Var("X"), Var("Y")),
        (Var("Y"), mk_list([Var("_#1")], Var("T"))),
        (Var("T"), mk_list([Num(1)], Term("a"))),
    ],
)
@given(
    _store_terms(3),
    st.lists(st.tuples(_store_vars, st.one_of(_store_vars, _store_terms(2))), max_size=6),
)
def test_format_term_through_a_store_is_format_of_the_substituted_term(term, binds):
    # chained bindings, anonymous variables, improper lists and list
    # tails bound through the store
    bindings, trail = {}, []
    for var, value in binds:
        mark = len(trail)
        if not unify_track(var, value, bindings, trail):
            undo(bindings, trail, mark)
    substituted = apply_subst(term, bindings)
    assert format_term(term, bindings) == format_term(substituted)
    items, tail = list_parts(term, bindings)
    ref_items, ref_tail = list_parts(substituted)
    assert [format_term(i, bindings) for i in items] == [format_term(i) for i in ref_items]
    assert format_term(tail, bindings) == format_term(ref_tail)


_numerals = st.sampled_from(["0", "1", "01", "7", "007", "10"]).map(Term)


def _keyed_terms(depth):
    """Ground and open terms whose numerals may be written with leading
    zeros, so that terms of different text key alike."""
    if depth == 0:
        return st.one_of(_functors.map(Term), _numerals, _varnames.map(Var))
    sub = _keyed_terms(depth - 1)
    return st.one_of(
        _keyed_terms(0),
        st.tuples(_functors, st.lists(sub, min_size=1, max_size=3)).map(
            lambda fc: Term(fc[0], tuple(fc[1]))
        ),
    )


def _warm(term):
    """Build the keys of `term`'s subterms, so that its own key copies
    theirs in."""
    for a in term.args:
        if isinstance(a, Term):
            _warm(a)
            a.key


_literals = st.tuples(st.sampled_from("pq"), _keyed_terms(2), st.booleans(), st.booleans())


def _reference_literal_key(lit):
    return (syntactic_key(lit.fluent), 0 if lit.positive else 1)


@settings(max_examples=300)
@given(st.lists(_literals, max_size=6))
def test_one_key_orders_and_equates_like_the_nested_reference(drawn):
    lits = []
    for name, arg, positive, warm in drawn:
        fluent = Term(name, (arg,))
        if warm:
            _warm(fluent)
        lits.append(Literal(fluent, positive))
    assert [id(l) for l in sorted(lits, key=lambda l: l.key)] == [
        id(l) for l in sorted(lits, key=_reference_literal_key)
    ]
    for a in lits:
        assert a.key == (flat_key([a.fluent], {}), 0 if a.positive else 1)
        for b in lits:
            same = syntactic_key(a.fluent) == syntactic_key(b.fluent)
            assert (a.fluent == b.fluent) == same
            assert (a == b) == (same and a.positive == b.positive)
            if same:
                assert hash(a.fluent) == hash(b.fluent)
            if a == b:
                assert hash(a) == hash(b)
    unique = {}
    for l in lits:
        unique.setdefault(_reference_literal_key(l), l)
    norm = normalize_clause(lits)
    if any((k[0], 1 - k[1]) in unique for k in unique):
        assert norm is None
    else:
        assert [format_literal(l) for l in norm.literals] == [
            format_literal(unique[k]) for k in sorted(unique)
        ]


def test_deep_open_terms_hash_and_compare_without_recursion():
    a, b = _nest(Var("X")), _nest(Var("X"))
    assert a == b and hash(a) == hash(b)
    assert a != _nest(Var("Y"))
    clause = normalize_clause([Literal(Term("p", (a,))), Literal(Term("p", (b,)))])
    assert len(clause) == 1


def test_closure_rejects_open_clauses_before_ordering_them():
    ground = normalize_clause([Literal(t("p", t("a")))])
    open_ = normalize_clause([Literal(t("p", Var("X")))])
    with pytest.raises(NonGroundError):
        prime_closure([ground, open_])


# ---------------------------------------------------------------- lists in the store

_list_items = st.one_of(_terms(1), st.just(Term("01")), st.just(t("f", Term("01"))))


def _entries(key):
    """A flat key cut into its entries: (_VAR, name) for a variable,
    (_NUM, digit count, digits, arity) for a numeral and (_SYM, name,
    arity) for any other compound."""
    i = 0
    while i < len(key):
        n = {_VAR: 2, _NUM: 4}.get(key[i], 3)
        yield key[i : i + n]
        i += n


def _shape(term, bindings):
    """The entries of the flat key of `term` under `bindings` with its
    variables numbered in order of first occurrence: equal exactly for
    variants."""
    numbers = {}
    return tuple(
        (k[0], numbers.setdefault(k[1], len(numbers))) if k[0] == _VAR else k
        for k in _entries(flat_key([term], bindings))
    )


_CELL_KINDS = ("cell", "chained", "open", "open later", "open unbound")


def _settles(term, bindings):
    """Whether `term` dereferences through `bindings` to a ground term at
    every depth: its flat key holds no (_VAR, name) entry."""
    return all(k[0] != _VAR for k in _entries(flat_key([term], bindings)))


@settings(max_examples=400, deadline=None)
@example(NIL, [], [(Term("a"), "cell"), (Num(1), "chained")], [], Term("01"), "other")
@example(
    Var("X"), [("X", NIL)], [(Var("Y"), "cell"), (Num(2), "cell")], [("Y", Num(3))], Num(2), "same"
)
@example(
    NIL,
    [],
    [(Num(1), "open later"), (Num(2), "open"), (t("f", Var("X")), "cell")],
    [("X", Num(3))],
    Num(4),
    "same",
)
@given(
    st.one_of(st.just(NIL), _varnames.map(Var)),
    st.lists(st.tuples(_varnames, _list_items), max_size=2),
    st.lists(st.tuples(_list_items, st.sampled_from(_CELL_KINDS)), max_size=6),
    st.lists(st.tuples(_varnames, _list_items), max_size=2),
    _list_items,
    st.sampled_from(("unbound", "same", "other")),
)
def test_unify_track_on_lists_built_through_the_store(tail, early, cells, late, y, out):
    """The agents' lists, built cell by cell in front of a tail. The
    cautious agent's cells are `[Item|Acc]` bound to a fresh head
    variable, `walk(A,[Y|C0],...)` against `walk(Acc,C,...)`, sometimes
    through a chain of bindings ("cell", "chained"). `select/3` builds
    its cells the other way round: a goal variable is bound to the head's
    `[Y|Ys]`, Y to the item, and Ys to the rest now, later or never
    ("open", "open later", "open unbound"); a fresh head variable then
    meets the front. Goal variables are bound before and after. Every
    step must agree with the copying reference; a head variable meeting
    a cell, and a goal variable meeting it as the caller's output meets
    `smell_at(Y,S,[Y|S])`'s third argument, must each be bound to a
    ground term exactly when the cell dereferences to a ground term at
    every depth; and a clause head repeating its variables,
    `walk(T,C,S,C,S)`, must unify with the list as the reference does."""
    bindings, trail, ref = {}, [], {}
    names = set()

    def step(goal, head):
        names.update(variables([goal, head]))
        mark = len(trail)
        ok = unify_track(goal, head, bindings, trail)
        expected = copying_reference.unify(goal, head, ref)
        assert ok == (expected is not None)
        if ok:
            ref.clear()
            ref.update(expected)
        else:
            undo(bindings, trail, mark)
        everything = Term("all", tuple(Var(n) for n in sorted(names)))
        assert _shape(everything, bindings) == _shape(everything, ref)

    def meet(term, cell):
        """The head variable `cell` meets `term`, and so does a fresh goal
        variable: each settled exactly when `term` is ground at every
        depth."""
        settles = _settles(term, bindings)
        out = Var("O" + cell.name)
        step(t("walk", term), t("walk", cell))
        step(t("smell_at", out), t("smell_at", term))
        for var in (cell, out):
            value = walk(var, bindings)
            assert (isinstance(value, Term) and value.ground) == settles

    for name, value in early:
        step(Var(name), value)
    acc = tail
    deferred = []
    for i, (item, kind) in enumerate(cells):
        if kind in ("cell", "chained"):
            cell = Var(f"C{i}")
            meet(t(".", item, acc), cell)
            acc = cell
            if kind == "chained":
                step(Var(f"K{i}"), cell)
                acc = Var(f"K{i}")
            continue
        front, elem, rest = Var(f"G{i}"), Var(f"E{i}"), Var(f"S{i}")
        step(front, t(".", elem, rest))
        step(elem, item)
        if kind == "open":
            step(rest, acc)
        elif kind == "open later":
            deferred.append((rest, acc))
        meet(front, Var(f"L{i}"))
        acc = front
    for name, value in late:
        step(Var(name), value)
    for rest, value in deferred:
        step(rest, value)
    meet(acc, Var("LAST"))
    listed = t(".", y, acc)
    other = {"unbound": Var("O"), "same": listed, "other": t(".", Num(1), acc)}[out]
    goal = t("walk", Var("A"), listed, acc, other, Var("SO"))
    head = t("walk", Var("T"), Var("C"), Var("S"), Var("C"), Var("S"))
    step(goal, head)


@pytest.mark.parametrize("end", [NIL, Var("T")])
def test_a_3000_cell_open_chain_settles_whole_or_not_at_all(end):
    """`select/3`'s chain of open cells, G0 = [E0|S0], S0 = [E1|S1], ...,
    met by a head variable: bound to the ground list when the chain
    ends in `[]`, to the chain itself when it ends in an unbound variable."""
    n = 3000
    bindings, trail = {}, []
    for i in range(n):
        cell = t(".", Var(f"E{i}"), Var(f"S{i}"))
        assert unify_track(Var(f"G{i}"), cell, bindings, trail)
        assert unify_track(Var(f"E{i}"), Num(i), bindings, trail)
        if i:
            assert unify_track(Var(f"S{i - 1}"), Var(f"G{i}"), bindings, trail)
    assert unify_track(Var(f"S{n - 1}"), end, bindings, trail)
    head = t("walk", Var("L"))
    assert unify_track(t("walk", Var("G0")), head, bindings, trail)
    value = bindings["L"]
    if end is NIL:
        assert value.ground and value == mk_list([Num(i) for i in range(n)])
    else:
        assert value is bindings["G0"]
    assert format_term(value, bindings) == format_term(Var("G0"), bindings)


def test_a_shared_open_subterm_settles_once():
    bindings = {"X": t("g", Var("Y")), "Y": t("a")}
    trail = []
    assert unify_track(t("p", t("f", Var("X"), Var("X"))), t("p", Var("L")), bindings, trail)
    value = bindings["L"]
    assert value.ground and format_term(value) == "f(g(a),g(a))"
    assert value.args[0] is value.args[1]


def test_apply_subst_rebuilds_a_shared_open_subterm_once():
    # X0 = f(X1,X1), ..., X19 = f(X20,X20), X20 = a: a tree of 2^20
    # leaves held in 21 cells
    bindings = {f"X{i}": t("f", Var(f"X{i + 1}"), Var(f"X{i + 1}")) for i in range(20)}
    bindings["X20"] = t("a")
    node = apply_subst(Var("X0"), bindings)
    for _ in range(20):
        assert node.ground and node.args[0] is node.args[1]
        node = node.args[0]
    assert node == t("a")


def test_numerals_unify_by_value_at_every_depth():
    for left, right in [
        (Term("01"), Num(1)),
        (t("f", Term("01")), t("f", Num(1))),
        (t("g", Term("01"), Var("X")), t("g", Num(1), Var("Y"))),
        (mk_list([Term("007"), Var("X")]), mk_list([Num(7), Term("01")])),
    ]:
        assert unify(left, right) is not None
        assert copying_reference.unify(left, right) is not None
    assert unify(Term("01"), Num(2)) is None
    assert copying_reference.unify(t("g", Term("01"), Var("X")), t("g", Num(2), Var("Y"))) is None


def test_long_ground_lists_built_apart_unify_and_compare():
    first = mk_list([Num(i) for i in range(3000)])
    second = mk_list([Term(str(i)) for i in range(3000)])
    third = mk_list([Num(i) for i in range(2999)] + [Term("x")])
    assert first == second and hash(first) == hash(second) and first != third
    assert first.key < third.key and third.key > second.key
    assert unify_track(first, second, {}, [])
    assert not unify_track(first, third, {}, [])
    bindings, trail = {}, []
    assert unify_track(t("p", first, Var("X")), t("p", second, third), bindings, trail)
    assert trail == ["X"]
