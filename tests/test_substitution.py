"""One substitution walk and the built-ins on the machine's binding store.

The built-ins (`=`, `neq`, `memberchk`, `nonmember`) run in place on the
machine's store. The copying version they replaced (substitute the goal,
then unify with the recursive, copying unifier of `copying_reference`)
is kept below as the reference they must agree with on success, on every
resolved variable and on the error text; a failing built-in must leave
the store and the trail as it found them.

The other tests pin what the single walk makes possible: an iterative
`apply_subst` (a 3000-cell answer list through the CLI) and sensor cases
entailed under their own variable names, so two identical runs log
identical sense events. `apply_subst`'s one-pass path for flat terms,
and for terms with flat compounds written in them, is checked against
the general version it bypasses, kept in `copying_reference`.
"""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import EMPTY_AUX, Num
from primelog import cli
from primelog.envs import ReplayEnv, emit_maze_domain
from primelog.errors import EngineError
from primelog.interpreter import solve
from primelog.model import Program, ProgramClause, _mapping_for
from primelog.parser import parse_domain, parse_program, parse_query
from primelog.sld import Machine
from copying_reference import general_apply_subst, unify
from primelog.terms import (
    FALSE,
    MEMBER_STRIDE,
    NIL,
    TRUE,
    Term,
    Var,
    apply_subst,
    format_term,
    list_parts,
    mk_list,
    undo,
    unify_head,
    unify_track,
    variables,
    walk,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# ---------------------------------------------------------------- reference


def _copying_builtin(goal):
    """The solution of a builtin atom as a substitution, or None when it
    fails: the goal is substituted by the caller and every unification
    copies through the recursive reference unifier."""
    name = goal.functor
    if name == "true":
        return {}
    if name == "fail":
        return None
    left, right = goal.args
    if name == "=":
        return unify(left, right)
    if name == "neq":
        return {} if unify(left, right) is None else None
    items, tail = list_parts(right)
    if not (isinstance(tail, Term) and tail.key == NIL.key):
        raise EngineError(f"{format_term(goal)}: second argument is not a proper list")
    if name == "memberchk":
        for item in items:
            sol = unify(left, item)
            if sol is not None:
                return sol
        return None
    if any(unify(left, item) is not None for item in items):
        return None
    return {}


def _reference(goal, store):
    """(outcome, resolved variables) of the copying built-in run against
    a store, installing its solution the way the machine did."""
    try:
        sol = _copying_builtin(apply_subst(goal, store))
    except EngineError as e:
        return ("error", str(e)), None
    if sol is None:
        return ("fail",), None
    after = dict(store)
    for name, value in sol.items():
        after.setdefault(name, value)
    return ("ok",), after


# ---------------------------------------------------------------- random cases

NAMES = ("A", "B", "C", "D")
ATOMS = (Term("a"), Term("b"), NIL)


def _random_tree(rng, leaves, tails, most, budget):
    """A random term: a leaf from `leaves`, f/g of 1 to `most` terms, or a
    list of up to three terms ending in one of `tails`, with about
    `budget` leaves at most."""
    left = [budget]

    def term():
        if left[0] <= 1 or rng.random() < 0.5:
            left[0] -= 1
            return rng.choice(leaves)
        if rng.random() < 0.5:
            return Term(rng.choice("fg"), tuple(term() for _ in range(rng.randint(1, most))))
        return mk_list([term() for _ in range(rng.randint(0, 3))], rng.choice(tails))

    return term()


def _random_goal_term(rng, names):
    """A term over the atoms and the variables `names`."""
    variables = tuple(Var(n) for n in names)
    tails = (NIL, NIL, Term("a")) + variables
    return _random_tree(rng, ATOMS + variables, tails, 2, rng.randint(1, 6))


def _random_goal_store(rng):
    """A partly bound store without cycles: a variable may only be bound
    to a term over the variables after it."""
    return {
        name: _random_goal_term(rng, NAMES[i + 1 :])
        for i, name in enumerate(NAMES)
        if rng.random() < 0.5
    }


def _variant(term, rng):
    """A term of the same shape, its variables permuted and some leaves
    redrawn, so that the two sides of a goal meet compound against
    compound: variable pairs bound one way or the other, a binding
    followed by a clash, occurs-check failures."""
    perm = dict(zip(NAMES, rng.sample(NAMES, len(NAMES))))

    def walk(t):
        if isinstance(t, Var) or not t.args:
            if rng.randint(0, 3) == 0:
                return rng.choice(ATOMS + tuple(Var(n) for n in NAMES))
            return Var(perm[t.name]) if isinstance(t, Var) else t
        return Term(t.functor, tuple(walk(a) for a in t.args))

    return walk(term)


def _random_builtin_goal(rng):
    name = rng.choice(("=", "neq", "memberchk", "nonmember", "true", "fail"))
    if name in ("true", "fail"):
        return Term(name, ())
    if rng.randint(0, 2) == 0:
        left = _random_goal_term(rng, NAMES)
    else:
        left = Term("f", (_random_goal_term(rng, NAMES), _random_goal_term(rng, NAMES)))
    if name in ("=", "neq"):
        right = _random_goal_term(rng, NAMES) if rng.randint(0, 3) == 0 else _variant(left, rng)
        return Term(name, (left, right))
    items = [
        _random_goal_term(rng, NAMES) if rng.random() < 0.5 else _variant(left, rng)
        for _ in range(rng.randint(0, 3))
    ]
    tail = rng.choice((NIL, NIL, NIL, Term("a")) + tuple(Var(n) for n in NAMES))
    return Term(name, (left, mk_list(items, tail)))


def _machine(store):
    machine = Machine(Program(()), EMPTY_AUX, 10_000, map(str, itertools.count(1)))
    machine.bindings = dict(store)
    machine.trail = list(store)
    return machine


def _resolved(goal, store):
    names = variables(goal, set(store))
    return {n: format_term(apply_subst(Var(n), store)) for n in sorted(names)}


def _same_builtin_outcome(goal, store):
    """The outcome kind, after asserting the machine's built-in agrees with
    the copying one on it."""
    expected, after = _reference(goal, store)
    machine = _machine(store)
    try:
        found = machine.resolve((goal, None))
    except EngineError as e:
        assert expected == ("error", str(e))
        return "error"
    if not found:
        assert expected == ("fail",)
        assert machine.bindings == store
        assert machine.trail == list(store)
        return "fail"
    assert expected == ("ok",)
    assert _resolved(goal, machine.bindings) == _resolved(goal, after)
    return "ok"


def test_builtins_on_the_store_match_the_copying_builtins():
    """On 1,000 seeded random built-in goals, each against a seeded random
    store: the same success, resolved variables and error text, and a
    failure leaves the store and the trail as they were."""
    rng = random.Random(0)
    outcomes = Counter(
        _same_builtin_outcome(_random_builtin_goal(rng), _random_goal_store(rng))
        for _ in range(1000)
    )
    assert set(outcomes) == {"ok", "fail", "error"}


@pytest.mark.parametrize(
    "text, store, resolved",
    [
        # Pairs of variables are bound left to right, as `terms.unify` does.
        ("f(A,B) = f(B,A)", {}, {"A": "B", "B": "B"}),
        ("f(A,B,C) = f(B,C,A)", {}, {"A": "C", "B": "C", "C": "C"}),
        # memberchk keeps the bindings of the first element that matches.
        ("memberchk(g(A,B), [h, g(1,C), g(2,2)])", {"C": "a"}, {"A": "1", "B": "a", "C": "a"}),
        ("neq(A, b)", {"A": "a"}, {"A": "a"}),
        ("nonmember(f(A), [g(1), f(b)])", {"A": "a"}, {"A": "a"}),
    ],
)
def test_builtin_bindings(text, store, resolved):
    goal = parse_query(text, parse_domain(emit_maze_domain(2), "d.alpd"), "<q>")[0]
    machine = _machine({n: Term(v) for n, v in store.items()})
    assert machine.resolve((goal, None))
    assert _resolved(goal, machine.bindings) == resolved


@pytest.mark.parametrize(
    "goal, message",
    [
        # The spine is checked before any element is tried: [a|b] fails
        # the check although its first element would match.
        (Term("memberchk", (Term("a"), mk_list([Term("a")], Term("b")))), "memberchk(a,[a|b])"),
        (Term("nonmember", (Var("X"), mk_list([Num(1)], Var("T")))), "nonmember(X,[1|f(1)])"),
    ],
)
def test_improper_list_error_text(goal, message):
    machine = _machine({"T": Term("f", (Num(1),))})
    with pytest.raises(EngineError) as caught:
        machine.resolve((goal, None))
    assert str(caught.value) == f"{message}: second argument is not a proper list"


def test_neq_undoes_its_trial_unification():
    machine = _machine({})
    goal = Term("neq", (Term("f", (Var("X"), Var("Y"))), Term("f", (Num(1), Num(2)))))
    assert not machine.resolve((goal, None))
    assert machine.bindings == {} and machine.trail == []
    goal = Term("neq", (Term("f", (Var("X"), Num(1))), Term("f", (Num(1), Num(2)))))
    assert machine.resolve((goal, None))
    assert machine.bindings == {} and machine.trail == []


# ---------------------------------------------------------------- lists in the store

GROUND = (Term("a"), Term("b"), Num(1), Term("01"), Term("f", (Num(1),)), Term("f", (Term("01"),)))
_elements = st.one_of(
    st.sampled_from(GROUND + (Var("A"), Var("B"))),
    st.sampled_from(("f", "g")).map(lambda f: Term(f, (Var("A"),))),
)


@st.composite
def _list_goals(draw):
    """(list builtin, store): a ground, partly ground or improper list held
    in the store as the agent holds its lists: cells `[Item|Acc]` bound to
    a fresh head variable (settled to ground terms where they can be),
    chains of bindings, and A and B bound to ground
    terms, to open ones or not at all."""
    bindings, trail = {}, []
    for name in ("A", "B"):
        value = draw(st.sampled_from(GROUND + (None, Term("g", (Var("B"),)))))
        if value is not None and not (name == "B" and not value.ground):
            unify_track(Var(name), value, bindings, trail)
    acc = draw(st.sampled_from((NIL, NIL, Term("c"), Var("T"))))
    for i, item in enumerate(draw(st.lists(_elements, max_size=5))):
        cell = Var(f"L{i}")
        head = Term("p", (cell,))
        assert unify_track(Term("p", (Term(".", (item, acc)),)), head, bindings, trail)
        acc = cell
        if draw(st.booleans()):
            unify_track(Var(f"K{i}"), cell, bindings, trail)
            acc = Var(f"K{i}")
    name = draw(st.sampled_from(("memberchk", "nonmember")))
    return Term(name, (draw(_elements), acc)), bindings


@settings(max_examples=400, deadline=None)
@given(_list_goals())
def test_list_builtins_on_lists_built_through_the_store(case):
    goal, store = case
    expected, after = _reference(goal, store)
    machine = _machine(store)
    try:
        found = machine.resolve((goal, None))
    except EngineError as e:
        assert expected == ("error", str(e))
        return
    if not found:
        assert expected == ("fail",)
        assert machine.bindings == store
        return
    assert expected == ("ok",)
    assert _resolved(goal, machine.bindings) == _resolved(goal, after)
    element, items = apply_subst(goal, store).args
    items, _ = list_parts(items)
    if all(isinstance(t, Term) and t.ground for t in [element, *items]):
        # decided by key: nothing was bound
        assert machine.trail == list(store)


@pytest.mark.parametrize(
    "text, message",
    [
        ("memberchk(b, [b|c])", "memberchk(b,[b|c])"),
        ("memberchk(b, [b|T])", "memberchk(b,[b|T])"),
        ("nonmember(01, [a, 1|c])", "nonmember(01,[a,1|c])"),
    ],
)
def test_a_ground_element_still_needs_a_proper_list(text, message):
    goal = parse_query(text, parse_domain(emit_maze_domain(2), "d.alpd"), "<q>")[0]
    with pytest.raises(EngineError) as caught:
        _machine({}).resolve((goal, None))
    assert str(caught.value) == f"{message}: second argument is not a proper list"


def test_memberchk_keeps_the_first_match_among_ground_items():
    goal = Term("memberchk", (Term("f", (Var("X"),)), Var("L")))
    items = [Term("g", (Num(1),)), Term("f", (Num(2),)), Term("f", (Num(3),))]
    machine = _machine({"L": mk_list(items)})
    assert machine.resolve((goal, None))
    assert format_term(apply_subst(Var("X"), machine.bindings)) == "2"
    # a ground element matched by key binds nothing
    machine = _machine({"Y": Term("f", (Num(3),)), "L": mk_list(items)})
    goal = Term("memberchk", (Var("Y"), Var("L")))
    assert machine.resolve((goal, None))
    assert machine.trail == ["Y", "L"]


def test_list_builtins_compare_deep_ground_items_built_apart():
    # keys nested far deeper than one comparison can follow
    element = mk_list([Num(i) for i in range(3000)])
    equal = mk_list([Term(str(i)) for i in range(3000)])
    other = mk_list([Num(i) for i in range(2999)] + [Term("x")])
    for items, found in (([Term("a"), other, equal], True), ([other, Term("a")], False)):
        for name in ("memberchk", "nonmember"):
            machine = _machine({"L": mk_list(items)})
            goal = Term(name, (element, Var("L")))
            assert bool(machine.resolve((goal, None))) is (found == (name == "memberchk"))
            assert machine.trail == ["L"]


# ---------------------------------------------------------------- cached member keys


def _full_scan(goal, bindings, trail):
    """A list builtin as it ran before ground lists cached their member
    keys, on the store in place: the whole spine is read and checked to be
    proper, a ground element over a ground list is compared by key with
    every item, and any other element is unified with each item in turn.
    Kept as the reference the cached path must agree with."""
    name = goal.functor
    left, right = goal.args
    mark = len(trail)
    items, tail = list_parts(right, bindings)
    if tail.__class__ is Var or tail != NIL:
        raise EngineError(f"{format_term(goal, bindings)}: second argument is not a proper list")
    element = walk(left, bindings)
    if element.__class__ is not Var and element.ground and walk(right, bindings).ground:
        key = element.key
        return any(item.key == key for item in items) == (name == "memberchk")
    for item in items:
        if unify_track(left, item, bindings, trail, left_first=True):
            if name == "memberchk":
                return True
            undo(bindings, trail, mark)
            return False
        undo(bindings, trail, mark)
    return name == "nonmember"


ITEMS = GROUND + (Term("f", (Term("01"), Term("b"))),) + tuple(Num(i) for i in range(2, 40))
_query_elements = st.one_of(
    st.sampled_from(ITEMS + (Term("zz"), Num(99))),
    st.sampled_from((Var("A"), Term("f", (Var("A"),)), Term("f", (Var("A"), Var("B"))))),
)


@st.composite
def _list_families(draw):
    """Ground lists that share their tails, and queries on their cells.

    Each list conses up to three strides of items onto `[]`, onto an
    improper ground tail or onto a cell of a list built before, so cells
    are asked before and after their tails, and improper tails lie
    beyond cells whose lists are proper. A query asks `memberchk` or
    `nonmember` of a cell held in the store, with a ground element
    (numerals "01" and "1" among them) or an open one, and A bound to a
    ground term or not at all."""
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        below = (NIL, Term("c"), Term("f", (Num(1),)))
        acc = draw(st.sampled_from(below + tuple(cells)))
        for item in draw(st.lists(st.sampled_from(ITEMS), max_size=3 * MEMBER_STRIDE)):
            acc = Term(".", (item, acc))
            cells.append(acc)
    if not cells:
        cells.append(NIL)
    queries = []
    for _ in range(draw(st.integers(1, 12))):
        cell = draw(st.sampled_from(cells))
        name = draw(st.sampled_from(("memberchk", "nonmember")))
        bound = draw(st.sampled_from((None, Num(3), Term("01"), Term("zz"))))
        queries.append((Term(name, (draw(_query_elements), Var("L"))), cell, bound))
    return queries


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_list_families())
def test_cached_member_keys_decide_as_the_full_scan(queries):
    """A ground `memberchk`/`nonmember` is decided from the member keys the
    list's cells cache, which earlier queries on the same cells, on their
    tails or on lists built over them have left behind. Every answer,
    error, binding and trail entry is the full scan's, and a ground
    decision puts nothing on the trail."""
    for goal, cell, bound in queries:
        store = {"L": cell} if bound is None else {"L": cell, "A": bound}
        bindings, trail = dict(store), list(store)
        try:
            expected = ("ok", _full_scan(goal, bindings, trail))
        except EngineError as e:
            expected = ("error", str(e))
        machine = _machine(store)
        try:
            found = ("ok", machine.resolve((goal, None)))
        except EngineError as e:
            found = ("error", str(e))
        assert found == expected
        if expected[0] == "ok":
            assert machine.bindings == bindings
            assert machine.trail == trail
        if walk(goal.args[0], store).__class__ is not Var and apply_subst(goal, store).ground:
            assert machine.trail == list(store)


def test_a_list_grown_at_its_head_is_asked_in_a_stride_of_cells_or_less():
    """Asking each new head of a list that grows one cell at a time walks
    at most MEMBER_STRIDE cells, down to a cell that keeps its members'
    keys, whatever the list's length."""
    walked = []

    def cells_to_a_set(cell):
        n = 0
        while cell._members is None and cell.functor == ".":
            cell, n = cell.args[1], n + 1
        return n

    cell = NIL
    for i in range(10 * MEMBER_STRIDE):
        cell = Term(".", (Num(i), cell))
        walked.append(cells_to_a_set(cell))
        machine = _machine({"L": cell})
        assert machine.resolve((Term("memberchk", (Num(i // 2), Var("L"))), None))
        assert not machine.resolve((Term("memberchk", (Num(i + 1), Var("L"))), None))
    assert max(walked) == MEMBER_STRIDE


NUMERALS = """\
a :- 01 = 1.
b :- f(01) = f(1).
c :- memberchk(01, [1]).
d :- g(01, X) = g(1, Y).
e :- nonmember(01, [1]).
"""


@pytest.mark.parametrize(
    "query, status",
    [("a", "success"), ("b", "success"), ("c", "success"), ("d", "success"), ("e", "failure")],
)
def test_numerals_are_equal_by_value_in_the_builtins(tmp_path, capsys, query, status):
    program = tmp_path / "numerals.alp"
    program.write_text(NUMERALS, encoding="utf-8")
    code = cli.main(
        [
            "run",
            "--domain", str(SAMPLES / "corridor5.alpd"),
            "--env", "maze:5",
            "--program", str(program),
            "--query", query,
        ]
    )
    assert code == (0 if status == "success" else 1)
    assert capsys.readouterr().out.startswith(f"status: {status}\n")


# ---------------------------------------------------------------- deep terms

MK = "mk(N,N,[]) :- !.\nmk(I,N,[I|L]) :- succ(I,J), mk(J,N,L).\n"


@pytest.mark.parametrize("trace", [(), ("--trace",)])
def test_a_3000_cell_answer_list_through_the_cli(tmp_path, capsys, trace):
    domain = tmp_path / "succ.alpd"
    facts = " ".join(f"succ({i},{i + 1})." for i in range(5000))
    domain.write_text(emit_maze_domain(3) + facts + "\n", encoding="utf-8")
    program = tmp_path / "mk.alp"
    program.write_text(MK, encoding="utf-8")
    code = cli.main(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "mk(0,3000,L)",
            "--env", "maze:3",
            *trace,
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    expected = ",".join(str(i) for i in range(3000))
    assert f"answer: L = [{expected}]\n" in captured.out


def test_two_3000_cell_lists_built_apart_compare_through_the_cli(tmp_path, capsys):
    # rev/3 builds each list through a fresh head variable, so both are
    # settled ground terms whose keys nest 6000 tuples deep
    domain = tmp_path / "succ.alpd"
    facts = " ".join(f"succ({i},{i + 1})." for i in range(5000))
    domain.write_text(emit_maze_domain(3) + facts + "\n", encoding="utf-8")
    program = tmp_path / "two.alp"
    program.write_text(
        MK
        + "rev([],A,A).\nrev([X|Xs],A,R) :- rev(Xs,[X|A],R).\n"
        + "two(N) :- mk(0,N,L), rev(L,[],R1), rev(L,[],R2), R1 = R2,\n"
        + "   memberchk(R1, [R2]), nonmember(R1, [a, L]).\n",
        encoding="utf-8",
    )
    code = cli.main(
        [
            "run",
            "--program", str(program),
            "--domain", str(domain),
            "--query", "two(3000)",
            "--env", "maze:3",
        ]
    )
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code == 0 and captured.out.startswith("status: success\n")


def test_apply_subst_resolves_a_long_chain_of_list_cells():
    store = {f"L{i}": Term(".", (Num(i), Var(f"L{i + 1}"))) for i in range(5000)}
    store["L5000"] = NIL
    items, tail = list_parts(apply_subst(Var("L0"), store))
    assert [int(i.functor) for i in items] == list(range(5000))
    assert tail == NIL


# ---------------------------------------------------------------- flat substitution

SUBST_NAMES = ("A", "B", "C", "D", "E")
_GROUND_TERMS = (
    Term("a"),
    Term("1"),
    Term("01"),
    NIL,
    Term("g", (Term("01"),)),
    mk_list([Term("a"), Term("1")]),
    Term("g", (mk_list([Term("01")]), Term("a"))),
)


def _random_term(rng, names, depth):
    """A flat term (every argument a variable over `names` or a ground
    term) or, with `depth` left, often a nested one: an open compound or
    list with further terms below it."""
    def argument():
        if names and rng.random() < 0.5:
            return Var(rng.choice(names))
        return rng.choice(_GROUND_TERMS)

    if depth and rng.random() < 0.4:
        items = [_random_term(rng, names, depth - 1) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            return Term(rng.choice(("f", "g")), tuple(items))
        return mk_list(items, rng.choice((NIL,) + tuple(Var(n) for n in names)))
    return Term(rng.choice(("p", "adj")), tuple(argument() for _ in range(rng.randint(0, 4))))


def _random_store(rng):
    """A store without cycles: a variable may only be bound to a variable
    or a term over the names after it, so chains of variables, ground
    values and open compounds all occur; or a renaming of every name
    apart."""
    if rng.random() < 0.2:
        return _mapping_for(SUBST_NAMES, "9")
    store = {}
    for i, name in enumerate(SUBST_NAMES):
        later = SUBST_NAMES[i + 1 :]
        choice = rng.random()
        if choice < 0.2 and later:
            store[name] = Var(rng.choice(later))
        elif choice < 0.6:
            store[name] = _random_term(rng, later, 2)
    return store


@pytest.mark.parametrize("seed", range(4))
def test_apply_subst_builds_what_the_general_version_builds(seed):
    """On seeded random flat and nested terms, open and ground, under
    seeded random stores: the same text, numerals as written, and the
    same sharing, so the result is the input itself exactly when the
    general version returns it, and so is each argument that walked to
    itself."""
    rng = random.Random(seed)
    unchanged = 0
    for _ in range(1000):
        term = _random_term(rng, SUBST_NAMES, 3)
        if rng.random() < 0.2:
            term = Var(rng.choice(SUBST_NAMES))
        store = _random_store(rng)
        want = general_apply_subst(term, store)
        got = apply_subst(term, store)
        assert format_term(got) == format_term(want)
        assert (got is term) == (want is term)
        unchanged += want is term
        assert (got.__class__ is Var) == (want.__class__ is Var)
        if got.__class__ is not Var:
            assert got.ground == want.ground
            original = walk(term, store)
            if original.__class__ is not Var:
                for g, w, o in zip(got.args, want.args, original.args):
                    assert (g is o) == (w is o)
    assert 0 < unchanged < 1000


# ---------------------------------------------------------------- heads as parsed

HEAD_NAMES = ("X", "Y", "Z")
HEAD_NUMERALS = (Term("1"), Term("01"), Term("001"), Term("2"))


def _renamed_head_reference(goal, head, store, suffix):
    """The try that `unify_head` replaced: rename the head apart with
    `apply_subst`, then unify the goal with the copy. Returns (unifies,
    store, trail) on a copy of `store`."""
    mapping = _mapping_for(sorted(variables(head)), suffix)
    store, trail = dict(store), []
    return unify_track(goal, apply_subst(head, mapping), store, trail), store, trail


def _head_as_parsed(goal, head, store, suffix):
    """The same try as `Machine._advance_clauses` makes it: the head as
    parsed, renamed through the mapping of the clause's variable names."""
    clause = ProgramClause(head, ())
    mapping = _mapping_for(clause.plan(), suffix)
    store, trail = dict(store), []
    return unify_head(goal, clause.head, mapping, store, trail), store, trail


def _random_head_case(rng):
    """(goal, head): a head `p` of one to three terms over atoms, numerals
    and the variables X, Y, Z, variables repeated across and within
    arguments, nested and open lists among them; and a goal shaped like
    it, so both sides meet compound against compound, variable against
    structure and numeral against numeral."""
    variables = tuple(Var(n) for n in HEAD_NAMES)
    leaves = ATOMS + HEAD_NUMERALS + variables
    tails = (NIL, NIL) + variables
    args = [_random_tree(rng, leaves, tails, 3, rng.randint(1, 8)) for _ in range(rng.randint(1, 3))]
    return Term("p", tuple(_goal_for(a, rng) for a in args)), Term("p", tuple(args))


def _goal_for(term, rng):
    """A goal argument shaped like the head argument `term`: head
    variables become goal variables, atoms, numerals or small terms, some
    subterms are redrawn, and some compounds take another arity."""
    goal_variables = tuple(Var(n) for n in NAMES)
    if rng.randint(0, 5) == 0:
        return _random_goal_term(rng, NAMES)
    if isinstance(term, Var):
        if rng.random() < 0.5:
            return rng.choice(ATOMS + HEAD_NUMERALS + goal_variables)
        return _random_goal_term(rng, NAMES)
    if not term.args:
        return rng.choice((term, term) + HEAD_NUMERALS + (rng.choice(goal_variables),))
    args = tuple(_goal_for(a, rng) for a in term.args)
    if rng.randint(0, 7) == 0:  # the head's functor at another arity
        args = args[:-1] if len(args) > 1 else args + args
    return Term(term.functor, args)


def _read(store, trail):
    return [(n, format_term(Var(n), store)) for n in trail]


def _assert_same_try(goal, head, store):
    want, want_store, want_trail = _renamed_head_reference(goal, head, store, "7")
    got, got_store, got_trail = _head_as_parsed(goal, head, store, "7")
    assert got == want
    if want:
        assert got_trail == want_trail
        assert _read(got_store, got_trail) == _read(want_store, want_trail)
    return want


def test_compiled_heads_bind_as_the_renamed_head_did():
    """On 1,000 seeded random head and goal pairs, each against a seeded
    random store: the same answer, trail and bindings."""
    rng = random.Random(0)
    unified = Counter(
        _assert_same_try(*_random_head_case(rng), _random_goal_store(rng)) for _ in range(1000)
    )
    assert unified[True] and unified[False]


A, B = Var("A"), Var("B")
X, Y = Var("X"), Var("Y")


def f(*args):
    return Term("f", args)


@pytest.mark.parametrize(
    "goal, head, store",
    [
        # a head variable met twice, the second time by a structure over it
        (Term("p", (A, A)), Term("p", (X, f(X))), {}),
        (Term("p", (A, A)), Term("p", (f(X), X)), {}),
        (Term("p", (A, B)), Term("p", (X, f(X))), {"B": A}),
        # a goal variable meets a structure whose variable is bound ground
        (Term("p", (A, Term("1"))), Term("p", (f(X, Y), X)), {}),
        (Term("p", (A, B)), Term("p", (mk_list([X, Y]), X)), {"B": f(Term("a"))}),
        # numerals are equal by value at every depth
        (Term("p", (Term("01"), f(Term("1")))), Term("p", (X, f(X))), {}),
        (Term("p", (A, Term("01"))), Term("p", (f(X), Term("1"))), {}),
        # the goal is partly bound in the store, as a list built through it
        (Term("p", (A,)), Term("p", (mk_list([X], Y),)), {"A": mk_list([B]), "B": Term("a")}),
        (Term("p", (A, B)), Term("p", (X, X)), {"A": mk_list([B]), "B": NIL}),
    ],
)
def test_compiled_head_cases(goal, head, store):
    _assert_same_try(goal, head, store)


def test_a_deep_clause_head_compiles_and_unifies():
    """Building a head structure for a goal variable and matching one
    against a goal both run on explicit stacks, so a 3000-deep head costs
    no Python recursion."""
    domain = parse_domain(emit_maze_domain(3), "maze.alpd")
    items = ",".join(str(i) for i in range(3000))
    deep = "f(" * 3000 + "X" + ")" * 3000
    program = parse_program(f"p([{items}|T], T).\nq({deep}, X).\n", domain, "deep.alp")
    cases = [("p(L, a)", "L", "[0,1,2,"), ("p([0,1|R], b)", "R", "[2,3,"), ("q(Y, z)", "Y", "f(f(")]
    for text, name, start in cases:
        out = solve(parse_query(text, domain), program, domain, _Ack())
        assert out.succeeded, text
        assert format_term(out.answer[name]).startswith(start)
    out = solve(parse_query("q(f(f(W)), z)", domain), program, domain, _Ack())
    assert format_term(out.answer["W"]) == "f(" * 2998 + "z" + ")" * 2998


class _Ack:
    """An environment that acknowledges every action."""

    def execute(self, action):
        pass


def test_do_binds_an_open_actions_variables_as_before():
    """An open action is renamed apart from the specification, matched
    against the head as parsed, and bound to the executed action; with a
    structured head, the open argument takes the whole structure."""
    domain = FEEL_DOMAIN.replace("adj(1,2).", "adj(1,2).\nadj(2,c(2,3)).")
    domain = domain.replace(
        "actions([go/1]).", "actions([go/1, jump/2]).\n"
        "action(jump(c(I,J), I), [at(agent,I), adj(I,c(I,J))], [case([], [mark(J)])])."
    )
    cases = [
        ("do(go(X))", {"X": "2"}, ["go(2)"]),
        ("do(go(Y)), do(jump(P, Q))", {"Y": "2", "P": "c(2,3)", "Q": "2"}, ["go(2)", "jump(c(2,3),2)"]),
        ("do(go(2)), do(jump(c(I, J), K))", {"I": "2", "J": "3", "K": "2"}, ["go(2)", "jump(c(2,3),2)"]),
    ]
    dom = parse_domain(domain, "feel.alpd")
    program = parse_program("", dom, "empty.alp")
    for text, answers, history in cases:
        out = solve(parse_query(text, dom), program, dom, _Ack())
        assert out.succeeded, text
        assert {n: format_term(t) for n, t in out.answer.items()} == answers
        assert [format_term(a) for a in out.state.history] == history


# ---------------------------------------------------------------- sensing

FEEL_DOMAIN = """\
fluents([at/2, mark/1]).
actions([go/1]).
sensors([feel]).
initial_state([at(agent,1)]).
action(go(Y), [at(agent,X), adj(X,Y)], [case([], [at(agent,Y), -at(agent,X)])]).
sensor_axiom(feel(_), [
  case(true, [at(agent,X)], [mark(X)]),
  case(false, [at(agent,X)], [-mark(X)])
]).
adj(1,2).
"""


def test_sense_events_are_the_same_in_every_run():
    domain = parse_domain(FEEL_DOMAIN, "feel.alpd")
    program = parse_program("walk :- ?(feel(R)), do(go(2)), ?(feel(S)).\n", domain, "w.alp")
    query = parse_query("walk", domain)
    script = [("sense", "feel", TRUE), ("act", Term("go", (Num(2),))), ("sense", "feel", FALSE)]

    def events():
        out = solve(query, program, domain, ReplayEnv(script))
        assert out.succeeded
        return out.state.events

    first, second = events(), events()
    assert first == second
    assert [e[3] for e in first if e[0] == "sense"] == [{"X": Num(1)}, {"X": Num(2)}]
