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
identical sense events.
"""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from primelog import cli
from primelog.auxdb import empty_aux
from primelog.envs import ReplayEnv, emit_maze_domain
from primelog.errors import EngineError
from primelog.interpreter import solve
from primelog.model import CallGoal, Program
from primelog.parser import parse_domain, parse_program, parse_query
from primelog.sld import Machine
from copying_reference import unify
from primelog.terms import (
    FALSE,
    NIL,
    TRUE,
    Num,
    Term,
    Var,
    apply_subst,
    format_term,
    list_parts,
    mk_list,
    unify_track,
    variables,
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


# ---------------------------------------------------------------- strategies

NAMES = ("A", "B", "C", "D")
ATOMS = (Term("a"), Term("b"), NIL)


def _terms(names):
    leaves = st.sampled_from(ATOMS + tuple(Var(n) for n in names))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(("f", "g")), st.lists(inner, min_size=1, max_size=2)).map(
                lambda p: Term(p[0], tuple(p[1]))
            ),
            st.tuples(
                st.lists(inner, max_size=3),
                st.sampled_from((NIL, NIL, Term("a")) + tuple(Var(n) for n in names)),
            ).map(lambda p: mk_list(p[0], p[1])),
        ),
        max_leaves=6,
    )


@st.composite
def _stores(draw):
    """A partly bound store without cycles: a variable may only be bound
    to a term over the variables after it."""
    store = {}
    for i, name in enumerate(NAMES):
        if draw(st.booleans()):
            store[name] = draw(_terms(NAMES[i + 1 :]))
    return store


def _variant(term, draw):
    """A term of the same shape, its variables permuted and some leaves
    redrawn, so that the two sides of a goal meet compound against
    compound: variable pairs bound one way or the other, a binding
    followed by a clash, occurs-check failures."""
    perm = dict(zip(NAMES, draw(st.permutations(NAMES))))

    def walk(t):
        if isinstance(t, Var) or not t.args:
            if draw(st.integers(0, 3)) == 0:
                return draw(st.sampled_from(ATOMS + tuple(Var(n) for n in NAMES)))
            return Var(perm[t.name]) if isinstance(t, Var) else t
        return Term(t.functor, tuple(walk(a) for a in t.args))

    return walk(term)


@st.composite
def _goals(draw):
    name = draw(st.sampled_from(("=", "neq", "memberchk", "nonmember", "true", "fail")))
    if name in ("true", "fail"):
        return Term(name, ())
    pair = st.tuples(_terms(NAMES), _terms(NAMES)).map(lambda p: Term("f", p))
    left = draw(st.one_of(_terms(NAMES), pair, pair))
    if name in ("=", "neq"):
        right = draw(_terms(NAMES)) if draw(st.integers(0, 3)) == 0 else _variant(left, draw)
        return Term(name, (left, right))
    items = draw(st.lists(st.one_of(_terms(NAMES), st.just(None)), max_size=3))
    items = [_variant(left, draw) if i is None else i for i in items]
    tail = draw(st.sampled_from((NIL, NIL, NIL, Term("a")) + tuple(Var(n) for n in NAMES)))
    return Term(name, (left, mk_list(items, tail)))


def _machine(store):
    machine = Machine(Program(()), empty_aux(), 10_000, map(str, itertools.count(1)))
    machine.bindings = dict(store)
    machine.trail = list(store)
    return machine


def _resolved(goal, store):
    names = variables(goal, set(store))
    return {n: format_term(apply_subst(Var(n), store)) for n in sorted(names)}


@settings(max_examples=400, deadline=None)
@given(_goals(), _stores())
def test_builtins_on_the_store_match_the_copying_builtins(goal, store):
    expected, after = _reference(goal, store)
    machine = _machine(store)
    try:
        found = machine.resolve((CallGoal(goal), None))
    except EngineError as e:
        assert expected == ("error", str(e))
        return
    if not found:
        assert expected == ("fail",)
        assert machine.bindings == store
        assert machine.trail == list(store)
        return
    assert expected == ("ok",)
    assert _resolved(goal, machine.bindings) == _resolved(goal, after)


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
    goal = parse_query(text, parse_domain(emit_maze_domain(2), "d.alpd"), "<q>")[0].atom
    machine = _machine({n: Term(v) for n, v in store.items()})
    assert machine.resolve((CallGoal(goal), None))
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
        machine.resolve((CallGoal(goal), None))
    assert str(caught.value) == f"{message}: second argument is not a proper list"


def test_neq_undoes_its_trial_unification():
    machine = _machine({})
    goal = Term("neq", (Term("f", (Var("X"), Var("Y"))), Term("f", (Num(1), Num(2)))))
    assert not machine.resolve((CallGoal(goal), None))
    assert machine.bindings == {} and machine.trail == []
    goal = Term("neq", (Term("f", (Var("X"), Num(1))), Term("f", (Num(1), Num(2)))))
    assert machine.resolve((CallGoal(goal), None))
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
    the linear head variable of a fresh clause (settled to ground terms
    where they can be), chains of bindings, and A and B bound to ground
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
        assert unify_track(Term("p", (Term(".", (item, acc)),)), head, bindings, trail, {cell.name})
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
        found = machine.resolve((CallGoal(goal), None))
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
    goal = parse_query(text, parse_domain(emit_maze_domain(2), "d.alpd"), "<q>")[0].atom
    with pytest.raises(EngineError) as caught:
        _machine({}).resolve((CallGoal(goal), None))
    assert str(caught.value) == f"{message}: second argument is not a proper list"


def test_memberchk_keeps_the_first_match_among_ground_items():
    goal = Term("memberchk", (Term("f", (Var("X"),)), Var("L")))
    items = [Term("g", (Num(1),)), Term("f", (Num(2),)), Term("f", (Num(3),))]
    machine = _machine({"L": mk_list(items)})
    assert machine.resolve((CallGoal(goal), None))
    assert format_term(apply_subst(Var("X"), machine.bindings)) == "2"
    # a ground element matched by key binds nothing
    machine = _machine({"Y": Term("f", (Num(3),)), "L": mk_list(items)})
    goal = Term("memberchk", (Var("Y"), Var("L")))
    assert machine.resolve((CallGoal(goal), None))
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
            assert bool(machine.resolve((CallGoal(goal), None))) is (found == (name == "memberchk"))
            assert machine.trail == ["L"]


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
