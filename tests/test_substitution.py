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
    variables,
)

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
