"""Belief queries on one binding store against the dict-copying enumeration.

`pi.entails_property` and `pi.entails_clause` bind each answer on one
store and undo it through a trail. `copying_reference` keeps the
enumeration they replaced, which copies a substitution for every
candidate. On random belief states, queries, bindings and aux programs
the two must give the same answers in the same order, with the same
dict key order, and the same errors. The last tests pin what the
iterative answer signature makes possible: 3000-deep aux answers.
"""

from hypothesis import example, given, settings, strategies as st

import copying_reference
from primelog import pi
from primelog.auxdb import AuxDB
from primelog.errors import EngineError
from primelog.model import CallGoal, Program, ProgramClause, PropClause, StateProperty
from primelog.terms import Literal, Num, Term, Var, format_term, normalize_clause

A, B = Var("A"), Var("B")
AUX_PROGRAM = Program(
    [
        # s(1) twice, so s/1 and t/2 give some answers twice
        ProgramClause(Term("s", (Num(1),)), ()),
        ProgramClause(Term("s", (Num(2),)), ()),
        ProgramClause(Term("s", (Num(1),)), ()),
        ProgramClause(Term("t", (Num(1), Num(2))), ()),
        ProgramClause(Term("t", (A, B)), (CallGoal(Term("s", (A,))), CallGoal(Term("s", (B,))))),
        # non-ground answers: a fresh variable, and two variables made one
        ProgramClause(Term("any", (A,)), ()),
        ProgramClause(Term("same", (A, A)), ()),
    ]
)
FLUENT_PREDS = (("p", 1), ("q", 2))
AUX_PREDS = (("s", 1), ("t", 2), ("any", 1), ("same", 2))
CONSTS = (Num(1), Num(2), Term("c", (Num(1), Num(2))))
QUERY_ARGS = CONSTS + (Var("X"), Var("Y"), Var("Z"), Term("c", (Var("X"), Num(2))))
# Idempotent bindings as callers pass them; `do` passes the {Y: Y~d1}
# shape, whose values hold variables that the query binds later.
BINDINGS = (
    None,
    {},
    {"X": Num(1)},
    {"Y": Var("Y~d1")},
    {"Y": Var("Y~d1"), "Z": Var("Y~d1")},
    {"Z": Term("c", (Var("Y~d1"), Num(2)))},
)


def _atoms(preds, args):
    return st.sampled_from(preds).flatmap(
        lambda pred: st.tuples(*[st.sampled_from(args)] * pred[1]).map(
            lambda xs: Term(pred[0], xs)
        )
    )


_ground_literals = st.tuples(_atoms(FLUENT_PREDS, CONSTS), st.booleans()).map(
    lambda ab: Literal(*ab)
)


@st.composite
def _states(draw):
    """A random belief state; contradictory clause sets close to the
    inconsistent state, whose queries must fail alike."""
    raw = draw(st.lists(st.lists(_ground_literals, min_size=1, max_size=3), max_size=8))
    clauses = [c for c in (normalize_clause(lits) for lits in raw) if c is not None]
    return pi.prime_closure(clauses)


_query_literals = st.tuples(_atoms(FLUENT_PREDS, QUERY_ARGS), st.booleans()).map(
    lambda ab: Literal(*ab)
)
_query_clauses = (
    st.tuples(
        st.lists(_query_literals, max_size=3),
        st.lists(_atoms(AUX_PREDS, QUERY_ARGS), max_size=2),
    )
    .filter(lambda fa: fa[0] or fa[1])
    .map(lambda fa: PropClause(*fa))
)
_properties = st.lists(_query_clauses, max_size=3).map(StateProperty)


def _answers(enumerate_, state, query, bindings):
    """Every answer as its list of items (so key order counts), or the
    answers before an error and the error's text. Each run gets an aux
    database of its own, so both sides rename aux variables alike."""
    out = []
    try:
        for answer in enumerate_(state, query, AuxDB(AUX_PROGRAM), bindings):
            out.append(list(answer.items()))
    except EngineError as e:
        out.append(("error", str(e)))
    return out


def _p(*args):
    return Literal(Term("p", args))


def _q(*args):
    return Literal(Term("q", args))


@settings(max_examples=400, deadline=None)
@given(_states(), _properties, st.sampled_from(BINDINGS))
# Y is bound before Z, by a unit and in a cover: the answer's keys come
# in that order
@example(
    pi.prime_closure([normalize_clause([_q(Num(2), Num(1))])]),
    StateProperty([PropClause([_q(Var("Y"), Var("Z"))])]),
    None,
)
@example(
    pi.prime_closure([normalize_clause([_p(Num(1)), _q(Num(2), Num(1))])]),
    StateProperty([PropClause([_p(Var("X")), _q(Var("Y"), Var("Z"))])]),
    None,
)
def test_entailment_answers_equal_the_copying_enumeration(state, prop, bindings):
    before = None if bindings is None else dict(bindings)
    assert _answers(pi.entails_property, state, prop, bindings) == _answers(
        copying_reference.entails_property, state, prop, bindings
    )
    for pclause in prop.clauses:
        assert _answers(pi.entails_clause, state, pclause, bindings) == _answers(
            copying_reference.entails_clause, state, pclause, bindings
        )
    assert bindings == before


def test_a_shared_variable_bound_to_a_variable_is_a_non_ground_aux_answer():
    state = pi.prime_closure([normalize_clause([Literal(Term("p", (Num(1),)))])])
    query = PropClause(
        (Literal(Term("q", (Var("X"), Num(1)))),), (Term("same", (Var("X"), Var("Y"))),)
    )
    message = "non-ground aux answer for same(X,Y) on variable X shared with fluent literals"
    assert _answers(pi.entails_clause, state, query, None) == [("error", message)]


def _nest_program(copies):
    """nest(0,3000,T) derives T = f(...f(x)...), 3000 deep; deep(T) asks
    for it through `copies` identical clauses."""
    I, J, N, T = Var("I"), Var("J"), Var("N"), Var("T")
    clauses = [ProgramClause(Term("succ", (Num(i), Num(i + 1))), ()) for i in range(3100)]
    clauses += [
        ProgramClause(Term("nest", (N, N, Term("x"))), ()),
        ProgramClause(
            Term("nest", (I, N, Term("f", (T,)))),
            (CallGoal(Term("succ", (I, J))), CallGoal(Term("nest", (J, N, T)))),
        ),
    ]
    clauses += [
        ProgramClause(Term("deep", (T,)), (CallGoal(Term("nest", (Num(0), Num(3000), T))),))
    ] * copies
    return Program(clauses)


def test_a_3000_deep_aux_answer_given_twice_is_answered_once():
    query = StateProperty([PropClause((), (Term("deep", (Var("T"),)),))])
    answers = list(pi.entails_property(pi.TOP, query, AuxDB(_nest_program(2))))
    assert len(answers) == 1
    assert format_term(answers[0]["T"]) == "f(" * 3000 + "x" + ")" * 3000
