"""Belief queries on one binding store against the dict-copying enumeration.

`pi.entails_property` and `pi.entails_clause` bind each answer on one
store and undo it through a trail. `copying_reference` keeps the
enumeration they replaced, which copies a substitution for every
candidate. On random belief states, queries, bindings and aux programs
the two must give the same answers in the same order, with the same
dict key order, and the same errors. The last tests pin what the
iterative answer signature makes possible: 3000-deep aux answers.
"""

import random

import copying_reference
from helpers import Num
from primelog import pi
from primelog.auxdb import AuxDB
from primelog.errors import EngineError
from primelog.model import Program, ProgramClause, PropClause, StateProperty
from primelog.terms import Literal, Term, Var, format_term, normalize_clause

A, B = Var("A"), Var("B")
AUX_PROGRAM = Program(
    [
        # s(1) twice, so s/1 and t/2 give some answers twice
        ProgramClause(Term("s", (Num(1),)), ()),
        ProgramClause(Term("s", (Num(2),)), ()),
        ProgramClause(Term("s", (Num(1),)), ()),
        ProgramClause(Term("t", (Num(1), Num(2))), ()),
        ProgramClause(Term("t", (A, B)), (Term("s", (A,)), Term("s", (B,)))),
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


def _atom(rng, preds, args):
    functor, arity = rng.choice(preds)
    return Term(functor, tuple(rng.choice(args) for _ in range(arity)))


def _literal(rng, args):
    return Literal(_atom(rng, FLUENT_PREDS, args), rng.random() < 0.5)


def _random_state(rng):
    """A random belief state of up to 8 clauses of 1 to 3 ground literals;
    contradictory clause sets close to the inconsistent state, whose
    queries must fail alike."""
    raw = [
        [_literal(rng, CONSTS) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 8))
    ]
    clauses = [c for c in (normalize_clause(lits) for lits in raw) if c is not None]
    return pi.prime_closure(clauses)


def _random_query_clause(rng):
    """Up to 3 fluent literals and up to 2 aux atoms, not both none."""
    while True:
        fluents = [_literal(rng, QUERY_ARGS) for _ in range(rng.randint(0, 3))]
        aux = [_atom(rng, AUX_PREDS, QUERY_ARGS) for _ in range(rng.randint(0, 2))]
        if fluents or aux:
            return PropClause(fluents, aux)


def _random_property(rng):
    return StateProperty([_random_query_clause(rng) for _ in range(rng.randint(0, 3))])


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


# Y is bound before Z, by a unit and in a cover: the answer's keys come
# in that order
EXAMPLES = (
    (
        pi.prime_closure([normalize_clause([_q(Num(2), Num(1))])]),
        StateProperty([PropClause([_q(Var("Y"), Var("Z"))])]),
        None,
    ),
    (
        pi.prime_closure([normalize_clause([_p(Num(1)), _q(Num(2), Num(1))])]),
        StateProperty([PropClause([_p(Var("X")), _q(Var("Y"), Var("Z"))])]),
        None,
    ),
)


def test_entailment_answers_equal_the_copying_enumeration():
    """The two examples above, then 1,000 seeded random states, properties
    and bindings."""
    rng = random.Random(0)
    cases = list(EXAMPLES) + [
        (_random_state(rng), _random_property(rng), rng.choice(BINDINGS)) for _ in range(1000)
    ]
    for state, prop, bindings in cases:
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
            (Term("succ", (I, J)), Term("nest", (J, N, T))),
        ),
    ]
    clauses += [
        ProgramClause(Term("deep", (T,)), (Term("nest", (Num(0), Num(3000), T)),))
    ] * copies
    return Program(clauses)


def test_a_3000_deep_aux_answer_given_twice_is_answered_once():
    query = StateProperty([PropClause((), (Term("deep", (Var("T"),)),))])
    answers = list(pi.entails_property(pi.TOP, query, AuxDB(_nest_program(2))))
    assert len(answers) == 1
    assert format_term(answers[0]["T"]) == "f(" * 3000 + "x" + ")" * 3000
