"""Prime implicate engine tests. Expected clause sets for the derived
cases were computed with the truth-table reference in tests/oracle.py and
are frozen here; the hypothesis block keeps engine and reference equal on
random inputs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import EMPTY_AUX, Num
from oracle import reference_prime_implicates
from primelog.auxdb import AuxDB
from primelog.errors import EngineError, NondeterministicActionError, SensingError
from primelog.interpreter import Interpreter
from primelog.model import (
    ActionCase,
    ActionSpec,
    DomainFile,
    EMPTY_PROPERTY,
    Program,
    ProgramClause,
    PropClause,
    SensorAxiom,
    SensorCase,
    StateProperty,
)
from primelog.pi import (
    INCONSISTENT,
    TOP,
    PIList,
    entails_clause,
    entails_property,
    integrate_sensing,
    prime_closure,
    update,
)
from primelog.terms import (
    FALSE,
    TRUE,
    Clause,
    Literal,
    Term,
    Var,
    format_term,
    normalize_clause,
)


def lit(name, *args, pos=True):
    return Literal(Term(name, args), pos)


def cl(*lits):
    return normalize_clause(lits)


def shape(pis):
    return sorted(str(c) for c in pis)


# ---------------------------------------------------------------- closure


def test_resolution_collapses_to_unit():
    out = prime_closure([cl(lit("p"), lit("q")), cl(lit("p", pos=False), lit("q"))])
    assert shape(out) == ["q"]


def test_transitive_resolvent_is_added():
    out = prime_closure([cl(lit("p"), lit("q")), cl(lit("q", pos=False), lit("r"))])
    assert shape(out) == ["[-q,r]", "[p,q]", "[p,r]"]


def test_non_prime_input_clause_is_subsumed_away():
    out = prime_closure(
        [cl(lit("p"), lit("q"), lit("r")), cl(lit("p", pos=False), lit("q"))]
    )
    assert shape(out) == ["[-p,q]", "[q,r]"]


def test_unit_chain_saturates_to_units():
    out = prime_closure(
        [cl(lit("p", pos=False), lit("q")), cl(lit("q", pos=False), lit("r")), cl(lit("p"))]
    )
    assert shape(out) == ["p", "q", "r"]


def test_contradiction_yields_inconsistent():
    out = prime_closure([cl(lit("p")), cl(lit("p", pos=False))])
    assert out.inconsistent
    assert shape(out) == ["[]"]


def test_closure_of_nothing_is_top():
    assert shape(prime_closure([])) == []
    assert not prime_closure([]).inconsistent


def is_prime(state):
    """Primeness as the oracle mirror checks it after every commit:
    closing the state's own clauses gives the state back."""
    return prime_closure(tuple(state)) == state


def test_is_prime():
    good = prime_closure([cl(lit("p"), lit("q")), cl(lit("q", pos=False), lit("r"))])
    assert is_prime(good)
    missing_resolvent = PIList(
        [cl(lit("p"), lit("q")), cl(lit("q", pos=False), lit("r"))]
    )
    assert not is_prime(missing_resolvent)
    assert not is_prime(PIList([cl(lit("p")), cl(lit("p"), lit("q"))]))  # a member subsumes another
    assert not is_prime(PIList([cl(lit("p")), cl(lit("p", pos=False))]))  # the units resolve to []


def test_base_seeding_matches_full_closure():
    base = prime_closure([cl(lit("p"), lit("q"))])
    extended = prime_closure([cl(lit("q", pos=False), lit("r"))], base=base)
    full = prime_closure(
        [cl(lit("p"), lit("q")), cl(lit("q", pos=False), lit("r"))]
    )
    assert shape(extended) == shape(full)


# ---------------------------------------------------------------- update


def test_update_deletes_affected_and_adjoins_units():
    state = prime_closure([cl(lit("p"), lit("q"))])
    out = update(state, [lit("p", pos=False)])
    assert shape(out) == ["-p"]


def test_update_keeps_unrelated_knowledge():
    state = prime_closure([cl(lit("p")), cl(lit("p", pos=False), lit("q"))])
    assert shape(state) == ["p", "q"]
    out = update(state, [lit("q", pos=False)])
    assert shape(out) == ["-q", "p"]


def test_update_result_is_prime():
    state = prime_closure(
        [cl(lit("p"), lit("q")), cl(lit("q", pos=False), lit("r")), cl(lit("s"))]
    )
    out = update(state, [lit("q")])
    assert is_prime(out)


def test_update_rejects_contradictory_effects():
    state = prime_closure([cl(lit("p"))])
    with pytest.raises(EngineError):
        update(state, [lit("q"), lit("q", pos=False)])


def _deep(depth=3000):
    term = Term("a")
    for _ in range(depth):
        term = Term("f", (term,))
    return term


def test_a_3000_deep_fluent_enters_and_leaves_the_belief():
    # the effect that removes it is built apart from the one that added it
    state = update(update(TOP, [lit("q")]), [lit("p", _deep())])
    assert len(state) == 2
    out = update(state, [lit("p", _deep(), pos=False)])
    assert [format_term(c.literals[0].fluent)[:4] for c in out] == ["p(f(", "q"]
    assert not out.clauses[0].literals[0].positive
    assert list(entails_clause(out, PropClause((lit("p", _deep(), pos=False),), ()), EMPTY_AUX))


# ---------------------------------------------------------------- entailment

GOLD = prime_closure([cl(lit("at", Term("gold"), Num(4)), lit("at", Term("gold"), Num(5)))])


def _query(clause_lits):
    return PropClause(tuple(clause_lits), ())


def test_definite_position_is_not_entailed():
    sols = list(entails_clause(GOLD, _query([lit("at", Term("gold"), Var("X"))]), EMPTY_AUX))
    assert sols == []


def test_disjunctive_query_covers_the_implicate():
    q = _query(
        [
            Literal(Term("at", (Term("gold"), Var("X")))),
            Literal(Term("at", (Term("gold"), Var("Y")))),
        ]
    )
    sols = list(entails_clause(GOLD, q, EMPTY_AUX))
    pairs = [
        (format_term(s["X"]), format_term(s["Y"])) for s in sols
    ]
    assert pairs == [("4", "5"), ("5", "4")]


def test_unit_entailment_binds():
    state = prime_closure([cl(lit("at", Term("agent"), Num(1)))])
    sols = list(
        entails_clause(state, _query([lit("at", Term("agent"), Var("X"))]), EMPTY_AUX)
    )
    assert [format_term(s["X"]) for s in sols] == ["1"]


def test_negative_unit_entailment():
    state = prime_closure([cl(lit("wet", Num(1), pos=False))])
    sols = list(
        entails_clause(state, _query([lit("wet", Num(1), pos=False)]), EMPTY_AUX)
    )
    assert len(sols) == 1


def test_aux_atoms_thread_through_property():
    adj = Program(
        [
            ProgramClause(Term("adj", (Num(1), Num(2))), ()),
            ProgramClause(Term("adj", (Num(2), Num(3))), ()),
        ]
    )
    aux = AuxDB(adj)
    state = prime_closure([cl(lit("at", Term("agent"), Num(1)))])
    prop = StateProperty(
        [
            PropClause((Literal(Term("at", (Term("agent"), Var("X")))),), ()),
            PropClause((), (Term("adj", (Var("X"), Var("Y"))),)),
        ]
    )
    sols = list(entails_property(state, prop, aux))
    assert [(format_term(s["X"]), format_term(s["Y"])) for s in sols] == [("1", "2")]


def test_querying_inconsistent_state_is_a_fault():
    with pytest.raises(EngineError, match="inconsistent"):
        list(
            entails_clause(
                INCONSISTENT, _query([lit("at", Term("x"), Num(9))]), EMPTY_AUX
            )
        )


# ---------------------------------------------------------------- actions


def _go_spec():
    # go(Y): precondition at(agent,X); one unconditional case.
    head = Term("go", (Var("Y"),))
    precond = StateProperty(
        [PropClause((Literal(Term("at", (Term("agent"), Var("X")))),), ())]
    )
    case = ActionCase(
        EMPTY_PROPERTY,
        (
            Literal(Term("at", (Term("agent"), Var("Y")))),
            Literal(Term("at", (Term("agent"), Var("X"))), False),
        ),
    )
    return ActionSpec(head, precond, (case,))


class _Accepting:
    def execute(self, action):
        pass


def _executed_effects(state, spec, act):
    """The effects `do(act)` executes from `state` in a domain whose one
    action is specified by `spec`."""
    pred = (spec.head.functor, len(spec.head.args))
    domain = DomainFile({}, dict([pred]), (), {}, state, {pred: spec}, {}, Program(()))
    out = Interpreter(domain, Program(()), _Accepting()).run([Term("do", (act,))])
    (event,) = out.state.events
    return event[2]


def test_applicable_cases_unique():
    state = prime_closure([cl(lit("at", Term("agent"), Num(1)))])
    spec, act = _go_spec(), Term("go", (Num(2),))
    effects = _executed_effects(state, spec, act)
    assert [str(l) for l in effects] == ["at(agent,2)", "-at(agent,1)"]


def test_two_firing_cases_raise():
    head = Term("a")
    spec = ActionSpec(
        head,
        EMPTY_PROPERTY,
        (ActionCase(EMPTY_PROPERTY, (lit("p"),)), ActionCase(EMPTY_PROPERTY, (lit("q"),))),
    )
    with pytest.raises(NondeterministicActionError, match="a has 2 applicable effect cases"):
        _executed_effects(PIList([]), spec, head)


# ---------------------------------------------------------------- sensing


def _axiom():
    at1 = PropClause((Literal(Term("at", (Num(1),))),), ())
    return SensorAxiom(
        "feel",
        (
            SensorCase(TRUE, StateProperty([at1]), (cl(lit("wet", Num(1))),)),
            SensorCase(FALSE, StateProperty([at1]), (cl(lit("wet", Num(1), pos=False)),)),
        ),
    )


def test_sensing_adjoins_meaning():
    state = prime_closure([cl(lit("at", Num(1)))])
    new, sol = integrate_sensing(state, _axiom(), TRUE, EMPTY_AUX)
    assert "wet(1)" in shape(new)
    assert isinstance(sol, dict)


def test_sensing_unknown_result_rejected():
    state = prime_closure([cl(lit("at", Num(1)))])
    with pytest.raises(SensingError):
        integrate_sensing(state, _axiom(), Term("maybe"), EMPTY_AUX)


def test_sensing_without_entailed_index_rejected():
    state = prime_closure([cl(lit("at", Num(2)))])
    with pytest.raises(SensingError):
        integrate_sensing(state, _axiom(), TRUE, EMPTY_AUX)


def test_sensing_contradicting_state_rejected():
    state = prime_closure([cl(lit("at", Num(1))), cl(lit("wet", Num(1), pos=False))])
    with pytest.raises(SensingError):
        integrate_sensing(state, _axiom(), TRUE, EMPTY_AUX)


# ---------------------------------------------------------------- properties

_atoms = [Term(n) for n in "pqrstuvw"]


@st.composite
def _cnfs(draw):
    n_atoms = draw(st.integers(1, 6))
    n_clauses = draw(st.integers(0, 8))
    clauses = []
    for _ in range(n_clauses):
        size = draw(st.integers(1, 4))
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, n_atoms - 1), st.booleans()),
                min_size=size,
                max_size=size,
            )
        )
        c = normalize_clause([Literal(_atoms[i], pos) for i, pos in picks])
        if c is not None:
            clauses.append(c)
    return clauses, _atoms[:n_atoms]


@settings(max_examples=150, deadline=None)
@given(_cnfs())
def test_closure_equals_reference(case):
    clauses, atoms = case
    assert shape(prime_closure(clauses)) == shape(
        reference_prime_implicates(clauses, atoms)
    )


@settings(max_examples=150, deadline=None)
@given(_cnfs())
def test_closure_entails_inputs_and_is_prime(case):
    clauses, atoms = case
    out = prime_closure(clauses)
    assert is_prime(out)
    if not out.inconsistent:
        for c in clauses:
            keys = set(c.key[1])
            assert any(keys.issuperset(pi.key[1]) for pi in out), str(c)


def _long_cnf(rng, atoms):
    """Up to 4 clauses, each of 1 to 8 distinct atoms with random signs."""
    clauses = []
    for _ in range(rng.randint(0, 4)):
        picked = rng.sample(atoms, rng.randint(1, min(8, len(atoms))))
        clauses.append(normalize_clause([Literal(a, rng.random() < 0.5) for a in picked]))
    return clauses


def test_closure_onto_a_base_equals_reference_on_long_clauses():
    """Seeded differential of the saturator's forward and backward
    subsumption: closing `new` onto the closure of `old`, and closing
    both at once, each give the reference prime implicates. Clauses hold
    up to 8 literals over at most 10 atoms. Eight cases take 8 to 10
    atoms, where the truth-table reference alone costs 10-170 ms; the
    others take at most 7."""
    rng = random.Random(22)
    atoms = [Term(f"a{i}") for i in range(10)]
    longest = 0
    for case in range(1000):
        n = 8 + case // 125 % 3 if case % 125 == 0 else rng.randint(1, 7)
        old, new = _long_cnf(rng, atoms[:n]), _long_cnf(rng, atoms[:n])
        expected = reference_prime_implicates(old + new, atoms[:n])
        assert shape(prime_closure(new, base=prime_closure(old))) == shape(expected), (old, new)
        assert shape(prime_closure(old + new)) == shape(expected), (old, new)
        longest = max([longest] + [len(c) for c in expected])
    assert longest >= 6
