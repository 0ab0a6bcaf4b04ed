import pytest

from helpers import EMPTY_AUX, Num
from oracle import (
    BeliefSet,
    OracleBoundExceeded,
    clause_true,
    filter_by_sensing,
    initial_beliefs,
    models,
    progress_beliefs,
    property_holds,
    reference_prime_implicates,
)
from primelog.model import (
    ActionCase,
    ActionSpec,
    EMPTY_PROPERTY,
    PropClause,
    SensorAxiom,
    SensorCase,
    StateProperty,
)
from primelog.pi import prime_closure
from primelog.terms import (
    FALSE,
    TRUE,
    Literal,
    Term,
    Var,
    normalize_clause,
)

P, Q, R = Term("p"), Term("q"), Term("r")


def lit(atom, pos=True):
    return Literal(atom, pos)


def cl(*lits):
    return normalize_clause(lits)


def test_clause_true():
    w = frozenset([P])
    assert clause_true(cl(lit(P)), w)
    assert clause_true(cl(lit(Q, False)), w)
    assert not clause_true(cl(lit(Q)), w)


def test_models_enumerates_worlds():
    beliefs = models([cl(lit(P), lit(Q))], [P, Q])
    assert len(beliefs.worlds) == 3  # every assignment except both-false


def test_models_unit_propagation_keeps_bound_small():
    # 30 atoms total would blow the enumeration bound, but 29 are units.
    atoms = [Term(f"a{i}") for i in range(30)]
    clauses = [cl(lit(a)) for a in atoms[:-1]]
    beliefs = models(clauses, atoms)
    assert len(beliefs.worlds) == 2


def test_models_bound_is_enforced():
    atoms = [Term(f"a{i}") for i in range(21)]
    with pytest.raises(OracleBoundExceeded):
        models([], atoms)


def test_reference_prime_implicates_minimal():
    out = reference_prime_implicates(
        [cl(lit(P), lit(Q)), cl(lit(P, False), lit(Q))], [P, Q]
    )
    assert sorted(str(c) for c in out) == ["q"]


def test_reference_empty_on_tautology_only():
    out = reference_prime_implicates([], [P])
    assert list(out) == []


def test_belief_extend_splits_worlds():
    beliefs = BeliefSet([P], {frozenset(), frozenset([P])})
    bigger = beliefs.extend([Q])
    assert len(bigger.worlds) == 4
    assert bigger.extend([Q]) is bigger  # already known


def test_satisfies_all():
    beliefs = models([cl(lit(P))], [P, Q])
    assert beliefs.satisfies_all([cl(lit(P))])
    assert not beliefs.satisfies_all([cl(lit(Q))])


def test_property_holds_with_variables():
    at = lambda n: Term("at", (Num(n),))
    beliefs = initial_beliefs(prime_closure([cl(lit(at(1)))]))
    prop = StateProperty([PropClause((Literal(Term("at", (Var("X"),))),), ())])
    (world,) = beliefs.worlds
    assert property_holds(prop, world, beliefs.by_pred(), EMPTY_AUX)


def _move_spec():
    at = lambda t: Term("at", (t,))
    return ActionSpec(
        Term("move"),
        StateProperty([PropClause((Literal(at(Var("X"))),), ())]),
        (
            ActionCase(
                EMPTY_PROPERTY,
                (Literal(at(Num(2))), Literal(at(Var("X")), False)),
            ),
        ),
    )


def test_progress_applies_effects_per_world():
    at1 = Term("at", (Num(1),))
    at2 = Term("at", (Num(2),))
    beliefs = initial_beliefs(prime_closure([cl(lit(at1))]))
    out, anomalies = progress_beliefs(beliefs, _move_spec(), Term("move"))
    assert anomalies == []
    assert all(at2 in w and at1 not in w for w in out.worlds)


def test_progress_flags_ambiguous_worlds():
    # Two positions at once make the effect instantiation ambiguous.
    at1 = Term("at", (Num(1),))
    at3 = Term("at", (Num(3),))
    beliefs = BeliefSet([at1, at3], {frozenset([at1, at3])})
    out, anomalies = progress_beliefs(beliefs, _move_spec(), Term("move"))
    assert len(anomalies) == 1
    assert not out.worlds


def test_progress_drops_worlds_where_nothing_fires():
    at1 = Term("at", (Num(1),))
    beliefs = BeliefSet([at1], {frozenset(), frozenset([at1])})
    out, anomalies = progress_beliefs(beliefs, _move_spec(), Term("move"))
    assert len(anomalies) == 1  # the empty world fires no case
    assert len(out.worlds) == 1


def _feel_axiom():
    at1 = StateProperty([PropClause((Literal(Term("at", (Num(1),))),), ())])
    wet = Term("wet")
    return SensorAxiom(
        "feel",
        (
            SensorCase(TRUE, at1, (cl(lit(wet)),)),
            SensorCase(FALSE, at1, (cl(lit(wet, False)),)),
        ),
    )


def test_filter_by_sensing_splits_then_prunes():
    at1 = Term("at", (Num(1),))
    beliefs = initial_beliefs(prime_closure([cl(lit(at1))]))
    wet_worlds = filter_by_sensing(beliefs, _feel_axiom(), TRUE)
    assert all(Term("wet") in w for w in wet_worlds.worlds)
    dry_worlds = filter_by_sensing(beliefs, _feel_axiom(), FALSE)
    assert all(Term("wet") not in w for w in dry_worlds.worlds)


def test_filter_by_sensing_can_empty_the_world_set():
    at2 = Term("at", (Num(2),))
    beliefs = initial_beliefs(prime_closure([cl(lit(at2))]))
    out = filter_by_sensing(beliefs, _feel_axiom(), TRUE)
    assert not out.worlds
