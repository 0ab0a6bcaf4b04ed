"""The indexed belief store against the plain computations it replaces.

`integrate_sensing` looks sensor cases up by their index literal;
`_full_scan_sensing` below checks every case of the observed result, as
the engine did before the index existed, and the two must agree on the
state, the index substitution and every error. `update` and
`prime_closure(..., base=...)` write the next state into the tables of
the version tree they extend; after random update/sense/closure
sequences, with old states read in a drawn order between the steps, the
store must equal the from-scratch closure of a shadow clause set, the
truth-table oracle, and a freshly indexed copy of itself, and no earlier
state may have changed. States are compared through the lookups the
product makes (`_assert_reads_as`), never through the layout of their
tables: each must answer as the fresh copy does, and the copy as a scan
of its clauses. A state ten children back, a state read before the
newest is extended again, and the parent of a discarded draft must read
as they were. A single-literal query must answer, in order, what
unifying it against every unit clause answers (`_full_scan_entails`).
The last tests pin the work a sample run does, the whole table of
`tests/work_counts.py` among them.
"""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import work_counts
from copying_reference import syntactic_key, unify
from helpers import Num
from oracle import reference_prime_implicates
from primelog import interpreter, pi
from primelog.auxdb import AuxDB
from primelog.envs import WumpusConfig, WumpusEnv, emit_wumpus_domain, generate_wumpus
from primelog.errors import BudgetExceeded, EngineError, SensingError
from primelog.model import (
    EMPTY_PROPERTY,
    Program,
    ProgramClause,
    PropClause,
    SensorAxiom,
    SensorCase,
    StateProperty,
)
from primelog.parser import parse_domain, parse_program, parse_query
from primelog.pi import PIList, integrate_sensing, prime_closure, update
from primelog.strategies import WUMPUS_QUERY, wumpus_agent
from primelog.terms import (
    FALSE,
    TRUE,
    Clause,
    Literal,
    Term,
    Var,
    apply_literal,
    apply_subst,
    format_term,
    normalize_clause,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

CELLS = (1, 2, 3)
AUX = AuxDB(
    Program(
        [
            ProgramClause(Term("nb", (Num(a), Num(b))), ())
            for a, b in ((1, 2), (2, 1), (2, 3), (3, 2))
        ]
    )
)
ATOMS = [Term(f, (Num(c),)) for f in ("at", "w") for c in CELLS]
PREDS = [(f, 1, pos) for f in ("at", "w") for pos in (True, False)]


def lit(name, arg, pos=True):
    return Literal(Term(name, (arg,)), pos)


def unit_clause(*lits):
    return PropClause(lits, ())


# ---------------------------------------------------------------- reference

def _full_scan_match(state, axiom, observed, aux):
    """(ground meaning clauses, index substitution) of the one case for
    `observed` whose index the state entails, found by checking every
    case of that result."""
    if observed not in axiom.results:
        raise SensingError(
            f"environment answered {axiom.functor} with {format_term(observed)}, "
            "which no sensor case declares"
        )
    matches = []
    for case in axiom.cases:
        if case.result != observed:
            continue
        sol = pi.first_entailment(state, case.index, aux)
        if sol is not None:
            matches.append((case, sol))
    if not matches:
        raise SensingError(f"no sensor case for {axiom.functor}={format_term(observed)} applies")
    if len(matches) > 1:
        raise SensingError(
            f"ambiguous sensing: {len(matches)} cases for "
            f"{axiom.functor}={format_term(observed)} apply"
        )
    case, sol = matches[0]
    additions = []
    for clause in case.meaning:
        norm = normalize_clause([apply_literal(l, sol) for l in clause.literals])
        if norm is not None and len(norm) > 0:
            additions.append(norm)
    return additions, sol


def _full_scan_sensing(state, axiom, observed, aux):
    """Sensing by checking every case of the observed result."""
    additions, sol = _full_scan_match(state, axiom, observed, aux)
    new_state = prime_closure(additions, base=state)
    if new_state.inconsistent:
        raise SensingError(
            f"sensing result {axiom.functor}={format_term(observed)} contradicts the belief state"
        )
    return new_state, sol


def _full_scan_entails(state, pclause, bindings):
    """The answers to a single-literal query clause, found by unifying it
    with the recursive reference unifier against every unit clause of the
    state in key order, each distinct substitution of the clause's
    variables once."""
    lit = apply_literal(pclause.fluents[0], bindings)
    answers, seen = [], set()
    for c in state:
        if len(c) != 1 or c.literals[0].positive != lit.positive:
            continue
        u = unify(lit.fluent, c.literals[0].fluent, bindings)
        if u is None:
            continue
        names = sorted(pclause.variables())
        sig = tuple((n, syntactic_key(apply_subst(u[n], u))) for n in names if n in u)
        if sig not in seen:
            seen.add(sig)
            answers.append(u)
    return answers


def _canonical_solution(sol):
    """An index substitution with the renaming suffixes taken out."""
    return sorted(
        (name.split("~")[0], re.sub(r"~\w+", "", format_term(apply_subst(value, sol))))
        for name, value in sol.items()
    )


def _outcome(fn, *args):
    try:
        state, sol = fn(*args)
    except EngineError as e:
        return ("error", type(e).__name__, str(e))
    return ("ok", state, _canonical_solution(sol))


# ---------------------------------------------------------------- strategies

X, Y = Var("X"), Var("Y")


@st.composite
def _ground_literals(draw):
    return Literal(
        Term(draw(st.sampled_from(("at", "w"))), (Num(draw(st.sampled_from(CELLS))),)),
        draw(st.booleans()),
    )


@st.composite
def _states(draw):
    clauses = []
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.sampled_from((1, 1, 2, 3)))
        c = normalize_clause(draw(st.lists(_ground_literals(), min_size=size, max_size=size)))
        if c is not None:
            clauses.append(c)
    return prime_closure(clauses)


@st.composite
def _sensor_cases(draw):
    """One case with a ground, a schematic, an aux-bearing or an empty index."""
    result = draw(st.sampled_from((TRUE, FALSE)))
    kind = draw(st.sampled_from(("ground", "ground2", "schematic", "aux", "empty")))
    if kind in ("ground", "ground2"):
        first = draw(_ground_literals())
        clauses = [unit_clause(first)]
        if kind == "ground2":
            # a non-ground clause ahead of the index literal
            clauses.insert(0, unit_clause(Literal(Term("w", (X,)), draw(st.booleans()))))
        index = StateProperty(clauses)
        var = X if kind == "ground2" else None
    elif kind == "schematic":
        index = StateProperty([unit_clause(Literal(Term("at", (X,)), draw(st.booleans())))])
        var = X
    elif kind == "aux":
        index = StateProperty(
            [
                unit_clause(Literal(Term("at", (X,)))),
                PropClause((), (Term("nb", (X, Y)),)),
            ]
        )
        var = draw(st.sampled_from((X, Y)))
    else:
        index = EMPTY_PROPERTY
        var = None
    meaning = []
    for _ in range(draw(st.integers(0, 2))):
        lits = []
        for _ in range(draw(st.sampled_from((1, 1, 2)))):
            arg = var if var is not None and draw(st.booleans()) else Num(draw(st.sampled_from(CELLS)))
            lits.append(Literal(Term("w", (arg,)), draw(st.booleans())))
        c = normalize_clause(lits)
        if c is not None:
            meaning.append(c)
    return SensorCase(result, index, meaning)


_axioms = st.lists(_sensor_cases(), min_size=1, max_size=8).map(
    lambda cases: SensorAxiom("feel", cases)
)


# ---------------------------------------------------------------- sensing


@settings(max_examples=300, deadline=None)
@given(_states(), _axioms, st.sampled_from((TRUE, FALSE)))
def test_indexed_sensing_equals_full_scan(state, axiom, observed):
    if state.inconsistent:
        return
    assert _outcome(integrate_sensing, state, axiom, observed, AUX) == _outcome(
        _full_scan_sensing, state, axiom, observed, AUX
    )


def _feel(*cases):
    return SensorAxiom("feel", cases)


AT1 = StateProperty([unit_clause(lit("at", Num(1)))])
AT2 = StateProperty([unit_clause(lit("at", Num(2)))])


@pytest.mark.parametrize(
    "axiom, expected",
    [
        # indexed, one hit
        (_feel(SensorCase(TRUE, AT2, ()), SensorCase(TRUE, AT1, (Clause((lit("w", Num(1)),)),))), "ok"),
        # two cases filed under the same key
        (_feel(SensorCase(TRUE, AT1, ()), SensorCase(TRUE, AT1, ())), "ambiguous sensing: 2 cases"),
        # an indexed and a scanned case both apply
        (
            _feel(
                SensorCase(TRUE, AT1, ()),
                SensorCase(TRUE, StateProperty([unit_clause(Literal(Term("at", (X,))))]), ()),
            ),
            "ambiguous sensing: 2 cases",
        ),
        # no case applies
        (_feel(SensorCase(TRUE, AT2, ())), "no sensor case for feel=true applies"),
        # the meaning contradicts the state
        (_feel(SensorCase(TRUE, AT1, (Clause((lit("w", Num(1), False),)),))), "contradicts"),
    ],
)
def test_indexed_sensing_outcomes(axiom, expected):
    state = prime_closure([Clause((lit("at", Num(1)),)), Clause((lit("w", Num(1)),))])
    got = _outcome(integrate_sensing, state, axiom, TRUE, AUX)
    assert got == _outcome(_full_scan_sensing, state, axiom, TRUE, AUX)
    if expected == "ok":
        assert got[0] == "ok"
    else:
        assert got[0] == "error" and expected in got[2]


def test_sensor_index_files_ground_cases_and_scans_the_rest():
    schematic = StateProperty([unit_clause(Literal(Term("at", (X,))))])
    with_aux = StateProperty([unit_clause(lit("at", Num(1))), PropClause((), (Term("nb", (X, Y)),))])
    axiom = _feel(
        SensorCase(TRUE, AT1, ()),
        SensorCase(TRUE, schematic, ()),
        SensorCase(TRUE, with_aux, ()),
        SensorCase(TRUE, AT2, ()),
        SensorCase(FALSE, AT1, ()),
    )
    state = prime_closure([Clause((lit("at", Num(1)),))])
    assert axiom.candidates(TRUE, state) == [0, 1, 2]
    assert axiom.candidates(FALSE, state) == [4]
    assert axiom.candidates(Term("maybe"), state) == []


# ---------------------------------------------------------------- keyed units

# Shared and distinct first arguments: numeric, symbolic and compound.
FIRSTS = (
    Num(1), Num(2), Num(10), Term("a"), Term("b"), Term("g", (Num(1),)), Term("g", (Term("a"),))
)
OTHERS = (Num(1), Term("a"), Term("g", (Num(2),)))
KEYED_PREDS = (("p", 0), ("q", 1), ("r", 2), ("s", 3))
KEYED_ATOMS = [Term("p")] + [
    Term(name, (first,) + rest)
    for name, arity in KEYED_PREDS[1:]
    for first in FIRSTS
    for rest in itertools.product(OTHERS, repeat=arity - 1)
]


@st.composite
def _keyed_states(draw):
    """Ground unit clauses, closed in two steps and then updated, so unit
    buckets are both built from scratch and grown from a parent's. Atoms
    come from a seeded random sample: hypothesis's own draws from small
    pools repeat one pattern, and the first and last arguments of a
    unit would then sort alike."""
    rnd = draw(st.randoms())

    def units(n):
        return [Literal(a, rnd.random() < 0.5) for a in rnd.sample(KEYED_ATOMS, n)]

    lits = units(draw(st.integers(0, 30)))
    cut = draw(st.integers(0, len(lits)))
    state = prime_closure([Clause((l,)) for l in lits[:cut]])
    state = prime_closure([Clause((l,)) for l in lits[cut:]], base=state)
    return update(state, units(draw(st.integers(0, 4))))


@st.composite
def _keyed_queries(draw):
    """(one-literal query clause, bindings) with a first argument that is
    unbound, ground, bound through the bindings, or a non-ground compound."""
    name, arity = draw(st.sampled_from(KEYED_PREDS + (("q", 2),)))
    bindings = {}
    args = []
    if arity:
        kind = draw(st.sampled_from(("unbound", "ground", "bound", "compound")))
        if kind == "unbound":
            first = X
        elif kind == "ground":
            # 3 is on no unit; 01 has the key of 1, so it unifies with 1
            first = draw(st.sampled_from(FIRSTS + (Num(3), Term("01"))))
        elif kind == "bound":
            first = Var("B")
            bindings = {"B": draw(st.sampled_from(FIRSTS))}
        else:
            first = Term("g", (draw(st.sampled_from((X, Y))),))
        args = [first] + [draw(st.sampled_from(OTHERS + (X, Y))) for _ in range(arity - 1)]
    query = PropClause((Literal(Term(name, tuple(args)), draw(st.booleans())),))
    return query, bindings


@settings(max_examples=400, deadline=None)
@given(_keyed_states(), st.lists(_keyed_queries(), min_size=1, max_size=8))
def test_single_literal_answers_equal_a_scan_of_every_unit(state, queries):
    _assert_reads_as(state)
    for pclause, bindings in queries:
        got = list(pi.entails_clause(state, pclause, AUX, bindings))
        assert got == _full_scan_entails(state, pclause, bindings)


# ---------------------------------------------------------------- store


def _literal_index(state):
    """A copy of the state's literal index: literal key -> clause keys."""
    return {k: frozenset(keys) for k, keys in state._live()._by_lit.items()}


def _unit_pred(clause):
    """(functor, arity, positive, first-argument key) of a unit clause."""
    lit = clause.literals[0]
    args = lit.fluent.args
    return lit.fluent.functor, len(args), lit.positive, args[0].key if args else ()


def _lookups(state, asks):
    """What every lookup the product makes returns on `state`, the unit
    lookup asked with each (functor, arity, positive, first) in `asks`."""
    return {
        "len": len(state),
        "inconsistent": state.inconsistent,
        "iter": tuple(state),
        "clauses": state.clauses,
        "by_lit": _literal_index(state),
        "units": {ask: state.units_for(*ask) for ask in asks},
    }


def _scanned(clauses, asks):
    """What `_lookups` must return on a state of `clauses`, found by
    scanning them in key order."""
    clauses = tuple(sorted(clauses, key=lambda c: c.key))
    units = [(c, _unit_pred(c)) for c in clauses if len(c) == 1]
    return {
        "len": len(clauses),
        "inconsistent": any(len(c) == 0 for c in clauses),
        "iter": clauses,
        "clauses": clauses,
        "by_lit": {
            l.key: frozenset(c.key for c in clauses if l in c.literals)
            for c in clauses
            for l in c.literals
        },
        "units": {
            (f, a, pos, first): tuple(
                c for c, u in units if u[:3] == (f, a, pos) and first in (None, u[3])
            )
            for f, a, pos, first in asks
        },
    }


def _assert_reads_as(state, fresh=None):
    """`state` answers every lookup as `fresh`, a copy indexed on its own
    (by default one made now), and as a scan of the copy's clauses. The
    unit lookup is asked for every predicate of a unit in either state,
    of PREDS and of KEYED_PREDS, in both signs, under each first key
    present in either state, one absent key and an open first argument."""
    if fresh is None:
        fresh = PIList(list(state))
    assert state == fresh
    firsts = {pred: set() for pred in KEYED_PREDS + tuple(p[:2] for p in PREDS)}
    for c in itertools.chain(state, fresh):
        if len(c) == 1:
            f, a, _, first = _unit_pred(c)
            firsts.setdefault((f, a), set()).add(first)
    asks = [
        (f, a, pos, k)
        for (f, a), keys in firsts.items()
        for pos in (True, False)
        for k in keys | {Term("absent").key, None}
    ]
    assert _lookups(state, asks) == _lookups(fresh, asks) == _scanned(list(fresh), asks)


def _effects(draw):
    chosen = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3, unique_by=id))
    return [Literal(atom, draw(st.booleans())) for atom in chosen]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_store_after_random_steps_equals_closure_from_scratch(data):
    draw = data.draw
    state = draw(_states())
    if state.inconsistent:
        return
    shadow = list(state)
    history = []
    axiom = draw(_axioms)
    for _ in range(draw(st.integers(1, 8))):
        history.append((state, tuple(state), _literal_index(state)))
        # Reading old states reroots the version tree; the next step
        # extends the newest state from wherever the root is.
        for old, clauses, by_lit in draw(st.permutations(history)):
            if draw(st.booleans()):
                assert tuple(old) == clauses
                assert _literal_index(old) == by_lit
        op = draw(st.sampled_from(("update", "sense", "close")))
        if op == "update":
            effects = _effects(draw)
            state = update(state, effects)
            touched = {l.key[0] for l in effects}
            shadow = [c for c in shadow if not touched & {l.key[0] for l in c.literals}]
            shadow += [Clause((l,)) for l in effects]
        elif op == "sense":
            observed = draw(st.sampled_from((TRUE, FALSE)))
            try:
                additions, _ = _full_scan_match(state, axiom, observed, AUX)
            except SensingError:
                with pytest.raises(SensingError):
                    integrate_sensing(state, axiom, observed, AUX)
                continue
            if prime_closure(shadow + additions).inconsistent:
                with pytest.raises(SensingError, match="contradicts"):
                    integrate_sensing(state, axiom, observed, AUX)
                continue
            state, _ = integrate_sensing(state, axiom, observed, AUX)
            shadow += additions
        else:
            additions = []
            for _ in range(draw(st.integers(1, 3))):
                c = normalize_clause(draw(st.lists(_ground_literals(), min_size=1, max_size=3)))
                if c is not None:
                    additions.append(c)
            state = prime_closure(additions, base=state)
            shadow += additions
        scratch = prime_closure(shadow)
        assert state == scratch
        assert state == reference_prime_implicates(shadow, ATOMS)
        _assert_reads_as(state)
        assert prime_closure(tuple(state)) == state
        if state.inconsistent:
            break
        shadow = list(scratch)
    for old, clauses, by_lit in history:
        assert tuple(old) == clauses
        assert _literal_index(old) == by_lit
        _assert_reads_as(old)


def test_closure_that_adds_nothing_returns_the_base():
    base = prime_closure([Clause((lit("at", Num(1)),))])
    assert prime_closure([normalize_clause([lit("at", Num(1)), lit("w", Num(2))])], base=base) is base


def _chain(n):
    """The initial state and n states each derived from the one before, by
    updates and closures over ATOMS, and a fresh copy of each, built on
    its own, taken when it was new."""
    state = prime_closure([normalize_clause([lit("at", Num(1)), lit("w", Num(2))])])
    states, copies = [state], [PIList(list(state))]
    for i in range(n):
        cell, other = Num(CELLS[i % 3]), Num(CELLS[(i + 1) % 3])
        step = None
        if i % 2 == 0:
            step = prime_closure(
                [normalize_clause([lit("w", cell, False), lit("at", other)])], base=state
            )
        if step is None or step.inconsistent:
            step = update(state, [lit("at", cell, i % 4 == 1), lit("w", other)])
        state = step
        states.append(state)
        copies.append(PIList(list(state)))
    return states, copies


def test_a_state_ten_children_back_reads_as_it_was():
    states, copies = _chain(12)
    assert len({s.clauses for s in states}) > 6
    _assert_reads_as(states[-11], copies[-11])
    # and the newest once more, after the tree was rerooted away from it
    _assert_reads_as(states[-1], copies[-1])


def test_reading_an_old_state_then_extending_the_newest():
    states, copies = _chain(10)
    _assert_reads_as(states[2], copies[2])
    effects = [lit("w", Num(3), False), lit("at", Num(2))]
    newest = update(states[-1], effects)
    assert newest == update(copies[-1], effects)
    for state, copy in zip(states, copies):
        _assert_reads_as(state, copy)
    _assert_reads_as(newest, update(copies[-1], effects))


def test_a_discarded_draft_leaves_its_parent_as_it_was(monkeypatch):
    base = prime_closure(
        [normalize_clause([lit("at", Num(1)), lit("at", Num(2))]), Clause((lit("w", Num(3)),))]
    )
    copy = PIList(list(base))
    # -at(1) resolves with [at(1), at(2)] and replaces it with at(2)
    # before -at(2) derives the empty clause
    closed = prime_closure(
        [Clause((lit("at", Num(1), False),)), Clause((lit("at", Num(2), False),))], base=base
    )
    assert closed is pi.INCONSISTENT
    _assert_reads_as(base, copy)
    contradicting = _feel(SensorCase(TRUE, EMPTY_PROPERTY, (Clause((lit("w", Num(3), False),)),)))
    with pytest.raises(SensingError, match="contradicts"):
        integrate_sensing(base, contradicting, TRUE, AUX)
    _assert_reads_as(base, copy)
    assert update(base, []) is base
    _assert_reads_as(base, copy)
    # a closure past its budget has written its first resolvent when the
    # second one stops it
    monkeypatch.setattr(pi, "CLOSURE_BUDGET", 1)
    implications = [
        normalize_clause([lit("at", Num(1), False), lit("w", Num(4))]),
        normalize_clause([lit("at", Num(2), False), lit("w", Num(5))]),
    ]
    with pytest.raises(BudgetExceeded, match="^prime closure budget exceeded$"):
        prime_closure(implications, base=base)
    _assert_reads_as(base, copy)
    # the parent, untouched, still extends
    assert update(base, [lit("w", Num(3))]) == copy


# ---------------------------------------------------------------- work counts


def _wumpus4():
    domain = parse_domain((SAMPLES / "wumpus4.alpd").read_text(encoding="utf-8"), "wumpus4.alpd")
    program = parse_program((SAMPLES / "cautious.alp").read_text(encoding="utf-8"), domain, "cautious.alp")
    env = WumpusEnv(generate_wumpus(WumpusConfig(size=4, seed=7)))
    return domain, program, parse_query("run", domain), env


def test_each_sense_checks_exactly_one_sensor_case(monkeypatch):
    checks = []
    plain_first = pi.first_entailment
    plain_sense = interpreter.integrate_sensing

    def counted_first(*args, **kwargs):
        checks.append(1)
        return plain_first(*args, **kwargs)

    per_sense = []

    def counted_sense(*args):
        before = len(checks)
        out = plain_sense(*args)
        per_sense.append(len(checks) - before)
        return out

    monkeypatch.setattr(pi, "first_entailment", counted_first)
    monkeypatch.setattr(interpreter, "integrate_sensing", counted_sense)
    domain, program, query, env = _wumpus4()
    outcome = interpreter.solve(query, program, domain, env)
    assert outcome.succeeded
    assert len(per_sense) == len(outcome.state.sigma) > 0
    assert per_sense == [1] * len(per_sense)


def test_update_visits_only_clauses_sharing_an_effect_fluent(monkeypatch):
    slot = Clause.__dict__["literals"]
    visited = []
    recording = [False]

    def read(clause):
        if recording[0]:
            visited.append(clause)
        return slot.__get__(clause, Clause)

    monkeypatch.setattr(Clause, "literals", property(read, slot.__set__))
    plain_update = interpreter.update
    checked = []

    def watched_update(state, effects):
        visited.clear()
        recording[0] = True
        try:
            out = plain_update(state, effects)
        finally:
            recording[0] = False
        touched = {l.key[0] for l in effects}
        strangers = [c for c in visited if not touched & {l.key[0] for l in slot.__get__(c, Clause)}]
        assert strangers == []
        checked.append(len(state))
        return out

    monkeypatch.setattr(interpreter, "update", watched_update)
    domain, program, query, env = _wumpus4()
    assert interpreter.solve(query, program, domain, env).succeeded
    assert checked and max(checked) > 3


def test_bound_conn_queries_unify_only_with_units_of_that_first_argument(monkeypatch):
    world = generate_wumpus(WumpusConfig(size=4, seed=7))
    domain = parse_domain(emit_wumpus_domain(world, "ground3"), "w4.alpd")
    program = parse_program(wumpus_agent("ground3"), domain, "cautious.alp")
    plain_unify = pi.unify_track
    plain_clause = pi._clause_answers
    tried = []
    checked = []

    def counted_unify(t1, t2, bindings, *args, **kwargs):
        tried.append((t1, t2, bindings))
        return plain_unify(t1, t2, bindings, *args, **kwargs)

    def watched_clause(state, pclause, aux, store, trail):
        fluent = None
        if len(pclause.fluents) == 1:
            fluent = apply_literal(pclause.fluents[0], store).fluent
        if fluent is None or fluent.functor != "conn" or isinstance(fluent.args[0], Var):
            yield from plain_clause(state, pclause, aux, store, trail)
            return
        expected = [
            u.literals[0].fluent
            for u in state.units_for("conn", 2, True)
            if u.literals[0].fluent.args[0] == fluent.args[0]
        ]
        checked.append((len(expected), len(state.units_for("conn", 2, True))))
        before = len(tried)

        def tried_here():
            return [t2 for t1, t2, b in tried[before:] if b is store and t1 == fluent]

        # Each answer comes from a unit with that first argument, tried in
        # order; when all answers are asked for, every such unit was tried.
        for _ in plain_clause(state, pclause, aux, store, trail):
            got = tried_here()
            assert got == expected[: len(got)]
            yield
        assert tried_here() == expected

    monkeypatch.setattr(pi, "unify_track", counted_unify)
    monkeypatch.setattr(pi, "_clause_answers", watched_clause)
    query = parse_query(WUMPUS_QUERY, domain)
    outcome = interpreter.solve(query, program, domain, WumpusEnv(world))
    assert outcome.succeeded
    assert checked and all(0 < tried_here < total for tried_here, total in checked)


def test_a_belief_step_writes_the_same_few_entries_at_any_board_size():
    """A belief step (an update, or a sensing with its closure) writes
    the table entries of the clauses it changes, and copies nothing. Per
    step that is 8.1 entries in a 16x16 ground3 solve and 9.0 in a 48x48
    one: larger boards have more cells with four neighbours, whose
    sensing meanings are longer. The copying store this replaced copied
    2,226 and 18,464 entries per step on the same two solves."""
    small = work_counts.count_work(work_counts.ground3(16))["belief_entries_copied"]
    large = work_counts.count_work(work_counts.ground3(48))["belief_entries_copied"]
    assert 0 < small and large <= 1.25 * small


def test_the_occurs_check_stops_at_the_agents_settled_lists():
    """The cautious agent's Closed and Sensed lists are ground one cell at
    a time, and a goal variable that meets a clause head's structure over
    head variables that are unbound or bound ground is bound with no
    walk, so every binding walk of a 16x16 ground3 solve settles a ground
    term. Renamed heads made 105 walks that did not settle, over 315
    cells, and 49,937 cells when the walks went down the lists' chains of
    bindings."""
    counts = work_counts.count_work("wumpus-g3")
    assert counts["unsettled_cells"] == 0
    assert counts["walks"] == counts["settled"] == 662


def test_corridor_backtracks_over_ground_lists():
    """corridor-backtrack's `select/3` retries run over lists settled to
    ground terms: the explorer's Choicepoints is ground from the head of
    `explore/2` on. One solve makes 430 binding walks, and every one
    settles: the output list `[Y|Ys]` of `select/3`'s second clause holds
    only fresh head variables, so the goal variable it meets is bound
    with no walk. A renamed head made 5,886 more walks there, over
    17,658 cells (443,304 when the chain of open cells stayed open). Each
    failing `go(Y)` precondition looks its ground `adj/2` goal up by key,
    with no machine."""
    counts = work_counts.count_work("corridor-backtrack")
    assert counts["settled"] == 430
    assert counts["walks"] - counts["settled"] == 0
    assert counts["unsettled_cells"] == 0
    assert counts["aux_solves"] == 5994
    assert counts["aux_machines"] == 0


def test_clause_heads_are_tried_with_no_renamed_copy():
    """A call unifies with each clause head as parsed, and so does a ground
    action with the specification's head, so the only copy either makes
    is the `do` subject, the action read through the store: one per `do`,
    5,994 in a corridor-backtrack solve. Renamed heads and renamed actions
    made 24,085."""
    counts = work_counts.count_work("corridor-backtrack")
    assert counts["head_copies"] == counts["aux_solves"] == 5994


def test_failed_preconditions_build_no_goal_keys():
    """A corridor-backtrack solve runs 5,994 `do(go(Y))`s and executes
    108. Each failing precondition looks its ground `adj/2` goal up by
    the keys of its arguments, which the terms it was built from already
    carry, so one solve builds 870 flat keys. Comparing each goal whole
    with the facts in its bucket (`fact.head == goal`) built one key per
    goal: 7,077."""
    counts = work_counts.count_work("corridor-backtrack")
    assert counts["key_builds"] == 870


def test_compaction_shunts_chains_of_variables():
    """A wumpus-g2 agent's store is almost all variable-to-variable links,
    one per recursion level. A compaction binds each name it keeps
    straight to the end of its chain, so it keeps 6 names where the links
    kept 178, 345 and 462 over three compactions. With so little kept the
    store refills to the floor once less, and what is left when the solve
    ends is what two compactions, not three, leave growing: 631
    bindings against 574."""
    counts = work_counts.count_work("wumpus-g2")
    assert counts["compacted_kept"] == 6
    assert counts["bindings_kept"] == 631


def test_corridor_commits_drop_what_no_backtrack_can_reach():
    """One corridor-backtrack solve made 24,303 bindings and as many
    trail entries, and kept them all until it ended. Its 108 actions
    each empty the trail, and those that find the store doubled compact
    it to what the goals still to run and the query reach, so at most a
    tenth of either is left."""
    counts = work_counts.count_work("corridor-backtrack")
    assert counts["bindings_kept"] <= 2430
    assert counts["trail_kept"] <= 2430


def test_ground_membership_walks_a_stride_not_the_list():
    """The cautious agent asks `memberchk`/`nonmember` of its Closed and
    Sensed lists at every step, with ground elements over ground lists.
    Each list cell asked keeps its members' keys once the walk below it
    has passed a stride of cells, so a query walks at most a stride. One
    32x32 ground3 solve walks 10,066 list cells in its 1,243 list
    built-ins; reading every spine walked 180,242."""
    counts = work_counts.count_work(work_counts.ground3(32))
    assert 0 < counts["member_cells"] <= 18_024


def test_every_work_count_equals_the_pinned_table():
    """Every column of `tests/work_counts.py` for every workload equals
    `tests/golden/work_counts.json`, so a change to any count shows here,
    not only in the columns the tests above bound. The counts are taken
    in a fresh process, as the script takes them: a key that a test
    module has already built on a shared term such as `TRUE` is not built
    again, so `key_builds` read in this process can come out lower."""
    tests = Path(__file__).resolve().parent
    script = (
        "import json, work_counts\n"
        "print(json.dumps({n: work_counts.count_work(n) for n in work_counts._workloads()}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(tests.parent / "src"), str(tests)))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    pinned = json.loads((tests / "golden" / "work_counts.json").read_text(encoding="utf-8"))
    assert list(got) == list(pinned)
    for name, want in pinned.items():
        assert got[name] == want, name
