"""Belief states as prime implicate lists, and the operations on them.

A belief state is the set of prime implicates of a propositional formula
over ground fluent atoms: every entailed clause is subsumed by a member,
no member subsumes another, and no member is a tautology. That shape
reduces entailment checks to subsumption lookups, keeps progression a
local operation, and stays stable under the saturation used here.

The store: a `PIList` is a value that carries its own indexes (clause
key -> clause, literal key -> clause keys, and the unit clauses keyed by
predicate, sign and first-argument key) in immutable buckets. `update`
and `prime_closure(..., base=...)` build the next state on a draft that
shares the parent's buckets and replaces only those it touches, so a
step costs the clauses it meets, not the size of the belief. A
single-literal query whose first argument is ground unifies only with
the units filed under that argument, as first-argument indexing does in
a Prolog engine. Sensing looks sensor cases up by their index literal
(`SensorAxiom.candidates`) instead of trying every case.

The public operations:

- `prime_closure`: clause set -> PIList (worklist resolution saturation
  with forward/backward subsumption; detects inconsistency).
- `is_prime`: decide whether a clause tuple already has the shape.
- `entails_clause` / `entails_property`: enumerate answer substitutions
  for possibly non-ground query clauses with embedded aux atoms, bound
  on one store and undone through a trail, as resolution does.
- `update`: progression through a set of ground effect literals.
- `applicable_case_solutions`: which effect cases of an action spec fire.
- `integrate_sensing`: fold one observed sensing result into the state.
"""

from collections import deque
from itertools import chain
from operator import attrgetter

from .errors import EngineError, NonGroundError, SensingError
from .model import StateProperty
from .terms import (
    EMPTY_CLAUSE,
    Clause,
    Var,
    apply_literal,
    apply_subst,
    flat_key,
    format_clause,
    format_term,
    normalize_clause,
    undo,
    unify_track,
    variables,
)

_clause_key = attrgetter("key")


def _pred_sign(lit):
    f = lit.fluent
    return (f.functor, len(f.args), lit.positive)


def _first_key(fluent):
    """The key a unit on `fluent` is filed under: the key of its first
    argument, () for an atom, None when the first argument is not ground."""
    args = fluent.args
    if not args:
        return ()
    first = args[0]
    return None if first.__class__ is Var else first.key


class PIList:
    """An immutable, duplicate-free set of ground clauses, iterated in key
    order, with the indexes that make a step cost only what it touches:

    - clause key -> clause;
    - literal key -> frozenset of the keys of the clauses containing it;
    - (functor, arity, positive) -> first-argument key -> the unit clauses
      on that predicate and sign whose first argument has that key, as a
      tuple in key order. Each inner table is ordered by first-argument
      key, and a unit's key begins with its first argument's, so the
      buckets of a predicate and sign read one after the other are all
      its units in key order.

    Buckets are never modified, so a child state shares every bucket it
    does not touch with its parent. The sorted `clauses` tuple is built on
    first use. The single empty clause (`INCONSISTENT`) represents an
    unsatisfiable state; no clauses at all represent a tautologous
    (information-free) one.
    """

    __slots__ = ("_by_key", "_by_lit", "_units", "_sorted")

    def __init__(self, clauses=()):
        unique = {}
        for c in clauses:
            if not c.ground:
                raise NonGroundError(f"belief clauses must be ground: {format_clause(c)}")
            unique[c.key] = c
        if EMPTY_CLAUSE.key in unique:
            unique = {EMPTY_CLAUSE.key: EMPTY_CLAUSE}
        draft = _Draft()
        for c in unique.values():
            draft.insert(c)
        self._by_key, self._by_lit, self._units = draft.tables()
        self._sorted = None

    @property
    def clauses(self):
        """The clauses as a tuple in key order."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._by_key.values(), key=_clause_key))
        return self._sorted

    @property
    def inconsistent(self):
        return EMPTY_CLAUSE.key in self._by_key

    def __len__(self):
        return len(self._by_key)

    def __eq__(self, other):
        return isinstance(other, PIList) and other._by_key.keys() == self._by_key.keys()

    def __hash__(self):
        return hash(self.clauses)

    def __iter__(self):
        return iter(self.clauses)

    def __repr__(self):
        return "[" + ", ".join(format_clause(c) for c in self.clauses) + "]"

    def units_for(self, functor, arity, positive):
        """Unit clauses on a given predicate and sign, in key order: its
        first-argument buckets one after the other."""
        subs = self._units.get((functor, arity, positive))
        return tuple(chain.from_iterable(subs.values())) if subs else ()

    def units_matching(self, fluent, positive):
        """The unit clauses of sign `positive` that may unify with
        `fluent`, in key order: the one first-argument bucket when the
        first argument is ground (a unit outside it differs from it in a
        ground first argument), else every unit on the predicate."""
        subs = self._units.get((fluent.functor, len(fluent.args), positive))
        if not subs:
            return ()
        first = _first_key(fluent)
        if first is None:
            return chain.from_iterable(subs.values())
        return subs.get(first, ())


class _Draft:
    """The next state, built from a parent PIList without changing it, or
    from nothing.

    The parent's top-level tables are copied; a literal bucket becomes a
    private set the first time it is written, and a first-argument unit
    bucket is rebuilt at the end from its removals and additions, in a
    copy of its predicate's table. Every other bucket is shared with the
    parent.
    """

    __slots__ = ("parent", "by_key", "by_lit", "_units", "_own", "_unit_delta")

    def __init__(self, parent=None):
        self.parent = parent
        if parent is None:
            self.by_key, self.by_lit, self._units = {}, {}, {}
        else:
            self.by_key = dict(parent._by_key)
            self.by_lit = dict(parent._by_lit)
            self._units = parent._units
        self._own = set()        # literal keys whose bucket is a private set
        # (functor, arity, sign) -> first-argument key -> (removed keys, {key: added unit})
        self._unit_delta = {}

    def _bucket(self, lit_key):
        if lit_key in self._own:
            return self.by_lit[lit_key]
        self._own.add(lit_key)
        bucket = self.by_lit[lit_key] = set(self.by_lit.get(lit_key, ()))
        return bucket

    def _delta(self, lit):
        ps = _pred_sign(lit)
        by_first = self._unit_delta.get(ps)
        if by_first is None:
            by_first = self._unit_delta[ps] = {}
        first = _first_key(lit.fluent)
        delta = by_first.get(first)
        if delta is None:
            delta = by_first[first] = (set(), {})
        return delta

    def insert(self, clause):
        k = clause.key
        self.by_key[k] = clause
        for l in clause.literals:
            self._bucket(l.key).add(k)
        if len(clause.literals) == 1:
            self._delta(clause.literals[0])[1][k] = clause

    def remove(self, clause):
        k = clause.key
        del self.by_key[k]
        for l in clause.literals:
            self._bucket(l.key).discard(k)
        if len(clause.literals) == 1:
            removed, added = self._delta(clause.literals[0])
            if added.get(k) is clause:
                del added[k]
            else:
                removed.add(k)

    def tables(self):
        """The finished (clause, literal, unit) tables, buckets frozen."""
        by_lit = self.by_lit
        for lk in self._own:
            if by_lit[lk]:
                by_lit[lk] = frozenset(by_lit[lk])
            else:
                del by_lit[lk]
        units = dict(self._units)
        for ps, by_first in self._unit_delta.items():
            subs = dict(units.get(ps, ()))
            grown = False
            for first, (removed, added) in by_first.items():
                bucket = [u for u in subs.get(first, ()) if u.key not in removed]
                bucket.extend(added.values())
                if bucket:
                    grown = grown or first not in subs
                    subs[first] = tuple(sorted(bucket, key=_clause_key))
                else:
                    subs.pop(first, None)
            if not subs:
                units.pop(ps, None)
            else:
                # a new first argument is appended; put it in key order
                units[ps] = dict(sorted(subs.items())) if grown else subs
        return self.by_key, by_lit, units

    def freeze(self):
        """The finished state; the parent itself when nothing changed."""
        if not self._own:
            return self.parent
        state = object.__new__(PIList)
        state._by_key, state._by_lit, state._units = self.tables()
        state._sorted = None
        return state


INCONSISTENT = PIList((EMPTY_CLAUSE,))
TOP = PIList(())


def _complement_key(lit_key):
    fk, sign = lit_key
    return (fk, 1 - sign)


class _Saturator:
    """Given-clause saturation with subsumption, over ground clauses, on
    a draft of a prime base state whose clauses count as mutually
    resolved already. Resolution partners and subsumption candidates come
    from the draft's literal buckets, so base clauses the new ones never
    meet are never looked at."""

    def __init__(self, base):
        self.draft = _Draft(base)
        self.work = deque()
        self.inconsistent = False

    def add(self, clause):
        if len(clause) == 0:
            self.inconsistent = True
            return
        by_key = self.draft.by_key
        if clause.key in by_key:
            return
        by_lit = self.draft.by_lit
        candidates = set()
        for l in clause.literals:
            bucket = by_lit.get(l.key)
            if bucket:
                candidates.update(bucket)
        others = [by_key[k] for k in candidates]
        # forward subsumption: is the newcomer already implied?
        for other in others:
            if other.subsumes(clause):
                return
        # backward subsumption: the newcomer may simplify the set
        for other in others:
            if clause.subsumes(other):
                self.draft.remove(other)
        self.draft.insert(clause)
        self.work.append(clause)

    def run(self):
        by_key = self.draft.by_key
        by_lit = self.draft.by_lit
        while self.work:
            given = self.work.popleft()
            if given.key not in by_key:
                continue  # subsumed away while queued
            for lit in given.literals:
                comp = _complement_key(lit.key)
                partners = by_lit.get(comp)
                if not partners:
                    continue
                for pk in tuple(partners):
                    if given.key not in by_key:
                        break
                    partner = by_key.get(pk)
                    if partner is None:
                        continue  # subsumed by a clause still to be given
                    resolvent = normalize_clause(
                        [l for l in given.literals if l.key != lit.key]
                        + [m for m in partner.literals if m.key != comp]
                    )
                    if resolvent is None:
                        continue
                    self.add(resolvent)
                    if self.inconsistent:
                        return

    def result(self):
        if self.inconsistent:
            return INCONSISTENT
        return self.draft.freeze()


def prime_closure(clauses, base=None):
    """Saturate a set of ground clauses into its prime implicates.

    `base` may carry an already-prime PIList whose clauses are taken as
    mutually resolved, so only the new clauses (and whatever they spawn)
    get processed, against the base clauses they share a literal with.
    Returns INCONSISTENT when the empty clause derives.
    """
    if base is None:
        base = TOP
    elif base.inconsistent:
        return INCONSISTENT
    for c in clauses:
        if not c.ground:
            raise NonGroundError(f"closure needs ground clauses: {format_clause(c)}")
    sat = _Saturator(base)
    for c in sorted(clauses, key=_clause_key):
        sat.add(c)
        if sat.inconsistent:
            return INCONSISTENT
    sat.run()
    return sat.result()


def is_prime(clauses):
    """True iff the clause tuple is sorted, duplicate- and tautology-free,
    pairwise non-subsuming, and closed under non-redundant resolution."""
    cs = list(clauses)
    keys = [c.key for c in cs]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        return False
    for c in cs:
        if normalize_clause(c.literals) is None or normalize_clause(c.literals) != c:
            return False
    for i, c in enumerate(cs):
        for j, d in enumerate(cs):
            if i != j and c.subsumes(d):
                return False
    for i, c in enumerate(cs):
        for d in cs[i + 1 :]:
            for lit in c.literals:
                comp = _complement_key(lit.key)
                if not any(m.key == comp for m in d.literals):
                    continue
                resolvent = normalize_clause(
                    [l for l in c.literals if l.key != lit.key]
                    + [m for m in d.literals if m.key != comp]
                )
                if resolvent is None:
                    continue
                if len(resolvent) == 0:
                    return False
                if not any(e.subsumes(resolvent) for e in cs):
                    return False
    return True


def update(state, effects):
    """Progress a prime state through ground effect literals.

    Every clause mentioning an effect fluent (in either sign) is dropped,
    then the effects are adjoined as unit clauses. The result is prime
    again, because survivors share no fluent with the new units. Only the
    dropped clauses are visited: they are found through the literal index.
    """
    if state.inconsistent:
        raise EngineError("cannot update an inconsistent belief state")
    seen = {}
    for lit in effects:
        if not lit.ground:
            raise NonGroundError(f"effect literal not ground: {lit!r}")
        fk = lit.key[0]
        if fk in seen and seen[fk] != lit.positive:
            raise EngineError(f"contradictory effects on {format_term(lit.fluent)}")
        seen[fk] = lit.positive
    if not seen:
        return state
    draft = _Draft(state)
    for fk in seen:
        for sign in (0, 1):
            for k in state._by_lit.get((fk, sign), ()):
                doomed = draft.by_key.get(k)
                if doomed is not None:
                    draft.remove(doomed)
    for l in {l.key: l for l in effects}.values():
        draft.insert(Clause((l,)))
    return draft.freeze()


def _cover(state_lits, i, query_lits, store, trail):
    """Match each literal of a candidate implicate with one of the query
    clause, left to right, suspended at each complete match."""
    if i == len(state_lits):
        yield
        return
    target = state_lits[i]
    for q in query_lits:
        if q.positive != target.positive:
            continue
        mark = len(trail)
        if unify_track(q.fluent, target.fluent, store, trail, left_first=True):
            yield from _cover(state_lits, i + 1, query_lits, store, trail)
        undo(store, trail, mark)


def _clause_answers(state, pclause, aux, store, trail):
    """Bind each answer to one query clause (fluent literals and/or
    positive aux atoms) in `store`, on `trail`, and suspend there;
    resuming undoes it. A single fluent literal must unify with a unit
    prime implicate; a multi-literal fluent part must instantiate to a
    superset of some prime implicate; failing those, each aux atom is
    tried in order. Answers that bind the clause alike are given once."""
    if state.inconsistent:
        raise EngineError("cannot query an inconsistent belief state")
    mark = len(trail)
    fluents = [apply_literal(l, store) for l in pclause.fluents]
    goals = [apply_subst(atom, store) for atom in pclause.aux]
    seen = set()
    # What is bound below `mark` is the same in every answer, so answers
    # differ where the clause's open variables do. Distinct units bind one
    # literal differently: with no aux atom to come, they need no check.
    opened = None
    if goals or len(fluents) > 1:
        opened = [Var(n) for n in variables([l.fluent for l in fluents], variables(goals))]

    def fresh():
        sig = flat_key(opened, store)
        if sig in seen:
            return False
        seen.add(sig)
        return True

    if len(fluents) == 1:
        lit = fluents[0]
        f = lit.fluent
        for unit in state.units_matching(f, lit.positive):
            if unify_track(f, unit.literals[0].fluent, store, trail, left_first=True) and (
                opened is None or fresh()
            ):
                yield
            undo(store, trail, mark)
    elif fluents:
        for cand in state.clauses:
            if len(cand) > len(fluents):
                break
            for _ in _cover(cand.literals, 0, fluents, store, trail):
                if fresh():
                    yield
    for atom, goal in zip(pclause.aux, goals):
        shared = None
        for sol in aux.solve(goal):
            store.update(sol)
            trail.extend(sol)
            if shared is None:
                shared = variables(atom) & variables([l.fluent for l in pclause.fluents])
            for name in shared:
                val = apply_subst(Var(name), store)
                if val.__class__ is Var or not val.ground:
                    raise EngineError(
                        f"non-ground aux answer for {format_term(atom)} "
                        f"on variable {name} shared with fluent literals"
                    )
            if fresh():
                yield
            undo(store, trail, mark)


def _conjunction(state, clauses, i, aux, store, trail):
    """Answers to clauses[i:], threaded left to right on one binding
    store and one trail; each is closed into a fresh idempotent dict."""
    if i == len(clauses):
        yield {n: apply_subst(t, store) for n, t in store.items()}
        return
    for _ in _clause_answers(state, clauses[i], aux, store, trail):
        yield from _conjunction(state, clauses, i + 1, aux, store, trail)


def entails_clause(state, pclause, aux, bindings=None):
    """Enumerate substitutions under which the belief state entails one
    query clause (see `_clause_answers`)."""
    yield from entails_property(state, StateProperty((pclause,)), aux, bindings)


def entails_property(state, prop, aux, bindings=None):
    """Enumerate substitutions, each extending `bindings`, under which
    the belief state entails a whole property (clause conjunction)."""
    if not prop.clauses:
        yield {} if bindings is None else bindings
        return
    store = {} if bindings is None else dict(bindings)
    yield from _conjunction(state, prop.clauses, 0, aux, store, [])


def first_entailment(state, prop, aux, bindings=None):
    for sol in entails_property(state, prop, aux, bindings):
        return sol
    return None


def applicable_case_solutions(state, spec, aux, bindings=None):
    """(index, condition substitution) for every case whose condition the
    state entails under the given grounding."""
    out = []
    for i, case in enumerate(spec.cases):
        sol = first_entailment(state, case.cond, aux, bindings)
        if sol is not None:
            out.append((i, sol))
    return out


def integrate_sensing(state, axiom, observed, aux):
    """Fold one observed result of a sense fluent into the belief state.

    Locates the unique case for the observed result whose index the state
    entails, adjoins its meaning under the located bindings, and re-closes
    to prime form. Only the axiom's candidates are checked (see
    `SensorAxiom.candidates`); a case left out cannot have an entailed
    index, so the outcome is that of checking every case.

    Returns (new PIList, index substitution). Raises SensingError when no
    case or more than one case applies, or when the meaning contradicts
    the state.
    """
    if not observed.ground:
        raise NonGroundError("sensing results must be ground")
    if observed not in axiom.results:
        raise SensingError(
            f"environment answered {axiom.functor} with {format_term(observed)}, "
            "which no sensor case declares"
        )
    if state.inconsistent:
        raise EngineError("cannot query an inconsistent belief state")
    matches = []
    for i in axiom.candidates(observed, state):
        case = axiom.cases[i]
        sol = first_entailment(state, case.index, aux)
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
        lits = [apply_literal(l, sol) for l in clause.literals]
        for l in lits:
            if not l.ground:
                raise NonGroundError(
                    f"sensing meaning for {axiom.functor} not ground after index match"
                )
        norm = normalize_clause(lits)
        if norm is not None and len(norm) > 0:
            additions.append(norm)
    new_state = prime_closure(additions, base=state)
    if new_state.inconsistent:
        raise SensingError(
            f"sensing result {axiom.functor}={format_term(observed)} contradicts the belief state"
        )
    return new_state, sol
