"""Belief states as prime implicate lists, and the operations on them.

A belief state is the set of prime implicates of a propositional formula
over ground fluent atoms: every entailed clause is subsumed by a member,
no member subsumes another, and no member is a tautology. That shape
reduces entailment checks to subsumption lookups, keeps progression a
local operation, and stays stable under the saturation used here.

The store: the states derived from one another form a version tree
(Baker's shallow binding, 1978; Conchon and Filliâtre, *A Persistent
Union-Find Data Structure*, 2007). One version, the root, owns the live
indexes: clause key -> clause, literal key -> clause keys, and the unit
clauses keyed by predicate, sign and first-argument key. Every other
version holds the writes that turn its neighbour toward the root into
itself. `update` and `prime_closure(..., base=...)` write the next state
into the base's indexes in place and keep the inverse of each write,
which becomes the base's way back: a step costs the clauses it touches,
not the size of the belief. Reading an older version first reroots the
tree there, replaying the writes on the path; reads of the newest state,
which is all the interpreter does, are plain lookups. A single-literal
query whose first argument is ground unifies only with the units filed
under that argument, as first-argument indexing does in a Prolog engine;
`PIList.units_for` is the one lookup of units, one bucket or all of them.
Sensing looks sensor cases up by their index literal
(`SensorAxiom.candidates`) instead of trying every case.

The public operations:

- `prime_closure`: clause set -> PIList (worklist resolution saturation
  with forward/backward subsumption; detects inconsistency; raises
  BudgetExceeded past `CLOSURE_BUDGET` resolvents).
- `entails_clause` / `entails_property`: enumerate answer substitutions
  for possibly non-ground query clauses with embedded aux atoms, bound
  on one store and undone through a trail, as resolution does, with
  explicit stacks in place of Python recursion.
- `update`: progression through a set of ground effect literals.
- `applicable_case_solutions`: which effect cases of an action spec fire.
- `integrate_sensing`: fold one observed sensing result into the state.
"""

from bisect import bisect_left, insort
from collections import deque
from itertools import chain
from operator import attrgetter

from .errors import BudgetExceeded, EngineError, NonGroundError, SensingError
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

# The most resolvents one `prime_closure` may form. A clause set can have
# exponentially many prime implicates, so the saturation has no bound of
# its own. The wumpus worlds form at most 3 resolvents per closure while
# the agent runs, and none when their initial states (up to 48x48) are
# closed; a chain of 60 implications p(i) -> p(i+1) forms 70,269 and
# closes in under half a second.
CLOSURE_BUDGET = 100_000


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
    return first.key if first.__class__ is not Var and first.ground else None


def _write(root, clause, present):
    """Insert `clause` into the live tables of `root` (present=True) or
    delete it from them. Emptied buckets go, so the tables depend on the
    clause set alone, whatever writes built them."""
    by_key, by_lit = root._by_key, root._by_lit
    k = clause.key
    lits = clause.literals
    if present:
        by_key[k] = clause
        for l in lits:
            by_lit.setdefault(l.key, set()).add(k)
    else:
        del by_key[k]
        for l in lits:
            bucket = by_lit[l.key]
            bucket.remove(k)
            if not bucket:
                del by_lit[l.key]
    if len(lits) != 1:
        return
    units = root._units
    ps = _pred_sign(lits[0])
    first = _first_key(lits[0].fluent)
    if present:
        insort(units.setdefault(ps, {}).setdefault(first, []), clause, key=_clause_key)
        return
    buckets = units[ps]
    bucket = buckets[first]
    del bucket[bisect_left(bucket, k, key=_clause_key)]
    if not bucket:
        del buckets[first]
        if not buckets:
            del units[ps]


class PIList:
    """An immutable, duplicate-free set of ground clauses, iterated in key
    order: one version in a tree of versions that share one set of
    indexes (see the module docstring). The root version owns them:

    - `_by_key`: clause key -> clause;
    - `_by_lit`: literal key -> set of the keys of the clauses containing it;
    - `_units`: (functor, arity, positive) -> first-argument key -> the
      unit clauses on that predicate and sign whose first argument has
      that key, as a list in key order.

    Any other version has those three set to None and `_diff` set to
    (neighbour, writes): replaying the (clause, present) writes on the
    neighbour's tables gives this version's. `_live()` reroots the tree
    here. The sorted `clauses` tuple is built on first use. The single
    empty clause (`INCONSISTENT`) represents an unsatisfiable state; no
    clauses at all represent a tautologous (information-free) one.
    """

    __slots__ = ("_by_key", "_by_lit", "_units", "_diff", "_size", "_sorted")

    def __init__(self, clauses=()):
        unique = {}
        for c in clauses:
            if not c.ground:
                raise NonGroundError(f"belief clauses must be ground: {format_clause(c)}")
            unique[c.key] = c
        if EMPTY_CLAUSE.key in unique:
            unique = {EMPTY_CLAUSE.key: EMPTY_CLAUSE}
        self._by_key, self._by_lit, self._units = {}, {}, {}
        for c in unique.values():
            _write(self, c, True)
        self._diff = self._sorted = None
        self._size = len(unique)

    def _live(self):
        """This version, made the root of its tree: each version on the
        path from the root takes the tables over, replaying its writes,
        and leaves the inverse writes with the version it took them from."""
        if self._diff is None:
            return self
        path = []
        version = self
        while version._diff is not None:
            path.append(version)
            version = version._diff[0]
        for nearer in reversed(path):
            writes = nearer._diff[1]
            nearer._by_key, nearer._by_lit, nearer._units = (
                version._by_key, version._by_lit, version._units)
            version._by_key = version._by_lit = version._units = None
            for clause, present in writes:
                _write(nearer, clause, present)
            version._diff = (nearer, [(c, not p) for c, p in reversed(writes)])
            nearer._diff = None
            version = nearer
        return self

    @property
    def clauses(self):
        """The clauses as a tuple in key order."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._live()._by_key.values(), key=_clause_key))
        return self._sorted

    @property
    def inconsistent(self):
        return EMPTY_CLAUSE.key in self._live()._by_key

    def __len__(self):
        return self._size

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PIList) or other._size != self._size:
            return False
        mine = set(self._live()._by_key)
        return other._live()._by_key.keys() == mine

    def __hash__(self):
        return hash(self.clauses)

    def __iter__(self):
        return iter(self.clauses)

    def __repr__(self):
        return "[" + ", ".join(format_clause(c) for c in self.clauses) + "]"

    def units_for(self, functor, arity, positive, first=None):
        """Unit clauses on a given predicate and sign, in key order: those
        whose first argument has the key `first` (see `_first_key`), or
        all of them when `first` is None, their buckets read in the order
        of their first keys, which a unit's key begins with."""
        buckets = self._live()._units.get((functor, arity, positive), {})
        if first is not None:
            return tuple(buckets.get(first, ()))
        return tuple(chain.from_iterable(buckets[k] for k in sorted(buckets)))


class _Draft:
    """The next version of `parent`, written straight into its tables.

    The parent is made the root first. Each write is applied in place and
    its inverse recorded; `freeze` hands the tables to a new version and
    leaves the parent the inverse writes, reversed, as its way back;
    `discard` replays them at once and leaves the parent as it was.
    """

    __slots__ = ("parent", "by_key", "by_lit", "undo")

    def __init__(self, parent):
        self.parent = parent._live()
        self.by_key, self.by_lit = parent._by_key, parent._by_lit
        self.undo = []

    def write(self, clause, present):
        _write(self.parent, clause, present)
        self.undo.append((clause, not present))

    def freeze(self):
        """The finished state; the parent itself when nothing was written."""
        parent = self.parent
        if not self.undo:
            return parent
        state = object.__new__(PIList)
        state._by_key, state._by_lit, state._units = parent._by_key, parent._by_lit, parent._units
        state._diff = state._sorted = None
        state._size = len(state._by_key)
        parent._by_key = parent._by_lit = parent._units = None
        self.undo.reverse()
        parent._diff = (state, self.undo)
        return state

    def discard(self):
        for clause, present in reversed(self.undo):
            _write(self.parent, clause, present)


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

    def __init__(self, draft):
        self.draft = draft
        self.work = deque()
        self.inconsistent = False
        self.budget = CLOSURE_BUDGET

    def add(self, clause):
        if len(clause) == 0:
            self.inconsistent = True
            return
        by_key = self.draft.by_key
        if clause.key in by_key:
            return
        by_lit = self.draft.by_lit
        keys = clause.key[1]
        buckets = [by_lit.get(k) for k in keys]
        # forward subsumption: is the newcomer already implied?
        own = set(keys)
        for k in set().union(*filter(None, buckets)):
            if own.issuperset(k[1]):
                return
        # backward subsumption: a clause in every bucket holds the newcomer
        if all(buckets):
            for k in set.intersection(*sorted(buckets, key=len)):
                self.draft.write(by_key[k], False)
        self.draft.write(clause, True)
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
                    self.budget -= 1
                    if self.budget < 0:
                        return
                    resolvent = normalize_clause(
                        [l for l in given.literals if l.key != lit.key]
                        + [m for m in partner.literals if m.key != comp]
                    )
                    if resolvent is None:
                        continue
                    self.add(resolvent)
                    if self.inconsistent:
                        return


def prime_closure(clauses, base=None):
    """Saturate a set of ground clauses into its prime implicates.

    `base` may carry an already-prime PIList whose clauses are taken as
    mutually resolved, so only the new clauses (and whatever they spawn)
    get processed, against the base clauses they share a literal with.
    Without one the closure starts a version tree of its own. Returns
    INCONSISTENT when the empty clause derives, and raises BudgetExceeded
    when the saturation forms more than CLOSURE_BUDGET resolvents; either
    way `base` is left as it was.
    """
    if base is None:
        base = PIList()
    elif base.inconsistent:
        return INCONSISTENT
    for c in clauses:
        if not c.ground:
            raise NonGroundError(f"closure needs ground clauses: {format_clause(c)}")
    draft = _Draft(base)
    sat = _Saturator(draft)
    for c in sorted(clauses, key=_clause_key):
        sat.add(c)
        if sat.inconsistent:
            break
    else:
        sat.run()
    if sat.budget < 0:
        draft.discard()
        raise BudgetExceeded("prime closure budget exceeded")
    if sat.inconsistent:
        draft.discard()
        return INCONSISTENT
    return draft.freeze()


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
    by_key, by_lit = draft.by_key, draft.by_lit
    # Collected before the first write, which may empty these buckets.
    doomed = {k for fk in seen for sign in (0, 1) for k in by_lit.get((fk, sign), ())}
    for k in doomed:
        draft.write(by_key[k], False)
    for l in {l.key: l for l in effects}.values():
        draft.write(Clause((l,)), True)
    return draft.freeze()


def _cover(state_lits, query_lits, store, trail):
    """Match each literal of a candidate implicate, never empty, with one
    of the query clause, left to right, suspended at each complete match;
    an explicit stack holds one iterator over the query literals and one
    trail mark per matched literal."""
    stack = [(iter(query_lits), len(trail))]
    while stack:
        it, mark = stack[-1]
        target = state_lits[len(stack) - 1]
        undo(store, trail, mark)
        for q in it:
            if q.positive == target.positive and unify_track(
                q.fluent, target.fluent, store, trail, left_first=True
            ):
                break
            undo(store, trail, mark)
        else:
            stack.pop()
            continue
        if len(stack) == len(state_lits):
            yield
        else:
            stack.append((iter(query_lits), len(trail)))


class _Seen:
    """The answers a query clause has given, each as the flat key of its
    open variables under the store: what is bound below the clause's
    trail mark is the same in every answer, so answers differ where those
    variables do. Made at the clause's first answer, so a clause that
    fails never collects its variables."""

    __slots__ = ("opened", "sigs")

    def __init__(self, fluents, goals):
        self.opened = [Var(n) for n in variables([l.fluent for l in fluents], variables(goals))]
        self.sigs = set()

    def fresh(self, store):
        """Whether the answer bound in `store` is new, which records it."""
        sig = flat_key(self.opened, store)
        if sig in self.sigs:
            return False
        self.sigs.add(sig)
        return True


def _clause_answers(state, pclause, aux, store, trail):
    """Bind each answer to one query clause (fluent literals and/or
    positive aux atoms) in `store`, on `trail`, and suspend there;
    resuming undoes it. A single fluent literal must unify with a unit
    prime implicate; a multi-literal fluent part must instantiate to a
    superset of some prime implicate; failing those, each aux atom is
    tried in order. Answers that bind the clause alike are given once;
    distinct units bind one literal differently, so with no aux atom to
    come they need no check. The caller has checked that `state` is
    consistent."""
    mark = len(trail)
    fluents = [l if l.fluent.ground else apply_literal(l, store) for l in pclause.fluents]
    goals = [a if a.ground else apply_subst(a, store) for a in pclause.aux]
    seen = None
    if len(fluents) == 1:
        lit = fluents[0]
        f = lit.fluent
        for unit in state.units_for(f.functor, len(f.args), lit.positive, _first_key(f)):
            if unify_track(f, unit.literals[0].fluent, store, trail, left_first=True):
                if not goals:
                    yield
                else:
                    seen = seen or _Seen(fluents, goals)
                    if seen.fresh(store):
                        yield
            undo(store, trail, mark)
    elif fluents:
        for cand in state.clauses:
            if len(cand) > len(fluents):
                break
            for _ in _cover(cand.literals, fluents, store, trail):
                seen = seen or _Seen(fluents, goals)
                if seen.fresh(store):
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
            seen = seen or _Seen(fluents, goals)
            if seen.fresh(store):
                yield
            undo(store, trail, mark)


def _conjunction(state, clauses, aux, store, trail):
    """Answers to `clauses`, threaded left to right on one binding store
    and one trail, each closed into a fresh idempotent dict; an explicit
    stack holds the answer generators of the clauses entered so far."""
    stack = [_clause_answers(state, clauses[0], aux, store, trail)]
    while stack:
        for _ in stack[-1]:
            if len(stack) == len(clauses):
                yield {n: apply_subst(t, store) for n, t in store.items()}
            else:
                stack.append(_clause_answers(state, clauses[len(stack)], aux, store, trail))
            break
        else:
            stack.pop()


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
    if state.inconsistent:
        raise EngineError("cannot query an inconsistent belief state")
    store = {} if bindings is None else dict(bindings)
    yield from _conjunction(state, prop.clauses, aux, store, [])


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
