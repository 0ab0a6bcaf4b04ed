"""Brute-force reference semantics for cross-checking the engine.

Everything here trades speed for being obviously correct and is meant
for tests and harnesses only. States are judged by explicit possible
worlds: a world is a total truth assignment over a fixed atom universe,
kept as the frozenset of its true atoms.

Hard bounds guard every enumeration; exceeding them raises
OracleBoundExceeded instead of silently grinding.
"""

import itertools

from helpers import EMPTY_AUX, solve_under
from primelog.errors import PrimelogError
from primelog.pi import PIList
from primelog.terms import Clause, Literal, apply_subst, format_term, unify

MODEL_ATOM_BOUND = 20
REFERENCE_ATOM_BOUND = 10
WORLD_BOUND = 1 << 22


class OracleBoundExceeded(PrimelogError):
    """A brute-force oracle was asked to enumerate past its hard bound."""


def clause_true(clause, world):
    """Truth of a ground clause in a world (atoms absent count as false)."""
    for lit in clause.literals:
        if lit.positive == (lit.fluent in world):
            return True
    return False


def models(clauses, atoms):
    """BeliefSet of all worlds over `atoms` satisfying the clauses
    (empty worlds set when they are unsatisfiable)."""
    atoms = list(dict.fromkeys(atoms))
    return BeliefSet(atoms, _worlds(clauses, atoms))


def _worlds(clauses, atoms):
    """All worlds over `atoms` satisfying the clauses.

    Unit-determined atoms are fixed first; only the undetermined rest is
    enumerated, and that rest must stay within MODEL_ATOM_BOUND.
    """
    atoms = list(dict.fromkeys(atoms))
    universe = set(atoms)
    for c in clauses:
        for lit in c.literals:
            if lit.fluent not in universe:
                raise OracleBoundExceeded(
                    f"clause atom {format_term(lit.fluent)} outside the given universe"
                )
    fixed = {}
    residual = [list(c.literals) for c in clauses]
    changed = True
    while changed:
        changed = False
        next_residual = []
        for lits in residual:
            live = []
            satisfied = False
            for lit in lits:
                val = fixed.get(lit.fluent)
                if val is None:
                    live.append(lit)
                elif val == lit.positive:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not live:
                return []
            if len(live) == 1:
                fixed[live[0].fluent] = live[0].positive
                changed = True
            else:
                next_residual.append(live)
        residual = next_residual
    free = [a for a in atoms if a not in fixed]
    if len(free) > MODEL_ATOM_BOUND:
        raise OracleBoundExceeded(
            f"{len(free)} undetermined atoms exceed the enumeration bound of {MODEL_ATOM_BOUND}"
        )
    base = frozenset(a for a, v in fixed.items() if v)
    worlds = []
    for values in itertools.product((False, True), repeat=len(free)):
        world = frozenset(itertools.chain(base, (a for a, v in zip(free, values) if v)))
        if all(
            any(l.positive == (l.fluent in world) for l in lits) for lits in residual
        ):
            worlds.append(world)
    return worlds


def _assignment_masks(n):
    masks = []
    for i in range(n):
        m = 0
        for j in range(1 << n):
            if (j >> i) & 1:
                m |= 1 << j
        masks.append(m)
    return masks


def reference_prime_implicates(clauses, atoms):
    """Prime implicates by definition: enumerate every clause over the
    atoms (empty clause included), keep the entailed ones, then keep the
    subset-minimal of those. Bounded to REFERENCE_ATOM_BOUND atoms."""
    atoms = list(dict.fromkeys(atoms))
    n = len(atoms)
    if n > REFERENCE_ATOM_BOUND:
        raise OracleBoundExceeded(
            f"{n} atoms exceed the reference enumeration bound of {REFERENCE_ATOM_BOUND}"
        )
    pos = _assignment_masks(n)
    full = (1 << (1 << n)) - 1
    index = {a: i for i, a in enumerate(atoms)}

    def clause_mask(signs):
        m = 0
        for i, s in enumerate(signs):
            if s == 1:
                m |= pos[i]
            elif s == -1:
                m |= full & ~pos[i]
        return m

    cs_mask = full
    for c in clauses:
        signs = [0] * n
        for lit in c.literals:
            signs[index[lit.fluent]] = 1 if lit.positive else -1
        cs_mask &= clause_mask(tuple(signs))

    entailed = set()
    for signs in itertools.product((0, 1, -1), repeat=n):
        if cs_mask & ~clause_mask(signs) == 0:
            entailed.add(signs)

    prime = []
    for signs in entailed:
        minimal = True
        for i, s in enumerate(signs):
            if s != 0:
                weaker = signs[:i] + (0,) + signs[i + 1 :]
                if weaker in entailed:
                    minimal = False
                    break
        if minimal:
            lits = sorted(
                (Literal(atoms[i], s == 1) for i, s in enumerate(signs) if s != 0),
                key=lambda l: l.key,
            )
            prime.append(Clause(tuple(lits)))
    return PIList(prime)


class BeliefSet:
    """A fixed atom universe plus the set of worlds still considered
    possible. Instances are immutable; extension builds a new one."""

    __slots__ = ("universe", "worlds")

    def __init__(self, universe, worlds):
        self.universe = tuple(dict.fromkeys(universe))
        self.worlds = frozenset(worlds)

    def by_pred(self):
        table = {}
        for a in self.universe:
            table.setdefault((a.functor, len(a.args)), []).append(a)
        return table

    def extend(self, atoms):
        """Add atoms to the universe, splitting every world over the
        genuinely new ones (their truth is unknown)."""
        have = set(self.universe)
        new = [a for a in dict.fromkeys(atoms) if a not in have]
        if not new:
            return self
        if len(new) > MODEL_ATOM_BOUND:
            raise OracleBoundExceeded(f"universe extension by {len(new)} atoms is too large")
        if len(self.worlds) << len(new) > WORLD_BOUND:
            raise OracleBoundExceeded("world set would exceed the enumeration bound")
        worlds = set()
        for w in self.worlds:
            for values in itertools.product((False, True), repeat=len(new)):
                worlds.add(w | frozenset(a for a, v in zip(new, values) if v))
        return BeliefSet(self.universe + tuple(new), worlds)

    def satisfies_all(self, clauses):
        """True when every world satisfies every given ground clause."""
        return all(clause_true(c, w) for w in self.worlds for c in clauses)


def initial_beliefs(pilist, universe=None):
    """Belief set for an initial state; the universe defaults to the
    atoms the state mentions."""
    if universe is None:
        universe = [lit.fluent for c in pilist for lit in c.literals]
    return models(pilist, universe)


def _clause_solutions(pclause, world, by_pred, aux, bindings):
    """Groundings making one property clause true in one world."""
    for lit in pclause.fluents:
        f = apply_subst(lit.fluent, bindings)
        if f.ground:
            if lit.positive == (f in world):
                yield bindings
            continue
        if lit.positive:
            candidates = [
                a for a in world if a.functor == f.functor and len(a.args) == len(f.args)
            ]
        else:
            candidates = [
                a for a in by_pred.get((f.functor, len(f.args)), ()) if a not in world
            ]
        for a in candidates:
            u = unify(f, a, bindings)
            if u is not None:
                yield u
    for atom in pclause.aux:
        yield from solve_under(aux, atom, bindings)


def _property_solutions(prop, world, by_pred, aux, bindings=None):
    def rec(i, b):
        if i == len(prop.clauses):
            yield b
            return
        for b2 in _clause_solutions(prop.clauses[i], world, by_pred, aux, b):
            yield from rec(i + 1, b2)

    yield from rec(0, {} if bindings is None else bindings)


def property_holds(prop, world, by_pred, aux, bindings=None):
    for _ in _property_solutions(prop, world, by_pred, aux, bindings):
        return True
    return False


def _ground_meaning(case, sol):
    """Instantiate a sensor case's meaning; None when not fully ground."""
    out = []
    for c in case.meaning:
        lits = tuple(Literal(apply_subst(l.fluent, sol), l.positive) for l in c.literals)
        if not all(l.fluent.ground for l in lits):
            return None
        out.append(Clause(lits))
    return out


def progress_beliefs(beliefs, spec, action, aux=None):
    """Progress every world through a ground action.

    Per world: find the effect cases whose precondition and condition
    hold; exactly one must, with ground effects. Worlds breaking that are
    reported in `anomalies` as (world, case_count) pairs (count -1 for
    non-ground effects) and dropped. Returns (new BeliefSet, anomalies).

    Condition and precondition atoms must already be in the universe;
    effect atoms may be new and extend it.
    """
    aux = aux or EMPTY_AUX
    theta0 = unify(spec.head, action)
    if theta0 is None:
        raise ValueError(f"action {format_term(action)} does not match the spec head")
    by_pred = beliefs.by_pred()
    staged = {}
    anomalies = []
    new_atoms = []
    for w in beliefs.worlds:
        options = set()
        nonground = False
        for idx, case in enumerate(spec.cases):
            for pre_sol in _property_solutions(spec.precond, w, by_pred, aux, theta0):
                for sol in _property_solutions(case.cond, w, by_pred, aux, pre_sol):
                    effects = tuple(
                        Literal(apply_subst(l.fluent, sol), l.positive)
                        for l in case.effects
                    )
                    if not all(e.fluent.ground for e in effects):
                        nonground = True
                        break
                    options.add(
                        (idx, frozenset((e.fluent, e.positive) for e in effects))
                    )
                if nonground:
                    break
            if nonground:
                break
        if nonground:
            anomalies.append((w, -1))
            continue
        if len(options) != 1:
            anomalies.append((w, len(options)))
            continue
        _, chosen = next(iter(options))
        effects = [Literal(f, p) for f, p in chosen]
        staged[w] = effects
        new_atoms.extend(f for f, _ in chosen)
    extended = beliefs.extend(new_atoms)
    base_universe = frozenset(beliefs.universe)
    worlds = set()
    for ext in extended.worlds:
        effects = staged.get(ext & base_universe)
        if effects is None:
            continue
        adds = frozenset(e.fluent for e in effects if e.positive)
        dels = {e.fluent for e in effects if not e.positive}
        worlds.add((ext - dels) | adds)
    return BeliefSet(extended.universe, worlds), anomalies


def filter_by_sensing(beliefs, axiom, observed, aux=None):
    """Keep the worlds consistent with an observed sensing result: some
    case for that result has both its index and its meaning true there."""
    aux = aux or EMPTY_AUX
    by_pred = beliefs.by_pred()
    cases = [c for c in axiom.cases if c.result == observed]
    new_atoms = []
    for w in beliefs.worlds:
        for case in cases:
            for sol in _property_solutions(case.index, w, by_pred, aux):
                instance = _ground_meaning(case, sol)
                if instance is not None:
                    for c in instance:
                        new_atoms.extend(l.fluent for l in c.literals)
    extended = beliefs.extend(new_atoms)
    by_pred = extended.by_pred()
    worlds = set()
    for w in extended.worlds:
        keep = False
        for case in cases:
            for sol in _property_solutions(case.index, w, by_pred, aux):
                instance = _ground_meaning(case, sol)
                if instance is not None and all(clause_true(c, w) for c in instance):
                    keep = True
                    break
            if keep:
                break
        if keep:
            worlds.add(w)
    return BeliefSet(extended.universe, worlds)
