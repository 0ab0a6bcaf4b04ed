"""Reference implementations for the differential tests of unification,
term order and belief queries.

primelog has one unification routine, `terms.unify_track`, which binds
in place and undoes through a trail, and its belief queries bind on one
store. Before that, `terms.unify` copied the substitution and unified
with a recursive walk, and `pi` enumerated query answers by copying a
dict for every candidate; open terms were ordered by a nested key.
These are kept here, as they were, so the tests can compare the fast
paths with an independent slow path:

- `unify`: the recursive, copying most general unifier. It differs from
  the original in one rule: two ground terms unify iff their keys are
  equal, at every depth, so numerals are equal by value (`01` = `1`);
  the original compared functor text first, so `01 = 1` failed while
  `f(01) = f(1)` succeeded;
- `syntactic_key`: the nested order key of open terms, the reference
  for `terms.flat_key` and `Literal.skey`;
- `entails_clause` / `entails_property`: the dict-copying enumeration,
  built on that `unify`. It differs from the original in two lines: the
  clause's variable names are computed here, where `PropClause` used to
  cache them, and an aux answer that binds a shared variable to a
  variable is reported as a non-ground aux answer, where the original
  failed with an AttributeError.

All of them recurse on nested terms, so they only serve shallow inputs.
"""

from primelog.errors import EngineError
from primelog.terms import (
    _VAR,
    Var,
    _functor_class,
    apply_literal,
    apply_subst,
    format_term,
    occurs,
    variables,
    walk,
)


def syntactic_key(term):
    """A total order key that also covers non-ground terms.

    Agrees with the ground key on ground terms; variables sort after all
    ground terms of the same nesting position, by name.
    """
    if isinstance(term, Var):
        return (_VAR, term.name, 0, ())
    if term.ground:
        return term.key
    cls, val = _functor_class(term.functor)
    return (cls, val, len(term.args), tuple(syntactic_key(a) for a in term.args))


def _unify_into(t1, t2, bindings):
    t1 = walk(t1, bindings)
    t2 = walk(t2, bindings)
    if isinstance(t1, Var):
        if isinstance(t2, Var) and t2.name == t1.name:
            return True
        if occurs(t1.name, t2, bindings):
            return False
        bindings[t1.name] = t2
        return True
    if isinstance(t2, Var):
        if occurs(t2.name, t1, bindings):
            return False
        bindings[t2.name] = t1
        return True
    if t1.ground and t2.ground:
        return t1.key == t2.key
    if t1.functor != t2.functor or len(t1.args) != len(t2.args):
        return False
    for a, b in zip(t1.args, t2.args):
        if not _unify_into(a, b, bindings):
            return False
    return True


def unify(t1, t2, bindings=None):
    """Most general unifier of two terms (with the occurs check), or None.
    `bindings` is copied, not mutated; the result is idempotent."""
    out = {} if bindings is None else dict(bindings)
    if not _unify_into(t1, t2, out):
        return None
    for name in out:
        out[name] = apply_subst(out[name], out)
    return out


def _subst_signature(bindings, names):
    sig = []
    for n in names:
        t = bindings.get(n)
        if t is not None:
            sig.append((n, syntactic_key(apply_subst(t, bindings))))
    return tuple(sig)


def _cover(state_lits, i, query_lits, bindings):
    if i == len(state_lits):
        yield bindings
        return
    target = state_lits[i]
    for q in query_lits:
        if q.positive != target.positive:
            continue
        u = unify(q.fluent, target.fluent, bindings)
        if u is None:
            continue
        yield from _cover(state_lits, i + 1, query_lits, u)


def entails_clause(state, pclause, aux, bindings=None):
    base = {} if bindings is None else bindings
    if state.inconsistent:
        raise EngineError("cannot query an inconsistent belief state")
    names = tuple(sorted(pclause.variables()))
    seen = set()

    def emit(b):
        sig = _subst_signature(b, names)
        if sig in seen:
            return False
        seen.add(sig)
        return True

    fluents = [apply_literal(l, base) for l in pclause.fluents]
    if len(fluents) == 1:
        lit = fluents[0]
        f = lit.fluent
        for unit in state.units_matching(f, lit.positive):
            u = unify(f, unit.literals[0].fluent, base)
            if u is not None and emit(u):
                yield u
    elif len(fluents) > 1:
        limit = len(fluents)
        for cand in state.clauses:
            if len(cand) > limit:
                break
            for u in _cover(cand.literals, 0, fluents, base):
                if emit(u):
                    yield u
    for atom in pclause.aux:
        shared = None
        for sol in aux.solve(apply_subst(atom, base), base):
            if shared is None:
                shared = variables(atom) & variables([l.fluent for l in pclause.fluents])
            for name in shared:
                val = sol.get(name)
                if val is not None:
                    val = apply_subst(val, sol)
                if val is None or isinstance(val, Var) or not val.ground:
                    raise EngineError(
                        f"non-ground aux answer for {format_term(atom)} "
                        f"on variable {name} shared with fluent literals"
                    )
            if emit(sol):
                yield sol


def entails_property(state, prop, aux, bindings=None):
    base = {} if bindings is None else bindings

    def rec(i, b):
        if i == len(prop.clauses):
            yield b
            return
        for b2 in entails_clause(state, prop.clauses[i], aux, b):
            yield from rec(i + 1, b2)

    yield from rec(0, base)
