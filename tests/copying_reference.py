"""Reference implementations for the differential tests of unification,
term order and belief queries.

primelog has one unification routine, `terms.unify_track`, which binds
in place and undoes through a trail, and its belief queries bind on one
store. Before that, `terms.unify` copied the substitution and unified
with a recursive walk, and `pi` enumerated query answers by copying a
dict for every candidate; terms were ordered by nested keys (ground
terms by one built when the term was, open terms by one built on
demand). These are kept here, as they were, so the tests can compare the
fast paths with an independent slow path:

- `unify`: the recursive, copying most general unifier. It differs from
  the original in one rule: two ground terms unify iff their keys are
  equal, at every depth, so numerals are equal by value (`01` = `1`);
  the original compared functor text first, so `01 = 1` failed while
  `f(01) = f(1)` succeeded;
- `syntactic_key`: the nested order key of every term, ground or open,
  built here from the term's structure alone: the reference for
  `terms.flat_key`, `Term.key` and the order of `Literal.key`;
- `entails_clause` / `entails_property`: the dict-copying enumeration,
  built on that `unify`. It differs from the original in three lines:
  the clause's variable names are computed here, where `PropClause` used
  to cache them; an aux answer that binds a shared variable to a
  variable is reported as a non-ground aux answer, where the original
  failed with an AttributeError; and a single literal is tried against
  every unit on its predicate and sign, where the original read only the
  first-argument bucket of a ground first argument (a unit outside it
  does not unify, so the answers are the same);
- `general_apply_subst`: `terms.apply_subst` as it was before flat terms
  got a path of their own, one frame per open compound on an explicit
  stack for every term: the reference for that path, and for what
  `apply_subst` shares with its input.

All of them but `general_apply_subst` recurse on nested terms, so they
only serve shallow inputs.
"""

from helpers import solve_under
from primelog.errors import EngineError
from primelog.terms import (
    _NUM,
    _SYM,
    _VAR,
    Term,
    Var,
    apply_literal,
    apply_subst,
    format_term,
    variables,
    walk,
)


def _functor_class(functor):
    if functor.isdigit():
        return _NUM, int(functor)
    return _SYM, functor


def syntactic_key(term):
    """A total order key over ground and non-ground terms alike:
    (class, value, arity, argument keys). Numerals are valued as integers
    and sort before symbols; variables sort after all ground terms of the
    same nesting position, by name.
    """
    if isinstance(term, Var):
        return (_VAR, term.name, 0, ())
    cls, val = _functor_class(term.functor)
    return (cls, val, len(term.args), tuple(syntactic_key(a) for a in term.args))


def occurs(name, term, bindings):
    """True when variable `name` occurs in `term` under `bindings`."""
    stack = [term]
    while stack:
        term = walk(stack.pop(), bindings)
        if isinstance(term, Var):
            if term.name == name:
                return True
        elif not term.ground:
            stack.extend(term.args)
    return False


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
        return syntactic_key(t1) == syntactic_key(t2)
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
        for unit in state.units_for(f.functor, len(f.args), lit.positive):
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
        for sol in solve_under(aux, atom, base):
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


def general_apply_subst(term, bindings):
    """Substitute through a term, resolving chains of bindings, with no
    Python recursion: every open compound gets a frame on an explicit
    stack, an open subterm met twice is rebuilt once, and a compound none
    of whose arguments changed comes back as itself."""
    term = walk(term, bindings)
    if term.__class__ is Var or term.ground or not bindings:
        return term
    built = {}  # id of an open subterm -> what it became
    # One frame per compound being rebuilt:
    # [term, new args so far, changed, iterator over its args, original arg].
    frame = [term, [], False, iter(term.args), term]
    stack = []
    while True:
        args = frame[1]
        for orig in frame[3]:
            a = orig
            while a.__class__ is Var:
                nxt = bindings.get(a.name)
                if nxt is None:
                    break
                a = nxt
            if a.__class__ is not Var and not a.ground:
                done = built.get(id(a))
                if done is None:
                    stack.append(frame)
                    frame = [a, [], False, iter(a.args), orig]
                    break
                a = done
            if a is not orig:
                frame[2] = True
            args.append(a)
        else:
            t = frame[0]
            new = Term(t.functor, tuple(args)) if frame[2] else t
            if not stack:
                return new
            built[id(t)] = new
            parent = stack.pop()
            if new is not frame[4]:
                parent[2] = True
            parent[1].append(new)
            frame = parent
