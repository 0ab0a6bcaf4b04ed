"""Validated in-memory form of domain and program files.

These are dumb records; the parser builds and validates them, the engine
and interpreter consume them. Properties keep their clause-internal split
into fluent literals and aux atoms because entailment treats the two
parts differently. A body goal is the term the program wrote (a call,
`do(A)`, sensing `?(s(X))`, the cut `CUT`) or a query's StateProperty.
"""

from .terms import (
    Term,
    Var,
    apply_literal,
    apply_subst,
    format_literal,
    format_term,
    variables,
)


class PropClause:
    """One disjunction inside a state property: fluent literals plus
    positive aux atoms, both in source order."""

    __slots__ = ("fluents", "aux")

    def __init__(self, fluents, aux=()):
        self.fluents = tuple(fluents)
        self.aux = tuple(aux)

    def variables(self, acc=None):
        return variables(self.aux, variables([l.fluent for l in self.fluents], acc))

    def __repr__(self):
        parts = [format_literal(l) for l in self.fluents]
        parts += [format_term(a) for a in self.aux]
        if len(parts) == 1:
            return parts[0]
        return "[" + ",".join(parts) + "]"


class StateProperty:
    """A conjunction of PropClauses (the shape `?(...)` takes)."""

    __slots__ = ("clauses",)

    def __init__(self, clauses):
        self.clauses = tuple(clauses)

    def variables(self, acc=None):
        if acc is None:
            acc = set()
        for c in self.clauses:
            c.variables(acc)
        return acc

    def __repr__(self):
        return "[" + ",".join(repr(c) for c in self.clauses) + "]"


EMPTY_PROPERTY = StateProperty(())


class ActionCase:
    """One conditional effect: if `cond` holds, `effects` are brought about."""

    __slots__ = ("cond", "effects")

    def __init__(self, cond, effects):
        self.cond = cond
        self.effects = tuple(effects)


class ActionSpec:
    """Head term, precondition property, and effect cases of one action."""

    __slots__ = ("head", "precond", "cases")

    def __init__(self, head, precond, cases):
        self.head = head
        self.precond = precond
        self.cases = tuple(cases)


class SensorCase:
    """One sensing outcome: observed `result`, locating `index` (a property
    of unit clauses), and the `meaning` adjoined to the belief (a list of
    fluent Clauses, units or disjunctions)."""

    __slots__ = ("result", "index", "meaning")

    def __init__(self, result, index, meaning):
        self.result = result
        self.index = index
        self.meaning = tuple(meaning)


def _index_literal(index):
    """The first ground unit fluent literal of a sensor index, or None when
    the index has none or contains an aux atom."""
    found = None
    for c in index.clauses:
        if c.aux:
            return None
        if found is None and len(c.fluents) == 1 and c.fluents[0].ground:
            found = c.fluents[0]
    return found


class SensorAxiom:
    """All outcomes of one unary sense fluent.

    Cases are indexed by (result, index literal): the first ground unit
    fluent literal of the case's index. Such an index can only be
    entailed when that literal is a unit clause of the belief. Cases with
    no index literal (schematic ones, or ones with aux atoms) are kept on
    a scan list per result.
    """

    __slots__ = ("functor", "cases", "results", "_lookup", "_scan")

    def __init__(self, functor, cases):
        self.functor = functor
        self.cases = tuple(cases)
        seen = []
        for c in self.cases:
            if c.result not in seen:
                seen.append(c.result)
        self.results = tuple(seen)
        # result key -> {(functor, arity, positive) -> {literal key -> positions}}
        self._lookup = {}
        self._scan = {}  # result key -> positions
        for i, c in enumerate(self.cases):
            rk = c.result.key
            lit = _index_literal(c.index)
            if lit is None:
                self._scan.setdefault(rk, []).append(i)
            else:
                f = lit.fluent
                by_pred = self._lookup.setdefault(rk, {})
                by_lit = by_pred.setdefault((f.functor, len(f.args), lit.positive), {})
                by_lit.setdefault(lit.key, []).append(i)

    def candidates(self, observed, state):
        """Positions, in case order, of the cases for the ground result
        `observed` whose index `state` may entail: every case whose index
        literal is a unit clause of the state, and every scanned case."""
        rk = observed.key
        found = list(self._scan.get(rk, ()))
        for pred, by_lit in self._lookup.get(rk, {}).items():
            for unit in state.units_for(*pred):
                found.extend(by_lit.get(unit.literals[0].key, ()))
        found.sort()
        return found


CUT = Term("!")


class ProgramClause:
    __slots__ = ("head", "body", "_plan")

    def __init__(self, head, body):
        self.head = head
        self.body = tuple(body)
        self._plan = None

    def plan(self):
        """The clause's variable names, which a try renames apart,
        collected on first use."""
        if self._plan is None:
            names = variables(self.head, set())
            for g in self.body:
                goal_variables(g, names)
            self._plan = tuple(names)
        return self._plan


class Program:
    """Program clauses indexed by head functor/arity, textual order kept.
    Each of `preds`, (functor, arity) pairs, is defined even with no
    clauses, so a call to it fails."""

    def __init__(self, clauses, preds=()):
        self.clauses = tuple(clauses)
        self.index = {}
        for c in self.clauses:
            self.index.setdefault((c.head.functor, len(c.head.args)), []).append(c)
        for pred in preds:
            self.index.setdefault(pred, [])

    def clauses_for(self, functor, arity):
        return self.index.get((functor, arity), ())

    def defines(self, functor, arity):
        return (functor, arity) in self.index


class DomainFile:
    """Everything one `.alpd` file declares."""

    def __init__(
        self,
        fluents,
        actions,
        sensors,
        aux,
        initial,
        action_specs,
        sensor_axioms,
        aux_program,
        warnings=(),
    ):
        self.fluents = dict(fluents)          # functor -> arity
        self.actions = dict(actions)          # functor -> arity
        self.sensors = tuple(sensors)         # functor names (all unary)
        self.aux = dict(aux)                  # functor -> arity
        self.initial = initial                # PIList
        self.action_specs = dict(action_specs)      # (functor, arity) -> ActionSpec
        self.sensor_axioms = dict(sensor_axioms)    # functor -> SensorAxiom
        self.aux_program = aux_program        # Program over aux predicates
        self.warnings = list(warnings)


def _mapping_for(names, suffix):
    return {n: Var(f"{n}~{suffix}") for n in names}


def resolve_property(prop, bindings):
    """A property with `bindings` applied through it: with a machine's
    binding store, so the entailment layer never sees (or copies) the
    store; with a name -> fresh Var mapping, a renamed copy."""
    if not bindings:
        return prop
    return StateProperty(
        PropClause(
            [apply_literal(l, bindings) for l in c.fluents],
            [apply_subst(a, bindings) for a in c.aux],
        )
        for c in prop.clauses
    )


def goal_variables(goal, acc):
    """Add a body goal's variable names to `acc`; a machine's markers have none."""
    if goal.__class__ is StateProperty:
        goal.variables(acc)
    elif goal.__class__ is Term:
        variables(goal, acc)
    return acc


def rename_goal(goal, mapping):
    """Fresh-variable copy of one body goal, a term or a property."""
    if goal.__class__ is StateProperty:
        return resolve_property(goal, mapping)
    return apply_subst(goal, mapping)
