"""Validated in-memory form of domain and program files.

These are dumb records; the parser builds and validates them, the engine
and interpreter consume them. Properties keep their clause-internal split
into fluent literals and aux atoms because entailment treats the two
parts differently.
"""

from .errors import EngineError
from .terms import Var, apply_literal, apply_subst, format_literal, format_term, variables


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


class Cut:
    __slots__ = ()

    def __repr__(self):
        return "!"


CUT = Cut()


class CallGoal:
    """An ordinary program/aux atom in a clause body."""

    __slots__ = ("atom",)

    def __init__(self, atom):
        self.atom = atom

    def __repr__(self):
        return repr(self.atom)


class DoGoal:
    """`do(Action)`: execute an action against the environment."""

    __slots__ = ("action",)

    def __init__(self, action):
        self.action = action

    def __repr__(self):
        return f"do({format_term(self.action)})"


class QueryGoal:
    """`?(Property)`: ask whether the belief state entails a property."""

    __slots__ = ("property",)

    def __init__(self, property):
        self.property = property

    def __repr__(self):
        return f"?({self.property!r})"


class SenseGoal:
    """`?(s(X))` for a declared sense fluent: trigger sensing, bind X."""

    __slots__ = ("functor", "arg")

    def __init__(self, functor, arg):
        self.functor = functor
        self.arg = arg

    def __repr__(self):
        return f"?({self.functor}({format_term(self.arg)}))"


def _head_singletons(head):
    """Names of the variables that occur exactly once in a clause head."""
    counts = {}
    stack = [head]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            counts[t.name] = counts.get(t.name, 0) + 1
        elif not t.ground:
            stack.extend(t.args)
    return tuple(n for n, k in counts.items() if k == 1)


class ProgramClause:
    __slots__ = ("head", "body", "_plan")

    def __init__(self, head, body):
        self.head = head
        self.body = tuple(body)
        self._plan = None

    def plan(self):
        """How to rename the clause apart, worked out on first use: its
        variable names, sorted, and the names of its head singletons."""
        if self._plan is None:
            names = variables(self.head, set())
            for g in self.body:
                goal_variables(g, names)
            self._plan = (tuple(sorted(names)), _head_singletons(self.head))
        return self._plan


class Program:
    """Program clauses indexed by head functor/arity, textual order kept."""

    def __init__(self, clauses):
        self.clauses = tuple(clauses)
        self.index = {}
        for c in self.clauses:
            self.index.setdefault((c.head.functor, len(c.head.args)), []).append(c)

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
        objects,
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
        self.objects = dict(objects)          # sort -> tuple of ground terms
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
    """Add the variable names of one body goal to `acc`; a cut has none."""
    if isinstance(goal, CallGoal):
        variables(goal.atom, acc)
    elif isinstance(goal, DoGoal):
        variables(goal.action, acc)
    elif isinstance(goal, QueryGoal):
        goal.property.variables(acc)
    elif isinstance(goal, SenseGoal):
        variables(goal.arg, acc)
    return acc


def rename_goal(goal, mapping):
    """Fresh-variable copy of one body goal (not a cut)."""
    if isinstance(goal, CallGoal):
        return CallGoal(apply_subst(goal.atom, mapping))
    if isinstance(goal, DoGoal):
        return DoGoal(apply_subst(goal.action, mapping))
    if isinstance(goal, QueryGoal):
        return QueryGoal(resolve_property(goal.property, mapping))
    if isinstance(goal, SenseGoal):
        return SenseGoal(goal.functor, apply_subst(goal.arg, mapping))
    raise EngineError(f"unexpected body goal {goal!r}")
