"""The auxiliary predicates of a domain, and their derivation.

Aux predicates are plain definite clauses (facts and rules over other aux
predicates and the built-ins, no cut, no action or query atoms). The
interpreter resolves them like program predicates when a program body
calls them; `solve` derives them on the same machine when the belief
engine meets them in preconditions, effect conditions, sensor indexes
and `?` queries.

Predicates defined entirely by ground facts are indexed on their first
argument, which is what makes adjacency lookups on large grids cheap;
any other predicate keeps plain textual clause order. A ground goal over
such a fact table is answered by looking its key up in the index, with
no machine: one answer per equal fact, in the order the machine would
give them.
"""

import itertools

from .model import CallGoal, Program
from .sld import FAILED, Machine
from .terms import Var, apply_subst, ground_equal, variables

DEFAULT_AUX_BUDGET = 1_000_000

_NO_PROGRAM = Program(())


class AuxDB:
    def __init__(self, program, budget=DEFAULT_AUX_BUDGET):
        self.program = program
        self.budget = budget
        self._fresh = map("a{}".format, itertools.count(1))
        self._fact_index = {}
        for (functor, arity), clauses in program.index.items():
            if arity == 0:
                continue
            if all(not c.body and c.head.ground for c in clauses):
                index = {}
                for c in clauses:
                    index.setdefault(c.head.args[0].key, []).append(c)
                self._fact_index[(functor, arity)] = index

    def defines(self, functor, arity):
        return self.program.defines(functor, arity)

    def candidates(self, goal):
        pred = (goal.functor, len(goal.args))
        index = self._fact_index.get(pred)
        if index is not None:
            first = goal.args[0]
            if not isinstance(first, Var) and first.ground:
                try:
                    return index.get(first.key, ())
                except RecursionError:  # keys too deep for one comparison
                    return [
                        c
                        for facts in index.values()
                        if ground_equal(facts[0].head.args[0], first)
                        for c in facts
                    ]
        return self.program.clauses_for(*pred)

    def solve(self, goal, bindings=None):
        """Enumerate the answers to one aux atom (or builtin) in SLD order.

        Each answer is an idempotent substitution extending `bindings` by
        the atom's own variables. The derivation runs on a machine of its
        own, renaming clause variables apart as `X~aN`; it raises
        BudgetExceeded after `budget` resolution steps. A ground atom over
        an indexed fact table needs no machine and takes no step: it has
        one answer, a copy of `bindings`, per fact equal to it.
        """
        base = {} if bindings is None else bindings
        goal = apply_subst(goal, base)
        if goal.ground and (goal.functor, len(goal.args)) in self._fact_index:
            for fact in self.candidates(goal):
                try:
                    equal = fact.head.key == goal.key
                except RecursionError:  # keys too deep for one comparison
                    equal = ground_equal(fact.head, goal)
                if equal:
                    yield dict(base)
            return
        names = variables(goal)
        machine = Machine(_NO_PROGRAM, self, self.budget, self._fresh)
        found = machine.resolve((CallGoal(goal), None))
        while found:
            store = machine.bindings
            new = {n: apply_subst(store[n], store) for n in names if n in store}
            answer = {n: apply_subst(t, new) for n, t in base.items()}
            answer.update(new)
            yield answer
            found = machine.resolve(FAILED)


_EMPTY_AUX = AuxDB(_NO_PROGRAM)


def empty_aux():
    """An AuxDB with no clauses (for domains without aux predicates)."""
    return _EMPTY_AUX
