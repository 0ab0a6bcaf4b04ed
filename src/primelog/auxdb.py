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
such a fact table is answered with no machine: the keys of its
arguments, which the terms it was built from already carry, are
compared with those of each fact filed under its first argument's key,
so no key of the goal itself is built. It has one answer per equal
fact, in the order the machine would give them.
"""

import itertools

from .model import Program
from .sld import FAILED, Machine
from .terms import Var, apply_subst, variables

DEFAULT_AUX_BUDGET = 1_000_000

_NO_PROGRAM = Program(())


class AuxDB:
    def __init__(self, program):
        self.program = program
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
                return index.get(first.key, ())
        return self.program.clauses_for(*pred)

    def solve(self, goal):
        """Enumerate the answers to one aux atom (or builtin) in SLD order.

        Each answer is an idempotent substitution of the atom's own
        variables. The derivation runs on a machine of its own, renaming
        clause variables apart as `X~aN`; it raises BudgetExceeded after
        `DEFAULT_AUX_BUDGET` resolution steps. A ground atom over an
        indexed fact table needs no machine and takes no step: it has one
        empty answer per fact whose argument keys equal its own.
        """
        if goal.ground and (goal.functor, len(goal.args)) in self._fact_index:
            keys = [a.key for a in goal.args]
            for fact in self.candidates(goal):
                if [a.key for a in fact.head.args] == keys:
                    yield {}
            return
        names = variables(goal)
        machine = Machine(_NO_PROGRAM, self, DEFAULT_AUX_BUDGET, self._fresh)
        found = machine.resolve((goal, None))
        while found:
            store = machine.bindings
            yield {n: apply_subst(store[n], store) for n in names if n in store}
            found = machine.resolve(FAILED)
