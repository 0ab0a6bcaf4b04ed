"""The SLD resolution core shared by the interpreter and the aux database.

One iterative machine resolves definite clauses in Prolog clause order,
leftmost goal first, with cut and the built-ins: a binding store undone
through a trail, a stack of clause choicepoints, and the goal list as a
linked list of (goal, rest) pairs. `Interpreter` extends it with the
agent goals and the execution barrier; `AuxDB.solve` drives a machine of
its own to derive aux atoms inside belief queries. Derivation depth is
bounded by the step budget, never by Python's stack.
"""

from .errors import BarrierError, BudgetExceeded, EngineError
from .model import CUT, CallGoal, _mapping_for, goal_variables, rename_goal
from .terms import NIL, Term, Var, apply_subst, format_term, undo, unify_track, variables, walk

BUILTINS = {("true", 0), ("fail", 0), ("=", 2), ("neq", 2), ("memberchk", 2), ("nonmember", 2)}

FAILED = object()


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


class CutGoal:
    """A cut, bound to the choicepoint depth it commits to."""

    __slots__ = ("depth",)

    def __init__(self, depth):
        self.depth = depth


class ExitNote:
    """Trace-only marker: reaching it means the recorded call succeeded.
    It costs no resolution step, so tracing leaves the step count alone."""

    __slots__ = ("atom",)

    def __init__(self, atom):
        self.atom = atom


class ClauseCP:
    __slots__ = ("atom", "clauses", "idx", "rest", "mark", "barrier", "depth")

    def __init__(self, atom, clauses, rest, mark, barrier, depth):
        self.atom = atom
        self.clauses = clauses
        self.idx = 0
        self.rest = rest
        self.mark = mark
        self.barrier = barrier
        self.depth = depth


class Machine:
    """Resolution of CallGoals against a program and an aux database.

    `fresh` yields the suffixes that rename clause variables apart, so
    every machine sharing one name space must share one iterator. Every
    resolution step costs one unit of `budget`. `barrier` counts the
    irrevocable steps taken so far: resuming a choicepoint created before
    the latest one raises BarrierError. A plain machine never takes one,
    has no observer and reports no events.
    """

    observer = None
    out_of_steps = "aux derivation budget exceeded"

    def __init__(self, program, aux, budget, fresh):
        self.program = program
        self.aux = aux
        self.steps = budget
        self.barrier = 0
        self.bindings = {}
        self.trail = []
        self.cps = []
        self._fresh = fresh
        self._clause_names = {}

    def _note(self, kind, *args):
        """Event hook; `Interpreter` reports through it."""

    def _tick(self):
        self.steps -= 1
        if self.steps < 0:
            raise BudgetExceeded(self.out_of_steps)

    def resolve(self, goals):
        """Resolve a goal list to its next solution: True when the list
        is exhausted, False when no choicepoint is left. Pass FAILED to
        backtrack into the previous solution for another one."""
        dispatch = self._dispatch
        while True:
            if goals is FAILED:
                goals = self._backtrack()
                if goals is FAILED:
                    return False
            if goals is None:
                return True
            goal, rest = goals
            if goal.__class__ is not ExitNote:
                self._tick()
            handler = dispatch.get(type(goal))
            if handler is None:
                raise EngineError(f"unexpected goal object {goal!r}")
            goals = handler(self, goal, rest)

    def _backtrack(self):
        cps = self.cps
        while cps:
            cp = cps[-1]
            if self.barrier > cp.barrier:
                raise BarrierError("backtracked across executed action")
            undo(self.bindings, self.trail, cp.mark)
            self._tick()
            if type(cp) is ClauseCP:
                self._note("redo", cp.atom)
                goals = self._advance_clauses(cp)
            else:
                self._note("redo", cp.subject)
                goals = cp.advance(self, cp)
            if goals is not FAILED:
                return goals
        return FAILED

    def _dispatch_call(self, goal, rest):
        atom = goal.atom
        pred = (atom.functor, len(atom.args))
        if pred in BUILTINS:
            if self._builtin(atom):
                return rest
            self._note("fail", atom)
            return FAILED
        if self.program.defines(*pred):
            clauses = self.program.clauses_for(*pred)
        elif self.aux.defines(*pred):
            clauses = self.aux.candidates(apply_subst(atom, self.bindings))
        else:
            raise EngineError(f"undefined predicate {pred[0]}/{pred[1]}")
        self._note("call", atom)
        cp = ClauseCP(atom, clauses, rest, len(self.trail), self.barrier, len(self.cps))
        self.cps.append(cp)
        return self._advance_clauses(cp)

    def _builtin(self, goal):
        """Run a builtin atom in place on the binding store. On success its
        bindings are on the trail; on failure the store and the trail are
        as they were. Every builtin is deterministic: `=` unifies, `neq` is
        non-unifiability (its trial bindings are always undone),
        `memberchk` keeps the bindings of the first matching element,
        `nonmember` succeeds when no element unifies. Both list builtins
        check that the whole spine is a proper list before trying any
        element."""
        name = goal.functor
        if name == "true":
            return True
        if name == "fail":
            return False
        bindings = self.bindings
        trail = self.trail
        mark = len(trail)
        left, right = goal.args
        if name == "=":
            if unify_track(left, right, bindings, trail, left_first=True):
                return True
            undo(bindings, trail, mark)
            return False
        if name == "neq":
            unifies = unify_track(left, right, bindings, trail, left_first=True)
            undo(bindings, trail, mark)
            return not unifies
        items = []
        tail = walk(right, bindings)
        while tail.__class__ is Term and tail.functor == "." and len(tail.args) == 2:
            items.append(tail.args[0])
            tail = walk(tail.args[1], bindings)
        if tail.__class__ is Var or tail.key != NIL.key:
            raise EngineError(
                f"{format_term(apply_subst(goal, bindings))}: "
                "second argument is not a proper list"
            )
        for item in items:
            if unify_track(left, item, bindings, trail, left_first=True):
                if name == "memberchk":
                    return True
                undo(bindings, trail, mark)
                return False
            undo(bindings, trail, mark)
        return name == "nonmember"

    def _advance_clauses(self, cp):
        bindings = self.bindings
        trail = self.trail
        while cp.idx < len(cp.clauses):
            clause = cp.clauses[cp.idx]
            cp.idx += 1
            head, body, linear = self._activate_clause(clause, cp.depth)
            if not unify_track(cp.atom, head, bindings, trail, linear):
                undo(bindings, trail, cp.mark)
                continue
            goals = cp.rest
            if self.observer is not None:
                goals = (ExitNote(cp.atom), goals)
            for g in reversed(body):
                goals = (g, goals)
            return goals
        self.cps.pop()
        self._note("fail", cp.atom)
        return FAILED

    def _activate_clause(self, clause, depth):
        """Fresh-variable copy of a clause, with cut markers bound to the
        choicepoint they commit to, and the renamed names of the variables
        that occur once in its head."""
        if not clause.body and clause.head.ground:
            return clause.head, (), ()
        cached = self._clause_names.get(id(clause))
        if cached is None:
            names = variables(clause.head, set())
            for g in clause.body:
                if g is not CUT:
                    goal_variables(g, names)
            cached = self._clause_names[id(clause)] = (
                tuple(sorted(names)),
                _head_singletons(clause.head),
            )
        names, singletons = cached
        if not names:
            body = tuple(CutGoal(depth) if g is CUT else g for g in clause.body)
            return clause.head, body, ()
        mapping = _mapping_for(names, next(self._fresh))
        body = tuple(
            CutGoal(depth) if g is CUT else rename_goal(g, mapping) for g in clause.body
        )
        linear = frozenset(mapping[n].name for n in singletons)
        return apply_subst(clause.head, mapping), body, linear

    def _cut(self, goal, rest):
        del self.cps[goal.depth :]
        return rest

    def _exit(self, goal, rest):
        self._note("exit", goal.atom)
        return rest

    _dispatch = {CallGoal: _dispatch_call, CutGoal: _cut, ExitNote: _exit}
