"""The SLD resolution core shared by the interpreter and the aux database.

One iterative machine resolves definite clauses in Prolog clause order,
leftmost goal first, with cut and the built-ins: a binding store undone
through a trail, a stack of choicepoints, and the goal list as a linked
list of (goal, rest) pairs. A call is unified with each clause head as
parsed, its variables renamed apart through one mapping of names to
fresh variables, so no renamed copy of a head is built; a body is
renamed through the same mapping when its head unifies. `Interpreter`
extends the machine with the agent goals and their commits;
`AuxDB.solve` drives a machine of its own to derive aux atoms inside
belief queries. Derivation depth is bounded by the step budget, never
by Python's stack.
"""

from .errors import BarrierError, BudgetExceeded, EngineError
from .model import CUT, CallGoal, _mapping_for, rename_goal
from .terms import (
    NIL,
    Var,
    apply_subst,
    format_term,
    ground_member,
    list_parts,
    undo,
    unify_head,
    unify_track,
    walk,
)

BUILTINS = {("true", 0), ("fail", 0), ("=", 2), ("neq", 2), ("memberchk", 2), ("nonmember", 2)}

FAILED = object()


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


class ChoicePoint:
    """One alternative the machine can resume: the clauses of a call or
    the answers of a `?`. `advance(machine, cp)` takes the next
    alternative from `it` and returns the goal list to continue with, or
    FAILED when none is left. `subject` names it in the trace; `rest` is
    the goal list after it; `mark` and `depth` are the trail length and
    the machine's choicepoint depth, dead ones included, at the time it
    was pushed."""

    __slots__ = ("advance", "it", "subject", "rest", "mark", "depth")

    def __init__(self, advance, it, subject, rest, mark, depth):
        self.advance = advance
        self.it = it
        self.subject = subject
        self.rest = rest
        self.mark = mark
        self.depth = depth


class Machine:
    """Resolution of CallGoals against a program and an aux database.

    `fresh` yields the suffixes that rename clause variables apart, so
    every machine sharing one name space must share one iterator. Every
    resolution step costs one unit of `budget`. `cps` holds the live
    choicepoints; `dead` counts those below them that an irrevocable
    step has dropped, which keep their depths for cuts, and backtracking
    past the live ones into them raises BarrierError. A plain machine
    never takes such a step, has no observer and reports no events.
    """

    observer = None
    out_of_steps = "aux derivation budget exceeded"

    def __init__(self, program, aux, budget, fresh):
        self.program = program
        self.aux = aux
        self.steps = budget
        self.bindings = {}
        self.trail = []
        self.cps = []
        self.dead = 0
        self._fresh = fresh

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
            undo(self.bindings, self.trail, cp.mark)
            self._tick()
            self._note("redo", cp.subject)
            goals = self._resume(cp)
            if goals is not FAILED:
                return goals
        if self.dead:
            raise BarrierError("backtracked across executed action")
        return FAILED

    def _push(self, advance, it, subject, rest):
        """Push a choicepoint and take its first alternative."""
        cps = self.cps
        cp = ChoicePoint(advance, it, subject, rest, len(self.trail), self.dead + len(cps))
        cps.append(cp)
        return self._resume(cp)

    def _resume(self, cp):
        """The next alternative of the top choicepoint; when none is left,
        it is popped and reported failed."""
        goals = cp.advance(self, cp)
        if goals is FAILED:
            self.cps.pop()
            self._note("fail", cp.subject)
        return goals

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
        return self._push(Machine._advance_clauses, iter(clauses), atom, rest)

    def _builtin(self, goal):
        """Run a builtin atom in place on the binding store. On success its
        bindings are on the trail; on failure the store and the trail are
        as they were. Every builtin is deterministic: `=` unifies, `neq` is
        non-unifiability (its trial bindings are always undone),
        `memberchk` keeps the bindings of the first matching element,
        `nonmember` succeeds when no element unifies. Both list builtins
        check that the whole spine is a proper list before trying any
        element. Two ground terms unify iff their keys are equal, so a
        ground element over a ground list is decided by key by
        `ground_member`, with no unification and nothing on the trail."""
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
        element = walk(left, bindings)
        if element.__class__ is not Var and element.ground:
            cell = walk(right, bindings)
            if cell.__class__ is not Var and cell.ground:
                found = ground_member(cell, element.key)
                if found is not None:
                    return found == (name == "memberchk")
        items, tail = list_parts(right, bindings)
        if tail.__class__ is Var or tail != NIL:
            raise EngineError(
                f"{format_term(goal, bindings)}: second argument is not a proper list"
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
        """Try the call's remaining clauses in order. Each try renames the
        clause apart by one mapping of its variable names and unifies the
        call with the head as parsed, with no renamed copy of it; the body
        of the first that unifies is renamed through the same mapping, its
        cuts bound to this choicepoint's depth."""
        bindings = self.bindings
        trail = self.trail
        for clause in cp.it:
            names = clause.plan()
            mapping = _mapping_for(names, next(self._fresh)) if names else None
            if not unify_head(cp.subject, clause.head, mapping, bindings, trail):
                undo(bindings, trail, cp.mark)
                continue
            goals = cp.rest
            if self.observer is not None:
                goals = (ExitNote(cp.subject), goals)
            for g in reversed(clause.body):
                if g is CUT:
                    g = CutGoal(cp.depth)
                elif mapping:
                    g = rename_goal(g, mapping)
                goals = (g, goals)
            return goals
        return FAILED

    def _cut(self, goal, rest):
        if goal.depth < self.dead:
            self.dead = goal.depth
        del self.cps[goal.depth - self.dead :]
        return rest

    def _exit(self, goal, rest):
        self._note("exit", goal.atom)
        return rest

    _dispatch = {CallGoal: _dispatch_call, CutGoal: _cut, ExitNote: _exit}
