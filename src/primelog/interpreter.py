"""Online execution of agent programs against a prime-implicate belief base.

The interpreter is the SLD machine of `sld` (Prolog clause order,
leftmost goal selection, cut, the built-ins) extended with three goal
forms that step outside ordinary resolution: `?(Property)` asks the
belief state, `?(sense(X))` queries the environment and folds the
observation into the belief state, and `do(Action)` executes an action
and progresses the belief state. The last two are terms, run by their
predicates; a query is its StateProperty, run by its class. Aux atoms
inside properties are derived by `AuxDB.solve` on a machine of its own.

Execution is online: once an action has been sent to the environment it
cannot be taken back, so a `do` tries its executions in place and pushes
no choicepoint. Each executed action and sensing event commits: every
choicepoint that exists then, and the action's untried executions, are
dropped and counted in `Machine.dead`, and backtracking into one raises
BarrierError instead of silently recomputing a world that no longer
exists. The commit empties the trail, which only those choicepoints
could undo, and a store that has doubled keeps only the bindings the
goals still to run and the query reach, each bound straight to the end
of its chain of variables, so a run's memory follows what the agent
still needs, not how long it has run. `replay` runs a recorded log as
the same goals.

An attached observer receives every event. Without one, no event text
is ever built, so observation costs nothing when it is off.
"""

import itertools

from .auxdb import AuxDB
from .envs import ReplayEnv
from .errors import BarrierError, EngineError, NondeterministicActionError, PrimelogError
from .model import (
    CUT,
    Program,
    StateProperty,
    _mapping_for,
    goal_variables,
    resolve_property,
)
from .pi import (
    applicable_case_solutions,
    entails_property,
    integrate_sensing,
    update,
)
from .sld import FAILED, CutGoal, ExitNote, Machine
from .terms import (
    Term,
    Var,
    apply_literal,
    apply_subst,
    format_literal,
    format_term,
    unify_track,
    variables,
    walk,
)

DEFAULT_STEP_BUDGET = 10_000_000

# The fewest bindings a commit compacts: below it, a compaction would run
# at almost every commit and cost more time than the memory it frees.
COMPACT_FLOOR = 1024


class AgentState:
    """Everything the agent has committed to so far: the belief state and
    the log of executed actions ("act", action, effects) and observations
    ("sense", sensor, result, index substitution). The action history
    and the sensing record are read off that log."""

    __slots__ = ("belief", "events", "max_belief")

    def __init__(self, belief):
        self.belief = belief
        self.events = []
        self.max_belief = len(belief)

    @property
    def history(self):
        """The executed actions, in order."""
        return [e[1] for e in self.events if e[0] == "act"]

    @property
    def sigma(self):
        """(sensor, result, index substitution) of every observation."""
        return [e[1:4] for e in self.events if e[0] == "sense"]


class Outcome:
    """Result of running a query: final status, answer substitution for the
    query's variables (None on failure), and the agent state reached."""

    __slots__ = ("status", "answer", "state")

    def __init__(self, status, answer, state):
        self.status = status
        self.answer = answer
        self.state = state

    @property
    def succeeded(self):
        return self.status == "success"


def executions(state, spec, aux, theta0):
    """The ways to execute an action in `state`, in precondition solution
    order, starting from the head unifier `theta0`: for each solution, the
    ground action and the effects, which must come out ground, of the one
    case whose condition `state` entails, or None when no case fires; two
    firing cases are a domain-authoring fault and raise."""
    for theta in entails_property(state, spec.precond, aux, theta0):
        act = apply_subst(spec.head, theta)
        if not act.ground:
            raise EngineError(f"unbound action argument in {format_term(act)}")
        cases = applicable_case_solutions(state, spec, aux, theta)
        if len(cases) > 1:
            raise NondeterministicActionError(
                f"action {format_term(act)} has {len(cases)} applicable effect cases"
            )
        effects = None
        if cases:
            index, csol = cases[0]
            effects = tuple(apply_literal(l, csol) for l in spec.cases[index].effects)
            for lit in effects:
                if not lit.ground:
                    raise EngineError(
                        f"effect {format_literal(lit)} of {format_term(act)} "
                        "is not ground after applying the case solution"
                    )
        yield act, effects


class Interpreter(Machine):
    """One online run: a program, a domain, an environment, and the agent
    state threaded through every action and observation."""

    out_of_steps = "resolution step budget exceeded"

    def __init__(self, domain, program, env, budget=DEFAULT_STEP_BUDGET, observer=None):
        fresh = map(str, itertools.count(1))
        super().__init__(program, AuxDB(domain.aux_program), budget, fresh)
        self.domain = domain
        self.env = env
        self.agent = AgentState(domain.initial)
        self.observer = observer
        self.query_names = ()
        self._compact_at = COMPACT_FLOOR

    # -- public entry -------------------------------------------------

    def run(self, goals):
        """Resolve a goal sequence to its first solution. Returns an
        Outcome; engine faults raise with the agent state attached."""
        qvars = set()
        stack = None
        for g in reversed(tuple(goals)):
            goal_variables(g, qvars)
            stack = (CutGoal(0) if g is CUT else g, stack)
        self.query_names = qvars
        try:
            ok = self.resolve(stack)
        except EngineError as e:
            if e.state is None:
                e.state = self.agent
            raise
        if not ok:
            return Outcome("failure", None, self.agent)
        answer = {
            n: apply_subst(Var(n), self.bindings)
            for n in sorted(qvars)
            if not n.startswith("_#")
        }
        return Outcome("success", answer, self.agent)

    # -- events -------------------------------------------------------

    def _note(self, kind, subject, *rest):
        """Hand one event to the observer, if one is attached. The ports
        (call/exit/redo/fail) and warnings carry text, built only here."""
        if self.observer is None:
            return
        if kind in ("call", "exit", "redo", "fail"):
            subject = self._label(subject)
        elif kind == "warn":
            subject = f"no applicable effect case for {format_term(subject)}; do/1 fails"
        self.observer((kind, subject) + rest)

    def _label(self, subject):
        if subject.__class__ is StateProperty:
            return f"?({subject!r})"
        if subject.functor == "?":  # sensing names its variable as renamed, `_` too
            sensor = subject.args[0]
            return f"?({sensor.functor}({walk(sensor.args[0], self.bindings).name}))"
        return format_term(subject, self.bindings)

    def _commit(self, event, new_state, goals=None):
        """Log an executed action or observation, which no backtracking
        may cross, and drop what that leaves unreachable: every
        choicepoint is dropped and counted dead, and the trail is
        emptied. A store that has doubled since its last compaction keeps
        only the bindings that `goals`, the goal list still to run, and
        the query's variables reach."""
        agent = self.agent
        agent.belief = new_state
        agent.events.append(event)
        if len(new_state) > agent.max_belief:
            agent.max_belief = len(new_state)
        self.dead += len(self.cps)
        self.cps.clear()
        self.trail.clear()
        if len(self.bindings) >= self._compact_at:
            self._compact(goals)
            self._compact_at = max(COMPACT_FLOOR, 2 * len(self.bindings))

    def _compact(self, goals):
        """Keep the bindings of the names `goals` and the query's
        variables reach through the store, in a fresh dict: a dict does
        not shrink when names are deleted from it. Each kept name is bound
        straight to the end of its chain of variable-to-variable bindings
        (variable shunting), so a link that nothing names is dropped."""
        bindings = self.bindings
        names = set(self.query_names)
        while goals is not None:
            goal, goals = goals
            if goal.__class__ is ExitNote:
                variables(goal.atom, names)
            else:
                goal_variables(goal, names)
        live = {}
        while names:
            name = names.pop()
            value = bindings.get(name)
            if value is None or name in live:
                continue
            value = live[name] = walk(value, bindings)
            if value.__class__ is not Var and not value.ground:
                variables(value, names)
        self.bindings = {n: live[n] for n in bindings if n in live}

    def _environment(self, method, arg):
        """`env.method(arg)`. A fault of the environment's own becomes an
        EngineError, which ends the run as a runtime fault with the agent
        state attached."""
        try:
            return getattr(self.env, method)(arg)
        except PrimelogError:
            raise
        except Exception as e:
            shown = arg if isinstance(arg, str) else format_term(arg)
            raise EngineError(
                f"environment fault in {method}({shown}): {type(e).__name__}: {e}"
            ) from e

    # -- belief queries -----------------------------------------------

    def _dispatch_query(self, prop, rest):
        prop = resolve_property(prop, self.bindings)
        self._note("call", prop, prop)  # the text, then the property itself
        stream = entails_property(self.agent.belief, prop, self.aux)
        return self._push(Interpreter._advance_query, stream, prop, rest)

    def _advance_query(self, cp):
        self._tick()
        sol = next(cp.it, None)
        if sol is None:
            return FAILED
        # The property was resolved through the store, so the answer
        # binds only names the store leaves open.
        self.bindings.update(sol)
        self.trail.extend(sol)
        self._note("holds", cp.subject, sol)
        return cp.rest

    # -- action execution ---------------------------------------------

    def _dispatch_do(self, goal, rest):
        action = walk(goal.args[0], self.bindings)
        if isinstance(action, Var):
            raise EngineError("unbound action in do/1")
        functor = action.functor
        arity = len(action.args)
        if self.domain.actions.get(functor) != arity:
            raise EngineError(f"do: {functor}/{arity} is not a declared action")
        spec = self.domain.action_specs.get((functor, arity))
        if spec is None:
            raise EngineError(f"action {functor}/{arity} has no specification")
        self._note("call", goal)
        # The spec is used as parsed: its head unifies with a copy of the
        # action, whose variables, when it is open, are renamed apart
        # from the spec's. Everything reads the bindings through the
        # store, so they need not be idempotent.
        action = copy = apply_subst(action, self.bindings)
        suffix = "d" + next(self._fresh)
        if not action.ground:
            action = apply_subst(action, _mapping_for(variables(action), suffix))
        theta0 = {}
        if not unify_track(spec.head, action, theta0, [], left_first=True):
            self._note("fail", goal)
            return FAILED
        state = self.agent.belief
        stream = executions(state, spec, self.aux, theta0)
        while True:
            self._tick()
            act, effects = next(stream, (None, None))
            if act is None:
                self._note("fail", goal)
                return FAILED
            if effects is not None:
                break
            self._note("warn", act)
        self._environment("execute", act)
        new_state = update(state, effects)
        # The untried executions are one dead choicepoint, for the
        # barrier and for the depths of later cuts.
        self.dead += 1
        self._commit(("act", act, effects), new_state, rest)
        unify_track(copy, act, self.bindings, self.trail)
        self._note("exec", act, effects, new_state)
        return rest

    # -- sensing ------------------------------------------------------

    def _dispatch_sense(self, goal, rest):
        functor = goal.args[0].functor
        axiom = self.domain.sensor_axioms.get(functor)
        if axiom is None:
            raise EngineError(f"sense fluent {functor} has no sensor axiom")
        arg = walk(goal.args[0].args[0], self.bindings)
        if not isinstance(arg, Var):
            raise EngineError(f"sensing argument of {functor} must be an unbound variable")
        self._note("call", goal)
        observed = self._environment("sense", functor)
        if not isinstance(observed, Term) or not observed.ground:
            raise EngineError(f"environment answered {functor} with a non-ground result")
        new_state, sol = integrate_sensing(self.agent.belief, axiom, observed, self.aux)
        self._commit(("sense", functor, observed, sol), new_state, rest)
        self.bindings[arg.name] = observed
        self.trail.append(arg.name)
        self._note("sense", functor, observed, new_state)
        return rest

    _dispatch = {**Machine._dispatch, StateProperty: _dispatch_query}
    _predicates = {("do", 1): _dispatch_do, ("?", 1): _dispatch_sense}


def solve(query, program, domain, env, **options):
    """Run a parsed query against a program, domain, and environment.

    Returns an Outcome whose answer maps the query's variable names to
    terms. Engine faults (barrier violations, nondeterministic actions,
    sensing contradictions, budget exhaustion, environment rejections)
    raise EngineError subclasses carrying the agent state reached."""
    return Interpreter(domain, program, env, **options).run(query)


def replay(domain, events):
    """Recompute the belief state a recorded run must have reached.

    The agent's log, ("act", action, effects) for executed actions and
    ("sense", functor, result, ...) for observations, runs as `do` and
    sensing goals on an interpreter over `ReplayEnv(events)`. Effects
    that differ from the recorded ones, a step that cannot run and an
    unknown event kind raise EngineError."""
    events = tuple(events)
    goals = []
    for i, event in enumerate(events):
        if event[0] == "act":
            goals.append(Term("do", (event[1],)))
        elif event[0] == "sense":
            goals.append(Term("?", (Term(event[1], (Var(f"_#{i}"),)),)))
        else:
            raise EngineError(f"replay: unknown event kind {event[0]!r}")

    recorded = iter([e[2] for e in events if e[0] == "act"])

    def check(note):
        if note[0] == "exec" and {l.key for l in note[2]} != {l.key for l in next(recorded)}:
            raise EngineError(
                f"replay diverged: effects of {format_term(note[1])} differ "
                "from the recorded run"
            )

    machine = Interpreter(domain, Program(()), ReplayEnv(events), observer=check)
    try:
        if machine.run(goals).succeeded:
            return machine.agent.belief
    except BarrierError:  # a `do` failed after an earlier step committed
        pass
    done = len(machine.agent.events)
    raise EngineError(
        f"replay: event {done + 1}, {format_term(events[done][1])}, "
        "cannot run in the replayed state",
        machine.agent,
    )
