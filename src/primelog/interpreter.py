"""Online execution of agent programs against a prime-implicate belief base.

The interpreter is the SLD machine of `sld` (Prolog clause order,
leftmost goal selection, cut, the built-ins) extended with three goal
forms that step outside ordinary resolution: `?(Property)` asks the
belief state, `?(sense(X))` queries the environment and folds the
observation into the belief state, and `do(Action)` executes an action
and progresses the belief state. Aux atoms inside properties are derived
by `AuxDB.solve` on a machine of its own.

Execution is online: once an action has been sent to the environment it
cannot be taken back. The machine's barrier counts executed actions and
sensing events; resuming any choicepoint created before the latest one
raises BarrierError instead of silently recomputing a world that no
longer exists.

An attached observer receives every event. Without one, no event text
is ever built, so observation costs nothing when it is off.
"""

import itertools

from .auxdb import AuxDB
from .errors import EngineError, NondeterministicActionError
from .model import (
    CUT,
    DoGoal,
    QueryGoal,
    SenseGoal,
    StateProperty,
    _mapping_for,
    goal_variables,
    resolve_property,
)
from .pi import (
    applicable_case_solutions,
    entails_property,
    integrate_sensing,
    is_prime,
    update,
)
from .sld import FAILED, CutGoal, Machine
from .terms import (
    Term,
    Var,
    apply_literal,
    apply_subst,
    format_literal,
    format_term,
    unify,
    unify_track,
    variables,
    walk,
)

DEFAULT_STEP_BUDGET = 10_000_000


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


def action_effects(state, spec, aux, theta, act):
    """The effects of the ground action `act` under the precondition
    solution `theta`: those of the one case whose condition `state`
    entails, all of which must come out ground. None when no case fires;
    more than one is a domain-authoring fault and raises."""
    sols = applicable_case_solutions(state, spec, aux, theta)
    if len(sols) > 1:
        raise NondeterministicActionError(
            f"action {format_term(act)} has {len(sols)} applicable effect cases"
        )
    if not sols:
        return None
    idx, csol = sols[0]
    effects = []
    for lit in spec.cases[idx].effects:
        lit = apply_literal(lit, csol)
        if not lit.ground:
            raise EngineError(
                f"effect {format_literal(lit)} of {format_term(act)} "
                "is not ground after applying the case solution"
            )
        effects.append(lit)
    return tuple(effects)


def executions(state, spec, aux, theta0):
    """The ways to execute an action in `state`, in precondition solution
    order, starting from the head unifier `theta0`: for each solution, the
    ground action and its effects, or None when no effect case fires."""
    for theta in entails_property(state, spec.precond, aux, theta0):
        act = apply_subst(spec.head, theta)
        if not act.ground:
            raise EngineError(f"unbound action argument in {format_term(act)}")
        yield act, action_effects(state, spec, aux, theta, act)


class Interpreter(Machine):
    """One online run: a program, a domain, an environment, and the agent
    state threaded through every action and observation."""

    out_of_steps = "resolution step budget exceeded"

    def __init__(
        self,
        domain,
        program,
        env,
        budget=DEFAULT_STEP_BUDGET,
        observer=None,
        debug_checks=False,
    ):
        fresh = map(str, itertools.count(1))
        super().__init__(program, AuxDB(domain.aux_program), budget, fresh)
        self.domain = domain
        self.env = env
        self.agent = AgentState(domain.initial)
        self.observer = observer
        self.debug_checks = debug_checks

    # -- public entry -------------------------------------------------

    def run(self, goals):
        """Resolve a goal sequence to its first solution. Returns an
        Outcome; engine faults raise with the agent state attached."""
        qvars = set()
        stack = None
        for g in reversed(tuple(goals)):
            goal_variables(g, qvars)
            stack = (CutGoal(0) if g is CUT else g, stack)
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
        if isinstance(subject, StateProperty):
            return f"?({subject!r})"
        if isinstance(subject, DoGoal):
            return repr(subject)
        if isinstance(subject, SenseGoal):
            return f"?({subject.functor}({walk(subject.arg, self.bindings).name}))"
        return format_term(subject, self.bindings)

    def _commit(self, event, new_state):
        """Log an executed action or observation. It raises the barrier:
        no choicepoint created before it can be resumed."""
        if self.debug_checks and not is_prime(new_state):
            after = "update" if event[0] == "act" else "sensing"
            raise EngineError(f"internal: belief state lost primeness after {after}")
        agent = self.agent
        agent.belief = new_state
        agent.events.append(event)
        if len(new_state) > agent.max_belief:
            agent.max_belief = len(new_state)
        self.barrier += 1

    # -- belief queries -----------------------------------------------

    def _dispatch_query(self, goal, rest):
        prop = resolve_property(goal.property, self.bindings)
        self._note("call", prop)
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
        action = walk(goal.action, self.bindings)
        if isinstance(action, Var):
            raise EngineError("unbound action in do/1")
        functor = action.functor
        arity = len(action.args)
        if self.domain.actions.get(functor) != arity:
            raise EngineError(f"do: {functor}/{arity} is not a declared action")
        spec = self.domain.action_specs.get((functor, arity))
        if spec is None:
            raise EngineError(f"action {functor}/{arity} has no specification")
        subject = DoGoal(apply_subst(action, self.bindings))
        self._note("call", subject)
        # The spec is used as parsed; the action's open variables are
        # renamed apart from the spec's instead.
        mapping = _mapping_for(variables(subject.action), "d" + next(self._fresh))
        theta0 = unify(spec.head, apply_subst(subject.action, mapping))
        if theta0 is None:
            self._note("fail", subject)
            return FAILED
        stream = executions(self.agent.belief, spec, self.aux, theta0)
        return self._push(Interpreter._advance_do, stream, subject, rest)

    def _advance_do(self, cp):
        while True:
            self._tick()
            act, effects = next(cp.it, (None, None))
            if act is None:
                return FAILED
            if effects is not None:
                break
            self._note("warn", act)
        # The barrier keeps any commit from coming between the push and a
        # resume, so the belief is the state the executions started on.
        self.env.execute(act)
        new_state = update(self.agent.belief, effects)
        self._commit(("act", act, effects), new_state)
        unify_track(cp.subject.action, act, self.bindings, self.trail)
        self._note("exec", act, effects, new_state)
        return cp.rest

    # -- sensing ------------------------------------------------------

    def _dispatch_sense(self, goal, rest):
        axiom = self.domain.sensor_axioms.get(goal.functor)
        if axiom is None:
            raise EngineError(f"sense fluent {goal.functor} has no sensor axiom")
        arg = walk(goal.arg, self.bindings)
        if not isinstance(arg, Var):
            raise EngineError(
                f"sensing argument of {goal.functor} must be an unbound variable"
            )
        self._note("call", goal)
        observed = self.env.sense(goal.functor)
        if not isinstance(observed, Term) or not observed.ground:
            raise EngineError(
                f"environment answered {goal.functor} with a non-ground result"
            )
        new_state, sol = integrate_sensing(
            self.agent.belief, axiom, observed, self.aux
        )
        self._commit(("sense", goal.functor, observed, sol), new_state)
        self.bindings[arg.name] = observed
        self.trail.append(arg.name)
        self._note("sense", goal.functor, observed, new_state)
        return rest

    _dispatch = {
        **Machine._dispatch,
        QueryGoal: _dispatch_query,
        DoGoal: _dispatch_do,
        SenseGoal: _dispatch_sense,
    }


def solve(query, program, domain, env, **options):
    """Run a parsed query against a program, domain, and environment.

    Returns an Outcome whose answer maps the query's variable names to
    terms. Engine faults (barrier violations, nondeterministic actions,
    sensing contradictions, budget exhaustion, environment rejections)
    raise EngineError subclasses carrying the agent state reached."""
    return Interpreter(domain, program, env, **options).run(query)


def replay(domain, events):
    """Recompute the belief state a recorded run must have reached.

    Events are the agent's log, read by position: ("act", action,
    effects) for executed actions and ("sense", functor, result, ...) for
    observations. Effects are recomputed from the action specification
    and cross-checked against the recorded ones; any divergence raises
    EngineError."""
    state = domain.initial
    aux = AuxDB(domain.aux_program)
    for event in events:
        if event[0] == "act":
            act, recorded = event[1], event[2]
            spec = domain.action_specs.get((act.functor, len(act.args)))
            if spec is None:
                raise EngineError(
                    f"replay: action {format_term(act)} has no specification"
                )
            theta0 = unify(spec.head, act)
            if theta0 is None:
                raise EngineError(
                    f"replay: {format_term(act)} does not match its specification head"
                )
            effects = next(
                (e for _, e in executions(state, spec, aux, theta0) if e is not None), None
            )
            if effects is None:
                raise EngineError(
                    f"replay: precondition of {format_term(act)} is not provable"
                )
            if {l.key for l in effects} != {l.key for l in recorded}:
                raise EngineError(
                    f"replay diverged: effects of {format_term(act)} differ "
                    "from the recorded run"
                )
            state = update(state, effects)
        elif event[0] == "sense":
            functor, observed = event[1], event[2]
            axiom = domain.sensor_axioms.get(functor)
            if axiom is None:
                raise EngineError(f"replay: no sensor axiom for {functor}")
            state, _ = integrate_sensing(state, axiom, observed, aux)
        else:
            raise EngineError(f"replay: unknown event kind {event[0]!r}")
    return state
