"""`interpreter.replay` as it was before it ran the log on an
`Interpreter`, with the two helpers `do` then shared with it: its own
spec lookup, head unification, search for the first execution with
effects, and sensor lookup. The replay differential in
`tests/test_interpreter.py` compares the product against it."""

from primelog.auxdb import AuxDB
from primelog.errors import EngineError, NondeterministicActionError
from primelog.pi import applicable_case_solutions, entails_property, integrate_sensing, update
from primelog.terms import apply_literal, apply_subst, format_literal, format_term, unify


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


def reference_replay(domain, events):
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
