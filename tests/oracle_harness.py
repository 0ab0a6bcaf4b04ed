"""Instrumentation that shadows a live run with the model-enumeration
oracle. Wired in as the interpreter's observer, it progresses a world set
alongside the agent's prime-implicate state and checks, step by step:

  * after every action and sensing, the state is prime (closing its own
    clauses gives it back) and exact (its models over the oracle's atom
    universe are exactly the worlds still possible);
  * every answer to a `?` is true in every world still possible;
  * when a `?` is called, the first time on a state for each property,
    the engine's whole answer set is complete: it is the set of groundings
    that hold in every world still possible, and each answer is ground.
    So a `?` that the engine wrongly fails is flagged too. The interpreter
    draws its answers from the same `entails_property` on the same state,
    so the set checked is the stream it backtracks through.
"""

from oracle import (
    _property_solutions,
    filter_by_sensing,
    initial_beliefs,
    models,
    progress_beliefs,
    property_holds,
)
from primelog.auxdb import AuxDB
from primelog.interpreter import resolve_property
from primelog.pi import entails_property, prime_closure
from primelog.terms import Var, apply_subst


class OracleMirror:
    def __init__(self, domain):
        self.domain = domain
        self.aux = AuxDB(domain.aux_program)
        self.state = domain.initial
        self.beliefs = initial_beliefs(domain.initial)
        self.called = set()  # the `?` properties checked on this state
        self.checked_queries = 0
        self.checked_steps = 0
        self.checked_complete = 0
        self.failures = []

    def __call__(self, event):
        kind = event[0]
        if kind == "exec":
            self._on_exec(event[1], event[3])
        elif kind == "sense":
            self._on_sense(event[1], event[2], event[3])
        elif kind == "holds":
            self._on_holds(event[1], event[2])
        elif kind == "call" and len(event) > 2:  # a `?` and its property
            self._on_call(event[2])

    def _check_state(self, label, state):
        self.checked_steps += 1
        self.state = state
        self.called.clear()
        if not self.beliefs.satisfies_all(state):
            self.failures.append(
                f"{label}: some possible world falsifies a believed clause"
            )
        if prime_closure(tuple(state)) != state:
            self.failures.append(f"{label}: the belief state is not prime")
        if models(state.clauses, self.beliefs.universe).worlds != self.beliefs.worlds:
            self.failures.append(
                f"{label}: the belief's models are not the possible worlds"
            )

    def _on_exec(self, action, state):
        spec = self.domain.action_specs[(action.functor, len(action.args))]
        self.beliefs, anomalies = progress_beliefs(
            self.beliefs, spec, action, self.aux
        )
        if anomalies:
            self.failures.append(
                f"exec {action}: {len(anomalies)} worlds progressed ambiguously"
            )
        self._check_state(f"exec {action}", state)

    def _on_sense(self, functor, result, state):
        axiom = self.domain.sensor_axioms[functor]
        self.beliefs = filter_by_sensing(self.beliefs, axiom, result, self.aux)
        if not self.beliefs.worlds:
            self.failures.append(f"sense {functor}: oracle world set became empty")
        self._check_state(f"sense {functor}", state)

    def _on_holds(self, prop, sol):
        self.checked_queries += 1
        held = resolve_property(prop, sol)
        by_pred = self.beliefs.by_pred()
        for world in self.beliefs.worlds:
            if not property_holds(held, world, by_pred, self.aux):
                self.failures.append(
                    f"?-success not true in some possible world: {held.clauses}"
                )
                return

    def _on_call(self, prop):
        """The engine's answers to `prop` on the current state are the
        groundings of its variables that hold in every possible world."""
        key = tuple((c.fluents, c.aux) for c in prop.clauses)
        if key in self.called:
            return
        self.called.add(key)
        self.checked_complete += 1
        by_pred = self.beliefs.by_pred()
        names = sorted(prop.variables())

        def grounding(answer):
            return tuple(apply_subst(Var(n), answer) for n in names)

        engine = {grounding(a) for a in entails_property(self.state, prop, self.aux)}
        if any(t.__class__ is Var or not t.ground for g in engine for t in g):
            self.failures.append(f"?({prop!r}): the engine gave an open answer")
        oracle = None
        for world in self.beliefs.worlds:
            held = {grounding(a) for a in _property_solutions(prop, world, by_pred, self.aux)}
            oracle = held if oracle is None else oracle & held
        if oracle is not None and engine != oracle:
            self.failures.append(
                f"?({prop!r}): {len(engine)} engine answers, "
                f"{len(oracle)} groundings hold in every world"
            )

    def ok(self):
        return not self.failures
