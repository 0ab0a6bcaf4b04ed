"""Instrumentation that shadows a live run with the model-enumeration
oracle. Wired in as the interpreter's observer, it progresses a world set
alongside the agent's prime-implicate state and checks, step by step:

  * every successful `?` is true in every world still possible,
  * after every action and sensing, every clause the agent believes is
    true in every world still possible (the agent never over-commits).
"""

from oracle import (
    filter_by_sensing,
    initial_beliefs,
    progress_beliefs,
    property_holds,
)
from primelog.auxdb import AuxDB
from primelog.interpreter import resolve_property


class OracleMirror:
    def __init__(self, domain):
        self.domain = domain
        self.aux = AuxDB(domain.aux_program)
        self.beliefs = initial_beliefs(domain.initial)
        self.checked_queries = 0
        self.checked_steps = 0
        self.failures = []

    def __call__(self, event):
        kind = event[0]
        if kind == "exec":
            self._on_exec(event[1], event[3])
        elif kind == "sense":
            self._on_sense(event[1], event[2], event[3])
        elif kind == "holds":
            self._on_holds(event[1], event[2])

    def _check_state(self, label, state):
        self.checked_steps += 1
        if not self.beliefs.satisfies_all(state):
            self.failures.append(
                f"{label}: some possible world falsifies a believed clause"
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

    def ok(self):
        return not self.failures
