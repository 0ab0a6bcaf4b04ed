"""Agent logic programs over prime-implicate belief states.

A definite logic program drives an agent online: `do(Action)` executes
actions against an environment and progresses what the agent believes,
`?(Property)` asks the belief state, and `?(sense(X))` reads a sensor
and folds the observation in. Beliefs are propositional clause sets kept
in prime implicate form, so entailment during execution is subsumption.
"""

from .errors import (
    BarrierError,
    BudgetExceeded,
    EngineError,
    EnvironmentRejected,
    NondeterministicActionError,
    NonGroundError,
    ParseError,
    PrimelogError,
    SensingError,
)
from .interpreter import AgentState, Interpreter, Outcome, replay, solve
from .parser import parse_domain, parse_program, parse_query
from .pi import (
    PIList,
    entails_clause,
    entails_property,
    integrate_sensing,
    prime_closure,
    update,
)
from .terms import Clause, Literal, Term, Var, unify

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "BarrierError",
    "BudgetExceeded",
    "Clause",
    "EngineError",
    "EnvironmentRejected",
    "Interpreter",
    "Literal",
    "NonGroundError",
    "NondeterministicActionError",
    "Outcome",
    "ParseError",
    "PIList",
    "PrimelogError",
    "SensingError",
    "Term",
    "Var",
    "entails_clause",
    "entails_property",
    "integrate_sensing",
    "parse_domain",
    "parse_program",
    "parse_query",
    "prime_closure",
    "replay",
    "solve",
    "unify",
    "update",
]
