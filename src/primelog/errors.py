"""Exception hierarchy for the interpreter and its front ends.

The CLI maps these onto process exit codes: parse problems exit 3,
runtime faults exit 2, and a plain unsuccessful derivation exits 1.
"""


class PrimelogError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PrimelogError):
    """Syntax or validation problem in a domain, program, or query text.

    Carries the source position so front ends can print file:line:col
    diagnostics.
    """

    def __init__(self, message, line=None, column=None, filename=None):
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename
        super().__init__(self.locate())

    def locate(self):
        parts = []
        if self.filename:
            parts.append(str(self.filename))
        if self.line is not None:
            parts.append(str(self.line))
            if self.column is not None:
                parts.append(str(self.column))
        prefix = ":".join(parts)
        return f"{prefix}: {self.message}" if prefix else self.message


class EngineError(PrimelogError):
    """Runtime fault while reasoning or executing (exit code 2)."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class NonGroundError(EngineError):
    """A ground term was required (belief clauses, effects, sensing)."""


class BarrierError(EngineError):
    """Backtracking tried to cross an executed action or sensing event."""


class NondeterministicActionError(EngineError):
    """More than one effect case applies to an executed action."""


class SensingError(EngineError):
    """Sensor axiom lookup or integration failed (none/ambiguous/contradiction)."""


class EnvironmentRejected(EngineError):
    """The environment refused an action the belief state licensed."""


class BudgetExceeded(EngineError):
    """The resolution step budget or the prime closure budget ran out."""
