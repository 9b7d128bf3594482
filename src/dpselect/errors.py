"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """A parameter lies outside the range an operation supports."""


class PromiseViolation(ParameterError):
    """A coin-game query pair breaks the closeness promise."""


class InfeasibleParameters(ParameterError):
    """No feasible operating point exists for the requested parameters."""


class LedgerError(RuntimeError):
    """A privacy-accounting rule was broken, e.g. mixed base epsilons."""


class HaltedError(RuntimeError):
    """A budgeted session has stopped and can take no further queries."""
