"""Exception types shared across the toolkit, and the parameter contract.

Every numeric range check calls ``check_above``, ``check_unit_interval``,
``check_count`` or ``check_gamma``, which decide and word each rule once.
NaN and a non-number such as ``None`` or ``"1"`` fail every check with
``ParameterError``, and a count is an ``int``, never a ``bool`` or a float
such as 10.0.
"""

_GAMMA_MATCH_TOL = 1e-12


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


def _shown(value) -> object:
    """A refused value as a message shows it: a string quoted, so "1" never reads as 1."""
    return repr(value) if isinstance(value, str) else value


def check_above(name: str, value: float, floor: float = 0.0, *, inclusive: bool = False) -> None:
    """Refuse ``value`` unless it exceeds ``floor`` (or equals it, when inclusive)."""
    try:
        if value >= floor if inclusive else value > floor:
            return
    except TypeError:  # not a number: refused below like any other bad value
        pass
    if floor == 0:
        rule = "be nonnegative" if inclusive else "be positive"
    else:
        rule = f"be at least {floor:g}" if inclusive else f"exceed {floor:g}"
    raise ParameterError(f"{name} must {rule}, got {_shown(value)}")


def check_unit_interval(name: str, value: float) -> None:
    """Refuse ``value`` unless it lies in the open interval (0, 1)."""
    try:
        if 0 < value < 1:
            return
    except TypeError:  # not a number
        pass
    raise ParameterError(f"{name} must lie in (0, 1), got {_shown(value)}")


def check_count(name: str, value: int, least: int = 1, most: int | None = None) -> None:
    """Refuse ``value`` unless it is an int, not a bool, in [least, most]."""
    if (
        isinstance(value, int)
        and not isinstance(value, bool)
        and value >= least
        and (most is None or value <= most)
    ):
        return
    if most is not None:
        rule = f"an integer in [{least}, {most}]"
    elif least == 1:
        rule = "a positive integer"
    elif least == 0:
        rule = "a nonnegative integer"
    else:
        rule = f"at least {least} (an integer)"
    raise ParameterError(f"{name} must be {rule}, got {_shown(value)}")


def check_gamma(state_gamma: float, gamma: float) -> None:
    """Refuse a framework state whose gate exponent is not ``gamma`` (to 1e-12)."""
    try:
        if abs(state_gamma - gamma) <= _GAMMA_MATCH_TOL:
            return
    except TypeError:  # not a number
        pass
    raise ParameterError(f"state gamma must be {gamma}, got {_shown(state_gamma)}")
