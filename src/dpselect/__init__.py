"""Differentially private selection and testing built on a shared pass coin.

One secret probability gates every candidate run and every hypothesis test
in a session, so the privacy bill grows with the number of positive
responses rather than the number of attempts.  ``core`` holds the session
state and accountant, ``coingame`` the verification model behind the
accounting, and the remaining modules are applications: median
amplification and selection (``selectapps``), repeated threshold testing
(``svt``), and adaptive query answering (``mwu``).
"""

from .core import (
    BOT,
    EMPTY,
    TOP,
    AccountantLedger,
    Dataset,
    FrameworkState,
    Hypothesis,
    Mechanism,
    PrivacyCost,
    Verdict,
    approx_dp_cost,
    init,
    pure_dp_cost,
)
from .errors import (
    HaltedError,
    InfeasibleParameters,
    LedgerError,
    ParameterError,
    PromiseViolation,
)
from .noise import (
    RandomStream,
    TruncatedLaplaceParams,
    exponential_mechanism,
    sample_laplace,
    sample_pass_probability,
    sample_truncated_laplace,
)

__all__ = [
    "BOT",
    "EMPTY",
    "TOP",
    "AccountantLedger",
    "Dataset",
    "FrameworkState",
    "HaltedError",
    "Hypothesis",
    "InfeasibleParameters",
    "LedgerError",
    "Mechanism",
    "ParameterError",
    "PrivacyCost",
    "PromiseViolation",
    "RandomStream",
    "TruncatedLaplaceParams",
    "Verdict",
    "approx_dp_cost",
    "exponential_mechanism",
    "init",
    "pure_dp_cost",
    "sample_laplace",
    "sample_pass_probability",
    "sample_truncated_laplace",
]

__version__ = "0.1.0"
