"""Selection-based algorithms built on the gated framework.

The common shape: wrap candidate evaluations as mechanisms whose outputs
carry a score, run one gated selection over tau repetitions, and read the
guarantee off the accountant.  The budget formula trades runtime for
confidence, so small failure targets mean many gated repetitions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import core
from .core import EMPTY, Dataset, FrameworkState, Mechanism, PrivacyCost
from .errors import ParameterError
from .noise import (
    RandomStream,
    TruncatedLaplaceParams,
    exponential_mechanism,
    sample_laplace,
    sample_truncated_laplace,
)

_GAMMA_MATCH_TOL = 1e-12
_CORRECTION_CONSTANT = 30.0


@functools.total_ordering
@dataclass(frozen=True)
class ScoredCandidate:
    """A payload ordered purely by its score, so selection picks the max."""

    payload: object
    score: float

    def __lt__(self, other: "ScoredCandidate") -> bool:
        return self.score < other.score

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ScoredCandidate) and self.score == other.score


@dataclass(frozen=True)
class BtmConfig:
    """Budget recipe for boosting a base mechanism past its median score.

    ``alpha`` is both the gate exponent and the runtime knob: alpha = 1
    needs ceil(2/beta) repetitions, larger alpha needs
    ceil(5 * (2/beta)**(1/alpha) * ln(1/beta)) but pays (2 + alpha) * eps.
    ``budget_cap`` optionally truncates the repetition count; the cap never
    weakens privacy, only the 1 - beta confidence claim.
    """

    alpha: float
    beta: float
    budget_cap: int | None = None

    def __post_init__(self):
        if not self.alpha >= 1:
            raise ParameterError(f"alpha must be at least 1, got {self.alpha}")
        if not 0 < self.beta < 1:
            raise ParameterError(f"beta must lie in (0, 1), got {self.beta}")
        if self.budget_cap is not None and self.budget_cap < 1:
            raise ParameterError(f"budget_cap must be positive, got {self.budget_cap}")

    @property
    def budget(self) -> int:
        if self.alpha == 1:
            repetitions = math.ceil(2.0 / self.beta)
        else:
            repetitions = math.ceil(
                5.0 * (2.0 / self.beta) ** (1.0 / self.alpha) * math.log(1.0 / self.beta)
            )
        if self.budget_cap is not None:
            repetitions = min(repetitions, self.budget_cap)
        return repetitions


def better_than_median(
    base: Mechanism, config: BtmConfig, state: FrameworkState
) -> ScoredCandidate | object:
    """One gated selection whose output beats the base's median score w.p. 1 - beta.

    The state must have been created with gamma = config.alpha, and the base
    must declare epsilon below 1 (the boosting analysis needs room to pay
    (2 + alpha) * epsilon).  Returns EMPTY when no repetition fired.
    """
    if abs(state.gamma - config.alpha) > _GAMMA_MATCH_TOL:
        raise ParameterError(
            f"state gamma {state.gamma} must equal config alpha {config.alpha}"
        )
    if not base.epsilon < 1:
        raise ParameterError(
            f"base epsilon must be below 1 for the median boost, got {base.epsilon}"
        )
    return state.selection(config.budget, [base])


def gap(selected: Sequence[int], scores: Sequence[float]) -> float:
    """Highest score left out minus lowest score kept, for a candidate set.

    Positive gap means some excluded index beats an included one; the exact
    top-|selected| set is the unique minimiser.
    """
    scores = np.asarray(scores, dtype=float)
    chosen = sorted(set(int(i) for i in selected))
    if not chosen:
        raise ParameterError("selected set must not be empty")
    if any(i < 0 or i >= scores.size for i in chosen):
        raise ParameterError("selected indices out of range")
    if len(chosen) == scores.size:
        raise ParameterError("selected set must leave at least one index out")
    mask = np.zeros(scores.size, dtype=bool)
    mask[chosen] = True
    return float(scores[~mask].max() - scores[mask].min())


@dataclass(frozen=True)
class ScoreFamily:
    """Score functions over a dataset, with their shared sensitivity.

    ``k_bound``, when present, certifies that one neighbouring swap moves
    the whole family's scores by at most k_bound in total; the choosing
    mechanism requires it.
    """

    evaluators: tuple[Callable[[Dataset], float], ...]
    sensitivity: float = 1.0
    k_bound: int | None = None

    def __post_init__(self):
        if not self.evaluators:
            raise ParameterError("family must contain at least one evaluator")
        if not self.sensitivity > 0:
            raise ParameterError(f"sensitivity must be positive, got {self.sensitivity}")

    def __len__(self) -> int:
        return len(self.evaluators)

    def evaluate_all(self, dataset: Dataset) -> np.ndarray:
        return np.array([f(dataset) for f in self.evaluators], dtype=float)

    @classmethod
    def from_table(cls, size: int, **kwargs) -> "ScoreFamily":
        """Family whose i-th score is coordinate i of the dataset's records."""

        def reader(index: int) -> Callable[[Dataset], float]:
            def evaluate(dataset: Dataset) -> float:
                return float(dataset.fetch()[index])

            return evaluate

        return cls(tuple(reader(i) for i in range(size)), **kwargs)


@dataclass(frozen=True)
class TopkResult:
    indices: frozenset
    certificate: float
    fallback: bool
    cost: PrivacyCost


def _exact_top_k(scores: np.ndarray, k: int) -> frozenset:
    order = np.argsort(-scores, kind="stable")
    return frozenset(int(i) for i in order[:k])


def topk_select(
    family: ScoreFamily,
    k: int,
    epsilon: float,
    delta: float,
    beta: float,
    dataset: Dataset,
    stream: RandomStream,
    budget_cap: int | None = None,
) -> TopkResult:
    """Select k indices with a certified optimality gap, (epsilon, delta)-DP end to end.

    The base draw peels k indices with the exponential mechanism at a budget
    shrunk by 40 * sqrt(k * ln(1/delta)), prices its own gap with Laplace
    noise plus a 13 * ln(1/beta) / epsilon margin, and the gated median
    boost keeps the best-certified draw.  When beta < delta the run is
    retargeted at confidence delta/10 and a certificate above
    30 * (sqrt(k ln(1/delta)) ln m + ln(1/beta)) / epsilon is repaired with
    the exact (non-private) answer, which also covers the vanishing chance
    that no repetition fired.  Raises ParameterError if a score is not finite.
    """
    m = len(family)
    if not (isinstance(k, int) and 1 <= k < m):
        raise ParameterError(f"k must lie in [1, {m - 1}], got {k}")
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if not 0 < beta < 1:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")

    correcting = beta < delta
    delta_run = delta / 10.0 if correcting else delta
    beta_run = delta / 10.0 if correcting else beta
    round_epsilon = epsilon / (40.0 * math.sqrt(k * math.log(1.0 / delta_run)))
    margin = 13.0 * math.log(1.0 / beta_run) / epsilon
    # The scores cannot change within one selection, so they are read and
    # checked on the first fired run (never, if no coin fires) and shared by
    # every later run and by the fallback.
    @functools.cache
    def read_scores(ds: Dataset) -> np.ndarray:
        scores = family.evaluate_all(ds)
        if not np.all(np.isfinite(scores)):
            raise ParameterError("scores must be finite")
        return scores

    def base_run(ds: Dataset, run_stream: RandomStream) -> ScoredCandidate:
        scores = read_scores(ds)
        remaining = list(range(m))
        chosen = []
        for _ in range(k):
            pick = exponential_mechanism(
                run_stream, scores[remaining], round_epsilon, family.sensitivity
            )
            chosen.append(remaining.pop(pick))
        certificate = (
            gap(chosen, scores)
            + sample_laplace(run_stream, 6.0 / epsilon)
            + margin
        )
        return ScoredCandidate((frozenset(chosen), certificate), -certificate)

    base = Mechanism(run=base_run, epsilon=epsilon / 3.0, delta=delta_run**2 / 10.0)
    state = core.init(1.0, dataset, stream)
    config = BtmConfig(alpha=1.0, beta=delta_run / 10.0, budget_cap=budget_cap)
    selected = better_than_median(base, config, state)

    threshold = (
        _CORRECTION_CONSTANT
        * (math.sqrt(k * math.log(1.0 / delta_run)) * math.log(m) + math.log(1.0 / beta_run))
        / epsilon
    )
    if selected is EMPTY or (correcting and selected.payload[1] > threshold):
        scores = read_scores(dataset)
        exact = _exact_top_k(scores, k)
        return TopkResult(exact, gap(sorted(exact), scores), True, state.pure_cost())
    indices, certificate = selected.payload
    return TopkResult(indices, certificate, False, state.pure_cost())


def choosing_mechanism(
    family: ScoreFamily,
    epsilon: float,
    delta: float,
    beta: float,
    state: FrameworkState,
) -> int | None:
    """Pick the roughly-best index from a k-bounded family at fixed 3 * epsilon cost.

    Every index is wrapped as a mechanism adding truncated Laplace noise
    whose delta share leans on the family's k_bound certificate, and one
    gated selection with ceil(4/beta) repetitions picks the winner.
    Returns None in the (at most beta/4) event that no repetition fired.
    """
    if family.k_bound is None:
        raise ParameterError("choosing mechanism needs a family with a k_bound certificate")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if not 0 < beta < 1:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    if abs(state.gamma - 1.0) > _GAMMA_MATCH_TOL:
        raise ParameterError(f"state gamma must be 1, got {state.gamma}")
    m = len(family)
    tau = math.ceil(4.0 / beta)
    noise = TruncatedLaplaceParams(epsilon, delta * beta / (5.0 * family.k_bound))
    # The ledger sees the certificate-backed total spread evenly: the family
    # moves by at most k_bound across a neighbouring swap, so the effective
    # delta mass is tau * k_bound * (delta * beta / (5 k_bound)) / m per index.
    ledger_delta = beta * delta / (5.0 * m)

    def noisy(index: int) -> Callable[[Dataset, RandomStream], ScoredCandidate]:
        evaluate = family.evaluators[index]

        def run(ds: Dataset, run_stream: RandomStream) -> ScoredCandidate:
            return ScoredCandidate(
                index, evaluate(ds) + sample_truncated_laplace(run_stream, noise)
            )

        return run

    mechanisms = [
        Mechanism(run=noisy(i), epsilon=epsilon, delta=ledger_delta) for i in range(m)
    ]
    selected = state.selection(tau, mechanisms)
    return None if selected is EMPTY else selected.payload


def stability_pivot(scores: np.ndarray, k: int) -> float:
    """The (k+1)-th largest score, the re-centering point used by stable_select."""
    scores = np.asarray(scores, dtype=float)
    if not (isinstance(k, int) and 1 <= k < scores.size):
        raise ParameterError(f"k must lie in [1, {scores.size - 1}], got {k}")
    return float(np.partition(scores, -(k + 1))[-(k + 1)])


def stable_select(
    family: ScoreFamily,
    k: int,
    epsilon: float,
    delta: float,
    beta: float,
    state: FrameworkState,
) -> int | None:
    """Pick a near-top index of an arbitrary family, paying for stability instead.

    Scores are re-centred at the (k+1)-th largest value and clamped at
    zero, so at most k indices stand out and the rest are indistinguishable
    between neighbours; ceil(2/beta) gated repetitions then select the
    winner at total cost epsilon.  Useful answers need the k-th largest
    score to clear the rest by roughly (10/epsilon) * ln(k/(delta * beta)).
    """
    m = len(family)
    if not (isinstance(k, int) and 1 <= k < m):
        raise ParameterError(f"k must lie in [1, {m - 1}], got {k}")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if not 0 < beta < 1:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    if abs(state.gamma - 1.0) > _GAMMA_MATCH_TOL:
        raise ParameterError(f"state gamma must be 1, got {state.gamma}")
    epsilon_prime = epsilon / 3.0
    tau = math.ceil(2.0 / beta)
    noise = TruncatedLaplaceParams(epsilon_prime, beta * delta / (10.0 * k))
    # At most 2k clamped scores can differ between neighbours, so the
    # certificate total tau * 2k * (beta delta / 10k) spreads to this share.
    ledger_delta = beta * delta / (5.0 * m)

    def noisy(index: int) -> Callable[[Dataset, RandomStream], ScoredCandidate]:
        def run(ds: Dataset, run_stream: RandomStream) -> ScoredCandidate:
            scores = family.evaluate_all(ds)
            lifted = max(float(scores[index]) - stability_pivot(scores, k), 0.0)
            return ScoredCandidate(
                index, lifted + sample_truncated_laplace(run_stream, noise)
            )

        return run

    mechanisms = [
        Mechanism(run=noisy(i), epsilon=epsilon_prime, delta=ledger_delta)
        for i in range(m)
    ]
    selected = state.selection(tau, mechanisms)
    return None if selected is EMPTY else selected.payload


@dataclass(frozen=True)
class ReleaseResult:
    answers: np.ndarray
    certificate: float
    fallback: bool
    cost: PrivacyCost


def tlap_release_baseline(
    queries: Sequence[Callable[[Dataset], float]], epsilon: float, delta: float
) -> Mechanism:
    """Per-query truncated-Laplace release with a probability-one error certificate.

    Half the budget answers the queries coordinate-wise, the other half
    prices the certificate: s = observed max error + certificate support
    radius + TLap(epsilon/2, delta/4), which can never undershoot the true
    error because the added noise cannot exceed its own radius.
    """
    if not queries:
        raise ParameterError("baseline needs at least one query")
    k = len(queries)
    answer_noise = TruncatedLaplaceParams(epsilon / (2.0 * k), delta / (4.0 * k))
    certificate_noise = TruncatedLaplaceParams(epsilon / 2.0, delta / 4.0)

    def run(ds: Dataset, run_stream: RandomStream):
        exact = np.array([f(ds) for f in queries], dtype=float)
        noise = sample_truncated_laplace(run_stream, answer_noise, size=k)
        released = exact + noise
        observed_error = float(np.abs(noise).max())
        certificate = (
            observed_error
            + certificate_noise.support_radius
            + sample_truncated_laplace(run_stream, certificate_noise)
        )
        return released, certificate

    return Mechanism(run=run, epsilon=epsilon, delta=delta)


def query_release_amplified(
    base: Mechanism,
    queries: Sequence[Callable[[Dataset], float]],
    epsilon: float,
    delta: float,
    state: FrameworkState,
    budget_cap: int | None = None,
) -> ReleaseResult:
    """Boost a cheap certified query-release base to near-best accuracy.

    The base must declare at most (epsilon/3, delta**2/10) and return an
    (answers, certificate) pair per run; the gated median boost at
    confidence delta/10 keeps the best-certified run.  A certificate above
    30 * (sqrt(k ln(1/delta)) + ln(1/delta)) / epsilon, or an empty
    selection, falls back to the exact answers, which stays inside the delta
    budget because both events have vanishing probability.
    """
    if not queries:
        raise ParameterError("query release needs at least one query")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if base.epsilon > epsilon / 3.0 + 1e-12:
        raise ParameterError(
            f"base must declare epsilon at most {epsilon / 3.0}, got {base.epsilon}"
        )
    if base.delta > delta**2 / 10.0 + 1e-18:
        raise ParameterError(
            f"base must declare delta at most {delta ** 2 / 10.0}, got {base.delta}"
        )
    if abs(state.gamma - 1.0) > _GAMMA_MATCH_TOL:
        raise ParameterError(f"state gamma must be 1, got {state.gamma}")
    k = len(queries)

    def scored_run(ds: Dataset, run_stream: RandomStream) -> ScoredCandidate:
        result = base.run(ds, run_stream)
        if not (isinstance(result, tuple) and len(result) == 2):
            raise ParameterError(
                "base must return an (answers, certificate) pair; got "
                f"{type(result).__name__}"
            )
        answers, certificate = result
        return ScoredCandidate((np.asarray(answers, dtype=float), float(certificate)),
                               -float(certificate))

    wrapped = Mechanism(run=scored_run, epsilon=base.epsilon, delta=base.delta)
    config = BtmConfig(alpha=1.0, beta=delta / 10.0, budget_cap=budget_cap)
    selected = better_than_median(wrapped, config, state)

    log_term = math.log(1.0 / delta)
    threshold = (
        _CORRECTION_CONSTANT * (math.sqrt(k * log_term) + log_term) / epsilon
    )
    if selected is EMPTY or selected.payload[1] > threshold:
        exact = np.array([f(state.dataset) for f in queries], dtype=float)
        return ReleaseResult(exact, 0.0, True, state.pure_cost())
    answers, certificate = selected.payload
    return ReleaseResult(answers, certificate, False, state.pure_cost())
