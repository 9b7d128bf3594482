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
from .errors import (
    ParameterError,
    check_above,
    check_count,
    check_gamma,
    check_unit_interval,
)
from .noise import (
    RandomStream,
    TruncatedLaplaceParams,
    sample_laplace,
    sample_truncated_laplace,
)

_CORRECTION_CONSTANT = 30.0
_BLOCK_ENTRIES = 2**13  # scores per block of top-k runs; bounds a batch's memory


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
        check_above("alpha", self.alpha, 1.0, inclusive=True)
        check_unit_interval("beta", self.beta)
        if self.budget_cap is not None:
            check_count("budget_cap", self.budget_cap)

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
    check_gamma(state.gamma, config.alpha)
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
    """``size`` sensitivity-1 statistics over a dataset, read as one vector.

    ``scores(dataset)`` returns all ``size`` scores at once, and one
    neighbouring swap moves each of them by at most 1; every noise scale in
    this module is calibrated to that unit sensitivity.  ``k_bound``, when
    present, certifies that one swap moves the whole family's scores by at
    most k_bound in total; the choosing mechanism requires it.
    """

    scores: Callable[[Dataset], np.ndarray]
    size: int
    k_bound: int | None = None

    def __post_init__(self):
        check_count("size", self.size)
        if self.k_bound is not None:
            check_count("k_bound", self.k_bound)

    def __len__(self) -> int:
        return self.size

    def evaluate_all(self, dataset: Dataset) -> np.ndarray:
        """Every score on ``dataset``; ParameterError on a wrong shape or a non-finite score."""
        scores = np.array(self.scores(dataset), dtype=float)
        if scores.shape != (self.size,):
            raise ParameterError(f"scores must have shape ({self.size},), got {scores.shape}")
        if not np.all(np.isfinite(scores)):
            raise ParameterError("scores must be finite")
        return scores

    @classmethod
    def from_table(cls, size: int, k_bound: int | None = None) -> "ScoreFamily":
        """Family whose i-th score is coordinate i of the dataset's records."""
        return cls(lambda dataset: dataset.fetch()[:size], size, k_bound)


def _score_reader(family: ScoreFamily) -> Callable[[Dataset], np.ndarray]:
    """The family's scores for one selection call, read and checked on first use.

    The scores cannot change within one selection, so every fired run and
    any fallback share one read, and a selection in which no coin fires reads
    nothing.
    """
    return functools.cache(family.evaluate_all)


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

    The base draw peels k exponential-mechanism picks in one Gumbel-max draw
    at a budget shrunk by 40 * sqrt(k * ln(1/delta)), prices its own gap with
    Laplace noise plus a 13 * ln(1/beta) / epsilon margin, and the gated
    median boost keeps the best-certified draw.  When beta < delta the run is
    retargeted at confidence delta/10 and a certificate above
    30 * (sqrt(k ln(1/delta)) ln m + ln(1/beta)) / epsilon is repaired with
    the exact (non-private) answer, which also covers the vanishing chance
    that no repetition fired.  Raises ParameterError if a score is not finite.
    """
    m = len(family)
    check_count("k", k, most=m - 1)
    check_unit_interval("epsilon", epsilon)
    check_unit_interval("delta", delta)
    check_unit_interval("beta", beta)

    correcting = beta < delta
    delta_run = delta / 10.0 if correcting else delta
    beta_run = delta / 10.0 if correcting else beta
    round_epsilon = epsilon / (40.0 * math.sqrt(k * math.log(1.0 / delta_run)))
    margin = 13.0 * math.log(1.0 / beta_run) / epsilon
    read_scores = _score_reader(family)

    def base_runs(ds: Dataset, run_stream: RandomStream, count: int) -> ScoredCandidate:
        # Each row of a block is one base run.  -log E is standard Gumbel noise, so
        # the k smallest of log E - logits peel k exponential-mechanism picks.
        scores = read_scores(ds)
        logits = scores * (round_epsilon / 2.0)
        leaders = np.argpartition(scores, m - k - 1)[m - k - 1:]  # the k + 1 best scores
        rows, best = max(1, _BLOCK_ENTRIES // m), None
        for start in range(0, count, rows):
            noisy = np.log(run_stream.generator.standard_exponential((min(rows, count - start), m)))
            chosen = np.argpartition(noisy - logits, k - 1, axis=1)[:, :k]
            kept = np.zeros(noisy.shape, dtype=bool)
            kept[np.arange(len(kept))[:, None], chosen] = True
            # The best score a set leaves out is that of a leader it leaves out.
            gaps = np.where(kept[:, leaders], -np.inf, scores[leaders]).max(axis=1)
            gaps -= scores[chosen].min(axis=1)
            certificates = gaps + sample_laplace(run_stream, 6.0 / epsilon, len(gaps)) + margin
            row = int(certificates.argmin())
            if best is None or certificates[row] < best[1]:
                best = (chosen[row].tolist(), float(certificates[row]))
        return ScoredCandidate((frozenset(best[0]), best[1]), -best[1])

    base = Mechanism(functools.partial(base_runs, count=1), epsilon / 3.0,
                     delta_run**2 / 10.0, batch=base_runs)
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


def _noisy_max(read: Callable[[Dataset], np.ndarray], m: int, epsilon: float, delta: float,
               beta: float, state: FrameworkState, spread: float, repeats: float) -> int | None:
    """Gated report-noisy-max over the m scores that ``read`` returns.

    Index i runs as read(ds)[i] + TLap(epsilon, beta * delta / (5 * spread)),
    and ceil(repeats / beta) gated repetitions pick the winner.  ``spread``
    is the caller's certificate for one neighbouring swap (a choosing
    family's k_bound, stable selection's 2k moved scores), so the certificate
    total tau * spread * (beta * delta / (5 * spread)) spreads evenly to a
    ledger delta of beta * delta / (5m) per index.  Returns None when no
    repetition fired.
    """
    check_unit_interval("delta", delta)
    check_unit_interval("beta", beta)
    check_gamma(state.gamma, 1.0)
    noise = TruncatedLaplaceParams(epsilon, beta * delta / (5.0 * spread))
    ledger_delta = beta * delta / (5.0 * m)

    def run(index: int, ds: Dataset, run_stream: RandomStream) -> ScoredCandidate:
        return ScoredCandidate(index, read(ds)[index] + sample_truncated_laplace(run_stream, noise))

    mechanisms = [Mechanism(functools.partial(run, i), epsilon, ledger_delta) for i in range(m)]
    selected = state.selection(math.ceil(repeats / beta), mechanisms)
    return None if selected is EMPTY else selected.payload


def choosing_mechanism(
    family: ScoreFamily,
    epsilon: float,
    delta: float,
    beta: float,
    state: FrameworkState,
) -> int | None:
    """Pick the roughly-best index from a k-bounded family at fixed 3 * epsilon cost.

    Every index is wrapped as a mechanism adding TLap(epsilon,
    delta * beta / (5 * k_bound)) noise, whose delta share leans on the
    family's k_bound certificate, and one gated selection with ceil(4/beta)
    repetitions picks the winner.  Returns None in the (at most beta/4)
    event that no repetition fired.  Raises ParameterError if a score is not
    finite.
    """
    if family.k_bound is None:
        raise ParameterError("choosing mechanism needs a family with a k_bound certificate")
    return _noisy_max(_score_reader(family), len(family), epsilon, delta, beta, state,
                      spread=family.k_bound, repeats=4.0)


def stability_pivot(scores: np.ndarray, k: int) -> float:
    """The (k+1)-th largest score, the re-centering point used by stable_select."""
    scores = np.asarray(scores, dtype=float)
    check_count("k", k, most=scores.size - 1)
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
    zero, so at most k indices stand out and at most 2k clamped scores
    differ between neighbours; ceil(2/beta) gated repetitions with
    TLap(epsilon/3, beta * delta / (10k)) noise then select the winner at
    total cost epsilon.  Useful answers need the k-th largest score to clear
    the rest by roughly (10/epsilon) * ln(k/(delta * beta)).  Raises
    ParameterError if a score is not finite.
    """
    m = len(family)
    check_count("k", k, most=m - 1)

    @functools.cache
    def lifted(ds: Dataset) -> np.ndarray:
        scores = family.evaluate_all(ds)
        return np.maximum(scores - stability_pivot(scores, k), 0.0)

    return _noisy_max(lifted, m, epsilon / 3.0, delta, beta, state,
                      spread=2 * k, repeats=2.0)


@dataclass(frozen=True)
class ReleaseResult:
    answers: np.ndarray
    certificate: float
    fallback: bool
    cost: PrivacyCost


def tlap_release_baseline(family: ScoreFamily, epsilon: float, delta: float) -> Mechanism:
    """Per-query truncated-Laplace release with a probability-one error certificate.

    Half the budget answers the family's queries coordinate-wise, the other
    half prices the certificate: s = observed max error + certificate
    support radius + TLap(epsilon/2, delta/4), which can never undershoot
    the true error because the added noise cannot exceed its own radius.
    A run returns ScoredCandidate((answers, s), -s), so the lowest
    certificate ranks best.
    """
    check_above("epsilon", epsilon)
    check_unit_interval("delta", delta)
    k = len(family)
    answer_noise = TruncatedLaplaceParams(epsilon / (2.0 * k), delta / (4.0 * k))
    certificate_noise = TruncatedLaplaceParams(epsilon / 2.0, delta / 4.0)

    def run(ds: Dataset, run_stream: RandomStream) -> ScoredCandidate:
        exact = family.evaluate_all(ds)
        noise = sample_truncated_laplace(run_stream, answer_noise, size=k)
        certificate = (
            float(np.abs(noise).max())
            + certificate_noise.support_radius
            + sample_truncated_laplace(run_stream, certificate_noise)
        )
        return ScoredCandidate((exact + noise, certificate), -certificate)

    return Mechanism(run=run, epsilon=epsilon, delta=delta)


def query_release_amplified(
    family: ScoreFamily,
    epsilon: float,
    delta: float,
    state: FrameworkState,
) -> ReleaseResult:
    """Boost the truncated-Laplace query release to near-best accuracy.

    The gated median boost at confidence delta/10 keeps the best-certified
    run of tlap_release_baseline(family, epsilon/3, delta**2/10), every run
    sharing one read of the family.  A certificate above
    30 * (sqrt(k ln(1/delta)) + ln(1/delta)) / epsilon, or an empty
    selection, falls back to the exact answers.  That stays inside delta
    only for this base, whose certificate depends on the noise alone and has
    hard support, so a fallback is equally rare on every dataset; another
    base could clear the threshold every time, whatever it declared.
    Raises ParameterError if an answer is not finite.
    """
    check_above("epsilon", epsilon)
    check_unit_interval("delta", delta)
    k = len(family)
    read = _score_reader(family)
    base = tlap_release_baseline(ScoreFamily(read, k), epsilon / 3.0, delta**2 / 10.0)
    selected = better_than_median(base, BtmConfig(alpha=1.0, beta=delta / 10.0), state)

    log_term = math.log(1.0 / delta)
    threshold = (
        _CORRECTION_CONSTANT * (math.sqrt(k * log_term) + log_term) / epsilon
    )
    if selected is EMPTY or selected.payload[1] > threshold:
        return ReleaseResult(read(state.dataset), 0.0, True, state.pure_cost())
    answers, certificate = selected.payload
    return ReleaseResult(answers, certificate, False, state.pure_cost())
