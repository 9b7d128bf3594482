"""Privately answering adaptive linear queries by multiplicative weights.

A public histogram over a finite universe guesses each query's answer; the
sparse-vector session privately checks whether the guess is within alpha of
the sample mean.  Agreement costs nothing on the TOP budget.  Disagreement
releases a noisy sample mean, re-checks it at alpha/2 (with up to three
redraws), and multiplies the histogram toward the released value, so the
number of paid rounds is governed by the learner's mistake bound
ln|X| / alpha**2 rather than by the query count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import core
from .core import BOT, Dataset, PrivacyCost
from .errors import HaltedError, InfeasibleParameters, ParameterError
from .noise import RandomStream, sample_laplace
from .svt import RepetitiveSvt, SvtConfig, SvtQuery, svt_params

_BISECTION_TOL = 1e-9
_FIXED_POINT_CONSTANT = 40.0
_REDRAW_LIMIT = 3


@dataclass(frozen=True)
class LinearQuery:
    """A statistical query: per-element values in [0, 1] over the universe."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ParameterError("query values must form a nonempty vector")
        if not np.all(np.isfinite(values)) or values.min() < 0 or values.max() > 1:
            raise ParameterError("query values must lie in [0, 1]")
        object.__setattr__(self, "values", values)


def as_query_values(query, universe_size: int) -> np.ndarray:
    values = query.values if isinstance(query, LinearQuery) else LinearQuery(np.asarray(query)).values
    if values.size != universe_size:
        raise ParameterError(
            f"query has {values.size} entries, universe has {universe_size}"
        )
    return values


def uniform_histogram(universe_size: int) -> np.ndarray:
    _check_universe_size(universe_size)
    return np.full(universe_size, 1.0 / universe_size)


def mwu_update(
    weights: np.ndarray, values: np.ndarray, direction: float, eta: float
) -> np.ndarray:
    """Tilt the histogram by exp(direction * eta * values) and renormalise."""
    if direction not in (-1.0, 1.0):
        raise ParameterError(f"direction must be +1 or -1, got {direction}")
    if not eta >= 0:
        raise ParameterError(f"eta must be nonnegative, got {eta}")
    tilted = weights * np.exp(direction * eta * values)
    return tilted / tilted.sum()


def _check_universe_size(universe_size: int) -> None:
    if not (isinstance(universe_size, int) and universe_size >= 2):
        raise ParameterError(f"universe size must be at least 2, got {universe_size}")


def solve_alpha(
    universe_size: int,
    n: int,
    m: int,
    epsilon: float,
    delta: float,
    beta: float,
) -> float:
    """Smallest alpha in (0, 1) with alpha >= C * (A / alpha + B), by bisection.

    A = sqrt(ln|X| ln(1/delta)) * ln(m) / (n * eps) couples the accuracy to
    the update budget ln|X| / alpha**2; B = ln(1/beta) / (n * eps) is the
    per-query confidence term, and C = 40.  The right-hand side falls in
    alpha, so the feasible set is an interval and bisection to 1e-9 finds its
    left edge.  Raises InfeasibleParameters when even alpha -> 1 cannot
    satisfy it.
    """
    _check_universe_size(universe_size)
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"n must be a positive integer, got {n}")
    if not (isinstance(m, int) and m >= 2):
        raise ParameterError(f"m must be an integer of at least 2, got {m}")
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if not 0 < beta < 1:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")

    budget_term = (
        math.sqrt(math.log(universe_size) * math.log(1.0 / delta))
        * math.log(m)
        / (n * epsilon)
    )
    confidence_term = math.log(1.0 / beta) / (n * epsilon)

    def slack(alpha: float) -> float:
        return alpha - _FIXED_POINT_CONSTANT * (budget_term / alpha + confidence_term)

    high = 1.0
    if slack(high) < 0:
        raise InfeasibleParameters(
            "no alpha in (0, 1) satisfies the fixed point; grow n or epsilon"
        )
    low = 1e-12
    while high - low > _BISECTION_TOL:
        mid = (low + high) / 2.0
        if slack(mid) >= 0:
            high = mid
        else:
            low = mid
    return high


def sample_size_for_accuracy(
    alpha: float,
    universe_size: int,
    m: int,
    epsilon: float,
    delta: float,
    beta: float,
) -> int:
    """Smallest n whose solved fixed point (C = 40) reaches the target alpha."""
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    budget_term = (
        math.sqrt(math.log(universe_size) * math.log(1.0 / delta)) * math.log(m) / epsilon
    )
    confidence_term = math.log(1.0 / beta) / epsilon
    return math.ceil(
        _FIXED_POINT_CONSTANT * (budget_term / alpha**2 + confidence_term / alpha)
    )


@dataclass(frozen=True)
class MwuConfig:
    """Solved operating point of one multiplicative-weights session."""

    universe_size: int
    n: int
    m: int
    epsilon: float
    delta: float
    beta: float
    alpha: float
    k: int
    eta: float
    svt: SvtConfig
    svt_m: int
    svt_beta: float


def make_mwu_config(
    universe_size: int,
    n: int,
    m: int,
    epsilon: float,
    delta: float,
    beta: float,
    alpha_override: float | None = None,
) -> MwuConfig:
    """Solve alpha and derive the update budget and SVT recipe.

    The SVT is provisioned for 4m threshold queries (two per answer plus
    retest headroom) at sensitivity 1/n, with its confidence clamped into
    the regime its own analysis covers.  ``alpha_override`` skips the fixed
    point to operate outside the guaranteed regime, e.g. for demos at small
    n; everything downstream is derived from the override instead.
    """
    _check_universe_size(universe_size)
    if alpha_override is None:
        alpha = solve_alpha(universe_size, n, m, epsilon, delta, beta)
    else:
        if not 0 < alpha_override < 1:
            raise ParameterError(f"alpha_override must lie in (0, 1), got {alpha_override}")
        alpha = float(alpha_override)
    k = math.ceil(math.log(universe_size) / alpha**2)
    svt_m = 4 * m
    svt_beta = min(beta, 0.9 / svt_m)
    svt = svt_params(epsilon, delta, k, svt_m, svt_beta, sensitivity=1.0 / n)
    return MwuConfig(
        universe_size=universe_size,
        n=n,
        m=m,
        epsilon=epsilon,
        delta=delta,
        beta=beta,
        alpha=alpha,
        k=k,
        eta=alpha / 2.0,
        svt=svt,
        svt_m=svt_m,
        svt_beta=svt_beta,
    )


class MwuSession:
    """One dataset, one SVT budget, adaptively many linear queries.

    ``answer`` returns the public guess when the private checks agree with
    it, otherwise a released (noisy, re-checked) sample mean.  The session
    halts for good when the TOP budget runs out or the update counter hits
    k'; a halted session raises HaltedError on every further query.
    """

    def __init__(self, config: MwuConfig, dataset: Dataset, stream: RandomStream):
        records = np.asarray(dataset.fetch(), dtype=int)
        if records.size != config.n:
            raise ParameterError(
                f"dataset has {records.size} records, config says {config.n}"
            )
        if records.min() < 0 or records.max() >= config.universe_size:
            raise ParameterError("records must be universe indices")
        self.config = config
        self.dataset = dataset
        self.state = core.init(config.svt.gamma, dataset, stream)
        self._svt = RepetitiveSvt(config.svt, self.state)
        self.weights = uniform_histogram(config.universe_size)
        self.update_rounds = 0
        self.release_count = 0
        self.queries_answered = 0
        # Frozen empirical frequencies; evaluators still fetch for the
        # access instrumentation, the records themselves cannot change
        # under a live session.
        self._frequencies = (
            np.bincount(records, minlength=config.universe_size) / config.n
        )

    @property
    def halted(self) -> bool:
        return self._svt.halted

    def _sample_mean(self, values: np.ndarray) -> Callable[[Dataset], float]:
        def evaluate(ds: Dataset) -> float:
            ds.fetch()
            return float(self._frequencies @ values)

        return evaluate

    def _within(self, values: np.ndarray, center: float, radius: float) -> bool:
        """Two one-sided SVT checks of |sample mean - center| <= radius."""
        mean = self._sample_mean(values)

        def above(ds: Dataset) -> float:
            return mean(ds) - center

        def below(ds: Dataset) -> float:
            return center - mean(ds)

        if self._svt.process(SvtQuery(above, radius)) is not BOT:
            return False
        return self._svt.process(SvtQuery(below, radius)) is BOT

    def answer(self, query) -> float:
        """Answer one linear query; may consume update budget."""
        if self.halted:
            raise HaltedError("session halted, no further queries")
        values = as_query_values(query, self.config.universe_size)
        guess = float(self.weights @ values)
        self.queries_answered += 1
        if self._within(values, guess, self.config.alpha):
            return min(max(guess, 0.0), 1.0)

        if self.update_rounds >= self.config.svt.k_prime:
            self._svt.halted = True
            raise HaltedError("update budget exhausted, session halted")
        self.update_rounds += 1
        scale = self.config.svt.sensitivity / self.config.svt.epsilon_prime
        released = 0.0
        for _ in range(1 + _REDRAW_LIMIT):
            exact = float(self._frequencies @ values)
            self.dataset.fetch()
            released = exact + sample_laplace(self.state.stream, scale)
            self.release_count += 1
            if self._within(values, released, self.config.alpha / 2.0):
                break
        direction = 1.0 if released >= guess else -1.0
        self.weights = mwu_update(self.weights, values, direction, self.config.eta)
        return min(max(released, 0.0), 1.0)

    def privacy_cost(self) -> PrivacyCost:
        """SVT ledger cost plus two charged units per Laplace release."""
        base = self.state.pure_cost()
        extra = 2.0 * self.config.svt.epsilon_prime * self.release_count
        return PrivacyCost(base.epsilon + extra, base.delta)


class EmpiricalAnswerer:
    """Baseline that answers every query with the exact sample mean."""

    update_rounds = 0
    release_count = 0
    halted = False

    def __init__(self, dataset: Dataset, universe_size: int):
        records = np.asarray(dataset.fetch(), dtype=int)
        self.dataset = dataset
        self.universe_size = universe_size
        self._frequencies = np.bincount(records, minlength=universe_size) / records.size

    def answer(self, query) -> float:
        self.dataset.fetch()
        return float(self._frequencies @ as_query_values(query, self.universe_size))


class FixedPoolAdversary:
    """Issues a pre-built list of queries, ignoring the answers."""

    def __init__(self, queries: Sequence):
        self._queries = list(queries)
        self._cursor = 0

    def next_query(self):
        query = self._queries[self._cursor % len(self._queries)]
        self._cursor += 1
        return query

    def observe(self, answer: float) -> None:
        pass


def _random_half_indicator(generator: np.random.Generator, size: int) -> np.ndarray:
    """Indicator of a uniformly random subset of size // 2 elements."""
    values = np.zeros(size)
    values[generator.permutation(size)[: size // 2]] = 1.0
    return values


class RandomSubsetAdversary:
    """Issues indicator queries of fresh uniformly random half-subsets."""

    def __init__(self, universe_size: int, stream: RandomStream):
        self.universe_size = universe_size
        self._generator = stream.generator

    def next_query(self) -> np.ndarray:
        return _random_half_indicator(self._generator, self.universe_size)

    def observe(self, answer: float) -> None:
        pass


class OverfittingAdversary:
    """Random-probe sign attack that steers its final query into the sample.

    Each probe is a random half-subset indicator; the recorded sign of
    (answer - 1/2) reveals which way the sample leans on that subset.  The
    final query keeps exactly the elements whose sign-weighted membership
    is positive, concentrating the sample's idiosyncrasies, so an answerer
    that tracks the sample overshoots the population on it.
    """

    def __init__(self, universe_size: int, stream: RandomStream, probes: int):
        if probes < 1:
            raise ParameterError(f"probes must be positive, got {probes}")
        self.universe_size = universe_size
        self.probes = probes
        self._generator = stream.generator
        self._scores = np.zeros(universe_size)
        self._pending: np.ndarray | None = None
        self._issued = 0
        self._final: np.ndarray | None = None

    def next_query(self) -> np.ndarray:
        if self._issued < self.probes:
            self._pending = _random_half_indicator(self._generator, self.universe_size)
            self._issued += 1
            return self._pending
        if self._final is None:
            self._final = (self._scores > 0).astype(float)
            if not self._final.any():
                self._final[int(np.argmax(self._scores))] = 1.0
        return self._final

    def observe(self, answer: float) -> None:
        if self._pending is not None:
            sign = 1.0 if answer > 0.5 else -1.0
            self._scores += sign * (self._pending - 0.5)
            self._pending = None


@dataclass
class HarnessReport:
    """Per-trial error summary of one answerer under one adversary."""

    population_errors: np.ndarray
    empirical_errors: np.ndarray
    update_rounds: np.ndarray
    halted: np.ndarray
    rows: list

    def failure_fraction(self, alpha: float, empirical: bool = True) -> float:
        errors = self.empirical_errors if empirical else self.population_errors
        return float(np.mean(errors > alpha))


def adaptive_harness(
    probabilities: np.ndarray,
    n: int,
    m: int,
    adversary_factory: Callable[[int, RandomStream], object],
    answerer_factory: Callable[[Dataset, RandomStream], object],
    trials: int,
    stream: RandomStream,
    keep_rows: bool = False,
) -> HarnessReport:
    """Sample fresh data per trial and race an adversary against an answerer.

    Per trial: draw n records from ``probabilities``, let the adversary
    issue m adaptive queries, and record the worst empirical and population
    error of the answers.  Each query is validated once, as a LinearQuery,
    and handed to the answerer in that form.  A halted answerer ends its
    trial early with the errors collected so far.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 1 or abs(probabilities.sum() - 1.0) > 1e-9:
        raise ParameterError("probabilities must form a distribution")
    if probabilities.min() < 0:
        raise ParameterError("probabilities must be nonnegative")
    universe_size = probabilities.size
    population_errors = np.zeros(trials)
    empirical_errors = np.zeros(trials)
    update_rounds = np.zeros(trials, dtype=int)
    halted = np.zeros(trials, dtype=bool)
    rows: list = []
    for trial in range(trials):
        trial_stream = stream.split(trial)
        records = trial_stream.split(0).generator.choice(
            universe_size, size=n, p=probabilities
        )
        frequencies = np.bincount(records, minlength=universe_size) / n
        dataset = Dataset(records)
        answerer = answerer_factory(dataset, trial_stream.split(1))
        adversary = adversary_factory(universe_size, trial_stream.split(2))
        worst_population = 0.0
        worst_empirical = 0.0
        for index in range(m):
            query = adversary.next_query()
            if not isinstance(query, LinearQuery):
                query = LinearQuery(query)
            values = as_query_values(query, universe_size)
            try:
                answer = answerer.answer(query)
            except HaltedError:
                halted[trial] = True
                break
            adversary.observe(answer)
            population_truth = float(probabilities @ values)
            empirical_truth = float(frequencies @ values)
            worst_population = max(worst_population, abs(answer - population_truth))
            worst_empirical = max(worst_empirical, abs(answer - empirical_truth))
            if keep_rows:
                rows.append((trial, index, answer, empirical_truth, population_truth))
        population_errors[trial] = worst_population
        empirical_errors[trial] = worst_empirical
        update_rounds[trial] = getattr(answerer, "update_rounds", 0)
    return HarnessReport(population_errors, empirical_errors, update_rounds, halted, rows)
