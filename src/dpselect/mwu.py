"""Privately answering adaptive linear queries by multiplicative weights.

A public histogram over a finite universe guesses each query's answer; the
sparse-vector session privately checks whether the guess is within alpha of
the sample mean.  Agreement costs nothing on the TOP budget.  Disagreement
releases a noisy sample mean, re-checks it at alpha/2 (with up to three
redraws), and multiplies the histogram toward the released value, so the
number of paid rounds is governed by the learner's mistake bound
ln|X| / alpha**2 rather than by the query count.  Every release is charged
on the session state's ledger as one TOP unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from . import core
from .core import BOT, Dataset
from .errors import (
    HaltedError,
    InfeasibleParameters,
    ParameterError,
    check_above,
    check_count,
    check_unit_interval,
)
from .noise import RandomStream, sample_laplace
from .svt import RepetitiveSvt, SvtConfig, svt_params

_FIXED_POINT_CONSTANT = 40.0
_REDRAW_LIMIT = 3
_BLOCK_ENTRIES = 2**13
_SCORED_ENTRIES = 2**16


def _checked_query_values(values, ndim: int) -> np.ndarray:
    """``values`` as a nonempty float array of ``ndim`` dimensions in [0, 1]."""
    values = np.asarray(values, dtype=float)
    if values.ndim != ndim or values.size == 0:
        shape = "vector" if ndim == 1 else "table"
        raise ParameterError(f"query values must form a nonempty {shape}")
    # NaN fails both comparisons and an infinity fails one.
    if not (values.min() >= 0 and values.max() <= 1):
        raise ParameterError("query values must lie in [0, 1]")
    return values


@dataclass(frozen=True, slots=True)
class LinearQuery:
    """A statistical query: per-element values in [0, 1] over the universe."""

    values: np.ndarray

    def __post_init__(self):
        # Its own read-only copy: no later write can move a value out of [0, 1].
        values = _checked_query_values(np.array(self.values, dtype=float), 1)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def rows(cls, table) -> Iterator[LinearQuery]:
        """Check a 2-D table of query values once; its rows as queries, in order.

        The table is marked read-only, so no checked row is written through it.
        """
        table = _checked_query_values(table, 2)
        table.flags.writeable = False
        return map(cls._checked_row, table)

    @classmethod
    def _checked_row(cls, values: np.ndarray) -> LinearQuery:
        """A row of a checked table, wrapped without checking it again."""
        query = cls.__new__(cls)
        object.__setattr__(query, "values", values)
        return query

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        values = self.values if dtype is None else self.values.astype(dtype, copy=False)
        return values.copy() if copy else values


def as_query_values(query, universe_size: int) -> np.ndarray:
    values = query.values if isinstance(query, LinearQuery) else _checked_query_values(query, 1)
    if values.size != universe_size:
        raise ParameterError(
            f"query has {values.size} entries, universe has {universe_size}"
        )
    return values


def uniform_histogram(universe_size: int) -> np.ndarray:
    check_count("universe size", universe_size, least=2)
    return np.full(universe_size, 1.0 / universe_size)


def mwu_update(
    weights: np.ndarray, values: np.ndarray, direction: float, eta: float
) -> np.ndarray:
    """Tilt the histogram by exp(direction * eta * values) and renormalise."""
    if direction not in (-1.0, 1.0):
        raise ParameterError(f"direction must be +1 or -1, got {direction}")
    check_above("eta", eta, inclusive=True)
    tilted = weights * np.exp(direction * eta * values)
    return tilted / tilted.sum()


def _check_records(records, universe_size: int) -> np.ndarray:
    """The records as a nonempty vector of universe indices, else ParameterError."""
    records = np.asarray(records)
    # Test the dtype first: a cast would truncate floats, and min() warns on NaN.
    if not (
        records.ndim == 1
        and records.size > 0
        and records.dtype.kind in "iu"
        and records.min() >= 0
        and records.max() < universe_size
    ):
        raise ParameterError("records must be a nonempty vector of universe indices")
    return records


def _record_counts(records: np.ndarray, universe_size: int) -> np.ndarray:
    """``np.bincount(records, minlength=universe_size)`` of checked records.

    Sorted records, as the harness lays them out, are counted by the ends of
    their runs: bincount's increments of one counter wait on each other, so
    on long runs of equal records it takes about twice its shuffled time.
    Runs are searched in the records' dtype when it holds every index.
    """
    if (records[1:] >= records[:-1]).all():
        dtype = np.result_type(records.dtype, np.min_scalar_type(universe_size - 1))
        starts = records.searchsorted(np.arange(1, universe_size, dtype=dtype))
        return np.diff(starts, prepend=0, append=records.size)
    return np.bincount(records, minlength=universe_size)


def _fixed_point_terms(
    universe_size: int, m: int, epsilon: float, delta: float, beta: float
) -> tuple[float, float]:
    """Check the problem and return n*A and n*B of the fixed point (see solve_alpha)."""
    check_count("universe size", universe_size, least=2)
    check_count("m", m, least=2)
    check_above("epsilon", epsilon)
    check_unit_interval("delta", delta)
    check_unit_interval("beta", beta)
    budget = math.sqrt(math.log(universe_size) * math.log(1.0 / delta)) * math.log(m) / epsilon
    return budget, math.log(1.0 / beta) / epsilon


def solve_alpha(
    universe_size: int,
    n: int,
    m: int,
    epsilon: float,
    delta: float,
    beta: float,
) -> float:
    """Smallest alpha in (0, 1) with alpha >= C * (A / alpha + B), in closed form.

    A = sqrt(ln|X| ln(1/delta)) * ln(m) / (n * eps) couples the accuracy to
    the update budget ln|X| / alpha**2; B = ln(1/beta) / (n * eps) is the
    per-query confidence term, and C = 40.  The right-hand side falls in
    alpha, so the feasible set is [alpha*, inf) for the positive root alpha*
    of alpha**2 - C*B*alpha - C*A = 0.  Raises InfeasibleParameters when
    that root exceeds 1.
    """
    budget, confidence = _fixed_point_terms(universe_size, m, epsilon, delta, beta)
    check_count("n", n)
    cb = _FIXED_POINT_CONSTANT * confidence / n
    alpha = (cb + math.sqrt(cb * cb + 4.0 * _FIXED_POINT_CONSTANT * budget / n)) / 2.0
    if alpha > 1.0:
        raise InfeasibleParameters(
            "no alpha in (0, 1) satisfies the fixed point; grow n or epsilon"
        )
    return alpha


def sample_size_for_accuracy(
    alpha: float,
    universe_size: int,
    m: int,
    epsilon: float,
    delta: float,
    beta: float,
) -> int:
    """Smallest n whose solved fixed point (C = 40) reaches the target alpha."""
    check_unit_interval("alpha", alpha)
    budget, confidence = _fixed_point_terms(universe_size, m, epsilon, delta, beta)
    return math.ceil(_FIXED_POINT_CONSTANT * (budget / alpha**2 + confidence / alpha))


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

    The SVT is provisioned for 4m threshold queries at sensitivity 1/n, with
    its confidence clamped into the regime its own analysis covers.  A
    session issues one per answer and at most four per update round, so at
    most m + 4k' in all, which exceeds 4m once k' > 3m/4: at the
    ``mwu-bench`` defaults (m = 16, k' = 39) up to 172 queries meet a
    provisioning of 64, while criterion 10's point (m = 500, k' = 112) stays
    within it, 948 against 2,000.  ``alpha_override`` skips the fixed point to
    operate outside the guaranteed regime, e.g. for demos at small n;
    everything downstream is derived from the override instead.
    """
    check_count("universe size", universe_size, least=2)
    check_count("n", n)
    if alpha_override is None:
        alpha = solve_alpha(universe_size, n, m, epsilon, delta, beta)
    else:
        check_unit_interval("alpha_override", alpha_override)
        alpha = float(alpha_override)
    k = math.ceil(math.log(universe_size) / alpha**2)
    svt = svt_params(epsilon, delta, k, 4 * m, min(beta, 0.9 / (4 * m)), sensitivity=1.0 / n)
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
    )


class MwuSession:
    """One dataset, one SVT budget, adaptively many linear queries.

    ``answer`` returns the public guess when the private checks agree with
    it, otherwise a released (noisy, re-checked) sample mean.  The session
    halts for good when the SVT's TOP budget k' runs out; a halted session
    raises HaltedError on every further query.  Its bill is read from the
    state's ledger: ``state.pure_cost()`` or ``state.approx_cost(delta)``.

    Each comparison is one SVT check, at threshold 0, of the distance
    |sample mean - center| less a radius: alpha for the guess, alpha/2 for a
    release.  It has the sample mean's sensitivity 1/n (it is 1-Lipschitz in
    the mean, and the center and radius are public).  The session reads its
    records once, at construction, and hands each check's value to the SVT
    as a number.  A session issues at most m + 4 * update rounds <= m + 4k'
    SVT queries.
    """

    def __init__(self, config: MwuConfig, dataset: Dataset, stream: RandomStream):
        records = _check_records(dataset.fetch(), config.universe_size)
        if records.size != config.n:
            raise ParameterError(
                f"dataset has {records.size} records, config says {config.n}"
            )
        self.config = config
        self.dataset = dataset
        self.state = core.init(config.svt.gamma, dataset, stream)
        self._svt = RepetitiveSvt(config.svt, self.state)
        self.update_rounds = 0
        self.release_count = 0
        # Row 0 is the public histogram, row 1 the frozen empirical
        # frequencies, so one product gives the guess and the sample mean.
        self._table = np.stack([
            uniform_histogram(config.universe_size),
            _record_counts(records, config.universe_size) / config.n,
        ])

    @property
    def weights(self) -> np.ndarray:
        """The public histogram, a view that each update rewrites in place."""
        return self._table[0]

    @property
    def halted(self) -> bool:
        return self._svt.halted

    def _within(self, mean: float, center: float, radius: float) -> bool:
        """One SVT check of |sample mean - center| - radius <= 0."""
        return self._svt.process(abs(mean - center) - radius) is BOT

    def answer(self, query) -> float:
        """Answer one linear query; may consume update budget."""
        values = as_query_values(query, self.config.universe_size)
        guess, mean = self._table.dot(values).tolist()
        if self._within(mean, guess, self.config.alpha):
            return min(max(guess, 0.0), 1.0)

        # The SVT budget is the only halt needed: a failed _within settled a
        # TOP, which charged at least one SVT batch, so update_rounds <=
        # _svt.charged <= k' and the SVT raises HaltedError at k' first.
        self.update_rounds += 1
        epsilon_prime = self.config.svt.epsilon_prime
        scale = self.config.svt.sensitivity / epsilon_prime
        released = 0.0
        for _ in range(1 + _REDRAW_LIMIT):
            released = mean + sample_laplace(self.state.stream, scale)
            # An epsilon'-DP release is dominated by one TOP unit on the ledger.
            self.state.ledger.register(epsilon_prime)
            self.state.ledger.top_responses += 1
            self.release_count += 1
            if self._within(mean, released, self.config.alpha / 2.0):
                break
        direction = 1.0 if released >= guess else -1.0
        self._table[0] = mwu_update(self._table[0], values, direction, self.config.eta)
        return min(max(released, 0.0), 1.0)


class FixedPoolAdversary:
    """Issues a pre-built list of queries, ignoring the answers."""

    def __init__(self, queries: Sequence):
        self._queries = [
            query if isinstance(query, LinearQuery) else LinearQuery(query) for query in queries
        ]
        if not self._queries:
            raise ParameterError("the query pool must not be empty")
        self._cursor = 0

    def next_query(self) -> LinearQuery:
        query = self._queries[self._cursor % len(self._queries)]
        self._cursor += 1
        return query

    def observe(self, answer: float) -> None:
        pass


def _half_subsets(generator: np.random.Generator, size: int) -> Iterator[LinearQuery]:
    """Endless indicator queries of independent uniformly random size // 2 subsets.

    Rows are shuffled a block at a time, each row on its own, so every row
    is a uniform half-subset independent of the others.  A block holds at
    most _BLOCK_ENTRIES entries, or one row when a row is longer, and is
    range-checked once.
    """
    block = np.zeros((max(1, _BLOCK_ENTRIES // size), size))
    block[:, : size // 2] = 1.0
    while True:
        yield from LinearQuery.rows(generator.permuted(block, axis=1))


class RandomSubsetAdversary:
    """Issues indicator queries of fresh uniformly random half-subsets."""

    def __init__(self, universe_size: int, stream: RandomStream):
        check_count("universe size", universe_size)
        self.universe_size = universe_size
        self._subsets = _half_subsets(stream.generator, universe_size)

    def next_query(self) -> LinearQuery:
        return next(self._subsets)

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
        check_count("universe size", universe_size)
        check_count("probes", probes)
        self.universe_size = universe_size
        self.probes = probes
        self._subsets = _half_subsets(stream.generator, universe_size)
        self._scores = np.zeros(universe_size)
        self._pending: LinearQuery | None = None
        self._issued = 0
        self._final: LinearQuery | None = None

    def next_query(self) -> LinearQuery:
        if self._issued < self.probes:
            self._pending = next(self._subsets)
            self._issued += 1
            return self._pending
        if self._final is None:
            final = (self._scores > 0).astype(float)
            if not final.any():
                final[int(np.argmax(self._scores))] = 1.0
            self._final = LinearQuery(final)
        return self._final

    def observe(self, answer: float) -> None:
        if self._pending is not None:
            sign = 1.0 if answer > 0.5 else -1.0
            self._scores += sign * (self._pending.values - 0.5)
            self._pending = None


@dataclass
class HarnessReport:
    """Per-trial error summary of one answerer under one adversary."""

    population_errors: np.ndarray
    empirical_errors: np.ndarray
    update_rounds: np.ndarray
    halted: np.ndarray
    rows: list

    def failure_fraction(self, alpha: float) -> float:
        """Share of trials whose worst empirical error exceeds alpha."""
        return float(np.mean(self.empirical_errors > alpha))


def _score_block(
    truths: np.ndarray, issued: np.ndarray, answers: np.ndarray, rows: list | None,
    trial: int, first: int,
) -> np.ndarray:
    """The worst (population, empirical) errors of a block of answered queries.

    One product gives both truths of every query in the block; a NaN answer
    makes both worst errors NaN.  With ``rows``, one (trial, index, answer,
    empirical truth, population truth) row per query is appended.
    """
    population, empirical = both = truths @ issued.T
    worst = np.abs(answers - both).max(axis=1, initial=0.0)
    if rows is not None:
        rows.extend(zip(
            repeat(trial), range(first, first + answers.size),
            answers.tolist(), empirical.tolist(), population.tolist(),
        ))
    return worst


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

    Per trial: draw n iid records from ``probabilities``, let the adversary
    issue m adaptive queries, and record the worst empirical and population
    error of the answers.  The records are drawn as one multinomial count
    vector, the law of the multiset of n iid draws, and laid out sorted in the
    narrowest dtype that holds every index.  Each query is validated once, as a
    LinearQuery, handed to the answerer in that form, and copied as issued into
    a buffer; one product scores a trial's answers at its end (or one per
    _SCORED_ENTRIES entries of queries, when m * |X| is larger).  A NaN answer
    counts as an unbounded error.  A halted answerer ends its trial early with
    the errors of the queries answered so far.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 1 or not abs(probabilities.sum() - 1.0) <= 1e-9:
        raise ParameterError("probabilities must form a distribution")
    if not probabilities.min() >= 0:
        raise ParameterError("probabilities must be nonnegative")
    check_count("n", n)
    check_count("m", m)
    check_count("trials", trials)
    universe_size = probabilities.size
    # multinomial refuses a vector whose sum exceeds 1 by more than 1e-12.
    draw_probabilities = probabilities / probabilities.sum()
    capacity = min(m, max(1, _SCORED_ENTRIES // universe_size))
    issued = np.empty((capacity, universe_size))
    indices = np.arange(universe_size, dtype=np.min_scalar_type(universe_size - 1))
    answers = np.empty(capacity)
    population_errors = np.zeros(trials)
    empirical_errors = np.zeros(trials)
    update_rounds = np.zeros(trials, dtype=int)
    halted = np.zeros(trials, dtype=bool)
    rows: list = []
    kept = rows if keep_rows else None
    for trial in range(trials):
        trial_stream = stream.split(trial)
        counts = trial_stream.split(0).generator.multinomial(n, draw_probabilities)
        truths = np.stack([probabilities, counts / n])
        dataset = Dataset(np.repeat(indices, counts))
        answerer = answerer_factory(dataset, trial_stream.split(1))
        adversary = adversary_factory(universe_size, trial_stream.split(2))
        worst = np.zeros(2)  # population, empirical
        first = count = 0  # the buffer holds answered queries first .. first + count - 1
        for index in range(m):
            if count == capacity:
                worst = np.maximum(worst, _score_block(truths, issued, answers, kept, trial, first))
                first, count = index, 0
            query = adversary.next_query()
            if not isinstance(query, LinearQuery):
                query = LinearQuery(query)
            # The copy also keeps the query as issued if its array is reused.
            issued[count] = as_query_values(query, universe_size)
            try:
                answer = answerer.answer(query)
            except HaltedError:
                halted[trial] = True
                break
            adversary.observe(answer)
            answers[count] = answer
            count += 1
        worst = np.maximum(
            worst, _score_block(truths, issued[:count], answers[:count], kept, trial, first)
        )
        worst[np.isnan(worst)] = math.inf
        population_errors[trial], empirical_errors[trial] = worst
        update_rounds[trial] = getattr(answerer, "update_rounds", 0)
    return HarnessReport(population_errors, empirical_errors, update_rounds, halted, rows)
