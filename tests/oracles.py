"""Independent reference implementations used to pin test expectations.

Nothing here imports the package under test; every function is a separate
derivation of a quantity the library also computes, so agreement between
the two is evidence rather than tautology.
"""

import itertools
import math

import numpy as np
from scipy import special


def laplace_cdf(x, scale):
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))


def tlap_interval_mass(lo: float, hi: float, epsilon: float, delta: float) -> float:
    """P[lo <= v <= hi] for Laplace(1/eps) conditioned on |v| <= ln(1/delta)/eps.

    Trapezoid integration of the unnormalized density, deliberately not the
    closed form the library might use.
    """
    radius = math.log(1.0 / delta) / epsilon
    grid = np.linspace(-radius, radius, 2_000_001)
    normalizer = np.trapezoid(np.exp(-epsilon * np.abs(grid)), grid)
    a, b = max(lo, -radius), min(hi, radius)
    if a >= b:
        return 0.0
    window = np.linspace(a, b, 2_000_001)
    return float(np.trapezoid(np.exp(-epsilon * np.abs(window)), window) / normalizer)


def tlap_cdf_numeric(epsilon: float, delta: float):
    """Numeric CDF of the truncated Laplace, for KS comparisons."""
    radius = math.log(1.0 / delta) / epsilon
    grid = np.linspace(-radius, radius, 400_001)
    density = np.exp(-epsilon * np.abs(grid))
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2.0)))
    cdf /= cdf[-1]

    def evaluate(x):
        return np.interp(x, grid, cdf, left=0.0, right=1.0)

    return evaluate


def approx_cost_grid(
    c1: int, c2: int, epsilon: float, gamma: float, delta: float, step: float = 1e-4
) -> float:
    """Approximate-DP budget by brute-force minimization over the order alpha."""
    if c2 == 0:
        return (2 * c1 + 2 * c2 + gamma) * epsilon
    log_term = math.log(1.0 / delta)
    center = 1.0 + math.sqrt(log_term / (12.0 * c2 * epsilon * epsilon))
    alphas = np.arange(1.0 + step, 2.0 * center + 10.0, step)
    values = 12.0 * c2 * alphas * epsilon**2 + log_term / (alphas - 1.0)
    return 2 * c1 * epsilon + gamma * epsilon + float(values.min())


def halting_law_loop(chances, horizon):
    """Plain-loop halting law: (per-round halt probabilities, survivor mass)."""
    probabilities, alive = [], 1.0
    for chance in list(chances)[:horizon]:
        probabilities.append(alive * chance)
        alive *= 1.0 - chance
    return probabilities, alive


def renyi_e_value_loop(ps, qs, alpha: float) -> float:
    """E-value of the k=1 halting law computed with explicit loops."""
    mass_p, tail_p = halting_law_loop(ps, len(ps))
    mass_q, tail_q = halting_law_loop(qs, len(qs))
    total = 0.0
    for a, b in zip(mass_p + [tail_p], mass_q + [tail_q]):
        if a == 0.0:
            continue
        total += a * (a / b) ** (alpha - 1.0)
    return total


def max_log_ratio_loop(ps, qs) -> float:
    mass_p, tail_p = halting_law_loop(ps, len(ps))
    mass_q, tail_q = halting_law_loop(qs, len(qs))
    best = 0.0
    for a, b in zip(mass_p + [tail_p], mass_q + [tail_q]):
        if a == 0.0:
            continue
        best = max(best, a / b)
    return math.log(best) if best > 0 else 0.0


def random_schedule_loop(generator, length: int, epsilon: float):
    """A random promise-respecting schedule, drawn one uniform at a time.

    Each round draws q uniformly in [0.05, 0.95], then p uniformly between q
    and the largest value both closeness inequalities allow.  Returns the
    (ps, qs) lists.
    """
    grow, shrink = math.exp(epsilon), math.exp(-epsilon)
    ps, qs = [], []
    for _ in range(length):
        q = 0.05 + (0.95 - 0.05) * generator.random()
        p_cap = min(grow * q, 1.0 - (1.0 - q) * shrink)
        ps.append(q + (p_cap - q) * generator.random())
        qs.append(q)
    return ps, qs


def transcript_fold_loop(ps, qs, k: int, cap: int, alpha):
    """Sum of P (P/Q)^(alpha-1), or max of P/Q when alpha is None, over the
    truncated k-success transcripts, by the scalar recurrence over
    (round, ones seen).

    Zero-P outcomes are skipped (so a 0 * inf product never forms) and a
    positive-P, zero-Q outcome gives +inf, as does a power past the largest
    double (where Python's ** raises OverflowError).
    """

    def factor(mass_p, mass_q):
        if mass_p == 0.0:
            return 0.0
        if mass_q == 0.0:
            return math.inf
        ratio = mass_p / mass_q
        if alpha is None:
            return ratio
        try:
            return mass_p * ratio ** (alpha - 1.0)
        except OverflowError:
            return math.inf

    fold = max if alpha is None else (lambda a, b: a + b)
    alive = [1.0] + [0.0] * (k - 1)
    halted = 0.0
    for p, q in zip(list(ps)[:cap], list(qs)[:cap]):
        one, zero = factor(p, q), factor(1.0 - p, 1.0 - q)
        following = [0.0] * k
        for ones, value in enumerate(alive):
            if value == 0.0:
                continue
            if zero:
                following[ones] = fold(following[ones], value * zero)
            if one:
                if ones + 1 == k:
                    halted = fold(halted, value * one)
                else:
                    following[ones + 1] = fold(following[ones + 1], value * one)
        alive = following
    for value in alive:
        halted = fold(halted, value)
    return halted


def promise_vertices(epsilon: float) -> list:
    """The promise region's vertices: (0, 0), (1, 1) and randomized response.

    The region {q <= p, p <= e^eps q, 1 - q <= e^eps (1 - p)} is a triangle
    (its fourth inequality follows from q <= p).
    """
    grow = math.exp(epsilon)
    return [(0.0, 0.0), (1.0, 1.0), (grow / (1.0 + grow), 1.0 / (1.0 + grow))]


def adaptive_values(pairs, k: int, alpha, cap: int) -> list:
    """The best value any adaptive adversary choosing among ``pairs`` reaches
    in the k-success game, truncated at each cap 1..cap.

    The value is the E-value sum_x P(x) (P(x)/Q(x))^(alpha-1), or, when alpha
    is None, the largest ratio P(x)/Q(x).  It is a backward recursion over
    rounds left and ones seen: a state's value is the best pair's
    f1 * (its value with one more one) + f0 * (with the same ones), or the
    larger of those two products for the max, where f1, f0 are the pair's
    one and zero factors, as in the forward recurrence.  A state with k ones,
    or no rounds left, is an outcome worth 1.  The adversary sees the
    transcript, but the values ahead depend on it only through (round, ones),
    so the best choice does too; a randomised adversary mixes deterministic
    ones and does no better.
    """

    def factor(mass_p, mass_q):
        if mass_p == 0.0:
            return 0.0
        ratio = mass_p / mass_q
        return ratio if alpha is None else mass_p * ratio ** (alpha - 1.0)

    factors = [(factor(p, q), factor(1.0 - p, 1.0 - q)) for p, q in pairs]
    values = [1.0] * (k + 1)
    by_cap = []
    for _ in range(cap):
        following = []
        for ones in range(k):
            more, same = values[ones + 1], values[ones]
            if alpha is None:
                best = max(max(one * more, zero * same) for one, zero in factors)
            else:
                best = max(one * more + zero * same for one, zero in factors)
            following.append(best)
        values = following + [1.0]
        by_cap.append(values[0])
    return by_cap


def worst_case_e_value(epsilon: float, k: int, alpha, cap: int) -> float:
    """The supremum, over every adaptive adversary, of the cap-truncated
    k-success game's E-value (alpha None: of its largest P/Q ratio).

    Each factor f1 = p^alpha q^(1-alpha), and f0 the same form on (1 - p,
    1 - q), is a perspective of t^alpha, so jointly convex for alpha > 1, and
    p/q is linear-fractional: the best pair at each state is one of the
    promise region's three vertices (Boyd & Vandenberghe, Convex
    Optimization, 3.2.6).
    """
    return adaptive_values(promise_vertices(epsilon), k, alpha, cap)[-1]


def pair_is_valid(p: float, q: float, epsilon: float, tol: float = 1e-12) -> bool:
    grow = math.exp(epsilon)
    return (
        q <= p + tol
        and p <= grow * q + tol
        and (1.0 - q) <= grow * (1.0 - p) + tol
        and (1.0 - p) <= grow * (1.0 - q) + tol
    )


def run_coin_game(b: int, epsilon: float, k: int, pairs, generator) -> list:
    """Play the coin game with hidden bit b until k ones or the schedule ends.

    Round i flips Ber(p_i) when b = 0 and Ber(q_i) when b = 1, as
    ``generator.random() < chance``; a pair that breaks the closeness promise
    aborts the game with ValueError before its coin is flipped.
    """
    transcript, ones = [], 0
    for p, q in pairs:
        if not pair_is_valid(p, q, epsilon):
            raise ValueError(f"pair ({p}, {q}) breaks the promise at eps={epsilon}")
        outcome = int(generator.random() < (p if b == 0 else q))
        transcript.append(outcome)
        ones += outcome
        if ones == k:
            break
    return transcript


def median_boost_budget(alpha: float, beta: float) -> int:
    if alpha == 1:
        return math.ceil(2.0 / beta)
    return math.ceil(5.0 * (2.0 / beta) ** (1.0 / alpha) * math.log(1.0 / beta))


def fired_count_pmf(gamma: float, tau: int) -> np.ndarray:
    """P(N = j), j = 0..tau, for the fired count N of tau gated runs.

    N ~ Binomial(tau, p) for a gate p of density gamma * p**(gamma - 1), so
    P(N = j) = C(tau, j) * gamma * B(j + gamma, tau - j + 1).  At gamma = 1
    it is uniform on 0..tau, and E[N] = tau * gamma / (gamma + 1).
    """
    j = np.arange(tau + 1)
    log_choose = special.gammaln(tau + 1) - special.gammaln(j + 1) - special.gammaln(tau - j + 1)
    return np.exp(log_choose + math.log(gamma) + special.betaln(j + gamma, tau - j + 1))


def no_success(gamma: float, tau: int, F: float) -> float:
    """E[(1 - p*F)**tau] for a gate p of density gamma * p**(gamma - 1) on [0, 1].

    The chance that none of tau gated runs both fires and succeeds, each run
    succeeding with chance F: gamma * F**-gamma * B(gamma, tau + 1) *
    I_F(gamma, tau + 1), with I the regularized incomplete beta, summed in
    log space.  Where (gamma + tau + 1) * F < 1/2 that product underflows as
    F falls, and the value is read from the equal form (1 - F)**(tau + 1) *
    2F1(gamma + tau + 1, 1; gamma + 1; F), whose series then shrinks at
    least twofold a term; F = 0 gives 1.  betaln takes a difference of
    lgammas, so around tau = 4e5 its relative error reaches about 4e-10.
    """
    b = tau + 1.0
    if (gamma + b) * F < 0.5:
        term = total = 1.0
        i = 0
        while term > 1e-17 * total:
            term *= (gamma + b + i) / (gamma + 1.0 + i) * F
            total += term
            i += 1
        return math.exp(b * math.log1p(-F) + math.log(total))
    return math.exp(math.log(gamma) - gamma * math.log(F) + special.betaln(gamma, b)
                    + math.log(special.betainc(gamma, b, F)))


def median_boost_failure(alpha: float, tau: int) -> float:
    """E[(1 - p/2)**tau] for a gate p of density alpha * p**(alpha - 1) on [0, 1].

    Each of tau coins fires with chance p and a fired run beats the median
    with chance at least 1/2, so this bounds the median boost's failure.
    """
    return no_success(alpha, tau, 0.5)


def no_fire_probability(m: int, tau: int) -> float:
    """E[(1 - p)**(m * tau)] = 1 / (m * tau + 1): no coin fires, p uniform on [0, 1]."""
    return no_success(1.0, m * tau, 1.0)


def svt_recipe(epsilon, delta, k, m, beta, sensitivity=1.0, pure_dp=False):
    gamma = math.log(20.0 / beta) / math.log(m)
    if pure_dp:
        epsilon_prime = epsilon / (gamma + k)
    else:
        epsilon_prime = epsilon / (gamma + math.sqrt(k * math.log(1.0 / delta)))
    return {
        "epsilon_prime": epsilon_prime,
        "gamma": gamma,
        "d": 10.0 * sensitivity * math.log(m) / epsilon_prime,
        "tau": 5 * m * m,
        "k_prime": k + math.ceil(7.0 * math.log(1.0 / beta) / math.log(m)),
    }


def accuracy_closed_form(
    universe_size, n, m, epsilon, delta, beta, constant=40.0
) -> float:
    """Positive root of alpha = C * (A / alpha + B), the fixed-point target."""
    a_term = (
        math.sqrt(math.log(universe_size) * math.log(1.0 / delta))
        * math.log(m)
        / (n * epsilon)
    )
    b_term = math.log(1.0 / beta) / (n * epsilon)
    cb = constant * b_term
    return (cb + math.sqrt(cb * cb + 4.0 * constant * a_term)) / 2.0


def accuracy_grid_scan(
    universe_size, n, m, epsilon, delta, beta, constant=40.0, step=1e-6
) -> float:
    """Smallest alpha on a dense grid with nonnegative fixed-point slack."""
    a_term = (
        math.sqrt(math.log(universe_size) * math.log(1.0 / delta))
        * math.log(m)
        / (n * epsilon)
    )
    b_term = math.log(1.0 / beta) / (n * epsilon)
    alphas = np.arange(step, 1.0 + step, step)
    ok = alphas - constant * (a_term / alphas + b_term) >= 0.0
    hits = np.nonzero(ok)[0]
    return float(alphas[hits[0]]) if hits.size else float("nan")


def chernoff_uniform_bound(n: int, m: int, beta: float) -> float:
    """Max absolute deviation of m mean-queries on n samples, w.p. 1 - beta."""
    return math.sqrt(math.log(2.0 * m / beta) / (2.0 * n))


class EmpiricalAnswerer:
    """The naive baseline: every query answered with the exact sample mean.

    ``dataset`` is anything whose ``fetch()`` returns integer records in
    [0, universe_size); the frequencies are ``np.bincount`` counts over n,
    and each answer fetches once, as a private answerer would.
    """

    def __init__(self, dataset, universe_size: int):
        records = np.asarray(dataset.fetch())
        self.dataset = dataset
        self._frequencies = np.bincount(records, minlength=universe_size) / records.size

    def answer(self, query) -> float:
        self.dataset.fetch()
        return float(self._frequencies @ np.asarray(query, dtype=float))


def harness_scores_loop(probabilities, trials):
    """Worst errors and per-query rows of an adaptive harness, query by query.

    ``trials`` holds, per trial, its records, the queries it answered (as
    issued) and their answers.  Each truth is an fsum over the universe of
    probability (or record frequency) times query value, and a NaN answer is
    an unbounded error.  Returns the (population, empirical) worst errors per
    trial and a (trial, index, answer, empirical, population) row per query.
    """
    worst, rows = [], []
    for trial, (records, queries, answers) in enumerate(trials):
        counts = [0] * len(probabilities)
        for record in records:
            counts[int(record)] += 1
        frequencies = [count / len(records) for count in counts]
        population_error = empirical_error = 0.0
        for index, (query, answer) in enumerate(zip(queries, answers)):
            population = math.fsum(p * float(v) for p, v in zip(probabilities, query))
            empirical = math.fsum(f * float(v) for f, v in zip(frequencies, query))
            if math.isnan(answer):
                population_error = empirical_error = math.inf
            else:
                population_error = max(population_error, abs(answer - population))
                empirical_error = max(empirical_error, abs(answer - empirical))
            rows.append((trial, index, answer, empirical, population))
        worst.append((population_error, empirical_error))
    return worst, rows


def half_subsets_loop(generator, size: int, block_rows: int):
    """Half-subset indicator rows as plain arrays: each block of ``block_rows``
    rows is the template (ones in the first size // 2 columns) permuted row by
    row, the draw the random adversaries make."""
    template = np.zeros((block_rows, size))
    template[:, : size // 2] = 1.0
    while True:
        yield from generator.permuted(template, axis=1)


# Frozen constants derived from the formulas above (values double-checked by
# running this module's functions; tests assert both the frozen number and
# live agreement so a drifting oracle is caught too).
TLAP_UNIT_MASS_EPS1_DELTA_E3 = 0.33262047788716814
APPROX_EXAMPLE_GRID = 1.327579615775816
E_VALUE_TWO_PAIR = 1.01405
E_VALUE_SINGLE_PAIR = 1.0047403951466605
E_VALUE_BERNOULLI_EXAMPLE = 1.0091386760983547
SVT_EXAMPLE = {
    "epsilon_prime": 0.08982080498065813,
    "gamma": 2.8219874073482494,
    "d": 512.7064032636717,
    "tau": 50000,
    "k_prime": 21,
}
ALPHA_EXAMPLE_CLOSED = 0.1386576017545306


def peeled_set_law(scores, epsilon: float, sensitivity: float, k: int) -> dict:
    """Exact law of the k-set picked one index at a time without replacement.

    Each pick takes a remaining index with probability proportional to
    exp(epsilon * score / (2 * sensitivity)); the law of the set sums the
    probabilities of its k! pick orders.
    """
    weights = [math.exp(epsilon * s / (2.0 * sensitivity)) for s in scores]
    law = {}
    for order in itertools.permutations(range(len(weights)), k):
        mass, left = 1.0, sum(weights)
        for i in order:
            mass *= weights[i] / left
            left -= weights[i]
        law[frozenset(order)] = law.get(frozenset(order), 0.0) + mass
    return law


def best_topk_run(generator, scores, k, logit_scale, laplace_scale, margin, count, rows, gap):
    """Best-certified (k-set, certificate) of ``count`` top-k base runs, run by run.

    Runs are drawn in blocks of ``rows``: a block's standard Gumbel matrix
    (the negated log of standard exponentials), then its Laplace vector.
    Each run keeps the k largest of its perturbed logits by a full sort and
    is scored by ``gap`` (the caller's scalar gap function) plus its Laplace
    draw plus ``margin``; the first run with the lowest certificate wins.
    """
    scores = np.asarray(scores, dtype=float)
    best = None
    for start in range(0, count, rows):
        size = min(rows, count - start)
        gumbel = -np.log(generator.standard_exponential((size, scores.size)))
        laplace = generator.laplace(0.0, laplace_scale, size)
        for noise, lap in zip(gumbel, laplace):
            chosen = [int(i) for i in np.argsort(-(scores * logit_scale + noise))[:k]]
            certificate = gap(chosen, scores) + float(lap) + margin
            if best is None or certificate < best[1]:
                best = (frozenset(chosen), certificate)
    return best


def noisy_max_per_run(generator, p, tau, m, score, draw):
    """Gated report-noisy-max in which every fired run computes its own score.

    Index i, in order, fires Binomial(tau, p) runs from ``generator``; each
    run calls ``score(i)`` afresh and adds ``draw()``, and the first run with
    the strictly largest noisy score wins.  Returns None when nothing fired.
    """
    best = None
    for index in range(m):
        for _ in range(int(generator.binomial(tau, p))):
            value = score(index) + draw()
            if best is None or value > best[1]:
                best = (index, value)
    return None if best is None else best[0]


def choosing_per_run(generator, p, tau, evaluators, dataset, draw):
    """The choosing mechanism's body run by run: one evaluator call per run."""
    return noisy_max_per_run(
        generator, p, tau, len(evaluators), lambda i: evaluators[i](dataset), draw
    )


def stable_per_run(generator, p, tau, evaluators, dataset, k, draw):
    """Stable selection's body run by run: each run reads all m scores and
    clamps its own at zero after re-centring at the (k+1)-th largest."""

    def lifted(index):
        scores = [float(f(dataset)) for f in evaluators]
        return max(scores[index] - sorted(scores)[-(k + 1)], 0.0)

    return noisy_max_per_run(generator, p, tau, len(evaluators), lifted, draw)
