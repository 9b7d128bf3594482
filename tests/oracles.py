"""Independent reference implementations used to pin test expectations.

Nothing here imports the package under test; every function is a separate
derivation of a quantity the library also computes, so agreement between
the two is evidence rather than tautology.
"""

import math

import numpy as np


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
