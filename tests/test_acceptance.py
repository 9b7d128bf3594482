"""Acceptance gate: one test per shipped guarantee, at full stated scale.

Each test here is one pass/fail line for one criterion, ordered as in the
project brief.  Scales (sample sizes, trial counts, tolerances) are the
contract values, not scaled-down smoke numbers; the module tests carry the
fine-grained cases, this file answers "does the toolkit hold its bounds".
"""

import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import oracles
from conftest import CountingMechanism, make_dataset
from dpselect import cli, core
from dpselect.coingame import (
    DeterministicAdversary,
    exact_renyi,
    random_valid_schedule,
    transcript_max_log_ratio,
    transcript_renyi,
)
from dpselect.core import BOT, EMPTY, TOP, Dataset, Mechanism
from dpselect.errors import HaltedError, PromiseViolation
from dpselect.mwu import (
    MwuSession,
    OverfittingAdversary,
    RandomSubsetAdversary,
    adaptive_harness,
    make_mwu_config,
    sample_size_for_accuracy,
    solve_alpha,
)
from dpselect.noise import RandomStream, sample_pass_probability
from dpselect.selectapps import BtmConfig, ScoredCandidate, better_than_median
from dpselect.svt import (
    RepetitiveSvt,
    above_hypothesis,
    below_hypothesis,
    svt_params,
)


def ks_distance(samples: np.ndarray, model_cdf: np.ndarray) -> float:
    order = np.argsort(samples)
    cdf = model_cdf[order]
    n = samples.size
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(n) / n)
    return float(max(upper, lower))


def test_criterion_01_pass_probability_law():
    root = RandomStream(9101)
    for index, gamma in enumerate([0.5, 1.0, 2.0]):
        samples = sample_pass_probability(root.split(index), gamma, size=1_000_000)
        distance = ks_distance(samples, samples**gamma)
        assert distance < 0.005, f"gamma={gamma}: KS={distance:.4f}"


def test_criterion_02_uniform_run_count_marginal():
    tau = 20
    trials = 1_000_000
    root = RandomStream(9102)
    dataset = make_dataset()
    counter = CountingMechanism()
    counts = np.zeros(tau + 1, dtype=np.int64)
    for trial in range(trials):
        state = core.init(1.0, dataset, root.split(trial))
        before = counter.calls
        state.selection(tau, [counter.mechanism])
        counts[counter.calls - before] += 1
    expected = trials / (tau + 1)
    statistic = float(((counts - expected) ** 2 / expected).sum())
    cutoff = stats.chi2.ppf(1.0 - 1e-3, df=tau)
    assert statistic < cutoff, f"chi2={statistic:.1f} vs cutoff={cutoff:.1f}"


def test_criterion_03_renyi_quadratic_bound_sweep():
    root = RandomStream(9103)
    min_margin = math.inf
    checked = 0
    for block, epsilon in enumerate([0.05, 0.1, 0.2, 0.3]):
        block_stream = root.split(block)
        for trial in range(1000):
            trial_stream = block_stream.split(trial)
            length = int(trial_stream.generator.integers(1, 9))
            adversary = random_valid_schedule(trial_stream, length, epsilon)
            for alpha in (1.5, 2.0, 1.0 / (3.0 * epsilon)):
                bound = 1.0 + 3.0 * alpha * (alpha - 1.0) * epsilon**2
                value = exact_renyi(adversary, alpha)
                margin = bound - value
                min_margin = min(min_margin, margin)
                checked += 1
                assert value <= bound, (
                    f"eps={epsilon} alpha={alpha}: {value} > {bound}"
                )
    print(f"quadratic-bound sweep: {checked} checks, min margin {min_margin:.3e}")
    assert min_margin >= 0.0


def test_criterion_04_transcript_enumeration_bounds():
    root = RandomStream(9104)
    epsilons = [0.05, 0.1, 0.2]
    for trial in range(200):
        epsilon = epsilons[trial % len(epsilons)]
        adversary = random_valid_schedule(root.split(trial), 12, epsilon)
        for k in (1, 2, 3):
            log_ratio = transcript_max_log_ratio(adversary, k, cap=12)
            assert log_ratio <= k * epsilon + 1e-12, (
                f"trial={trial} k={k}: {log_ratio} > {k * epsilon}"
            )
            for alpha in (1.5, 2.0):
                e_value = transcript_renyi(adversary, k, alpha, cap=12)
                divergence = math.log(e_value) / (alpha - 1.0)
                assert divergence <= 3.0 * k * alpha * epsilon**2 + 1e-9, (
                    f"trial={trial} k={k} alpha={alpha}: {divergence}"
                )


def test_criterion_05_bernoulli_bound_grid():
    held = 0
    outside = []
    for epsilon in (0.05, 0.1, 0.2):
        alpha = 1.0 / (3.0 * epsilon)
        for p in np.arange(0.1, 0.95, 0.1):
            q = p * math.exp(-epsilon)
            try:
                single = DeterministicAdversary.from_probabilities([(float(p), q)], epsilon)
            except PromiseViolation:
                outside.append((round(float(p), 1), epsilon))
                continue
            value = exact_renyi(single, alpha)
            bound = 1.0 + alpha * (alpha - 1.0) * epsilon**2
            assert value <= bound + 1e-12
            held += 1
    # the schedule refuses points whose complement side breaks the two-sided
    # promise (p above 1/(1+e^-eps)); those are outside the bound's precondition
    predicted = [
        (round(float(p), 1), epsilon)
        for epsilon in (0.05, 0.1, 0.2)
        for p in np.arange(0.1, 0.95, 0.1)
        if not oracles.pair_is_valid(float(p), float(p) * math.exp(-epsilon), epsilon)
    ]
    assert outside == predicted
    assert held == 27 - len(predicted) == 15


def test_criterion_06_median_boost_budget_and_confidence():
    grid_alphas = [1.0, 1.5, 2.0, 3.0]
    grid_betas = [0.01, 0.05, 0.1, 0.3, 0.5]
    for alpha in grid_alphas:
        for beta in grid_betas:
            config = BtmConfig(alpha, beta)
            assert config.budget == oracles.median_boost_budget(alpha, beta)

    def uniform_score(dataset: Dataset, stream: RandomStream) -> ScoredCandidate:
        return ScoredCandidate(0, float(stream.generator.random()))

    base = Mechanism(uniform_score, epsilon=0.05)
    dataset = make_dataset()
    root = RandomStream(9106)
    for setting, (alpha, beta) in enumerate([(1.0, 0.1), (2.0, 0.05)]):
        config = BtmConfig(alpha, beta)
        failures = 0
        trials = 10_000
        setting_stream = root.split(setting)
        for trial in range(trials):
            state = core.init(alpha, dataset, setting_stream.split(trial))
            chosen = better_than_median(base, config, state)
            if chosen is EMPTY or chosen.score < 0.5:
                failures += 1
        limit = beta + 3.0 * math.sqrt(beta * (1.0 - beta) / trials)
        assert failures / trials <= limit, (
            f"(alpha={alpha}, beta={beta}): rate {failures / trials:.4f} > {limit:.4f}"
        )


def test_criterion_07_accountant_exactness():
    generator = np.random.default_rng(9107)
    for _ in range(50):
        ledger = core.AccountantLedger()
        epsilon = float(generator.uniform(0.001, 0.5))
        ledger.register(epsilon)
        ledger.selection_calls = int(generator.integers(0, 21))
        ledger.top_responses = int(generator.integers(0, 51))
        gamma = float(generator.uniform(0.3, 4.0))
        want = (
            2 * ledger.selection_calls + 2 * ledger.top_responses + gamma
        ) * epsilon
        assert core.pure_dp_cost(ledger, gamma).epsilon == pytest.approx(
            want, rel=1e-12
        )
    for _ in range(100):
        ledger = core.AccountantLedger()
        epsilon = float(generator.uniform(0.01, 0.3))
        ledger.register(epsilon)
        ledger.selection_calls = int(generator.integers(0, 6))
        ledger.top_responses = int(generator.integers(1, 201))
        gamma = float(generator.uniform(0.5, 2.0))
        delta = float(10.0 ** generator.uniform(-9, -2))
        got = core.approx_dp_cost(ledger, gamma, delta).epsilon
        reference = oracles.approx_cost_grid(
            ledger.selection_calls, ledger.top_responses, epsilon, gamma, delta
        )
        assert abs(got - reference) <= 1e-3, (
            f"c2={ledger.top_responses} eps={epsilon} delta={delta}: "
            f"{got} vs {reference}"
        )


def test_criterion_08_svt_semantics_at_scale():
    m, k, beta = 200, 10, 1e-3
    config = svt_params(1.0, 1e-6, k, m, beta)
    thresholds = np.zeros(m)
    values = np.full(m, -1.5 * config.d)
    values[::8] = 0.5 * config.d  # 25 genuine TOPs, spaced through the stream
    violating_runs = 0
    root = RandomStream(9108)
    for run in range(100):
        dataset = Dataset(values)
        state = core.init(config.gamma, dataset, root.split(run))
        session = RepetitiveSvt(config, state)
        answered = 0
        tops = 0
        violated = False
        try:
            for index in range(m):
                verdict = session.process(
                    float(dataset.fetch()[index]) - thresholds[index]
                )
                answered += 1
                if verdict is BOT:
                    violated |= values[index] > thresholds[index]
                else:
                    tops += 1
                    violated |= values[index] < thresholds[index] - config.d
        except HaltedError:
            pass
        violating_runs += violated
        assert answered == m or tops >= k, f"run={run}: {answered} answered, {tops} tops"
        assert session.charged <= config.k_prime
        cost = state.pure_cost()
        assert cost.epsilon == pytest.approx(
            (2 * session.charged + config.gamma) * config.epsilon_prime, rel=1e-12
        )
        batches = answered + 1 + session.charged
        assert dataset.access_count <= config.tau * batches
    assert violating_runs / 100 <= 1e-2, f"{violating_runs} violating runs"


def _sum_evaluator(dataset: Dataset) -> float:
    # Two records as Python floats: their sum is np.sum's double at a
    # fraction of the cost, over the audit's millions of evaluations.
    first, second = dataset.fetch()
    return first + second


def _randomized_response(epsilon: float):
    lift = math.exp(epsilon) / (1.0 + math.exp(epsilon))

    def run(dataset: Dataset, stream: RandomStream) -> int:
        high = _sum_evaluator(dataset) >= 0.5
        chance = lift if high else 1.0 - lift
        return int(stream.generator.random() < chance)

    return run


def _audit_scenarios():
    epsilon = 0.3
    above = above_hypothesis(_sum_evaluator, 0.5, epsilon, 1.0)
    above_seq = dataclasses.replace(above, top_probability=None)
    below = below_hypothesis(_sum_evaluator, 0.5, 2.0, epsilon, 1.0)
    rr = Mechanism(_randomized_response(0.4), epsilon=0.4)

    def tag(verdict) -> str:
        return "T" if verdict is TOP else "B"

    def three_tests(state):
        return "".join(tag(state.test(above)) for _ in range(3))

    def mixed_tests(state):
        first = [tag(state.test(above)) for _ in range(2)]
        second = [tag(state.test(below)) for _ in range(2)]
        return "".join(first + second)

    def sequential_batch(state):
        passed = state.test_batch(above_seq, 4)
        return f"{int(passed)}:{state.ledger.top_responses}"

    def lone_selection(state):
        result = state.selection(3, [rr])
        return "E" if result is EMPTY else str(result)

    def selection_then_tests(state):
        result = state.selection(2, [Mechanism(_randomized_response(0.3), 0.3)])
        head = "E" if result is EMPTY else str(result)
        return head + "".join(tag(state.test(above)) for _ in range(2))

    return [
        ("three-tests", 1.0, three_tests),
        ("mixed-tests", 2.0, mixed_tests),
        ("sequential-batch", 1.0, sequential_batch),
        ("lone-selection", 1.0, lone_selection),
        ("selection-then-tests", 1.0, selection_then_tests),
    ]


def test_criterion_09_monte_carlo_dp_audit():
    runs = 120_000
    neighbors = {"P": (0.0, 0.0), "Q": (0.0, 1.0)}
    root = RandomStream(9109)
    for index, (name, gamma, script) in enumerate(_audit_scenarios()):
        tallies = {}
        charged = {}
        scenario_stream = root.split(index)
        for side_index, (side, records) in enumerate(neighbors.items()):
            dataset = Dataset(records)
            side_stream = scenario_stream.split(side_index)
            counter: Counter = Counter()
            for run in range(runs):
                state = core.init(gamma, dataset, side_stream.split(run))
                key = script(state)
                counter[key] += 1
                cost = state.pure_cost().epsilon
                assert charged.setdefault(key, cost) == cost
            tallies[side] = counter
        audited = 0
        for key in set(tallies["P"]) & set(tallies["Q"]):
            count_p, count_q = tallies["P"][key], tallies["Q"][key]
            if min(count_p, count_q) < 25:
                continue
            p_hat, q_hat = count_p / runs, count_q / runs
            log_ratio = abs(math.log(p_hat / q_hat))
            spread = 3.0 * math.sqrt(
                (1.0 - p_hat) / (runs * p_hat) + (1.0 - q_hat) / (runs * q_hat)
            )
            assert log_ratio <= charged[key] + spread, (
                f"{name} key={key}: |log ratio| {log_ratio:.4f} "
                f"> {charged[key]:.4f} + {spread:.4f}"
            )
            audited += 1
        assert audited >= 2, f"{name}: only {audited} transcripts had enough mass"


def test_criterion_10_mwu_end_to_end():
    universe = 64
    m = 500
    n = sample_size_for_accuracy(0.2, universe, m, 1.0, 1e-6, 1e-2)
    assert n == 48_029
    alpha = solve_alpha(universe, n, m, 1.0, 1e-6, 1e-2)
    assert alpha <= 0.2
    config = make_mwu_config(universe, n, m, 1.0, 1e-6, 1e-2)
    probabilities = np.full(universe, 1.0 / universe)

    accuracy = adaptive_harness(
        probabilities,
        n,
        m,
        lambda size, stream: RandomSubsetAdversary(size, stream),
        lambda dataset, stream: MwuSession(config, dataset, stream),
        trials=1000,
        stream=RandomStream(9110),
    )
    assert accuracy.failure_fraction(config.alpha) <= 0.1
    assert accuracy.update_rounds.max() <= config.svt.k_prime

    def separation_report(answerer_factory, seed):
        return adaptive_harness(
            probabilities,
            n,
            m,
            lambda size, stream: OverfittingAdversary(size, stream, probes=m - 1),
            answerer_factory,
            trials=50,
            stream=RandomStream(seed),
        )

    naive = separation_report(
        lambda dataset, stream: oracles.EmpiricalAnswerer(dataset, universe), 9111
    )
    private = separation_report(
        lambda dataset, stream: MwuSession(config, dataset, stream), 9112
    )
    naive_error = float(np.median(naive.population_errors))
    private_error = float(np.median(private.population_errors))
    assert naive_error >= 0.006  # calibrated attack floor at this n
    assert naive_error >= 2.0 * private_error
    assert private.population_errors.max() <= config.alpha
    assert private.update_rounds.max() <= config.svt.k_prime


def test_criterion_11_cli_determinism(tmp_path):
    for command in sorted(cli._COMMANDS):
        texts = []
        for attempt in range(2):
            out = tmp_path / f"{command}-{attempt}.csv"
            code = cli.main(
                [command, "--seed", "123", "--out", str(out)]
            )
            assert code == 0, f"{command} exited {code}"
            texts.append(out.read_bytes())
        assert texts[0] == texts[1], f"{command} output differs between reruns"
        header = json.loads(texts[0].decode().splitlines()[0][2:])
        assert header["seed"] == 123
