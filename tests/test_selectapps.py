import collections
import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

import oracles
from conftest import forced_state, make_dataset
from dpselect import core, selectapps
from dpselect.core import EMPTY, Dataset, Mechanism
from dpselect.errors import ParameterError
from dpselect.noise import (
    RandomStream,
    TruncatedLaplaceParams,
    exponential_mechanism,
    sample_truncated_laplace,
)
from dpselect.selectapps import (
    BtmConfig,
    ScoreFamily,
    ScoredCandidate,
    better_than_median,
    choosing_mechanism,
    gap,
    query_release_amplified,
    stability_pivot,
    stable_select,
    tlap_release_baseline,
    topk_select,
)


def topk_base(monkeypatch, scores, k, epsilon, delta, beta):
    """The base mechanism that topk_select boosts, captured from one call."""
    captured = []
    boost = selectapps.better_than_median

    def capture(base, config, state):
        captured.append(base)
        return boost(base, config, state)

    with monkeypatch.context() as patch:
        patch.setattr(selectapps, "better_than_median", capture)
        family = ScoreFamily.from_table(len(scores))
        topk_select(family, k, epsilon, delta, beta, Dataset(scores), RandomStream(0), budget_cap=1)
    return captured[0]


def uniform_score_base(epsilon=0.05):
    return Mechanism(
        run=lambda d, s: ScoredCandidate(None, s.generator.random()), epsilon=epsilon
    )


def test_budget_cases():
    assert BtmConfig(1.0, 0.01).budget == 200
    assert BtmConfig(2.0, 0.5).budget == 7
    assert BtmConfig(2.0, 0.05).budget == 95
    assert BtmConfig(1.0, 0.1).budget == 20


def test_budget_matches_formula_on_grid():
    for alpha in (1.0, 1.5, 2.0, 3.0, 5.0):
        for beta in (0.01, 0.05, 0.1, 0.3, 0.5):
            assert BtmConfig(alpha, beta).budget == oracles.median_boost_budget(
                alpha, beta
            )


def test_budget_cap_truncates():
    assert BtmConfig(1.0, 0.01, budget_cap=50).budget == 50
    assert BtmConfig(1.0, 0.01, budget_cap=10_000).budget == 200


def test_config_validation():
    with pytest.raises(ParameterError):
        BtmConfig(0.5, 0.1)
    with pytest.raises(ParameterError):
        BtmConfig(1.0, 0.0)
    with pytest.raises(ParameterError):
        BtmConfig(1.0, 0.1, budget_cap=0)


def test_median_boost_requires_matching_gamma_and_small_epsilon():
    state = forced_state(gamma=1.0, p=0.5)
    with pytest.raises(ParameterError):
        better_than_median(uniform_score_base(), BtmConfig(2.0, 0.5), state)
    state = forced_state(gamma=2.0, p=0.5)
    with pytest.raises(ParameterError):
        better_than_median(uniform_score_base(epsilon=1.0), BtmConfig(2.0, 0.5), state)


def test_median_boost_constant_base_never_fails():
    base = Mechanism(run=lambda d, s: ScoredCandidate("x", 5.0), epsilon=0.1)
    state = forced_state(gamma=1.0, p=1.0)
    result = better_than_median(base, BtmConfig(1.0, 0.1), state)
    # a tie with the median counts as clearing it
    assert result.score == 5.0


def test_median_boost_empty_when_gate_never_fires():
    state = forced_state(gamma=2.0, p=0.0)
    assert better_than_median(uniform_score_base(), BtmConfig(2.0, 0.5), state) is EMPTY


def test_median_boost_failure_rate():
    alpha, beta, trials = 2.0, 0.5, 2_000
    config = BtmConfig(alpha, beta)
    failures = 0
    for i in range(trials):
        state = core.init(alpha, make_dataset(), RandomStream(i))
        result = better_than_median(uniform_score_base(), config, state)
        if result is EMPTY or result.score < 0.5:
            failures += 1
    sigma = math.sqrt(beta * (1 - beta) / trials)
    assert failures / trials <= beta + 3 * sigma


def test_median_boost_accounts_two_plus_alpha():
    alpha = 2.0
    state = forced_state(gamma=alpha, p=1.0)
    better_than_median(uniform_score_base(epsilon=0.05), BtmConfig(alpha, 0.5), state)
    assert state.pure_cost().epsilon == pytest.approx((2 + alpha) * 0.05)


def test_gap_hand_values():
    scores = [5.0, 4.0, 3.0, 2.0]
    assert gap([0, 1], scores) == pytest.approx(-1.0)
    assert gap([0, 3], scores) == pytest.approx(2.0)
    assert gap([0], [1.0, 1.0, 1.0]) == pytest.approx(0.0)


def test_gap_identities():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = int(rng.integers(3, 10))
        scores = rng.normal(size=m)
        size = int(rng.integers(1, m))
        selected = list(rng.choice(m, size=size, replace=False))
        base = gap(selected, scores)
        assert gap(selected, scores + 3.7) == pytest.approx(base, abs=1e-9)
        complement = [i for i in range(m) if i not in selected]
        assert gap(complement, -scores) == pytest.approx(base, abs=1e-9)
        # the exact top-|S| set minimises the gap
        top = list(np.argsort(-scores)[:size])
        assert gap(top, scores) <= base + 1e-12


def test_gap_validation():
    with pytest.raises(ParameterError):
        gap([], [1.0, 2.0])
    with pytest.raises(ParameterError):
        gap([0, 1], [1.0, 2.0])
    with pytest.raises(ParameterError):
        gap([5], [1.0, 2.0])


def test_stability_pivot_order_statistic():
    assert stability_pivot(np.array([9.0, 7.0, 7.0, 3.0, 1.0]), 2) == 7.0
    assert stability_pivot(np.array([1.0, 2.0, 3.0]), 1) == 2.0
    with pytest.raises(ParameterError):
        stability_pivot(np.array([1.0, 2.0]), 2)


def test_score_family_validation_and_table():
    with pytest.raises(ParameterError):
        ScoreFamily(lambda d: np.zeros(0), 0)
    family = ScoreFamily.from_table(3)
    ds = make_dataset([4.0, 5.0, 6.0, 7.0])
    assert family.evaluate_all(ds) == pytest.approx([4.0, 5.0, 6.0])
    assert ds.access_count == 1
    assert len(family) == 3


@pytest.mark.parametrize("records", [np.arange(3.0), np.zeros((5, 2))],
                         ids=["too-short", "two-dimensional"])
def test_evaluate_all_refuses_a_wrong_shape(records):
    # a from-table family longer than its dataset is refused, not an IndexError
    with pytest.raises(ParameterError, match=r"scores must have shape \(5,\)"):
        ScoreFamily.from_table(5).evaluate_all(Dataset(records))
    for read in (lambda ds: ds.fetch(), lambda ds: 1.0):
        with pytest.raises(ParameterError, match=r"scores must have shape \(5,\)"):
            ScoreFamily(read, 5).evaluate_all(Dataset(records))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluate_all_refuses_a_non_finite_score(bad):
    family = ScoreFamily.from_table(3)
    with pytest.raises(ParameterError, match="scores must be finite"):
        family.evaluate_all(make_dataset([4.0, bad, 6.0]))


def test_topk_validates_epsilon_range():
    family = ScoreFamily.from_table(4)
    ds = make_dataset([1.0, 2.0, 3.0, 4.0])
    for epsilon in (0.0, 1.0, 2.0):
        with pytest.raises(ParameterError):
            topk_select(family, 2, epsilon, 1e-3, 0.1, ds, RandomStream(0))
    with pytest.raises(ParameterError):
        topk_select(family, 0, 0.5, 1e-3, 0.1, ds, RandomStream(0))
    with pytest.raises(ParameterError):
        topk_select(family, 4, 0.5, 1e-3, 0.1, ds, RandomStream(0))


def test_topk_finds_dominating_candidates():
    m, k, epsilon, delta, beta = 16, 2, 0.9, 1e-3, 0.1
    margin = 400.0 * k * math.log(1.0 / delta) * math.log(m) / epsilon
    records = np.zeros(m)
    records[3] = margin
    records[11] = margin
    ds = Dataset(records)
    family = ScoreFamily.from_table(m)
    hits = 0
    trials = 100
    for i in range(trials):
        result = topk_select(
            family, k, epsilon, delta, beta, ds, RandomStream(i), budget_cap=300
        )
        assert len(result.indices) == k
        assert result.cost.epsilon == pytest.approx(epsilon)
        hits += result.indices == frozenset({3, 11})
    assert hits / trials >= 1 - beta


def test_topk_certificate_prices_the_gap_at_small_beta():
    # per-run undershoot odds are beta**(13/6)/2, so at beta = 1e-3 even a
    # few hundred fired runs cannot break the certificate
    m, k, epsilon, delta, beta = 12, 3, 0.9, 1e-4, 1e-3
    records = np.arange(m, dtype=float)
    ds = Dataset(records)
    family = ScoreFamily.from_table(m)
    for i in range(50):
        result = topk_select(
            family, k, epsilon, delta, beta, ds, RandomStream(i), budget_cap=300
        )
        if not result.fallback:
            assert result.certificate >= gap(sorted(result.indices), records)


def test_topk_certificate_is_loose_at_large_beta():
    # keeping the minimum certificate across many runs defeats a margin
    # sized for one run; at beta = 0.1 undershoots are routine, which is
    # why the hard claim above is only made for small beta
    m, k = 12, 3
    records = np.arange(m, dtype=float)
    ds = Dataset(records)
    family = ScoreFamily.from_table(m)
    undershoots = 0
    for i in range(200):
        result = topk_select(
            family, k, 0.9, 1e-3, 0.1, ds, RandomStream(i), budget_cap=300
        )
        if not result.fallback:
            undershoots += result.certificate < gap(sorted(result.indices), records)
    assert undershoots >= 1


def test_topk_reads_the_scores_once(monkeypatch):
    # Every fired run and the fallback share one read of the scores; a
    # budget of one often fires nothing, a zero correction constant makes
    # the correcting run (beta < delta) fall back after its fired runs.
    m = 10
    records = np.arange(m, dtype=float)
    family = ScoreFamily.from_table(m)
    outcomes = set()
    for i in range(40):
        cap, beta, constant = [(1, 0.1, 30.0), (50, 0.1, 30.0), (50, 1e-4, 0.0)][i % 3]
        monkeypatch.setattr(selectapps, "_CORRECTION_CONSTANT", constant)
        ds = Dataset(records)
        result = topk_select(
            family, 2, 0.9, 0.05, beta, ds, RandomStream(i), budget_cap=cap
        )
        assert ds.access_count == 1
        outcomes.add((cap, result.fallback))
    assert outcomes == {(1, False), (1, True), (50, False), (50, True)}
    # with the gate forced open all 50 repetitions fire, and still share one read
    monkeypatch.setattr(core, "sample_pass_probability", lambda stream, gamma: 1.0)
    ds = Dataset(records)
    assert not topk_select(family, 2, 0.9, 0.05, 0.1, ds, RandomStream(0), budget_cap=50).fallback
    assert ds.access_count == 1


def test_topk_fired_run_has_the_peeling_law(monkeypatch):
    # At budget_cap=1 and beta >= delta nothing is corrected, so a result
    # without fallback is the k-set of exactly one fired base run.  The
    # unit-sensitivity family reads scores / 2, which has the law of the
    # exponential mechanism on the scores at sensitivity 2.
    scores = np.array([0.0, 100.0, 200.0, 300.0, 400.0])
    family = ScoreFamily.from_table(5)
    epsilon, delta, beta, k = 0.9, 0.5, 0.5, 2
    round_epsilon = epsilon / (40.0 * math.sqrt(k * math.log(1.0 / delta)))
    law = oracles.peeled_set_law(scores, round_epsilon, 2.0, k)
    sets = list(law)

    def p_value(draws):
        counts = collections.Counter(draws)
        observed = np.array([counts[s] for s in sets])
        expected = np.array([law[s] for s in sets]) * len(draws)
        return stats.chisquare(observed, expected).pvalue

    stream = RandomStream(2024)
    peeled = []
    for _ in range(10_000):
        remaining, chosen = list(range(5)), []
        for _ in range(k):
            pick = exponential_mechanism(stream, scores[remaining], round_epsilon, 2.0)
            chosen.append(remaining.pop(pick))
        peeled.append(frozenset(chosen))
    assert p_value(peeled) > 1e-3

    fired = []
    for i in range(20_000):
        result = topk_select(
            family, k, epsilon, delta, beta, Dataset(scores / 2.0), RandomStream(i), budget_cap=1
        )
        if not result.fallback:
            fired.append(result.indices)
    assert len(fired) > 9_000
    assert p_value(fired) > 1e-3

    # One batch call of count runs has the law of the best of count runs.
    base = topk_base(monkeypatch, scores / 2.0, k, epsilon, delta, beta)
    count, trials = 3, 4_000
    batched = collections.Counter(
        base.batch(Dataset(scores / 2.0), RandomStream(i), count).payload[0]
        for i in range(trials)
    )
    looped = collections.Counter(
        max(base.run(Dataset(scores / 2.0), RandomStream(i).split(j))
            for j in range(count)).payload[0]
        for i in range(trials)
    )
    table = np.array([[batched[s], looped[s]] for s in sets if batched[s] + looped[s] >= 10])
    assert table.sum() > 0.99 * 2 * trials
    assert stats.chi2_contingency(table).pvalue > 1e-3


@pytest.mark.parametrize("lift", [0.0, 1e4])
def test_topk_batch_matches_the_row_by_row_reference(monkeypatch, lift):
    # topk-bench defaults, and a lifted top 5 that most runs keep exactly;
    # 300 runs cross a block boundary
    m, k, epsilon, delta, beta = 40, 5, 0.9, 1e-4, 0.2
    scores = np.arange(m, dtype=float)
    scores[[3, 11, 17, 29, 36]] += lift
    base = topk_base(monkeypatch, scores, k, epsilon, delta, beta)
    round_epsilon = epsilon / (40.0 * math.sqrt(k * math.log(1.0 / delta)))
    margin = 13.0 * math.log(1.0 / beta) / epsilon
    rows = selectapps._BLOCK_ENTRIES // m
    assert 7 < rows < 300
    for count in (1, 7, 300):
        for seed in range(5):
            expected = oracles.best_topk_run(
                RandomStream(seed).generator, scores, k, round_epsilon / 2.0,
                6.0 / epsilon, margin, count, rows, gap,
            )
            result = base.batch(Dataset(scores), RandomStream(seed), count)
            assert result.payload == expected
            assert result.score == -expected[1]
            assert all(isinstance(i, int) for i in result.payload[0])
            if count == 1:
                assert base.run(Dataset(scores), RandomStream(seed)).payload == expected


def test_topk_runs_uncapped_at_the_cli_defaults():
    # delta = 1e-4 gives the median boost 200,000 gated repetitions
    m, k = 40, 5
    assert BtmConfig(1.0, 1e-4 / 10.0).budget == 200_000
    family = ScoreFamily.from_table(m)
    for seed in range(3):
        result = topk_select(
            family, k, 0.9, 1e-4, 0.2, Dataset(np.arange(m, dtype=float)), RandomStream(seed)
        )
        assert len(result.indices) == k
        assert all(isinstance(i, int) and 0 <= i < m for i in result.indices)
        assert math.isfinite(result.certificate)


def test_topk_memory_does_not_grow_with_fired_runs(monkeypatch):
    # With the gate forced open all 200,000 repetitions fire.
    monkeypatch.setattr(core, "sample_pass_probability", lambda stream, gamma: 1.0)
    drawn = []
    laplace = selectapps.sample_laplace

    def counting_laplace(stream, scale, size=None):
        drawn.append(size)
        return laplace(stream, scale, size)

    monkeypatch.setattr(selectapps, "sample_laplace", counting_laplace)
    family = ScoreFamily.from_table(40)
    dataset = Dataset(np.arange(40, dtype=float))
    tracemalloc.start()
    try:
        result = topk_select(family, 5, 0.9, 1e-4, 0.2, dataset, RandomStream(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(drawn) == 200_000
    assert not result.fallback
    assert peak < 2**20


def test_topk_refuses_non_finite_scores():
    # a NaN is refused where the scores are read, whether or not a coin
    # fires, instead of reaching the fallback's exact top-k and certificate
    records = np.array([1.0, np.nan, 3.0, 2.0])
    family = ScoreFamily.from_table(4)
    for i in range(10):
        with pytest.raises(ParameterError, match="scores must be finite"):
            topk_select(
                family, 2, 0.9, 0.05, 0.1, Dataset(records), RandomStream(i), budget_cap=1
            )


def test_topk_correction_mode_caps_the_certificate():
    # beta < delta retargets the run and repairs oversized certificates
    m, k, epsilon, delta, beta = 16, 2, 0.9, 0.05, 1e-4
    delta_run = delta / 10.0
    threshold = (
        30.0
        * (math.sqrt(k * math.log(1.0 / delta_run)) * math.log(m) + math.log(1.0 / delta_run))
        / epsilon
    )
    records = np.linspace(0.0, 5.0, m)
    ds = Dataset(records)
    family = ScoreFamily.from_table(m)
    for i in range(200):
        result = topk_select(
            family, k, epsilon, delta, beta, ds, RandomStream(i), budget_cap=300
        )
        if result.fallback:
            assert result.indices == frozenset(np.argsort(-records)[:k].tolist())
        else:
            assert result.certificate <= threshold


def test_choosing_requires_k_bound():
    family = ScoreFamily.from_table(3)
    with pytest.raises(ParameterError):
        choosing_mechanism(family, 0.5, 1e-3, 0.5, forced_state(p=1.0))


def test_choosing_separation_beats_any_noise():
    # separation past the noise diameter makes the argmax deterministic, so
    # whenever the better index contributes a fired run at all it wins; with
    # the gate pinned open it wins every time
    epsilon, delta, beta = 0.5, 1e-3, 0.5
    k_bound = 2
    noise_delta = delta * beta / (5.0 * k_bound)
    radius = TruncatedLaplaceParams(epsilon, noise_delta).support_radius
    family = ScoreFamily.from_table(2, k_bound=k_bound)
    ds = Dataset(np.array([0.0, 6.0 * radius]))
    for i in range(300):
        state = core.init(1.0, ds, RandomStream(i))
        state.p = 1.0
        assert choosing_mechanism(family, epsilon, delta, beta, state) == 1


def test_choosing_failure_rate_within_beta():
    # with the real gate the better index can miss every one of its coins,
    # which is the beta-probability failure the guarantee budgets for
    epsilon, delta, beta = 0.5, 1e-3, 0.5
    family = ScoreFamily.from_table(2, k_bound=2)
    noise_delta = delta * beta / (5.0 * 2)
    radius = TruncatedLaplaceParams(epsilon, noise_delta).support_radius
    ds = Dataset(np.array([0.0, 6.0 * radius]))
    trials, failures = 400, 0
    for i in range(trials):
        state = core.init(1.0, ds, RandomStream(i))
        picked = choosing_mechanism(family, epsilon, delta, beta, state)
        failures += picked != 1
    sigma = math.sqrt(beta * (1 - beta) / trials)
    assert failures / trials <= beta + 3 * sigma


CONFIDENCE_BETAS = (0.5, 0.25, 0.1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9)


def test_median_boost_failure_oracle_matches_quadrature():
    for alpha, tau in ((1.0, 10), (1.5, 50), (3.0, 7), (2.0, 300)):
        want = integrate.quad(
            lambda p: alpha * p ** (alpha - 1) * (1 - p / 2) ** tau, 0, 1, epsabs=0, epsrel=1e-13
        )[0]
        assert oracles.median_boost_failure(alpha, tau) == pytest.approx(want, rel=1e-10)
    # at alpha = 1 the expectation is 2 / (tau + 1) * (1 - 2**-(tau + 1))
    assert oracles.median_boost_failure(1.0, 10) == pytest.approx(2 / 11 * (1 - 2.0**-11), rel=1e-14)


def test_median_boost_budget_meets_beta_exactly():
    # the exact companion of criterion 06, down to beta = 1e-9; at alpha = 1
    # failure / beta reaches 0.9999999995, so a looser budget fails here
    worst = 0.0
    for alpha in (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0):
        for beta in CONFIDENCE_BETAS:
            failure = oracles.median_boost_failure(alpha, BtmConfig(alpha, beta).budget)
            assert failure <= beta, (alpha, beta, failure)
            worst = max(worst, failure / beta)
    assert worst > 0.999


def selection_shape(select, m):
    """(tau, mechanism count) that one call of ``select`` hands to selection.

    The gate never fires, so the call returns None without reading a score.
    """
    state = forced_state(p=0.0, records=np.zeros(m))
    shapes = []
    selection = state.selection

    def spy(tau, mechanisms):
        shapes.append((tau, len(mechanisms)))
        return selection(tau, mechanisms)

    state.selection = spy
    assert select(ScoreFamily.from_table(m, k_bound=1), state) is None
    [shape] = shapes
    return shape


def test_no_fire_chance_within_a_quarter_of_beta():
    # choosing's ceil(4/beta) runs of m >= 1 indices and stable selection's
    # ceil(2/beta) runs of m >= 2 indices both miss every coin with chance
    # 1 / (m tau + 1) <= beta / 4 under the uniform gate
    for beta in CONFIDENCE_BETAS:
        for m in (1, 2, 5):
            tau, count = selection_shape(
                lambda family, state: choosing_mechanism(family, 0.5, 1e-3, beta, state), m
            )
            assert count == m
            assert oracles.no_fire_probability(m, tau) <= beta / 4, (beta, m, tau)
        for m in (2, 5):
            tau, count = selection_shape(
                lambda family, state: stable_select(family, 1, 0.6, 1e-3, beta, state), m
            )
            assert count == m
            assert oracles.no_fire_probability(m, tau) <= beta / 4, (beta, m, tau)


def test_choosing_accounts_three_epsilon():
    family = ScoreFamily.from_table(2, k_bound=1)
    ds = Dataset(np.array([0.0, 1.0]))
    state = core.init(1.0, ds, RandomStream(3))
    state.p = 1.0
    choosing_mechanism(family, 0.4, 1e-3, 0.5, state)
    assert state.pure_cost().epsilon == pytest.approx(3 * 0.4)


def test_choosing_none_when_gate_never_fires():
    family = ScoreFamily.from_table(2, k_bound=1)
    state = forced_state(p=0.0, records=[0.0, 1.0])
    assert choosing_mechanism(family, 0.4, 1e-3, 0.5, state) is None


def test_stable_validates_and_accounts():
    family = ScoreFamily.from_table(4)
    state = forced_state(p=1.0, records=[5.0, 1.0, 0.5, 0.2])
    picked = stable_select(family, 1, 0.6, 1e-3, 0.5, state)
    assert picked is not None
    assert state.pure_cost().epsilon == pytest.approx(0.6)
    with pytest.raises(ParameterError):
        stable_select(family, 0, 0.6, 1e-3, 0.5, forced_state(p=1.0))
    with pytest.raises(ParameterError):
        stable_select(family, 1, 0.6, 1e-3, 0.5, forced_state(gamma=2.0, p=1.0))


def test_stable_reads_nothing_when_no_coin_fires():
    gated_out = forced_state(p=0.0, records=[5.0, 1.0, 0.5, 0.2])
    assert stable_select(ScoreFamily.from_table(4), 1, 0.6, 1e-3, 0.5, gated_out) is None
    assert gated_out.dataset.access_count == 0
    gated_out = forced_state(p=0.0, records=[5.0, 1.0, 0.5, 0.2])
    family = ScoreFamily.from_table(4, k_bound=1)
    assert choosing_mechanism(family, 0.6, 1e-3, 0.5, gated_out) is None
    assert gated_out.dataset.access_count == 0


def test_stable_prefers_far_above_candidate():
    m, k, epsilon, delta, beta = 8, 1, 0.6, 1e-3, 0.5
    noise = TruncatedLaplaceParams(epsilon / 3.0, beta * delta / (10.0 * k))
    records = np.zeros(m)
    records[5] = 3.0 * 2.0 * noise.support_radius
    family = ScoreFamily.from_table(m)
    failures = 0
    trials = 300
    for i in range(trials):
        state = core.init(1.0, Dataset(records), RandomStream(i))
        picked = stable_select(family, k, epsilon, delta, beta, state)
        if picked != 5:
            failures += 1
    sigma = math.sqrt(beta * (1 - beta) / trials)
    assert failures / trials <= beta + 3 * sigma


def test_stable_handles_all_equal_scores():
    family = ScoreFamily.from_table(4)
    state = forced_state(p=1.0, records=[2.0, 2.0, 2.0, 2.0])
    picked = stable_select(family, 2, 0.6, 1e-3, 0.5, state)
    assert picked in {0, 1, 2, 3}
    assert state.pure_cost().epsilon == pytest.approx(0.6)


# The two gated noisy-max applications at beta = 1/4, each on a from-table
# family of m scores, with the noise and tau their docstrings state.
NOISY_MAX = {
    "choosing": (
        lambda m, state: choosing_mechanism(
            ScoreFamily.from_table(m, k_bound=2), 0.5, 1e-3, 0.25, state),
        TruncatedLaplaceParams(0.5, 1e-3 * 0.25 / (5.0 * 2)), 16),
    "stable": (
        lambda m, state: stable_select(ScoreFamily.from_table(m), 2, 0.6, 1e-3, 0.25, state),
        TruncatedLaplaceParams(0.6 / 3.0, 0.25 * 1e-3 / (10.0 * 2)), 8),
}


@pytest.mark.parametrize("p", [1.0, 0.3])
@pytest.mark.parametrize("name", sorted(NOISY_MAX))
def test_noisy_max_matches_the_per_run_reference(monkeypatch, name, p):
    # The same TLap draws in the same order as the old bodies, which called
    # an evaluator (choosing) or read every score and the pivot (stable) on
    # each fired run: equal indices, noise, delta mass and final stream position.
    select, noise, tau = NOISY_MAX[name]
    drawn = set()

    def recording_sampler(stream, params):
        drawn.add(params)
        return sample_truncated_laplace(stream, params)

    monkeypatch.setattr(selectapps, "sample_truncated_laplace", recording_sampler)
    records = np.linspace(0.0, 12.0, 8)
    evaluators = [lambda ds, i=i: float(ds.fetch()[i]) for i in range(records.size)]
    picks = collections.Counter()
    for seed in range(200):
        state = forced_state(p=p, records=records, seed=seed)
        ref = forced_state(p=p, records=records, seed=seed)
        draw = functools.partial(sample_truncated_laplace, ref.stream, noise)
        if name == "choosing":
            want = oracles.choosing_per_run(
                ref.stream.generator, p, tau, evaluators, ref.dataset, draw)
        else:
            want = oracles.stable_per_run(
                ref.stream.generator, p, tau, evaluators, ref.dataset, 2, draw)
        picked = select(records.size, state)
        assert picked == want
        assert state.ledger.delta_mass == pytest.approx(tau * 0.25 * 1e-3 / 5.0)
        assert state.stream.generator.random() == ref.stream.generator.random()
        picks[picked] += 1
    assert len(picks) >= 3
    assert drawn == {noise}


@pytest.mark.parametrize("name", sorted(NOISY_MAX))
def test_noisy_max_reads_the_scores_once(name):
    # every fired run shares one read of the m scores
    select = NOISY_MAX[name][0]
    for seed in range(5):
        state = forced_state(p=1.0, records=np.linspace(0.0, 3.0, 6), seed=seed)
        select(6, state)
        assert state.dataset.access_count == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(NOISY_MAX))
def test_noisy_max_refuses_non_finite_scores(name, bad):
    # a non-finite score is refused where it is read, not ranked into an index
    select = NOISY_MAX[name][0]
    for records in ([1.0, bad, 3.0, 2.0], [bad] * 4):
        for seed in range(3):
            with pytest.raises(ParameterError, match="scores must be finite"):
                select(4, forced_state(p=1.0, records=records, seed=seed))


def test_release_baseline_certificate_never_undershoots():
    base = tlap_release_baseline(ScoreFamily.from_table(2), 0.4, 1e-4)
    ds = Dataset(np.array([2.0, -1.0]))
    truth = np.array([2.0, -1.0])
    worst = -1.0
    for i in range(20_000):
        run = base.run(ds, RandomStream(i))
        answers, certificate = run.payload
        assert run.score == -certificate
        error = float(np.abs(answers - truth).max())
        assert certificate >= error
        worst = max(worst, certificate - error)
    assert worst >= 0.0


def test_release_baseline_validation():
    # a NaN answer or a wrong-shaped read is refused before any noise is drawn
    base = tlap_release_baseline(ScoreFamily.from_table(3), 0.4, 1e-4)
    for records, refusal in (([1.0, np.nan, 2.0], "scores must be finite"),
                             ([1.0, 2.0], r"scores must have shape \(3,\)")):
        with pytest.raises(ParameterError, match=refusal):
            base.run(Dataset(np.array(records)), RandomStream(0))
        with pytest.raises(ParameterError, match=refusal):
            query_release_amplified(ScoreFamily.from_table(3), 0.5, 0.05,
                                    forced_state(p=1.0, records=records))


def test_release_reads_the_answers_once():
    # every fired run and the fallback share one read of the k answers
    family = ScoreFamily.from_table(3)
    fallbacks = set()
    for seed in range(20):
        state = forced_state(p=1.0, records=[1.0, -2.0, 0.5], seed=seed)
        fallbacks.add(query_release_amplified(family, 0.5, 0.05, state).fallback)
        assert state.dataset.access_count == 1
    state = forced_state(p=0.0, records=[1.0, -2.0, 0.5])
    result = query_release_amplified(family, 0.5, 0.05, state)
    assert result.fallback and state.dataset.access_count == 1
    assert list(result.answers) == [1.0, -2.0, 0.5]
    assert fallbacks == {False}


def test_release_error_stays_certified_and_fallback_is_rare():
    epsilon, delta = 0.5, 0.05
    family = ScoreFamily.from_table(2)
    truth = np.array([1.0, -2.0])
    threshold = (
        30.0
        * (math.sqrt(2 * math.log(1.0 / delta)) + math.log(1.0 / delta))
        / epsilon
    )
    fallbacks = 0
    trials = 1_500
    for i in range(trials):
        state = core.init(1.0, Dataset(truth.copy()), RandomStream(i))
        result = query_release_amplified(family, epsilon, delta, state)
        error = float(np.abs(result.answers - truth).max())
        if result.fallback:
            fallbacks += 1
            assert error == 0.0
        else:
            assert error <= result.certificate
            assert result.certificate <= threshold
        assert result.cost.epsilon == pytest.approx(
            state.pure_cost().epsilon
        )
    assert fallbacks / trials <= delta / 5.0
