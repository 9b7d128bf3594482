import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

import oracles
from conftest import make_dataset
from dpselect import core, svt
from dpselect.core import BOT, TOP
from dpselect.errors import HaltedError, ParameterError
from dpselect.noise import RandomStream
from dpselect.svt import (
    RepetitiveSvt,
    above_hypothesis,
    below_hypothesis,
    repetitive_svt,
    svt_params,
)


def constant_query(value: float, threshold: float) -> float:
    return value - threshold


def make_session(config, p=None, seed=0, records=None):
    state = core.init(config.gamma, make_dataset(records), RandomStream(seed))
    if p is not None:
        state.p = p
    return RepetitiveSvt(config, state), state


def run_every_coin(monkeypatch):
    """Drop the SVT hypotheses' top_probability, so batches run coin by coin."""
    for name in ("above_hypothesis", "below_hypothesis"):
        build = getattr(svt, name)

        def scalar(*args, _build=build):
            return dataclasses.replace(_build(*args), top_probability=None)

        monkeypatch.setattr(svt, name, scalar)


def test_params_worked_example():
    config = svt_params(1.0, 1e-6, 5, 100, math.exp(-10.0))
    assert config.epsilon_prime == pytest.approx(
        oracles.SVT_EXAMPLE["epsilon_prime"], rel=1e-12
    )
    assert config.gamma == pytest.approx(oracles.SVT_EXAMPLE["gamma"], rel=1e-12)
    assert config.d == pytest.approx(oracles.SVT_EXAMPLE["d"], rel=1e-12)
    assert config.tau == oracles.SVT_EXAMPLE["tau"]
    assert config.k_prime == oracles.SVT_EXAMPLE["k_prime"]
    assert config.sensitivity == 1.0


def test_params_match_recipe_oracle():
    for kwargs in [
        dict(epsilon=0.7, delta=1e-5, k=3, m=64, beta=1e-3),
        dict(epsilon=2.0, delta=1e-8, k=10, m=300, beta=1e-4, sensitivity=0.5),
    ]:
        config = svt_params(**kwargs)
        want = oracles.svt_recipe(**kwargs)
        assert config.epsilon_prime == pytest.approx(want["epsilon_prime"], rel=1e-12)
        assert config.d == pytest.approx(want["d"], rel=1e-12)
        assert config.tau == want["tau"]
        assert config.k_prime == want["k_prime"]


def test_params_batch_size_is_quadratic():
    assert svt_params(1.0, 1e-6, 1, 10, 0.05).tau == 500
    assert svt_params(1.0, 1e-6, 1, 40, 0.01).tau == 8000


def test_params_pure_dp_splits_budget_linearly():
    config = svt_params(0.4, 0.0, 3, 100, 1e-3, pure_dp=True)
    gamma = math.log(20.0 / 1e-3) / math.log(100)
    assert config.epsilon_prime == pytest.approx(0.4 / (gamma + 3), rel=1e-12)
    # the approximate variant needs a valid delta, the pure one ignores it
    with pytest.raises(ParameterError):
        svt_params(0.4, 0.0, 3, 100, 1e-3)


def test_params_validate_beta_window():
    with pytest.raises(ParameterError):
        svt_params(1.0, 1e-6, 1, 10, 0.1)  # beta = 1/m
    with pytest.raises(ParameterError):
        svt_params(1.0, 1e-6, 1, 10, 2.0**-10)  # beta = 2^-m
    with pytest.raises(ParameterError):
        svt_params(1.0, 1e-6, 1, 4, 0.5)
    svt_params(1.0, 1e-6, 1, 2048, 1e-200)  # huge m admits tiny beta


def test_params_validate_types():
    with pytest.raises(ParameterError):
        svt_params(0.0, 1e-6, 1, 10, 0.05)
    with pytest.raises(ParameterError):
        svt_params(1.0, 1e-6, 0, 10, 0.05)
    with pytest.raises(ParameterError):
        svt_params(1.0, 1e-6, 1, 1, 0.05)
    with pytest.raises(ParameterError):
        svt_params(1.0, 1e-6, 1, 10, 0.05, sensitivity=0.0)


def test_above_is_a_fair_coin_at_the_threshold():
    ds = make_dataset()
    root = RandomStream(61)
    above = above_hypothesis(lambda d: 2.0, 2.0, 0.5, 1.0)
    hits = sum(above.run(ds, root.split(i)) is TOP for i in range(100_000))
    assert abs(hits / 100_000 - 0.5) < 0.005


def test_above_saturates_far_from_the_threshold():
    ds = make_dataset()
    scale = 1.0 / 0.5
    offset = 10.0 * scale * math.log(10.0)
    root = RandomStream(62)
    far_above = above_hypothesis(lambda d: offset, 0.0, 0.5, 1.0)
    far_below = above_hypothesis(lambda d: -offset, 0.0, 0.5, 1.0)
    high = sum(far_above.run(ds, root.split(i)) is TOP for i in range(10_000))
    low = sum(far_below.run(ds, root.split(10_000 + i)) is TOP for i in range(10_000))
    assert high == 10_000
    assert low == 0


def test_below_fires_at_the_shifted_threshold():
    ds = make_dataset()
    d = 3.0
    root = RandomStream(63)
    at_shift = below_hypothesis(lambda d_: 2.0 - d, 2.0, d, 0.5, 1.0)
    hits = sum(at_shift.run(ds, root.split(i)) is TOP for i in range(100_000))
    assert abs(hits / 100_000 - 0.5) < 0.005
    far_below = below_hypothesis(lambda d_: -50.0, 2.0, d, 0.5, 1.0)
    sure = sum(far_below.run(ds, root.split(i)) is TOP for i in range(5_000))
    assert sure == 5_000


def test_declared_gate_rate_matches_empirical_rate():
    ds = make_dataset()
    for hyp, seed in [
        (above_hypothesis(lambda d: 1.3, 2.0, 0.8, 1.0), 64),
        (below_hypothesis(lambda d: 1.3, 2.0, 1.5, 0.8, 1.0), 65),
    ]:
        declared = hyp.top_probability(ds)
        root = RandomStream(seed)
        rate = (
            sum(hyp.run(ds, root.split(i)) is TOP for i in range(100_000)) / 100_000
        )
        assert abs(rate - declared) < 0.005


def test_below_probability_is_exact_in_the_far_tail():
    # t - d = -40 at scale 1: Pr[Lap(1) <= -40] = exp(-40) / 2, which
    # 1 - Pr[Lap(1) >= -40] rounds to 0.
    below = below_hypothesis(lambda d_: 0.0, 2.0, 42.0, 1.0, 1.0)
    want = float(oracles.laplace_cdf(-40.0, 1.0))
    got = below.top_probability(make_dataset())
    assert abs(got - want) <= 1e-12 * want


def test_session_hypotheses_declare_the_laplace_tails(monkeypatch):
    # Script the batches (the above one fails, the below one settles) and
    # read the declared TOP probability of the hypothesis each one is given.
    generator = np.random.default_rng(66)
    base = svt_params(1.0, 1e-6, 3, 50, 1e-3)
    for _ in range(300):
        epsilon_prime = generator.uniform(0.05, 5.0)
        sensitivity = generator.uniform(0.1, 3.0)
        scale = sensitivity / epsilon_prime
        config = dataclasses.replace(
            base,
            epsilon_prime=epsilon_prime,
            sensitivity=sensitivity,
            d=scale * generator.uniform(0.0, 30.0),
        )
        threshold = generator.uniform(-5.0, 5.0) * scale
        value = threshold + generator.uniform(-30.0, 30.0) * scale
        session, state = make_session(config, seed=0)
        declared = []

        def scripted(hypothesis, count, _state=state, _declared=declared):
            _declared.append(hypothesis.top_probability(_state.dataset))
            return len(_declared) == 2

        monkeypatch.setattr(state, "test_batch", scripted)
        assert session.process(constant_query(value, threshold)) is TOP
        above, below = declared
        want_above = stats.laplace.sf(threshold - value, scale=scale)
        want_below = stats.laplace.cdf(threshold - config.d - value, scale=scale)
        assert above == pytest.approx(want_above, rel=1e-12, abs=0)
        assert below == pytest.approx(want_below, rel=1e-12, abs=0)


def test_hypothesis_validation():
    with pytest.raises(ParameterError):
        above_hypothesis(lambda d: 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        below_hypothesis(lambda d: 0.0, 0.0, -1.0, 0.5, 1.0)


def test_session_validates_gamma():
    config = svt_params(1.0, 1e-6, 1, 8, 0.06)
    wrong = core.init(1.0, make_dataset(), RandomStream(0))
    with pytest.raises(ParameterError):
        RepetitiveSvt(config, wrong)


def test_clear_stream_answers_everything_bot():
    # every query sits d/2 under its threshold, the regime the error
    # analysis promises near-certain BOT answers in
    config = svt_params(1.0, 1e-6, 3, 50, 1e-3)
    answered = 0
    bots = 0
    halts = 0
    for run in range(100):
        session, state = make_session(config, seed=run)
        try:
            for _ in range(50):
                verdict = session.process(
                    constant_query(10.0 - config.d / 2.0, 10.0)
                )
                answered += 1
                bots += verdict is BOT
        except HaltedError:
            halts += 1
    assert halts == 0
    assert answered == 5_000
    assert bots / answered >= 0.999


def test_ledger_charges_two_per_top_plus_gamma():
    config = svt_params(1.0, 1e-6, 3, 50, 1e-3)
    session, state = make_session(config, p=0.9, seed=7)
    # far-above queries force one charge each; far-below ones are free
    assert session.process(constant_query(10.0 + 10 * config.d, 10.0)) is TOP
    assert session.process(constant_query(10.0 - 10 * config.d, 10.0)) is BOT
    assert session.charged == 1
    cost = state.pure_cost()
    assert cost.epsilon == pytest.approx(
        (2 * session.charged + config.gamma) * config.epsilon_prime, rel=1e-12
    )
    assert cost.delta == 0.0


def test_budget_halt_leaves_final_query_unanswered():
    config = svt_params(1.0, 1e-6, 1, 8, 0.06)
    assert config.k_prime == 11
    queries = [constant_query(100.0, 0.0) for _ in range(12)]
    state = core.init(config.gamma, make_dataset(), RandomStream(3))
    state.p = 0.9
    verdicts = list(repetitive_svt(queries, config, state))
    assert verdicts == [TOP] * (config.k_prime - 1)


def test_process_after_halt_raises():
    config = svt_params(1.0, 1e-6, 1, 8, 0.06)
    session, _ = make_session(config, p=0.9, seed=4)
    with pytest.raises(HaltedError):
        for _ in range(20):
            session.process(constant_query(100.0, 0.0))
    assert session.halted
    with pytest.raises(HaltedError):
        session.process(constant_query(-100.0, 0.0))


@pytest.mark.parametrize("every_coin", [False, True])
def test_a_session_reads_no_record(monkeypatch, every_coin):
    # The session takes each shifted value as given: settled at once,
    # batched analytically or coin by coin, answered TOP or halting, no
    # query reads the dataset.
    if every_coin:
        run_every_coin(monkeypatch)
    config = svt_params(1.0, 1e-6, 1, 8, 0.06)
    session, state = make_session(config, p=0.9, seed=5)
    assert session.process(settle_bound(config, 0.9) - 1.0) is BOT
    assert session.process(-10.0 * config.d) is BOT
    session.process(-config.d / 2.0)
    assert session.process(10.0 * config.d) is TOP
    assert session.charged >= 1
    with pytest.raises(HaltedError):
        for _ in range(config.k_prime):
            session.process(10.0 * config.d)
    with pytest.raises(HaltedError):
        session.process(-10.0 * config.d)
    assert state.dataset.access_count == 0


def test_scalar_and_auto_modes_agree_in_law(monkeypatch):
    # the analytic batch collapse must be distributionally invisible
    config = svt_params(1.0, 1e-6, 1, 4, 0.2)
    query = constant_query(-config.d / 2.0, 0.0)  # dead centre of the gap

    def outcomes(base_seed, sessions=3_000):
        tally = {"BOT": 0, "TOP": 0, "charges": 0}
        for i in range(sessions):
            session, _ = make_session(config, seed=base_seed + i)
            try:
                verdict = session.process(query)
                tally["BOT" if verdict is BOT else "TOP"] += 1
            except HaltedError:
                pass
            tally["charges"] += session.charged
        return tally

    auto = outcomes(10_000)
    with monkeypatch.context() as patch:
        run_every_coin(patch)
        scalar = outcomes(50_000)
    for key in ("BOT", "TOP"):
        a, s = auto[key], scalar[key]
        pooled = (a + s) / 2.0
        spread = 4.0 * math.sqrt(max(pooled, 1.0))
        assert abs(a - s) <= spread, (key, auto, scalar)
    assert abs(auto["charges"] - scalar["charges"]) <= 4.0 * math.sqrt(
        max(auto["charges"] + scalar["charges"], 1.0)
    )


def settle_bound(config, p):
    return svt._settle_bound(p, config.tau, config.sensitivity / config.epsilon_prime)


def counting_batches(monkeypatch, state):
    """Record the count of every test_batch call the state receives."""
    counts = []
    real = state.test_batch

    def spy(hypothesis, count):
        counts.append(count)
        return real(hypothesis, count)

    monkeypatch.setattr(state, "test_batch", spy)
    return counts


def test_a_query_certain_to_pass_settles_without_a_batch(monkeypatch):
    config = svt_params(1.0, 1e-6, 3, 50, 1e-3)
    session, state = make_session(config, p=0.7, seed=8)
    batches = counting_batches(monkeypatch, state)
    before = state.stream.generator.bit_generator.state
    for value in (settle_bound(config, 0.7), -10.0 * config.d, -math.inf):
        assert session.process(constant_query(value, 0.0)) is BOT
    assert batches == []
    assert state.stream.generator.bit_generator.state == before
    assert state.ledger == core.AccountantLedger(base_epsilon=config.epsilon_prime)
    assert session.charged == 0


def test_settling_agrees_with_running_every_batch(monkeypatch):
    # One ulp past the bound the query still takes its batch.  Settling
    # switched on or off, a stream of queries gives the same verdicts, stream
    # and ledger; switched on, it runs fewer batches.
    config = svt_params(1.0, 1e-6, 3, 50, 1e-3)
    bound = settle_bound(config, 0.7)
    values = [bound, math.nextafter(bound, math.inf), bound - 1.0, bound / 2.0,
              -config.d / 2.0, 0.0, 2.0 * config.d, -config.d, bound]

    def run(settle):
        with monkeypatch.context() as patch:
            if not settle:
                patch.setattr(svt, "_settle_bound", lambda *args: math.nan)
            session, state = make_session(config, p=0.7, seed=9)
            batches = counting_batches(patch, state)
            verdicts = [session.process(constant_query(v, 0.0)) for v in values]
            return (verdicts, session.charged, state.ledger,
                    state.stream.generator.bit_generator.state), batches

    settled, settled_batches = run(True)
    plain, plain_batches = run(False)
    assert settled == plain
    assert settled[0][:2] == [BOT, BOT] and TOP in settled[0]
    # values 1 and 3 onward take their batches; 0, 2 and 8 settle
    assert len(settled_batches) == len(plain_batches) - 3


def test_the_settle_bound_follows_a_changed_gate_probability(monkeypatch):
    config = svt_params(1.0, 1e-6, 3, 50, 1e-3)
    session, state = make_session(config, p=1.0, seed=10)
    batches = counting_batches(monkeypatch, state)
    value = settle_bound(config, 1e-9)  # certain at p = 1e-9, not at p = 1
    assert value > settle_bound(config, 1.0)
    query = constant_query(value, 0.0)
    assert session.process(query) is BOT and len(batches) == 1
    state.p = 1e-9
    assert session.process(query) is BOT and len(batches) == 1
    state.p = 1.0
    assert session.process(query) is BOT and len(batches) == 2
    # A p no gate can have settles nothing: test_batch still refuses it.
    state.p = math.nan
    with pytest.raises(ParameterError):
        session.process(query)


def test_full_stream_settles_mixed_verdicts():
    config = svt_params(1.0, 1e-6, 4, 16, 0.03)
    values = [-3.0 * config.d, 2.0 * config.d, -2.0 * config.d, 3.0 * config.d]
    queries = [constant_query(v, 0.0) for v in values]
    state = core.init(config.gamma, make_dataset(), RandomStream(11))
    state.p = 0.9
    assert list(repetitive_svt(queries, config, state)) == [BOT, TOP, BOT, TOP]
