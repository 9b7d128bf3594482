import dataclasses
import math

import numpy as np
import pytest

import oracles
from conftest import forced_state, make_dataset
from dpselect import core, svt
from dpselect.core import BOT, TOP, Dataset
from dpselect.errors import HaltedError, ParameterError
from dpselect.noise import RandomStream
from dpselect.svt import (
    RepetitiveSvt,
    SvtQuery,
    above_hypothesis,
    below_hypothesis,
    repetitive_svt,
    svt_params,
)


def constant_query(value: float, threshold: float) -> SvtQuery:
    return SvtQuery(evaluator=lambda d: value, threshold=threshold)


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
    responses = list(repetitive_svt(queries, config, state))
    assert len(responses) == config.k_prime - 1
    assert all(r.verdict is TOP for r in responses)
    assert [r.index for r in responses] == list(range(config.k_prime - 1))


def test_process_after_halt_raises():
    config = svt_params(1.0, 1e-6, 1, 8, 0.06)
    session, _ = make_session(config, p=0.9, seed=4)
    with pytest.raises(HaltedError):
        for _ in range(20):
            session.process(constant_query(100.0, 0.0))
    assert session.halted
    with pytest.raises(HaltedError):
        session.process(constant_query(-100.0, 0.0))


def test_scalar_mode_touches_data_at_most_tau_per_batch(monkeypatch):
    run_every_coin(monkeypatch)
    config = svt_params(1.0, 1e-6, 1, 4, 0.2)
    session, state = make_session(config, seed=5)
    for _ in range(3):
        session.process(constant_query(-100.0, 0.0))
    batches = 3 + session.charged
    assert state.dataset.access_count <= config.tau * batches


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


def test_full_stream_settles_mixed_verdicts():
    config = svt_params(1.0, 1e-6, 4, 16, 0.03)
    values = [-3.0 * config.d, 2.0 * config.d, -2.0 * config.d, 3.0 * config.d]
    queries = [constant_query(v, 0.0) for v in values]
    state = core.init(config.gamma, make_dataset(), RandomStream(11))
    state.p = 0.9
    responses = list(repetitive_svt(queries, config, state))
    assert [r.verdict for r in responses] == [BOT, TOP, BOT, TOP]
    assert [r.index for r in responses] == [0, 1, 2, 3]
