"""The parameter contract: every entry point refuses out-of-range values alike.

One table names each numeric parameter of a public entry point and the rule
it follows; every bad value of that rule must raise ``ParameterError`` whose
message names the parameter.  NaN is refused everywhere, and a count is an
``int``, never a ``bool`` or a fraction.  A second test keeps the wording of
the shared rules in ``dpselect.errors`` alone.
"""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import forced_state, make_dataset
from dpselect import cli, core, errors
from dpselect.coingame import (
    DeterministicAdversary,
    QueryPair,
    enumerate_transcripts,
    exact_renyi,
    random_valid_schedule,
    transcript_max_log_ratio,
    transcript_renyi,
)
from dpselect.core import BOT, AccountantLedger, Hypothesis, Mechanism
from dpselect.errors import ParameterError
from dpselect.mwu import (
    OverfittingAdversary,
    RandomSubsetAdversary,
    adaptive_harness,
    make_mwu_config,
    mwu_update,
    sample_size_for_accuracy,
    solve_alpha,
    uniform_histogram,
)
from dpselect.noise import (
    RandomStream,
    TruncatedLaplaceParams,
    exponential_mechanism,
    sample_laplace,
    sample_pass_probability,
)
from dpselect.selectapps import (
    BtmConfig,
    ScoreFamily,
    ScoredCandidate,
    better_than_median,
    choosing_mechanism,
    query_release_amplified,
    stability_pivot,
    stable_select,
    tlap_release_baseline,
    topk_select,
)
from dpselect.svt import RepetitiveSvt, above_hypothesis, below_hypothesis, svt_params

NAN = math.nan
POSITIVE = (NAN, 0, -1)
NONNEGATIVE = (NAN, -1)
UNIT = (NAN, 0, 1, -1)
COUNT = (NAN, 0, -1, 2.5, True)
# A non-number meets the same rule as a bad number, never a TypeError.
NOT_A_NUMBER = (None, "1")
COUNT_FROM_2 = COUNT + (1,)
# A float or a bool key would alias another stream: 2.7 and 2 both gave path (2,).
STREAM_KEY = (NAN, -1, 2.7, 10.0, True)

_ADVERSARY = DeterministicAdversary.from_probabilities([(0.5, 0.45)] * 3, 0.2)
_QUERIES = ScoreFamily.from_table(2)


def _topk(**changes):
    args = dict(k=2, epsilon=0.9, delta=0.05, beta=0.1)
    args.update(changes)
    return topk_select(ScoreFamily.from_table(4), dataset=make_dataset(np.arange(4.0)),
                       stream=RandomStream(0), budget_cap=1, **args)


def _choosing(**changes):
    args = dict(epsilon=0.5, delta=0.05, beta=0.1)
    args.update(changes)
    return choosing_mechanism(ScoreFamily.from_table(4, k_bound=1), state=forced_state(), **args)


def _stable(**changes):
    args = dict(k=1, epsilon=0.5, delta=0.05, beta=0.1)
    args.update(changes)
    return stable_select(ScoreFamily.from_table(4), state=forced_state(), **args)


def _release(epsilon=0.9, delta=0.05):
    return query_release_amplified(_QUERIES, epsilon, delta, forced_state())


def _harness(**changes):
    args = dict(n=10, m=3, trials=1)
    args.update(changes)
    return adaptive_harness(
        np.full(4, 0.25), args["n"], args["m"],
        lambda u, s: RandomSubsetAdversary(u, s),
        lambda ds, s: oracles.EmpiricalAnswerer(ds, 4),
        args["trials"], RandomStream(0),
    )


def _svt(**changes):
    args = dict(epsilon=1.0, delta=1e-6, k=4, m=64, beta=0.01)
    args.update(changes)
    return svt_params(**args)


def _gamma_state(gamma):
    """A framework state whose gate exponent was set by hand, past init's check."""
    return dataclasses.replace(forced_state(), gamma=gamma)


# (entry point, parameter named in the refusal, bad values, call with the value)
CASES = [
    ("RandomStream", "seed", STREAM_KEY, RandomStream),
    ("RandomStream", "stream key", STREAM_KEY, lambda v: RandomStream(0, (1, v))),
    ("RandomStream.split", "stream key", STREAM_KEY, lambda v: RandomStream(0).split(1, v)),
    # With no key, split would alias its parent's stream.
    ("RandomStream.split", "split keys", [()],
     lambda v: RandomStream(4).split(2).split(*v)),
    ("TruncatedLaplaceParams", "epsilon", POSITIVE, lambda v: TruncatedLaplaceParams(v, 0.1)),
    ("TruncatedLaplaceParams", "delta", UNIT, lambda v: TruncatedLaplaceParams(1.0, v)),
    ("sample_laplace", "scale", POSITIVE + NOT_A_NUMBER, lambda v: sample_laplace(RandomStream(0), v)),
    ("sample_pass_probability", "gamma", POSITIVE,
     lambda v: sample_pass_probability(RandomStream(0), v)),
    ("exponential_mechanism", "epsilon", POSITIVE,
     lambda v: exponential_mechanism(RandomStream(0), [0.0, 1.0], v)),
    ("exponential_mechanism", "sensitivity", POSITIVE,
     lambda v: exponential_mechanism(RandomStream(0), [0.0, 1.0], 1.0, v)),
    ("init", "gamma", POSITIVE + NOT_A_NUMBER, lambda v: core.init(v, make_dataset(), RandomStream(0))),
    ("AccountantLedger.register", "epsilon", NONNEGATIVE + NOT_A_NUMBER,
     lambda v: AccountantLedger().register(v)),
    ("approx_dp_cost", "delta_target", UNIT,
     lambda v: core.approx_dp_cost(AccountantLedger(), 1.0, v)),
    ("Mechanism", "delta", NONNEGATIVE, lambda v: Mechanism(lambda ds, s: 1.0, 0.1, v)),
    ("Hypothesis", "delta", NONNEGATIVE, lambda v: Hypothesis(lambda ds, s: BOT, 0.1, v)),
    ("selection", "tau", COUNT,
     lambda v: forced_state().selection(v, [Mechanism(lambda ds, s: 1.0, 0.1)])),
    ("test_batch", "count", COUNT,
     lambda v: forced_state().test_batch(Hypothesis(lambda ds, s: BOT, 0.1), v)),
    ("QueryPair", "epsilon", POSITIVE + NOT_A_NUMBER, lambda v: QueryPair(0.5, 0.45, v)),
    ("DeterministicAdversary", "epsilon", POSITIVE + NOT_A_NUMBER,
     lambda v: DeterministicAdversary([0.5], [0.4], v)),
    ("exact_renyi", "alpha", (NAN, 1, 0.5), lambda v: exact_renyi(_ADVERSARY, v)),
    ("transcript_renyi", "alpha", (NAN, 1, 0.5),
     lambda v: transcript_renyi(_ADVERSARY, 1, v, 3)),
    ("transcript_renyi", "k", COUNT, lambda v: transcript_renyi(_ADVERSARY, v, 1.5, 3)),
    ("transcript_renyi", "cap", COUNT + (4,),
     lambda v: transcript_renyi(_ADVERSARY, 1, 1.5, v)),
    ("transcript_max_log_ratio", "k", COUNT,
     lambda v: transcript_max_log_ratio(_ADVERSARY, v, 3)),
    ("transcript_max_log_ratio", "cap", COUNT + (4,),
     lambda v: transcript_max_log_ratio(_ADVERSARY, 1, v)),
    ("enumerate_transcripts", "k", COUNT, lambda v: enumerate_transcripts(_ADVERSARY, v, 3)),
    ("enumerate_transcripts", "cap", COUNT + (4,),
     lambda v: enumerate_transcripts(_ADVERSARY, 1, v)),
    ("random_valid_schedule", "length", COUNT,
     lambda v: random_valid_schedule(RandomStream(0), v, 0.2)),
    ("random_valid_schedule", "epsilon", POSITIVE + NOT_A_NUMBER,
     lambda v: random_valid_schedule(RandomStream(0), 3, v)),
    ("svt_params", "epsilon", POSITIVE, lambda v: _svt(epsilon=v)),
    ("svt_params", "k", COUNT, lambda v: _svt(k=v)),
    ("svt_params", "m", COUNT_FROM_2, lambda v: _svt(m=v)),
    ("svt_params", "sensitivity", POSITIVE, lambda v: svt_params(1.0, 1e-6, 4, 64, 0.01, v)),
    ("svt_params", "delta", UNIT + NOT_A_NUMBER, lambda v: _svt(delta=v)),
    ("RepetitiveSvt", "tau", COUNT,
     lambda v: RepetitiveSvt(dataclasses.replace(_svt(), tau=v), forced_state(_svt().gamma))),
    ("RepetitiveSvt", "state gamma", NOT_A_NUMBER,
     lambda v: RepetitiveSvt(_svt(), _gamma_state(v))),
    ("above_hypothesis", "epsilon_prime", POSITIVE,
     lambda v: above_hypothesis(lambda ds: 0.0, 0.0, v, 1.0)),
    ("below_hypothesis", "d", NONNEGATIVE,
     lambda v: below_hypothesis(lambda ds: 0.0, 0.0, v, 0.1, 1.0)),
    ("BtmConfig", "alpha", (NAN, 0.5, -1), lambda v: BtmConfig(v, 0.1)),
    ("BtmConfig", "beta", UNIT, lambda v: BtmConfig(1.0, v)),
    ("BtmConfig", "budget_cap", COUNT, lambda v: BtmConfig(1.0, 0.01, budget_cap=v)),
    ("better_than_median", "state gamma", NOT_A_NUMBER,
     lambda v: better_than_median(Mechanism(lambda ds, s: ScoredCandidate(0, 1.0), 0.1),
                                  BtmConfig(1.0, 0.5), _gamma_state(v))),
    ("ScoreFamily", "size", COUNT, ScoreFamily.from_table),
    ("ScoreFamily", "k_bound", COUNT, lambda v: ScoreFamily.from_table(4, k_bound=v)),
    ("topk_select", "k", COUNT + (4,) + NOT_A_NUMBER, lambda v: _topk(k=v)),
    ("topk_select", "epsilon", UNIT, lambda v: _topk(epsilon=v)),
    ("topk_select", "delta", UNIT, lambda v: _topk(delta=v)),
    ("topk_select", "beta", UNIT, lambda v: _topk(beta=v)),
    ("choosing_mechanism", "delta", UNIT, lambda v: _choosing(delta=v)),
    ("choosing_mechanism", "beta", UNIT, lambda v: _choosing(beta=v)),
    ("stability_pivot", "k", COUNT + (4,), lambda v: stability_pivot(np.arange(4.0), v)),
    ("stable_select", "k", COUNT + (4,), lambda v: _stable(k=v)),
    ("stable_select", "delta", UNIT, lambda v: _stable(delta=v)),
    ("stable_select", "beta", UNIT, lambda v: _stable(beta=v)),
    ("tlap_release_baseline", "epsilon", POSITIVE,
     lambda v: tlap_release_baseline(_QUERIES, v, 0.1)),
    ("tlap_release_baseline", "delta", UNIT, lambda v: tlap_release_baseline(_QUERIES, 0.3, v)),
    ("query_release_amplified", "epsilon", POSITIVE, lambda v: _release(epsilon=v)),
    ("query_release_amplified", "delta", UNIT, lambda v: _release(delta=v)),
    ("uniform_histogram", "universe size", COUNT_FROM_2, uniform_histogram),
    ("mwu_update", "eta", NONNEGATIVE,
     lambda v: mwu_update(np.full(4, 0.25), np.ones(4), 1.0, v)),
    ("solve_alpha", "universe size", COUNT_FROM_2,
     lambda v: solve_alpha(v, 5000, 500, 1.0, 1e-6, 0.01)),
    ("solve_alpha", "n", COUNT, lambda v: solve_alpha(64, v, 500, 1.0, 1e-6, 0.01)),
    ("solve_alpha", "m", COUNT_FROM_2, lambda v: solve_alpha(64, 5000, v, 1.0, 1e-6, 0.01)),
    ("solve_alpha", "epsilon", POSITIVE, lambda v: solve_alpha(64, 5000, 500, v, 1e-6, 0.01)),
    ("solve_alpha", "delta", UNIT, lambda v: solve_alpha(64, 5000, 500, 1.0, v, 0.01)),
    ("solve_alpha", "beta", UNIT + NOT_A_NUMBER, lambda v: solve_alpha(64, 5000, 500, 1.0, 1e-6, v)),
    ("sample_size_for_accuracy", "alpha", UNIT,
     lambda v: sample_size_for_accuracy(v, 64, 500, 1.0, 1e-6, 0.01)),
    ("make_mwu_config", "universe size", COUNT_FROM_2,
     lambda v: make_mwu_config(v, 5000, 40, 1.0, 1e-6, 0.05, alpha_override=0.3)),
    ("make_mwu_config", "n", COUNT,
     lambda v: make_mwu_config(16, v, 40, 1.0, 1e-6, 0.05, alpha_override=0.3)),
    ("make_mwu_config", "alpha_override", UNIT,
     lambda v: make_mwu_config(16, 5000, 40, 1.0, 1e-6, 0.05, alpha_override=v)),
    ("RandomSubsetAdversary", "universe size", COUNT,
     lambda v: RandomSubsetAdversary(v, RandomStream(0))),
    ("OverfittingAdversary", "universe size", COUNT,
     lambda v: OverfittingAdversary(v, RandomStream(0), 3)),
    ("OverfittingAdversary", "probes", COUNT,
     lambda v: OverfittingAdversary(4, RandomStream(0), v)),
    ("adaptive_harness", "n", COUNT, lambda v: _harness(n=v)),
    ("adaptive_harness", "m", COUNT, lambda v: _harness(m=v)),
    ("adaptive_harness", "trials", COUNT, lambda v: _harness(trials=v)),
    ("cli accountant", "gamma", POSITIVE,
     lambda v: cli._run_accountant(dict(cli._COMMANDS["accountant"].defaults, gamma=v), 1,
                                   RandomStream(0), False)),
]


@pytest.mark.parametrize(
    "parameter,value,call",
    [
        pytest.param(parameter, value, call, id=f"{entry}-{parameter}={value!r}")
        for entry, parameter, values, call in CASES
        for value in values
    ],
)
def test_out_of_range_values_are_refused_naming_the_parameter(parameter, value, call):
    with pytest.raises(ParameterError, match=rf"(^|\W){re.escape(parameter)} must "):
        call(value)


@pytest.mark.parametrize("gamma", [NAN, 2.0])
def test_every_gated_application_refuses_a_wrong_gate_exponent(gamma):
    state = forced_state(p=1.0)
    state.gamma = gamma
    base = Mechanism(lambda ds, s: ScoredCandidate(0, 1.0), 0.1)
    svt = _svt()
    with pytest.raises(ParameterError, match="state gamma"):
        better_than_median(base, BtmConfig(1.0, 0.5), state)
    with pytest.raises(ParameterError, match="state gamma"):
        choosing_mechanism(ScoreFamily.from_table(4, k_bound=1), 0.5, 0.05, 0.1, state)
    with pytest.raises(ParameterError, match="state gamma"):
        stable_select(ScoreFamily.from_table(4), 1, 0.5, 0.05, 0.1, state)
    state.gamma = svt.gamma * gamma
    with pytest.raises(ParameterError, match="state gamma"):
        RepetitiveSvt(svt, state)


def test_gate_exponents_match_to_the_same_tolerance_everywhere():
    state = forced_state(p=1.0, records=np.arange(4.0))
    state.gamma = 1.0 + 1e-13
    base = Mechanism(lambda ds, s: ScoredCandidate(0, 1.0), 0.5)
    assert better_than_median(base, BtmConfig(1.0, 0.5), state).score == 1.0
    assert choosing_mechanism(ScoreFamily.from_table(4, k_bound=1), 0.5, 0.05, 0.1, state) \
        is not None
    svt = _svt()
    state.gamma = svt.gamma + 1e-13
    RepetitiveSvt(svt, state)


# The shared rules' wordings, with each formatted value read as "{}".
_SHARED_WORDINGS = re.compile(
    r"must be (positive|nonnegative), got"
    r"|must (exceed|be at least) \S+, got"
    r"|must lie in \(0, 1\)"
    r"|must be an? (positive |nonnegative )?integer"
    r"|\(an integer\)"
)
_REFUSALS = {"ParameterError", "PromiseViolation", "InfeasibleParameters"}


def _message_text(node: ast.AST) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_message_text(part) for part in node.values)
    if isinstance(node, ast.FormattedValue):
        return "{}"
    return " ".join(_message_text(child) for child in ast.iter_child_nodes(node))


def test_only_errors_module_words_the_shared_rules():
    package = Path(errors.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            func = node.exc.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            text = " ".join(_message_text(arg) for arg in node.exc.args)
            if name in _REFUSALS and _SHARED_WORDINGS.search(text):
                offenders.append(f"{path.name}:{node.lineno}: {text}")
    assert not offenders, "\n".join(offenders)
    # The scan can see each shared wording: every helper refusal matches it.
    for refuse in [
        lambda: errors.check_above("x", NAN),
        lambda: errors.check_above("x", -1, inclusive=True),
        lambda: errors.check_above("x", 0.5, 1.0),
        lambda: errors.check_above("x", 0.5, 1.0, inclusive=True),
        lambda: errors.check_unit_interval("x", 1),
        lambda: errors.check_count("x", 2.5),
        lambda: errors.check_count("x", -1, least=0),
        lambda: errors.check_count("x", 1, least=2),
        lambda: errors.check_count("x", 3, most=2),
        lambda: errors.check_above("x", "1"),
        lambda: errors.check_unit_interval("x", "1"),
        lambda: errors.check_count("x", "1"),
    ]:
        with pytest.raises(ParameterError) as info:
            refuse()
        assert _SHARED_WORDINGS.search(str(info.value)), str(info.value)


@pytest.mark.parametrize("check,message", [
    (lambda v: errors.check_above("x", v), "x must be positive, got {}"),
    (lambda v: errors.check_unit_interval("x", v), "x must lie in (0, 1), got {}"),
    (lambda v: errors.check_count("x", v), "x must be a positive integer, got {}"),
])
def test_a_refused_value_reads_as_what_was_given(check, message):
    # A string is quoted, so "1" never reads as the number 1; numbers,
    # numpy scalars included, print plainly.
    for value, shown in (("1", "'1'"), (np.float64(-1.5), "-1.5"), (None, "None")):
        with pytest.raises(ParameterError) as info:
            check(value)
        assert str(info.value) == message.format(shown)
