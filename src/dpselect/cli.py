"""Command-line benches and verifiers for the toolkit.

Every subcommand prints one ``# {json}`` header line with the resolved
configuration, a CSV header, and then ``experiment,trial,metric,value,meta``
rows.  Output is deterministic for a fixed seed and config.  Exit status is
0 on success, 1 when a bench detects a violated bound or failed check, and
2 for unusable arguments or configs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import core
from .core import BOT, Dataset, Mechanism
from .coingame import (
    DeterministicAdversary,
    exact_max_divergence,
    exact_renyi,
    random_valid_schedule,
)
from .errors import ParameterError, check_above, check_count, check_unit_interval
from .mwu import (
    FixedPoolAdversary,
    MwuSession,
    OverfittingAdversary,
    RandomSubsetAdversary,
    adaptive_harness,
    make_mwu_config,
)
from .noise import RandomStream
from .selectapps import (
    BtmConfig,
    ScoreFamily,
    ScoredCandidate,
    better_than_median,
    topk_select,
)
from .svt import repetitive_svt, svt_params

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _render(command: str, header: dict, rows):
    """The output lines, each made only when the row behind it is read."""
    yield "# " + json.dumps(header, sort_keys=True) + "\n"
    yield "experiment,trial,metric,value,meta\n"
    for trial, metric, value, meta in rows:
        yield f"{command},{trial},{metric},{_format_value(value)},{meta}\n"


def _read_rows(path: str, columns: str, minimum: int = 1) -> np.ndarray:
    """Numeric rows of a line-oriented file, one ``columns``-shaped row per line.

    Blank lines and lines starting with ``#`` are skipped.  Returns an array
    of shape (rows, number of columns); a malformed line, a NaN or infinite
    entry (``1e999`` included) or fewer than ``minimum`` rows raises
    ParameterError naming the file and line.
    """
    width = columns.count(",") + 1
    rows = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split(",")
            if len(parts) != width:
                raise ParameterError(
                    f"{path} line {number}: expected '{columns}', got {text!r}"
                )
            try:
                row = [float(part) for part in parts]
            except ValueError:
                raise ParameterError(
                    f"{path} line {number}: non-numeric entry in {text!r}"
                ) from None
            if not all(map(math.isfinite, row)):
                raise ParameterError(f"{path} line {number}: non-finite entry in {text!r}")
            rows.append(row)
    if len(rows) < minimum:
        raise ParameterError(f"{path}: need at least {minimum} '{columns}' lines")
    return np.array(rows)


def _run_coin_verify(config: dict, trials: int, stream: RandomStream, pure_dp: bool):
    rows = []
    failures = 0
    epsilon = config["epsilon"]
    alphas = [float(a) for a in config["alphas"]]
    max_bound = epsilon  # one coin gets bought before the game halts
    if config["schedule_file"] is not None:
        schedules = [
            DeterministicAdversary.from_probabilities(
                _read_rows(config["schedule_file"], "p,q"), epsilon
            )
        ]
    else:
        schedules = [
            random_valid_schedule(stream.split(trial), config["length"], epsilon)
            for trial in range(trials)
        ]
    for trial, adversary in enumerate(schedules):
        for alpha in alphas:
            e_bound = 1.0 + 3.0 * alpha * (alpha - 1.0) * epsilon**2
            e_value = exact_renyi(adversary, alpha)
            ok = e_value <= e_bound + 1e-9
            failures += not ok
            rows.append((
                trial,
                "renyi_e_value",
                e_value,
                f"alpha={alpha:.12g};bound={e_bound:.12g};pass={int(ok)}",
            ))
        max_divergence = exact_max_divergence(adversary)
        ok = max_divergence <= max_bound + 1e-9
        failures += not ok
        rows.append((
            trial,
            "max_divergence",
            max_divergence,
            f"bound={max_bound:.12g};pass={int(ok)}",
        ))
    rows.append((-1, "violations", failures, "aggregate"))
    return rows, failures


def _run_accountant(config: dict, trials: int, stream: RandomStream, pure_dp: bool):
    epsilon = config["epsilon"]
    gamma = config["gamma"]
    delta = config["delta"]
    # Checked before any row, in the ledger's own words: a refused config prints nothing.
    check_above("gamma", gamma)
    check_above("declared epsilon", epsilon, inclusive=True)
    if not pure_dp:
        check_unit_interval("delta_target", delta)

    def rows():
        for c1 in range(config["max_selections"] + 1):
            for c2 in (0, 1, config["max_tops"]):
                ledger = core.AccountantLedger()
                ledger.register(epsilon)
                ledger.selection_calls = c1
                ledger.top_responses = c2
                meta = f"c1={c1};c2={c2}"
                pure = core.pure_dp_cost(ledger, gamma)
                yield 0, "pure_epsilon", pure.epsilon, meta
                if not pure_dp:
                    approx = core.approx_dp_cost(ledger, gamma, delta)
                    yield 0, "approx_epsilon", approx.epsilon, meta

    return rows(), 0


def _run_select_demo(config: dict, trials: int, stream: RandomStream, pure_dp: bool):
    rows = []
    candidates = config["candidates"]
    dataset = Dataset(np.arange(candidates))

    def run(ds: Dataset, mech_stream: RandomStream) -> ScoredCandidate:
        index = int(mech_stream.generator.integers(len(ds.fetch())))
        return ScoredCandidate(index, (index + 0.5) / candidates)

    base = Mechanism(run, config["epsilon"])
    btm = BtmConfig(config["alpha"], config["beta"])
    failures = 0
    for trial in range(trials):
        state = core.init(btm.alpha, dataset, stream.split(trial))
        chosen = better_than_median(base, btm, state)
        if chosen is core.EMPTY:
            failures += 1
            rows.append((trial, "score", -1.0, "empty"))
            continue
        if chosen.score < 0.5:
            failures += 1
        rows.append((trial, "score", chosen.score, f"budget={btm.budget}"))
    rows.append((-1, "failure_rate", failures / trials, f"beta={config['beta']:.12g}"))
    # The bound is statistical, so individual failures are expected; only
    # gross excess over beta trips the exit status.
    excess = failures / trials > config["beta"] + 4 * math.sqrt(
        config["beta"] / max(trials, 1)
    )
    return rows, int(excess)


def _run_topk_bench(config: dict, trials: int, stream: RandomStream, pure_dp: bool):
    rows = []
    k = config["k"]
    if config["table_file"] is not None:
        scores_table = _read_rows(config["table_file"], "score", minimum=2)[:, 0]
    else:
        scores_table = np.arange(config["m"], dtype=float)
    m = scores_table.size
    family = ScoreFamily.from_table(m)
    dataset = Dataset(scores_table)
    order = np.argsort(-scores_table, kind="stable")
    true_top = set(int(i) for i in order[:k])
    for trial in range(trials):
        result = topk_select(
            family,
            k,
            config["epsilon"],
            config["delta"],
            config["beta"],
            dataset,
            stream.split(trial),
            budget_cap=config["budget_cap"],
        )
        overlap = len(result.indices & true_top) / k
        rows.append((trial, "overlap", overlap, f"fallback={int(result.fallback)}"))
        rows.append((trial, "certificate", result.certificate, ""))
        rows.append((trial, "epsilon_spent", result.cost.epsilon, ""))
    return rows, 0


def _classic_svt(values, thresholds, k, epsilon, sensitivity, generator):
    """Per-round noisy-threshold SVT, the usual comparison baseline.

    Halts after k TOPs, re-noising the threshold after each one; answers
    are truncated there, matching how the repetitive variant halts.
    """
    verdicts = []
    rho = generator.laplace(scale=2.0 * sensitivity / epsilon)
    tops = 0
    for value, threshold in zip(values, thresholds):
        nu = generator.laplace(scale=4.0 * k * sensitivity / epsilon)
        if value + nu >= threshold + rho:
            verdicts.append(True)
            tops += 1
            if tops == k:
                break
            rho = generator.laplace(scale=2.0 * sensitivity / epsilon)
        else:
            verdicts.append(False)
    return verdicts


def _wrong_svt_verdict(is_top: bool, value: float, threshold: float, d: float) -> bool:
    """BOT above the threshold, or TOP below threshold - d."""
    return value < threshold - d if is_top else value > threshold


def _run_svt_bench(config: dict, trials: int, stream: RandomStream, pure_dp: bool):
    rows = []
    m, k = config["m"], config["k"]
    params = svt_params(
        config["epsilon"],
        config["delta"],
        k,
        m,
        config["beta"],
        sensitivity=config["sensitivity"],
        pure_dp=pure_dp,
    )
    from_file = config["query_file"] is not None
    if from_file:
        file_values, file_thresholds = _read_rows(config["query_file"], "value,threshold").T
        count = file_values.size
    else:
        count = config["queries"]
    failures = 0
    for trial in range(trials):
        trial_stream = stream.split(trial)
        if from_file:
            values, thresholds = file_values, file_thresholds
        else:
            # Mostly clear BOTs, a few clear TOPs, nothing inside the gap.
            thresholds = np.zeros(count)
            values = np.full(count, -2.0 * params.d)
            top_slots = trial_stream.split(0).generator.permutation(count)[
                : max(count // 8, 1)
            ]
            values[top_slots] = params.d
        state = core.init(params.gamma, Dataset(values), trial_stream.split(1))
        answered = 0
        tops = 0
        shifted = (values - thresholds).tolist()
        for index, verdict in enumerate(repetitive_svt(shifted, params, state)):
            answered += 1
            is_top = verdict is not BOT
            if _wrong_svt_verdict(is_top, values[index], thresholds[index], params.d):
                failures += 1
            tops += is_top
        rows.append((trial, "answered", answered, f"of={count}"))
        rows.append((trial, "top_count", tops, ""))
        rows.append((trial, "epsilon_spent", state.pure_cost().epsilon, ""))
        if config["baseline"]:
            baseline = _classic_svt(
                values,
                thresholds,
                k,
                config["epsilon"],
                config["sensitivity"],
                trial_stream.split(2).generator,
            )
            violations = sum(
                _wrong_svt_verdict(is_top, values[i], thresholds[i], params.d)
                for i, is_top in enumerate(baseline)
            )
            rows.append((trial, "baseline_answered", len(baseline), f"of={count}"))
            rows.append((trial, "baseline_violations", violations, ""))
    rows.append((-1, "violations", failures, "aggregate"))
    return rows, failures


def _run_mwu_bench(config: dict, trials: int, stream: RandomStream, pure_dp: bool):
    universe = config["universe"]
    mwu_config = make_mwu_config(
        universe,
        config["n"],
        config["m"],
        config["epsilon"],
        config["delta"],
        config["beta"],
        alpha_override=config["alpha"],
    )
    if config["distribution"] == "skewed":
        weights = np.where(np.arange(universe) < universe // 2, 3.0, 1.0)
        probabilities = weights / weights.sum()
    elif config["distribution"] == "uniform":
        probabilities = np.full(universe, 1.0 / universe)
    else:
        raise ParameterError(f"unknown distribution {config['distribution']!r}")

    name = config["adversary"]
    if name == "subset":
        factory = lambda size, adv_stream: RandomSubsetAdversary(size, adv_stream)
    elif name == "repeat":
        half = np.zeros(universe)
        half[: universe // 2] = 1.0
        factory = lambda size, adv_stream: FixedPoolAdversary([half])
    elif name == "overfit":
        probes = config["m"] - 1
        factory = lambda size, adv_stream: OverfittingAdversary(size, adv_stream, probes)
    else:
        raise ParameterError(f"unknown adversary {name!r}")

    report = adaptive_harness(
        probabilities,
        config["n"],
        config["m"],
        factory,
        lambda ds, sess_stream: MwuSession(mwu_config, ds, sess_stream),
        trials,
        stream,
        keep_rows=config["per_query"],
    )
    rows = []
    for trial, index, answer, empirical, population in report.rows:
        rows.append((
            trial,
            "answer",
            answer,
            f"query={index};empirical={empirical:.12g};population={population:.12g}",
        ))
    for trial in range(trials):
        rows.append((trial, "empirical_error", report.empirical_errors[trial], ""))
        rows.append((trial, "population_error", report.population_errors[trial], ""))
        rows.append((trial, "updates", int(report.update_rounds[trial]),
                     f"cap={mwu_config.svt.k_prime}"))
        rows.append((trial, "halted", bool(report.halted[trial]), ""))
    failure = report.failure_fraction(mwu_config.alpha)
    rows.append((-1, "failure_fraction", failure, f"alpha={mwu_config.alpha:.12g}"))
    over_budget = int(np.any(report.update_rounds > mwu_config.svt.k_prime))
    return rows, over_budget


class _Command(NamedTuple):
    """One subcommand: its runner, its default --trials and its config defaults."""

    run: Callable[[dict, int, RandomStream, bool], tuple]
    trials: int
    defaults: dict


_COMMANDS = {
    "coin-verify": _Command(_run_coin_verify, 20, {
        "length": 30,
        "epsilon": 0.2,
        "alphas": [1.5, 2.0],
        "schedule_file": None,
    }),
    "accountant": _Command(_run_accountant, 1, {
        "epsilon": 0.01,
        "gamma": 1.0,
        "delta": 1e-6,
        "max_selections": 5,
        "max_tops": 25,
    }),
    "select-demo": _Command(_run_select_demo, 200, {
        "alpha": 2.0,
        "beta": 0.5,
        "candidates": 64,
        "epsilon": 0.05,
    }),
    "topk-bench": _Command(_run_topk_bench, 5, {
        "m": 40,
        "k": 5,
        "epsilon": 0.9,
        "delta": 1e-4,
        "beta": 0.2,
        "budget_cap": 4000,
        "table_file": None,
    }),
    "svt-bench": _Command(_run_svt_bench, 5, {
        "m": 64,
        "k": 4,
        "epsilon": 1.0,
        "delta": 1e-6,
        "beta": 0.01,
        "queries": 32,
        "sensitivity": 1.0,
        "query_file": None,
        "baseline": True,
    }),
    "mwu-bench": _Command(_run_mwu_bench, 3, {
        "universe": 16,
        "n": 4000,
        "m": 16,
        "epsilon": 2.0,
        "delta": 1e-5,
        "beta": 0.05,
        "alpha": 0.3,
        "adversary": "subset",
        "distribution": "skewed",
        "per_query": True,
    }),
}


# Count keys that may be zero; every other integer key counts at least one.
_MAY_BE_ZERO = {"max_selections", "max_tops"}
# The largest count key or --trials: past it a run would ask numpy for an
# array it cannot allocate, or build output rows until memory runs out.
_COUNT_LIMIT = 10**6


def _is_finite(value) -> bool:
    """A number a float holds: not a bool, NaN, an infinity or an int past the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_override(command: str, key: str, value) -> None:
    """Refuse an override whose JSON type or range does not fit its default."""
    default = _COMMANDS[command].defaults[key]
    if default is None:
        ok, kind = value is None or isinstance(value, str), "a path or null"
    elif isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        least = 0 if key in _MAY_BE_ZERO else 1
        check_count(f"config key {key!r} of {command}", value, least, _COUNT_LIMIT)
        return
    elif isinstance(default, float):
        ok, kind = _is_finite(value), "a finite number"
    elif isinstance(default, list):
        ok = isinstance(value, list) and all(_is_finite(item) for item in value)
        kind = "a list of finite numbers"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ParameterError(
            f"config key {key!r} of {command} must be {kind}, got {json.dumps(value)}"
        )


def _load_config(command: str, path: str | None) -> dict:
    config = dict(_COMMANDS[command].defaults)
    if path is not None:
        with open(path, encoding="utf-8") as handle:
            overrides = json.load(handle)
        if not isinstance(overrides, dict):
            raise ParameterError("config file must hold a JSON object")
        unknown = sorted(set(overrides) - set(config))
        if unknown:
            raise ParameterError(
                f"unknown config keys for {command}: {', '.join(unknown)}"
            )
        for key, value in overrides.items():
            _check_override(command, key, value)
        config.update(overrides)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpselect",
        description="benches and verifiers for the selection toolkit",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON file overriding command defaults")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out", help="write CSV here instead of stdout")
    parser.add_argument(
        "--pure-dp", action="store_true", help="use pure-DP variants where applicable"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    trials = args.trials if args.trials is not None else command.trials
    try:
        check_count("--trials", trials, most=_COUNT_LIMIT)
        check_count("--seed", args.seed, least=0)
        config = _load_config(args.command, args.config)
        stream = RandomStream(args.seed)
        rows, failures = command.run(config, trials, stream, args.pure_dp)
        header = {
            "command": args.command,
            "config": config,
            "pure_dp": args.pure_dp,
            "seed": args.seed,
            "trials": trials,
        }
        lines = _render(args.command, header, rows)
        if args.out:
            with open(args.out, "w") as handle:
                handle.writelines(lines)
        else:
            sys.stdout.writelines(lines)
    except (ParameterError, OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
