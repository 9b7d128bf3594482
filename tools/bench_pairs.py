#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised as one JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_n.json --what TEXT \\
        [--workload NAME=PAIRS ...] [--first-seed S]

PARENT and CHANGE are two checkouts of the repository.  For each workload,
pair i runs ``bench/run.py`` of both checkouts at seed S + i, one run at a
time: even pairs run the parent first, odd pairs the change first.  Without
``--workload`` every workload of CHANGE's ``BENCHMARK.json`` gets three
pairs.  One traced pair (``--trace 1``, seed S + the most pairs asked for)
runs last, on the first workload named.  Each run uses the checkout's own
``bench/run.py`` for ``run_seconds`` of CHANGE's ``BENCHMARK.json``, with
``PYTHONDONTWRITEBYTECODE=1``.  A workload name missing from CHANGE's
``BENCHMARK.json`` or a negative first seed exits 2 before any run.

The file holds the machine, the seeds, every run, each side's median and
quartiles (``numpy.percentile`` 25/50/75), the pairs the change won per
metric (ties count for neither side), the ratio of the medians, the
benchmark's bounds and the traced pair.  Beside ``ops_per_s`` (timed ops
over the time inside them) each side's summary holds ``iterations_per_s``,
the loop's iterations over the whole run (``attempted / run_seconds``): a
workload whose rate stays put while ``ops_per_s`` grows is bound by its
checks, and one whose rate grows with it keeps more records in its run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
DEFAULT_PAIRS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--what", required=True, help="what the change does")
    parser.add_argument("--workload", action="append", default=[], metavar="NAME=PAIRS")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{root} has no bench/run.py")
    if args.first_seed < 0:
        parser.error(f"--first-seed must be nonnegative, got {args.first_seed}")
    try:
        args.benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
        known = [workload["name"] for workload in args.benchmark["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as error:
        parser.error(f"{args.change}/BENCHMARK.json is unreadable: {error}")
    pairs = {}
    for item in args.workload:
        name, _, count = item.partition("=")
        if name not in known:
            parser.error(f"--workload {name!r} is not in BENCHMARK.json: {', '.join(known)}")
        if not count.isdigit() or int(count) < 1:
            parser.error(f"--workload wants NAME=PAIRS with PAIRS >= 1, got {item!r}")
        pairs[name] = int(count)
    args.pairs = pairs
    return args


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``bench/run.py`` run: its ``#`` lines and its parsed last line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {completed.returncode}")
    comments = [line for line in lines[:-1] if line.startswith("#")]
    digest = next((line.split("sha256=")[1] for line in comments if "sha256=" in line), None)
    return {"comments": comments, "result": json.loads(lines[-1]), "digest": digest}


def side_record(run: dict) -> dict:
    result = run["result"]
    return {
        "metrics": {name: value["value"] for name, value in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "digest": run["digest"],
    }


def quartiles(values: np.ndarray) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], end_to_end: list[dict], run_seconds: float) -> dict:
    """Totals, quartiles, wins and median ratios of a workload's pairs."""
    summary = {side: {} for side in SIDES}
    wins = {}
    ratios = {}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: np.array([run[side]["metrics"][name] for run in runs]) for side in SIDES}
        for side in SIDES:
            summary[side][name] = quartiles(values[side])
        gain = values["change"] - values["parent"]
        if metric["better"] == "lower":
            gain = -gain
        wins[name] = int(np.count_nonzero(gain > 0))
        ratios[name] = summary["change"][name]["median"] / summary["parent"][name]["median"]
    for side in SIDES:
        attempted = np.array([run[side]["attempted"] for run in runs])
        summary[side]["iterations_per_s"] = quartiles(attempted / run_seconds)
    return {
        "pairs": len(runs),
        "attempted": {side: sum(run[side]["attempted"] for run in runs) for side in SIDES},
        "failed": {side: sum(run[side]["failed"] for run in runs) for side in SIDES},
        "digests_match": all(run["parent"]["digest"] == run["change"]["digest"] for run in runs),
        "summary": summary,
        "change_wins": wins,
        "change_over_parent_median": ratios,
        "bound": {metric["name"]: metric["bound"] for metric in end_to_end},
        "runs": runs,
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    benchmark = args.benchmark
    seconds = benchmark["run_seconds"]
    pairs = args.pairs or {w["name"]: DEFAULT_PAIRS for w in benchmark["workloads"]}
    roots = {"parent": args.parent, "change": args.change}
    most = max(pairs.values())
    workloads = {}
    for workload, count in pairs.items():
        runs = []
        for index in range(count):
            seed = args.first_seed + index
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            record = {"seed": seed, "first": order[0]}
            for side in order:
                print(f"{workload} seed={seed} {side}", file=sys.stderr, flush=True)
                record[side] = side_record(run_once(roots[side], workload, seed, seconds, 0))
            runs.append(record)
        workloads[workload] = summarise(runs, benchmark["end_to_end"], seconds)

    traced_workload = next(iter(pairs))
    traced_seed = args.first_seed + most
    traced = []
    for side in SIDES:
        print(f"{traced_workload} seed={traced_seed} {side} traced", file=sys.stderr, flush=True)
        run = run_once(roots[side], traced_workload, traced_seed, seconds, 1)
        traced.append({
            "workload": traced_workload, "side": side, "seed": traced_seed,
            "comments": run["comments"], "result": run["result"],
        })

    command = f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace"
    report = {
        "what": args.what,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "system": platform.system(),
            "machine": platform.machine(),
        },
        "command": f"{command} 0",
        "host": "one run at a time; PYTHONDONTWRITEBYTECODE=1",
        "method": (
            "alternating pairs, one per seed: even pairs run the parent first, odd pairs the "
            f"change first; pairs per workload: {json.dumps(pairs)}; the values are the metrics "
            "of each run's last line; medians and quartiles by linear interpolation "
            "(numpy.percentile 25/50/75); iterations_per_s is attempted / run_seconds; "
            "change_wins counts the pairs the change won, ties for neither; "
            f"seeds {args.first_seed}-{args.first_seed + most - 1} (traced: {traced_seed})"
        ),
        "seeds": list(range(args.first_seed, args.first_seed + most)),
        "workloads": workloads,
        "traced": {
            "command": f"{command} 1",
            "note": "per-layer counts cover the first 16 ops; times are per traced op",
            "runs": traced,
        },
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
