"""``tools/bench_pairs.py``: argument checks, and the pair summary's quartiles, wins and ratios."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
]


def side(ops, p50, digest="d", attempted=10, failed=0):
    return {
        "metrics": {"ops_per_s": ops, "op_p50_ms": p50},
        "attempted": attempted, "failed": failed, "correct": True, "digest": digest,
    }


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    runs = [
        {"seed": 1, "first": "parent", "parent": side(100, 2.0), "change": side(110, 1.8)},
        {"seed": 2, "first": "change", "parent": side(100, 2.0), "change": side(100, 2.2)},
        {"seed": 3, "first": "parent", "parent": side(90, 2.4, failed=1), "change": side(120, 2.4)},
        {"seed": 4, "first": "change", "parent": side(96, 2.1), "change": side(95, 1.9)},
    ]
    report = bench_pairs.summarise(runs, END_TO_END, 20)
    assert report["pairs"] == 4
    assert report["change_wins"] == {"ops_per_s": 2, "op_p50_ms": 2}
    assert report["attempted"] == {"parent": 40, "change": 40}
    assert report["failed"] == {"parent": 1, "change": 0}
    assert report["digests_match"]
    # numpy.percentile's linear interpolation over 90, 96, 100, 100.
    assert report["summary"]["parent"]["ops_per_s"] == {"median": 98.0, "q1": 94.5, "q3": 100.0}
    assert report["change_over_parent_median"]["ops_per_s"] == pytest.approx(105.0 / 98.0)
    assert report["bound"] == {"ops_per_s": 0.25, "op_p50_ms": 0.25}
    assert report["runs"] is runs
    # Every run attempted 10 iterations in 20 s.
    assert report["summary"]["change"]["iterations_per_s"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def test_summary_puts_the_loop_rate_beside_ops_per_second():
    # A check-bound change: ops_per_s doubles while the loop's iterations per
    # second of run stay put.
    runs = [
        {"seed": seed, "first": "parent", "parent": side(100, 2.0, attempted=attempted),
         "change": side(200, 1.0, attempted=attempted + 10)}
        for seed, attempted in enumerate((600, 400, 500, 700))
    ]
    report = bench_pairs.summarise(runs, END_TO_END, 20)
    parent, change = report["summary"]["parent"], report["summary"]["change"]
    # numpy.percentile over 20, 25, 30, 35 (attempted / 20 s), and the same plus 0.5.
    assert parent["iterations_per_s"] == {"median": 27.5, "q1": 23.75, "q3": 31.25}
    assert change["iterations_per_s"] == {"median": 28.0, "q1": 24.25, "q3": 31.75}
    assert change["ops_per_s"]["median"] == 200.0
    assert report["change_over_parent_median"]["ops_per_s"] == 2.0
    assert "iterations_per_s" not in report["change_wins"]


def test_summary_reports_a_digest_mismatch():
    runs = [{"seed": 1, "first": "parent", "parent": side(1, 1, "a"), "change": side(1, 1, "b")}]
    assert not bench_pairs.summarise(runs, END_TO_END, 20)["digests_match"]


@pytest.fixture
def checkouts(tmp_path):
    """Two checkouts with a ``bench/run.py`` each; CHANGE's benchmark names two workloads."""
    roots = []
    for name in ("parent", "change"):
        root = tmp_path / name
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("")
        roots.append(str(root))
    benchmark = {"workloads": [{"name": "gate-sessions"}, {"name": "coin-audit"}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return roots + ["--out", str(tmp_path / "out.json"), "--what", "w"]


def test_parser_takes_known_workloads_and_a_nonnegative_seed(checkouts):
    args = bench_pairs.parse_args(checkouts + ["--workload", "coin-audit=2", "--first-seed", "0"])
    assert args.pairs == {"coin-audit": 2}
    assert args.first_seed == 0
    assert [w["name"] for w in args.benchmark["workloads"]] == ["gate-sessions", "coin-audit"]


@pytest.mark.parametrize(
    "extra, words",
    [
        (["--workload", "coin-aduit=2"], "'coin-aduit' is not in BENCHMARK.json"),
        (["--workload", "coin-audit=2", "--workload", "mwu-adaptive=1"], "'mwu-adaptive'"),
        (["--workload", "coin-audit=0"], "PAIRS >= 1"),
        (["--first-seed", "-1"], "--first-seed must be nonnegative"),
    ],
    ids=["misspelt", "not-in-change", "zero-pairs", "negative-seed"],
)
def test_parser_refuses_before_any_run(checkouts, capsys, extra, words):
    with pytest.raises(SystemExit) as refused:
        bench_pairs.parse_args(checkouts + extra)
    assert refused.value.code == 2
    assert words in capsys.readouterr().err


def test_parser_refuses_a_change_without_a_benchmark(checkouts, capsys):
    (Path(checkouts[1]) / "BENCHMARK.json").unlink()
    with pytest.raises(SystemExit) as refused:
        bench_pairs.parse_args(checkouts)
    assert refused.value.code == 2
    assert "BENCHMARK.json is unreadable" in capsys.readouterr().err
