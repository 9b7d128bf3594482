import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import dpselect
from dpselect import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAST_CASES = [
    ("coin-verify", {"length": 8}, 4),
    ("accountant", {}, 1),
    ("select-demo", {"candidates": 16}, 40),
    ("topk-bench", {"m": 12, "k": 2, "budget_cap": 400}, 2),
    ("svt-bench", {"m": 16, "queries": 12}, 3),
    ("mwu-bench", {"n": 800, "m": 8}, 2),
]


def run_cli(tmp_path, name, command, overrides, trials, seed=7, extra=()):
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(overrides))
    out_path = tmp_path / f"{name}.csv"
    code = cli.main(
        [
            command,
            "--config",
            str(config_path),
            "--trials",
            str(trials),
            "--seed",
            str(seed),
            "--out",
            str(out_path),
            *extra,
        ]
    )
    return code, out_path.read_text()


@pytest.mark.parametrize("command,overrides,trials", FAST_CASES)
def test_reruns_are_byte_identical(tmp_path, command, overrides, trials):
    code_a, text_a = run_cli(tmp_path, "a", command, overrides, trials)
    code_b, text_b = run_cli(tmp_path, "b", command, overrides, trials)
    assert code_a == 0 and code_b == 0
    assert text_a == text_b
    assert text_a.splitlines()[1] == "experiment,trial,metric,value,meta"


def test_seed_changes_the_output(tmp_path):
    _, text_a = run_cli(tmp_path, "a", "select-demo", {"candidates": 16}, 40, seed=1)
    _, text_b = run_cli(tmp_path, "b", "select-demo", {"candidates": 16}, 40, seed=2)
    assert text_a != text_b


def test_header_echoes_the_resolved_config(tmp_path):
    code, text = run_cli(tmp_path, "h", "svt-bench", {"m": 16, "queries": 12}, 3)
    assert code == 0
    header = json.loads(text.splitlines()[0][2:])
    assert header["command"] == "svt-bench"
    assert header["seed"] == 7
    assert header["trials"] == 3
    assert header["config"]["m"] == 16
    assert header["config"]["k"] == 4  # untouched default survives


def test_stdout_matches_out_file(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({}))
    code = cli.main(["accountant", "--config", str(config), "--seed", "3"])
    assert code == 0
    stdout = capsys.readouterr().out
    _, text = run_cli(tmp_path, "f", "accountant", {}, 1, seed=3)
    assert stdout == text


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"lenght": 8}))
    assert cli.main(["coin-verify", "--config", str(config)]) == 2
    assert "lenght" in capsys.readouterr().err


def test_malformed_json_is_rejected(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text("{not json")
    assert cli.main(["coin-verify", "--config", str(config)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,overrides",
    [
        ("coin-verify", {"alphas": 2}),
        ("select-demo", {"candidates": 0}),
        ("select-demo", {"candidates": -2}),
        ("accountant", {"max_selections": "a"}),
        ("accountant", {"epsilon": "x"}),
        ("svt-bench", {"queries": -3}),
        ("mwu-bench", {"n": 0}),
        ("mwu-bench", {"universe": 1}),
    ],
)
def test_malformed_config_values_exit_2(tmp_path, capsys, command, overrides):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(overrides))
    assert cli.main([command, "--config", str(config), "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    key = next(iter(overrides))
    # A well-typed value the library refuses is named by the library's own
    # term for it, not by the config key.
    assert {"universe": "universe size must be at least 2"}.get(key, repr(key)) in err


def test_missing_config_file_is_rejected(tmp_path):
    assert cli.main(["coin-verify", "--config", str(tmp_path / "absent.json")]) == 2


def test_nonpositive_trials_are_rejected(capsys):
    assert cli.main(["accountant", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


def test_schedule_file_with_equal_pairs_is_null(tmp_path):
    schedule = tmp_path / "pairs.csv"
    schedule.write_text("# comment line\n0.5,0.5\n\n0.25,0.25\n")
    code, text = run_cli(
        tmp_path, "s", "coin-verify", {"schedule_file": str(schedule)}, 1
    )
    assert code == 0
    values = {}
    for line in text.splitlines()[2:]:
        _, _, metric, value, _ = line.split(",", 4)
        values.setdefault(metric, []).append(float(value))
    assert all(v == 1.0 for v in values["renyi_e_value"])
    assert values["max_divergence"] == [0.0]
    assert values["violations"] == [0.0]


def test_schedule_file_parse_error_names_the_line(tmp_path, capsys):
    schedule = tmp_path / "pairs.csv"
    schedule.write_text("0.5,0.5\n0.4,oops\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"schedule_file": str(schedule)}))
    assert cli.main(["coin-verify", "--config", str(config)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_schedule_file_promise_violation_is_reported(tmp_path, capsys):
    schedule = tmp_path / "pairs.csv"
    schedule.write_text("0.9,0.2\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"schedule_file": str(schedule)}))
    assert cli.main(["coin-verify", "--config", str(config)]) == 2
    assert "exp(eps)" in capsys.readouterr().err


def test_accountant_rejects_nonpositive_gamma(tmp_path):
    code, _ = (None, None)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"gamma": 0.0}))
    assert cli.main(["accountant", "--config", str(config)]) == 2


def test_accountant_pure_dp_drops_approx_rows(tmp_path):
    _, text = run_cli(tmp_path, "p", "accountant", {}, 1, extra=("--pure-dp",))
    assert "pure_epsilon" in text
    assert "approx_epsilon" not in text
    _, both = run_cli(tmp_path, "q", "accountant", {}, 1)
    assert "approx_epsilon" in both


def test_failure_exit_code_is_plumbed_through(tmp_path, monkeypatch):
    monkeypatch.setitem(
        cli._RUNNERS, "accountant", lambda *args: ([(0, "stub", 1.0, "")], 3)
    )
    config = tmp_path / "c.json"
    config.write_text(json.dumps({}))
    assert cli.main(["accountant", "--config", str(config)]) == 1


def test_svt_bench_reads_query_files(tmp_path):
    queries = tmp_path / "queries.csv"
    queries.write_text("# value,threshold\n5.0,0.0\n-5000.0,0.0\n-6000.0,0.0\n")
    code, text = run_cli(
        tmp_path, "q", "svt-bench", {"m": 16, "query_file": str(queries)}, 2
    )
    assert code == 0
    assert "answered" in text
    bad = tmp_path / "bad.csv"
    bad.write_text("5.0,0.0\n5.0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"m": 16, "query_file": str(bad)}))
    assert cli.main(["svt-bench", "--config", str(config)]) == 2


def test_topk_bench_reads_score_tables(tmp_path, capsys):
    table = tmp_path / "scores.csv"
    table.write_text("100.0\n50.0\n1.0\n0.5\n")
    code, text = run_cli(
        tmp_path,
        "t",
        "topk-bench",
        {"k": 2, "budget_cap": 400, "table_file": str(table)},
        2,
    )
    assert code == 0
    assert "overlap" in text and "certificate" in text
    short = tmp_path / "short.csv"
    short.write_text("1.0\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"table_file": str(short)}))
    assert cli.main(["topk-bench", "--config", str(config)]) == 2
    wide = tmp_path / "wide.csv"
    wide.write_text("100.0\n50.0,7.0\n1.0\n")
    config.write_text(json.dumps({"table_file": str(wide)}))
    assert cli.main(["topk-bench", "--config", str(config)]) == 2
    nan = tmp_path / "nan.csv"
    nan.write_text("1.0\nnan\n3.0\n2.0\n5.0\n4.0\n")
    config.write_text(json.dumps({"table_file": str(nan), "budget_cap": 1}))
    capsys.readouterr()
    # the one trial at seed 5 fires no coin, so only the read of the scores
    # can refuse the NaN
    args = ["topk-bench", "--config", str(config), "--trials", "1", "--seed", "5"]
    assert cli.main(args) == 2
    assert "scores must be finite" in capsys.readouterr().err


def test_mwu_bench_emits_per_query_rows(tmp_path):
    code, text = run_cli(tmp_path, "m", "mwu-bench", {"n": 800, "m": 8}, 2)
    assert code == 0
    answer_rows = [l for l in text.splitlines() if ",answer," in l]
    assert len(answer_rows) == 2 * 8
    assert "query=0" in answer_rows[0]
    assert any(",updates," in l for l in text.splitlines())


def test_mwu_bench_rejects_unknown_names(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"adversary": "tracing"}))
    assert cli.main(["mwu-bench", "--config", str(config)]) == 2
    config.write_text(json.dumps({"distribution": "zipf"}))
    assert cli.main(["mwu-bench", "--config", str(config)]) == 2


def _declared_script():
    """The `dpselect` entry of `[project.scripts]` in the repo's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    return EntryPoint("dpselect", scripts["dpselect"], "console_scripts")


def _launcher(entry):
    """The body installers write into `bin/dpselect` for `entry`.

    `main`'s return value must become the process exit status.
    """
    return (
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        "sys.argv[0] = 'dpselect'\n"
        f"sys.exit({entry.attr}())\n"
    )


def _run_interpreter(prefix, *args):
    """Run a fresh interpreter with `prefix` (e.g. `-m dpselect`) and `args`."""
    env = dict(os.environ, PYTHONPATH=str(Path(dpselect.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *prefix, *args], capture_output=True, env=env
    )


def test_installed_script_runs(capsys):
    # Both the installed launcher and `python -m dpselect` print what
    # in-process `main` prints and exit with its status.
    entry = _declared_script()
    assert callable(entry.load())
    assert cli.main(["accountant", "--trials", "1"]) == 0
    expected = capsys.readouterr().out.encode()
    assert expected.startswith(b"# ")
    for prefix in (["-c", _launcher(entry)], ["-m", "dpselect"]):
        done = _run_interpreter(prefix, "accountant", "--trials", "1")
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == expected, prefix[0]
        refused = _run_interpreter(prefix, "accountant", "--trials", "0")
        assert refused.returncode == 2, prefix[0]
        assert b"trials" in refused.stderr


@pytest.mark.skipif(
    shutil.which("dpselect") is None,
    reason="no dpselect console script on PATH (it appears after pip install -e .)",
)
def test_console_script_on_path_runs():
    done = subprocess.run(
        ["dpselect", "accountant", "--trials", "1"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("# ")
