"""Command line behavior: exit codes, output shapes, error reporting."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import qoechain.cli as cli
from qoechain.errors import InvariantViolation

SCENARIOS = Path(__file__).parent.parent / "scenarios"
BASIC = str(SCENARIOS / "basic.json")


def test_validate_accepts_a_bundled_scenario(capsys):
    assert cli.main(["validate", BASIC]) == 0
    out = capsys.readouterr().out
    assert "basic: ok" in out
    assert "1 requests" in out


def test_validate_prints_each_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"meta": {"seed": 0, "duration_ms": 100, "window_ms": 100}}')
    assert cli.main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "ERROR meta.name: missing required key" in err
    assert "ERROR network: missing required section" in err


def test_bad_usage_exits_one_not_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", BASIC])
    assert excinfo.value.code == 1
    assert "ERROR args:" in capsys.readouterr().err

    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 1


def test_run_writes_the_three_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", BASIC, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "basic: 10 windows" in stdout
    assert stdout.splitlines()[0] == (
        "basic: 10 windows, "
        "admitted=1 rejected=0 completed=0 failed=0 rerouted=0 migrated=0"
    )
    assert stdout.count("wrote ") == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["counters"]["admitted"] == 1
    assert (out / "qoe_series.csv").exists()
    assert (out / "db_dump.json").exists()


def test_run_accepts_seed_and_alpha_overrides(tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        ["run", BASIC, "--out", str(out), "--seed", "3", "--alpha", "0.5",
         "--strict-debug"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 3


def test_run_missing_scenario_is_an_input_error(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "ERROR input:" in capsys.readouterr().err


def test_internal_invariant_exits_two(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InvariantViolation("ledger out of balance")

    monkeypatch.setattr(cli, "run_scenario", boom)
    code = cli.main(["run", BASIC, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "INTERNAL ledger out of balance" in capsys.readouterr().err


def test_oracle_prints_the_optimal_embedding(capsys):
    assert cli.main(["oracle", str(SCENARIOS / "greedy_gap.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "request": 0,
        "placements": [{"vnf": "fw", "host": 2}],
        "segments": [[1], [3]],
        "total_latency_ms": 4.0,
    }


def test_oracle_rejects_unknown_request_id(capsys):
    assert cli.main(["oracle", str(SCENARIOS / "greedy_gap.json"), "--request", "99"]) == 1
    assert "no request with id 99" in capsys.readouterr().err


def test_oracle_requires_a_workload(capsys):
    assert cli.main(["oracle", str(SCENARIOS / "minimal.json")]) == 1
    assert "declares no requests" in capsys.readouterr().err


def test_oracle_reports_infeasible_instances(tmp_path, capsys):
    scenario = json.loads((SCENARIOS / "basic.json").read_text())
    scenario["profiles"]["app_profiles"][0]["bw_mbps"] = 50
    path = tmp_path / "fat.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["oracle", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"feasible": False, "request": 0}


def test_report_summarizes_a_run_directory(tmp_path, capsys):
    out = tmp_path / "out"
    cli.main(["run", BASIC, "--out", str(out)])
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "scenario basic seed 7" in stdout
    assert stdout.splitlines()[1] == (
        "windows=10 admitted=1 rejected=0 completed=0 failed=0 rerouted=0 migrated=0"
    )
    assert "flow 0: Active windows=10 compliance=1.000 breaches=0" in stdout
    assert "series rows: 10" in stdout


def test_report_on_missing_directory_is_an_input_error(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path / "nope")]) == 1
    assert "ERROR input:" in capsys.readouterr().err
