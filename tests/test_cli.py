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


@pytest.mark.parametrize("command", ["validate", "run", "oracle"])
@pytest.mark.parametrize(
    "data",
    [b"\x80{}", b'{"a":' * 100_000],
    ids=["not_utf8", "nested_too_deep"],
)
def test_a_scenario_json_cannot_decode_is_an_input_error(tmp_path, capsys, command, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, str(bad), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR $: invalid JSON:")


def test_bad_usage_exits_one_not_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", BASIC])
    assert excinfo.value.code == 1
    assert "ERROR args:" in capsys.readouterr().err

    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 1
    assert "ERROR args: argument command: invalid choice" in capsys.readouterr().err


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


def test_run_under_strict_debug_takes_no_seed_or_alpha_override(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", BASIC, "--out", str(out), "--strict-debug"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7
    # A run is a function of its scenario file: no flag overrides the seed
    # it names or the policy's smoothing factor.
    for flag, value in (("--seed", "3"), ("--alpha", "0.5")):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", BASIC, "--out", str(tmp_path / "again"), flag, value])
        assert excinfo.value.code == 1
        assert f"ERROR args: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


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


def test_oracle_embeds_the_request_it_is_given(capsys):
    # Request 1, not the first declared, and it has no VNF to place.
    assert cli.main(["oracle", str(SCENARIOS / "relay_failure.json"), "--request", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["request"], payload["placements"], payload["segments"]) == (1, [], [[0, 2]])


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


def test_oracle_refuses_an_instance_above_its_limits(tmp_path, capsys):
    scenario = json.loads((SCENARIOS / "basic.json").read_text())
    scenario["network"]["nodes"] += [
        {"id": i, "kind": "host", "cpu_capacity": 1, "mem_capacity": 1} for i in range(3, 9)
    ]
    path = tmp_path / "seven_hosts.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["oracle", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR input: 7 hosts exceeds oracle limit 6\n"


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
    # A run with no flow writes the header alone.
    empty = tmp_path / "empty"
    cli.main(["run", str(SCENARIOS / "minimal.json"), "--out", str(empty)])
    capsys.readouterr()
    assert cli.main(["report", str(empty)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "series rows: 0"


def test_report_prints_no_compliance_for_a_flow_never_observed(tmp_path, capsys):
    # Admitted at the horizon, after the last window at that instant.
    scenario = json.loads((SCENARIOS / "basic.json").read_text())
    scenario["workload"]["requests"][0]["arrival_ms"] = scenario["meta"]["duration_ms"]
    path = tmp_path / "late.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "flow 0: Active windows=0 compliance=n/a breaches=0" in stdout.splitlines()


def test_report_without_a_series_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    cli.main(["run", BASIC, "--out", str(out)])
    (out / "qoe_series.csv").unlink()
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ERROR input: cannot read {out / 'qoe_series.csv'}:")


@pytest.mark.parametrize(
    "summary", [None, "{not json", "[]"], ids=["missing", "not_json", "not_an_object"]
)
def test_report_on_missing_directory_is_an_input_error(tmp_path, capsys, summary):
    out = tmp_path / "nope"
    if summary is not None:
        out.mkdir()
        (out / "summary.json").write_text(summary)
    assert cli.main(["report", str(out)]) == 1
    assert "ERROR input:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spoil",
    [
        dict.clear,
        lambda summary: summary.update(seed="7"),
        lambda summary: summary["counters"].pop("migrated"),
        lambda summary: summary.update(flows=[]),
        lambda summary: summary["flows"].update(x=summary["flows"]["0"]),
        lambda summary: summary["flows"].update({"0": None}),
        lambda summary: summary["flows"]["0"].update(compliance="1.0"),
        lambda summary: summary["flows"]["0"].pop("breach_windows"),
        # json.loads gives a bool for true and false, and a bool is not a number here.
        lambda summary: summary.update(seed=True),
        lambda summary: summary.update(windows=True),
        lambda summary: summary["counters"].update(admitted=False),
        lambda summary: summary["flows"]["0"].update(compliance=True),
    ],
    ids=[
        "empty",
        "seed_not_int",
        "counter_missing",
        "flows_not_an_object",
        "flow_id_not_a_number",
        "flow_not_an_object",
        "compliance_not_a_number",
        "flow_field_missing",
        "seed_bool",
        "windows_bool",
        "counter_bool",
        "compliance_bool",
    ],
)
def test_report_on_a_summary_without_what_it_reads_is_an_input_error(tmp_path, capsys, spoil):
    out = tmp_path / "out"
    cli.main(["run", BASIC, "--out", str(out)])
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    spoil(summary)
    path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 1
    assert capsys.readouterr().err.startswith("ERROR input:")


def test_report_on_a_summary_nested_too_deep_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text('{"a":' * 100_000)
    assert cli.main(["report", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR input:")
    assert "is not valid JSON" in captured.err


def test_report_on_a_series_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    cli.main(["run", BASIC, "--out", str(out)])
    (out / "qoe_series.csv").write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no half-printed report before the error
    assert captured.err.startswith("ERROR input:")
