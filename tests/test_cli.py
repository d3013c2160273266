import json
import math

import pytest

from deanonlab import cli
from deanonlab.cli import main
from deanonlab.harness import CSV_COLUMNS


def run_cli(args):
    return main(args)


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = run_cli([
        "simulate", "--users", "16", "--groups", "128", "--p0", "0.5",
        "--edge-flip", "0.05", "--gm-flip", "0.1", "--prior", "uniform",
        "--epsilon", "0.2", "--steps", "3", "--trials", "20", "--seed", "3",
        "--strategy", "its", "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_simulate_stdout_json(capsys):
    code = run_cli([
        "simulate", "--users", "12", "--groups", "64", "--gm-flip", "0.1",
        "--epsilon", "auto", "--steps", "auto", "--trials", "10", "--seed", "1",
        "--format", "json",
    ])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed[0]["m"] == 12 and parsed[0]["trials"] == 10
    assert parsed[0]["success_rate"] == 1.0


def test_simulate_uid_scan_alias(tmp_path):
    out = tmp_path / "scan.json"
    code = run_cli([
        "simulate", "--users", "30", "--groups", "4", "--strategy", "uid-scan",
        "--trials", "50", "--seed", "2", "--out", str(out), "--format", "json",
    ])
    assert code == 0
    parsed = json.loads(out.read_text())
    assert parsed[0]["strategy"] == "uid_scan"


def test_config_file_with_inline_override(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "users": 16, "groups": 96, "gm_flip": 0.1, "epsilon": 0.25,
        "steps": 2, "trials": 5, "master_seed": 9,
    }))
    out = tmp_path / "out.csv"
    code = run_cli([
        "simulate", "--config", str(config_path), "--trials", "8",
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("trials")] == "8"


def test_sweep_emits_one_row_per_point(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli([
        "sweep", "--users", "16", "--groups", "128", "--gm-flip", "0.1",
        "--epsilon", "0.2", "--steps", "3", "--trials", "10", "--seed", "4",
        "--axis", "zipf", "--points", "0,0.5,1.0",
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert [line.split(",")[5] for line in lines[1:]] == ["zipf:0.0", "zipf:0.5", "zipf:1.0"]


def test_bounds_prints_report_without_simulating(capsys):
    code = run_cli([
        "bounds", "--users", "256", "--groups", "8192", "--p0", "0.5",
        "--edge-flip", "0.05", "--gm-flip", "0.05", "--epsilon", "0.1",
        "--steps", "4",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lower_converse"] == pytest.approx(14.6237, abs=1e-3)
    assert report["upper_finite"] > report["lower_converse"]
    assert "conditions_met" in report


def test_config_error_exits_nonzero(tmp_path, capsys):
    code = run_cli([
        "simulate", "--users", "16", "--groups", "64", "--p0", "1.5",
        "--trials", "5", "--seed", "1",
    ])
    assert code == 2
    assert "p0" in capsys.readouterr().err


def test_missing_required_size_exits_nonzero(capsys):
    code = run_cli(["simulate", "--groups", "64", "--trials", "5"])
    assert code == 2
    assert "users" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("p0", "x"),
        ("edge_flip", "x"),
        ("gm_flip", [0.1]),
        ("epsilon", "x"),
        ("p0", True),
        ("users", True),
        ("groups", True),
        ("trials", True),
        ("workers", True),
        ("master_seed", True),
        ("steps", True),
        ("allow_degenerate", "false"),
        ("prior", "zipf:nan"),
        ("prior", [float("nan"), 1, 1, 1]),
    ],
)
def test_malformed_config_field_exits_2(tmp_path, capsys, field, value):
    config = {"users": 4, "groups": 8, "trials": 2}
    config[field] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = run_cli(["simulate", "--config", str(config_path)])
    assert code == 2
    assert field in capsys.readouterr().err


def test_config_file_that_is_not_json_exits_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"users": 4,')
    code = run_cli(["simulate", "--config", str(config_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config: not valid JSON")


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_config_file_that_cannot_be_read_exits_2(tmp_path, capsys, name):
    code = run_cli(["simulate", "--config", str(tmp_path / name)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config: cannot read the file")


def refuse_campaigns(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the campaign ran before its output was checked")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    monkeypatch.setattr(cli, "run_sweep", refuse)


@pytest.mark.parametrize("name", [".", "missing/run.csv"])
def test_output_file_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, name):
    refuse_campaigns(monkeypatch)
    code = run_cli([
        "simulate", "--users", "4", "--groups", "8", "--trials", "2", "--out", str(tmp_path / name),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: out: cannot write the file")


def test_sweep_output_that_cannot_be_written_exits_2_before_any_point_runs(tmp_path, capsys, monkeypatch):
    refuse_campaigns(monkeypatch)
    code = run_cli([
        "sweep", "--users", "4", "--groups", "8", "--trials", "2", "--axis", "m", "--points", "4,8",
        "--out", str(tmp_path / "missing" / "sweep.csv"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: out: cannot write the file")


@pytest.mark.parametrize("axis, points", [("zipf", "0,abc"), ("m", "2.5"), ("noise", "x"), ("zipf", ",")])
def test_unparseable_sweep_point_exits_2(capsys, axis, points):
    code = run_cli([
        "sweep", "--users", "4", "--groups", "8", "--gm-flip", "0.1", "--trials", "2",
        "--axis", axis, "--points", points,
    ])
    assert code == 2
    assert "points" in capsys.readouterr().err


def test_non_numeric_epsilon_flag_exits_2(capsys):
    code = run_cli(["bounds", "--users", "4", "--groups", "8", "--epsilon", "x"])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


@pytest.mark.parametrize("command", [["bounds"], ["simulate", "--trials", "3", "--format", "json"]])
def test_json_output_is_strict_for_unbounded_models(tmp_path, capsys, command):
    # m = 1 and a fully flipped scan: H = 0 and I = 0, so the upper bound is
    # unbounded and must come out as null, and the converse floor as +0.0.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"users": 1, "groups": 8, "edge_flip": 0.5, "allow_degenerate": True}
    ))
    code = run_cli([command[0], "--config", str(config_path), *command[1:]])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    report = parsed if command == ["bounds"] else parsed[0]["bound_report"]
    assert report["upper_finite"] is None
    assert report["lower_converse"] == 0.0
    assert math.copysign(1.0, report["lower_converse"]) == 1.0


def test_bounds_reports_a_zero_information_model(capsys):
    # A fully flipped scan carries no evidence: bounds runs no attack, so it
    # reports I = 0 with unbounded (null) upper bounds instead of refusing.
    code = run_cli(["bounds", "--users", "8", "--groups", "8", "--edge-flip", "0.5"])
    assert code == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report["params_used"]["mutual_info_bits"] == 0.0
    # H = 3 bits over I = 0: the floor and every upper bound are unbounded.
    assert report["upper_finite"] is None and report["lower_converse"] is None


@pytest.mark.parametrize("command", [
    ["simulate", "--trials", "2"],
    ["sweep", "--trials", "2", "--axis", "zipf", "--points", "0,1"],
])
def test_attack_on_a_zero_information_model_exits_2_naming_strategy(capsys, command):
    code = run_cli([*command, "--users", "8", "--groups", "8", "--edge-flip", "0.5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: strategy: its needs a model")
