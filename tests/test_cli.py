import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deanonlab import cli, harness
from deanonlab.cli import main
from deanonlab.harness import CSV_COLUMNS, OUTPUT_FORMATS, STRATEGIES


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
        # Removed knobs are unknown fields: the fallback order follows from
        # the strategy, and its on a zero-information model has no override.
        ("allow_degenerate", "false"),
        ("final_phase_order", "by_info_value_desc"),
        ("prior", [float("nan"), 1, 1, 1]),
        ("prior", [1, 1, 1, float("inf")]),
        ("prior", [1e308] * 4),
        ("prior", [True, 1, 1, 1]),
        ("prior", [1, 1, 1, "2"]),
        ("prior", "zipf:nan"),
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


@pytest.mark.parametrize("command", [
    ["sweep", "--axis", "noise", "--points", "x"],
    ["simulate", "--p0", "0.5", "--edge-flip", "0.5", "--gm-flip", "0.5"],
], ids=["unparseable-point", "zero-information"])
@pytest.mark.parametrize("existing", [True, False], ids=["existing-file", "no-file"])
def test_refused_run_leaves_the_output_path_as_it_was(tmp_path, capsys, command, existing):
    # The path is checked before the run, but written only once results exist.
    out = tmp_path / "out.csv"
    if existing:
        out.write_text("earlier results\n")
    code = run_cli([*command, "--users", "8", "--groups", "32", "--trials", "2", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    if existing:
        assert out.read_text() == "earlier results\n"
    else:
        assert not out.exists()


def test_output_over_an_existing_file_is_replaced_by_the_results(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("earlier results, longer than the new header and row put together\n" * 20)
    code = run_cli(["simulate", "--users", "8", "--groups", "32", "--trials", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS) and len(lines) == 2


@pytest.mark.parametrize("axis, points", [("zipf", "0,abc"), ("m", "2.5"), ("noise", "x"), ("zipf", ",")])
def test_unparseable_sweep_point_exits_2(capsys, axis, points):
    code = run_cli([
        "sweep", "--users", "4", "--groups", "8", "--gm-flip", "0.1", "--trials", "2",
        "--axis", axis, "--points", points,
    ])
    assert code == 2
    assert "points" in capsys.readouterr().err


@pytest.mark.parametrize("command, builds", [
    (["simulate"], 1),
    (["bounds"], 1),
    (["sweep", "--axis", "zipf", "--points", "0,0.5,1"], 4),
], ids=["simulate", "bounds", "sweep"])
def test_a_command_builds_the_prior_once_per_check(capsys, monkeypatch, command, builds):
    # A sweep checks its base, then each point's campaign checks its own config.
    calls, real = [], harness.make_prior

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "make_prior", counted)
    model = ["--users", "8", "--groups", "32", "--gm-flip", "0.1"]
    runs = ["--trials", "2"] if command[0] != "bounds" else []
    assert run_cli([*command, *model, *runs]) == 0
    assert len(calls) == builds


def test_sweep_refuses_a_malformed_base_field_the_axis_overrides(capsys):
    code = run_cli([
        "sweep", "--users", "-1", "--groups", "8", "--trials", "2", "--axis", "m", "--points", "4,8",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: users:")


def test_an_unwritable_out_is_named_before_another_bad_field(tmp_path, capsys, monkeypatch):
    refuse_campaigns(monkeypatch)
    code = run_cli([
        "simulate", "--users", "4", "--groups", "8", "--p0", "1.5", "--trials", "2",
        "--out", str(tmp_path / "missing" / "run.csv"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: out: cannot write the file")


@pytest.mark.parametrize("command, field", [
    (["bounds", "--users", str(10**16), "--groups", "10"], "users"),
    (["simulate", "--users", "4", "--groups", "10", "--trials", str(10**16)], "trials"),
    (["simulate", "--users", str(2**70), "--groups", "10"], "users"),
    (["bounds", "--users", str(2**70), "--groups", "10"], "users"),
    (["sweep", "--users", "4", "--groups", "10", "--axis", "m", "--points", "1e30"], "users"),
    (["simulate", "--users", "4", "--groups", "10", "--trials", str(2**70)], "trials"),
])
def test_a_config_too_large_to_allocate_exits_2_naming_its_field(capsys, command, field):
    # 10**16 eight-byte entries exceed any 64-bit user address space, so the
    # prior or the per-trial arrays fail to allocate at once; numpy refuses
    # 2**70 entries outright, more than an array can index.
    assert run_cli(command) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: too many {field}")


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
    # The identity scan runs on such a model; the threshold attack is refused.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"users": 1, "groups": 8, "edge_flip": 0.5, "strategy": "uid_scan"}
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


# Malformed JSON values of every field ExperimentConfig.validate checks.
_NON_NUMBERS = st.one_of(
    st.booleans(), st.none(), st.text(max_size=6), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_ANY = st.one_of(_NON_NUMBERS, st.integers(), st.floats())
_NOT_POSITIVE_INT = st.one_of(st.integers(max_value=0), st.floats(), _NON_NUMBERS)
_NOT_IN_UNIT = st.one_of(
    st.floats(max_value=0.0, exclude_max=True), st.floats(min_value=1.0, exclude_min=True),
    st.just(float("nan")), _NON_NUMBERS,
)


def _none_of(allowed):
    """Any value but the allowed strings (a tuple, so unhashable values compare too)."""
    return _ANY.filter(lambda value: value not in allowed)


def _not_an_exponent(text):
    try:
        return not float(text) >= 0.0
    except ValueError:
        return True


MALFORMED = {
    "users": _NOT_POSITIVE_INT,
    "groups": _NOT_POSITIVE_INT,
    "trials": _NOT_POSITIVE_INT,
    "workers": _NOT_POSITIVE_INT,
    "master_seed": st.one_of(st.integers(max_value=-1), st.floats(), _NON_NUMBERS),
    "p0": st.one_of(_NOT_IN_UNIT, st.sampled_from([0, 1, 0.0, 1.0])),
    "edge_flip": _NOT_IN_UNIT,
    "gm_flip": _NOT_IN_UNIT,
    "prior": st.one_of(
        _ANY.filter(lambda value: value != "uniform" and not str(value).startswith("zipf:")),
        st.text(max_size=6).filter(_not_an_exponent).map(lambda text: f"zipf:{text}"),
        st.sampled_from([
            "zipf:-1", "zipf:nan", "zipf:inf", "zipf:1e400",
            [1, 1, 1, float("inf")], [1e308] * 4, [1, 1, 1, 0], [True, 1, 1, 1], [1, 1, 1, "2"],
        ]),
        st.lists(st.floats(), min_size=4, max_size=4).filter(
            lambda probs: not all(0.0 < p < float("inf") for p in probs)
        ),
        st.lists(st.floats(0.1, 1.0), min_size=0, max_size=6).filter(lambda probs: len(probs) != 4),
        st.lists(
            st.one_of(st.booleans(), st.text(max_size=3), st.floats(0.1, 1.0)), min_size=4, max_size=4
        ).filter(lambda probs: any(isinstance(p, (bool, str)) for p in probs)),
        st.lists(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=2), min_size=2, max_size=2),
    ),
    "epsilon": st.one_of(_NOT_IN_UNIT.filter(lambda value: value != "auto"), st.sampled_from([0, 1])),
    "steps": st.one_of(
        st.integers(max_value=0), st.floats(), _NON_NUMBERS.filter(lambda value: value != "auto")
    ),
    "strategy": _none_of(STRATEGIES),
    "format": _none_of(OUTPUT_FORMATS),
    "out": st.one_of(st.integers(), st.floats(), st.booleans(), st.lists(st.text(max_size=3), max_size=2)),
}


@st.composite
def _malformed_field(draw):
    field = draw(st.sampled_from(sorted(MALFORMED)))
    return field, draw(MALFORMED[field])


# The fixtures' patches and pool record are meant to span every example.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_malformed_field())
def test_config_file_fuzzer_exits_2_naming_the_field(tmp_path, capsys, monkeypatch, in_process_pool, case):
    field, value = case
    # Two trials on two usable CPUs: a config that got through would start a pool.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    config = {"users": 4, "groups": 8, "trials": 2, "workers": 2, field: value}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = run_cli(["simulate", "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {field}:")
    assert in_process_pool == []
