"""Tests of the benchmark itself: metric names, the correctness gate, tracing.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
dl = run.import_deanonlab()


def tiny(workload: run.Workload) -> run.Workload:
    """The same channel at a size that runs in well under a second."""
    return dataclasses.replace(
        workload, config=dict(workload.config, users=16, groups=512),
        trials=30, campaigns=2, timed=1,
    )


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", {k: tiny(w) for k, w in run.WORKLOADS.items()})
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path)
    return tmp_path


def run_main(capsys, *args):
    code = run.main(["--seed", "3", "--seconds", "0", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), "\n".join(lines)


def spec_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_workloads_match_the_script():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert spec_units("end_to_end") == run.END_TO_END
    assert spec_units("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(tiny_workloads, capsys, workload, trace, kind):
    code, result, _ = run_main(capsys, "--workload", workload, "--trace", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == spec_units(kind)
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())
    if trace == "1":
        assert result["metrics"]["trace.coverage"]["value"] == 1.0
    suffix = "_trace" if trace == "1" else ""
    record = json.loads((tiny_workloads / f"BENCH_{workload}{suffix}.json").read_text())
    assert record["provenance"]["seed"] == 3
    assert record["provenance"]["nproc"] >= 1


def tiny_summary():
    workload = tiny(run.WORKLOADS["sandwich"])
    config = run.campaign_config(dl, workload, 3, 0)
    return workload, config, dl.run_experiment(config)


def test_gate_accepts_an_honest_campaign():
    workload, config, summary = tiny_summary()
    assert run.check_campaign(config, summary) == []
    assert run.check_query_cost(workload, [summary]) == []
    assert run.failed_trials(config, summary) == 0


def test_gate_rejects_mean_q_above_the_bound():
    workload, config, summary = tiny_summary()
    tampered = dataclasses.replace(summary, mean_q=summary.bound_report.upper_finite + 2 * summary.mean_q)
    problems = run.check_query_cost(workload, [summary, tampered])
    assert any("above certified bound" in p for p in problems)


def test_gate_rejects_one_failed_trial():
    workload, config, summary = tiny_summary()
    tampered = dataclasses.replace(summary, success_rate=(config.trials - 1) / config.trials)
    assert any("success_rate" in p for p in run.check_campaign(config, tampered))
    assert run.failed_trials(config, tampered) == 1


def test_gate_rejects_a_trial_over_n_plus_m_queries():
    workload, config, summary = tiny_summary()
    limit = config.groups + config.users
    histogram = summary.q_histogram[:-1] + [[limit + 1, summary.q_histogram[-1][1]]]
    tampered = dataclasses.replace(summary, q_histogram=histogram)
    assert any("n + m" in p for p in run.check_campaign(config, tampered))
    assert run.failed_trials(config, tampered) == summary.q_histogram[-1][1]


def test_tampered_summary_fails_the_run(tiny_workloads, capsys, monkeypatch):
    honest = dl.run_experiment

    def tampered(config):
        summary = honest(config)
        return dataclasses.replace(summary, mean_q=summary.bound_report.upper_finite * 2)

    monkeypatch.setattr(dl, "run_experiment", tampered)
    code, result, text = run_main(capsys, "--workload", "sandwich", "--trace", "0")
    assert code == 1
    assert result["correct"] is False
    assert "CHECK FAILED" in text


def test_repeated_campaign_with_another_summary_fails_the_run(tiny_workloads, capsys, monkeypatch):
    honest = dl.run_experiment
    seen = set()

    def drifting(config):
        summary = honest(config)
        if config.master_seed in seen:
            summary = dataclasses.replace(summary, mean_q=summary.mean_q + 1.0)
        seen.add(config.master_seed)
        return summary

    monkeypatch.setattr(dl, "run_experiment", drifting)
    code, result, text = run_main(capsys, "--workload", "noisy_small", "--trace", "0",
                                  "--seconds", "1")
    assert code == 1
    assert result["correct"] is False
    assert "another summary" in text


def test_worker_count_mismatch_is_reported(tiny_workloads, monkeypatch):
    honest = dl.run_experiment

    def skewed(config):
        summary = honest(config)
        return dataclasses.replace(summary, mean_q=summary.mean_q + config.workers)

    monkeypatch.setattr(dl, "run_experiment", skewed)
    problems = run.check_worker_invariance(dl, run.WORKLOADS["sandwich"], 3)
    assert problems and "differ" in problems[0]


def test_bypassed_wrapper_flags_incomplete_trace(tiny_workloads, capsys, monkeypatch):
    sites = tuple(s for s in layers._CALL_SITES if s[2] != "oracle.uid")
    monkeypatch.setattr(layers, "_CALL_SITES", sites)
    code, result, text = run_main(capsys, "--workload", "noisy_small", "--trace", "1")
    assert result["metrics"]["trace.coverage"]["value"] < 1.0
    assert "per-layer numbers are incomplete" in text


def test_tracer_restores_every_call_site():
    before = {(o, a): layers._resolve(dl, o).__dict__[a] for o, a, _ in layers._CALL_SITES}
    tracer = layers.Tracer()
    with tracer.installed(dl):
        assert dl.attacker.gm_update is not before[("attacker", "gm_update")]
    after = {(o, a): layers._resolve(dl, o).__dict__[a] for o, a, _ in layers._CALL_SITES}
    assert after == before


def test_strict_json_maps_non_finite_to_null():
    text = run.dumps({"upper": math.inf, "nested": [math.nan, 1.5]})
    assert json.loads(text) == {"upper": None, "nested": [None, 1.5]}


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sandwich", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
