import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deanonlab import harness
from deanonlab.attacker import FINAL_PHASE_ORDERS, ITSConfig, run_its
from deanonlab.graph import generate_cprb
from deanonlab.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    TrialStreams,
    emit_results,
    run_experiment,
    run_sweep,
    trial_seeds,
)
from deanonlab.oracle import VictimInstance
from deanonlab.stochastics import sample_victim

SMALL_ITS = dict(
    users=16, groups=192, p0=0.5, edge_flip=0.05, gm_flip=0.1,
    epsilon=0.2, steps=3, trials=40, master_seed=5,
)


def small_config(**overrides):
    params = dict(SMALL_ITS)
    params.update(overrides)
    return ExperimentConfig(**params)


def jumped(master_seed, j):
    """Substream j of the master stream, built the slow way."""
    return np.random.Generator(np.random.PCG64(master_seed).jumped(j))


class TestTrialSeeds:
    def test_deterministic(self):
        # Repositioning is all the state there is: trial 3 read again after
        # another trial has drawn, or from a fresh set of streams, is the same.
        streams = TrialStreams(9)
        first = [gen.random(4).tolist() for gen in trial_seeds(streams, 3)]
        for gen in trial_seeds(streams, 5):
            gen.random(100)
        again = [gen.random(4).tolist() for gen in trial_seeds(streams, 3)]
        fresh = [gen.random(4).tolist() for gen in trial_seeds(TrialStreams(9), 3)]
        assert first == again == fresh

    def test_distinct_across_trials_and_masters(self):
        seen = set()
        for master_seed in (1, 2):
            streams = TrialStreams(master_seed)
            for k in range(200):
                seen.update(float(gen.random()) for gen in trial_seeds(streams, k))
        assert len(seen) == 1600

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 1000, 2**40 + 3])
    def test_stream_s_of_trial_k_is_jump_4k_plus_s(self, k):
        master_seed = 12345
        generators = trial_seeds(TrialStreams(master_seed), k)
        assert len(generators) == 4
        for s, gen in enumerate(generators):
            reference = jumped(master_seed, 4 * k + s)
            assert gen.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(gen.random(8), reference.random(8))

    @pytest.mark.parametrize("strategy", ["its", "uid_scan"])
    def test_trial_draws_graph_victim_noise_and_order_from_streams_0_to_3(self, strategy):
        # 12 groups are too few to cross log2(1/0.01) bits, so each its
        # trial ends in the random fallback order.
        config = small_config(
            users=9, groups=12, prior="zipf:1.0", epsilon=0.01, steps=2,
            final_phase_order="random", strategy=strategy, master_seed=77,
        )
        model = harness.resolve_model(config)
        # The scan is the attack with no threshold step, as _trial_block runs it.
        steps = model.steps if strategy == "its" else 1
        its = ITSConfig(model.epsilon, steps, config.final_phase_order)
        streams = TrialStreams(config.master_seed)
        for k in (0, 3, 11):
            pair = generate_cprb(12, 9, model.edge_joint, jumped(77, 4 * k))
            victim = sample_victim(model.prior, jumped(77, 4 * k + 1))
            inst = VictimInstance(pair, victim, model.gm, jumped(77, 4 * k + 2))
            if strategy == "its":
                expected = run_its(
                    pair, inst, model.prior, model.measures, its, jumped(77, 4 * k + 3)
                ).queries
            else:
                # Stream 3's permutation of the users, up to the victim.
                order = (np.random.default_rng(jumped(77, 4 * k + 3)).permutation(9) + 1).tolist()
                expected = [("UID", j, int(j == victim)) for j in order[: order.index(victim) + 1]]
            transcript = harness._run_one_trial(config, model, its, streams, k)
            assert transcript.queries == expected


@settings(max_examples=40, deadline=None)
@given(
    users=st.integers(1, 12),
    groups=st.integers(1, 80),
    p0=st.floats(0.05, 0.95),
    edge_flip=st.floats(0.0, 1.0),
    gm_flip=st.floats(0.0, 1.0),
    prior=st.sampled_from(["uniform", "zipf:1.5"]),
    epsilon=st.floats(0.05, 0.6),
    steps=st.integers(1, 4),
    strategy=st.sampled_from(["its", "uid_scan"]),
    order=st.sampled_from(["by_info_value_desc", "random", "by_prior_desc"]),
    master_seed=st.integers(0, 2**63),
    start=st.integers(0, 10**6),
    count=st.integers(1, 6),
)
def test_trial_block_is_the_concatenation_of_one_trial_blocks(
    users, groups, p0, edge_flip, gm_flip, prior, epsilon, steps, strategy, order,
    master_seed, start, count,
):
    # A block reuses one set of generators for all its trials; no draw of one
    # trial may leak into the next.
    config = ExperimentConfig(
        users=users, groups=groups, p0=p0, edge_flip=edge_flip, gm_flip=gm_flip,
        prior=prior, epsilon=epsilon, steps=steps, strategy=strategy,
        final_phase_order=order, master_seed=master_seed, allow_degenerate=True,
    )
    block = harness._trial_block(config, start, count)
    singles = [harness._trial_block(config, start + i, 1) for i in range(count)]
    for part, joined in zip(block, zip(*singles)):
        assert np.array_equal(part, np.concatenate(joined))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("users", 0),
            ("groups", -1),
            ("p0", 1.0),
            ("edge_flip", 1.5),
            ("gm_flip", -0.1),
            ("prior", "powerlaw"),
            ("epsilon", 1.0),
            ("steps", 0),
            ("trials", 0),
            ("master_seed", -3),
            ("strategy", "tss"),
            ("final_phase_order", "alphabetical"),
            ("workers", 0),
            ("format", "xml"),
            ("users", True),
            ("master_seed", False),
            ("p0", "x"),
            ("edge_flip", "x"),
            ("gm_flip", None),
            ("epsilon", "x"),
            ("out", 3),
        ],
    )
    def test_each_invalid_field_is_named(self, field, value):
        config = small_config(**{field: value})
        with pytest.raises(ConfigError) as err:
            config.validate()
        assert err.value.field == field
        assert field in str(err.value)

    def test_zero_information_model_rejected_for_its(self):
        config = small_config(gm_flip=0.5)
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"users": 4, "groups": 8, "volume": 11})
        assert err.value.field == "volume"

    def test_from_dict_requires_sizes(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"groups": 8})


class TestRunExperiment:
    def test_repeat_run_is_bit_identical(self):
        a = run_experiment(small_config(trials=1))
        b = run_experiment(small_config(trials=1))
        assert a.to_json() == b.to_json()
        assert a.csv_row() == b.csv_row()

    def test_uid_scan_mean_matches_closed_form(self):
        config = ExperimentConfig(
            users=100, groups=4, strategy="uid_scan", prior="uniform",
            trials=2000, master_seed=17,
        )
        summary = run_experiment(config)
        # Random order, uniform victim: E[Q] = (m+1)/2 = 50.5.
        assert 48.0 <= summary.mean_q <= 53.0
        assert summary.success_rate == 1.0
        assert all(rate is None for rate in summary.per_step_failure_rates)

    def test_uid_scan_ignores_steps_and_fallback_order(self):
        # The scan is the attack with no threshold step, always in the random
        # order: the configured retry budget and fallback order play no part.
        base = ExperimentConfig(
            users=30, groups=8, strategy="uid_scan", trials=200, master_seed=23,
        )
        reference = run_experiment(base)
        for steps in (1, 2, 5):
            for order in FINAL_PHASE_ORDERS:
                summary = run_experiment(
                    dataclasses.replace(base, steps=steps, final_phase_order=order)
                )
                assert summary.q_histogram == reference.q_histogram
                assert summary.mean_q == reference.mean_q

    def test_summary_embeds_matching_bound_report(self):
        summary = run_experiment(small_config())
        params = summary.bound_report.params_used
        assert params["m"] == 16 and params["n"] == 192
        assert params["epsilon"] == summary.epsilon
        assert params["l"] == summary.steps

    def test_success_rate_is_always_one(self):
        summary = run_experiment(small_config(trials=100))
        assert summary.success_rate == 1.0
        assert sum(count for _, count in summary.q_histogram) == 100

    def test_auto_parameters_resolve(self):
        summary = run_experiment(small_config(epsilon="auto", steps="auto"))
        assert summary.epsilon == 0.25 and summary.steps == 3  # m=16 clamp

    def test_parallel_workers_change_nothing(self):
        serial = run_experiment(small_config(trials=60, workers=1))
        parallel = run_experiment(small_config(trials=60, workers=3))
        assert serial.to_json() == parallel.to_json()

    def test_worker_count_is_capped_by_trials_and_cores(self, monkeypatch):
        requested = []

        class InProcessPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        capped = run_experiment(small_config(trials=3, workers=10**6))
        assert all(count <= min(3, os.cpu_count() or 1) for count in requested)
        assert capped.to_json() == run_experiment(small_config(trials=3)).to_json()

    def test_noiseless_model_sandwiched_by_bounds(self):
        config = ExperimentConfig(
            users=256, groups=4096, p0=0.5, edge_flip=0.0, gm_flip=0.0,
            prior="uniform", epsilon=0.1, steps=4, trials=300, master_seed=33,
        )
        summary = run_experiment(config)
        # One noiseless bit per query: at least log2(m) = 8 queries, at most
        # the certified upper bound.
        assert 8.0 <= summary.mean_q <= summary.bound_report.upper_finite


class TestSweep:
    def test_user_axis_is_monotone_with_crn(self):
        base = small_config(trials=200)
        sweep = run_sweep(base, "m", [16, 32, 64], common_random_numbers=True)
        means = [s.mean_q for s in sweep]
        assert means == sorted(means)

    def test_noise_axis_is_monotone_with_crn(self):
        base = small_config(trials=200, epsilon=0.2)
        sweep = run_sweep(base, "noise", [0.0, 0.15, 0.3], common_random_numbers=True)
        means = [s.mean_q for s in sweep]
        assert means == sorted(means)

    def test_zipf_axis_sets_prior_labels(self):
        base = small_config(trials=10)
        sweep = run_sweep(base, "zipf", [0.0, 1.0])
        assert [s.config.prior for s in sweep] == ["zipf:0.0", "zipf:1.0"]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(small_config(), "temperature", [1, 2])

    def test_empty_points_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(small_config(), "m", [])

    def test_crn_shares_master_seed(self):
        base = small_config(trials=10)
        shared = run_sweep(base, "zipf", [0.5, 0.5], common_random_numbers=True)
        assert shared[0].to_json() == shared[1].to_json()
        offset = run_sweep(base, "zipf", [0.5, 0.5], common_random_numbers=False)
        assert offset[0].mean_q != offset[1].mean_q


class TestEmitResults:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "csv", tmp_path / "out.csv")

    def test_csv_layout(self, tmp_path):
        summary = run_experiment(small_config(trials=5))
        path = tmp_path / "out.csv"
        emit_results([summary], "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "16" and cells[1] == "192"
        assert cells[5] == "uniform"
        assert cells[-1] in ("true", "false") and cells[-2] in ("true", "false")

    def test_json_round_trip(self, tmp_path):
        summaries = [run_experiment(small_config(trials=5))]
        path = tmp_path / "out.json"
        emit_results(summaries, "json", path)
        parsed = json.loads(path.read_text())
        assert parsed == [s.to_json() for s in summaries]

    def test_unbounded_values_are_inf_in_csv_and_null_in_json(self):
        summary = run_experiment(ExperimentConfig(
            users=1, groups=8, edge_flip=0.5, allow_degenerate=True, trials=3,
        ))
        row = dict(zip(CSV_COLUMNS, summary.csv_row()))
        assert row["upper_bound_stated"] == row["upper_bound_certified"] == "inf"
        blob = summary.to_json()
        assert list(blob)[: len(CSV_COLUMNS)] == CSV_COLUMNS
        assert blob["upper_bound_stated"] is None and blob["upper_bound_certified"] is None

    def test_unknown_format_rejected(self, tmp_path):
        summary = run_experiment(small_config(trials=2))
        with pytest.raises(ValueError):
            emit_results([summary], "tsv", tmp_path / "x")


def test_config_replace_keeps_validation():
    base = small_config()
    bad = dataclasses.replace(base, p0=0.0)
    with pytest.raises(ConfigError):
        bad.validate()
