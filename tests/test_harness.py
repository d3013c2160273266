import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deanonlab import graph, harness, oracle
from deanonlab.attacker import (
    AttackTranscript,
    ITSConfig,
    ITSState,
    gm_update,
    init_state,
    run_its,
    threshold_check,
)
from deanonlab.graph import BigraphPair, generate_cprb
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
    def test_a_pair_and_an_instance_keep_their_trial_after_the_streams_move_on(self):
        # trial_seeds repositions the same generators for every trial; a pair
        # and an instance built on trial 0's copy them, so reading them after
        # the streams reached trial 1 still reads trial 0's graph and noise.
        model = harness.resolve_model(small_config(master_seed=5))
        streams = TrialStreams(5)
        graph_rng, _, noise_rng, _ = trial_seeds(streams, 0)
        pair = generate_cprb(40, 9, model.edge_joint, graph_rng)
        inst = VictimInstance(pair, 4, model.gm, noise_rng)
        trial_seeds(streams, 1)
        reference = generate_cprb(40, 9, model.edge_joint, jumped(5, 0))
        reference_inst = VictimInstance(reference, 4, model.gm, jumped(5, 2))
        assert np.array_equal(pair.sig1, reference.sig1)
        asks = [(g, t) for t in range(1, 41) for g in (t, 41 - t)]
        assert [inst.noisy_gm_response(*ask) for ask in asks] == [
            reference_inst.noisy_gm_response(*ask) for ask in asks
        ]

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

    @pytest.mark.parametrize("count", [3, 4])
    def test_every_visiting_order_positions_stream_s_at_jump_4k_plus_s(self, count):
        # Consecutive calls step the affine jump map from the previous call,
        # whichever slot made it; backward, repeated and far calls reposition
        # from the master state. With 3 slots the calls go to slots 0, 2, 1,
        # 0, ... in turn, and no slot's call or draws move another slot's
        # own graph and noise generators.
        master_seed = 2024
        for slots in (1, 3):
            streams = TrialStreams(master_seed, count, slots)
            assert len(streams.generators) == slots

            def others(slot):
                return [
                    streams.generators[u][s].bit_generator.state
                    for u in range(slots) if u != slot for s in (0, 2)
                ]

            ks = (0, 1, 2, 3, 1, 2, 2, 2, 9, 10, 2**40 + 3, 2**40 + 4, 2**40 + 5, 0, 1)
            for i, k in enumerate(ks):
                slot = 2 * i % slots
                before = others(slot)
                generators = trial_seeds(streams, k, slot)
                assert generators is streams.generators[slot] and len(generators) == count
                for s, gen in enumerate(generators):
                    reference = jumped(master_seed, 4 * k + s)
                    assert gen.bit_generator.state == reference.bit_generator.state
                    gen.random(1 + s)  # a trial draws from its streams before the next call
                assert others(slot) == before

    def test_a_negative_trial_index_is_refused(self):
        # Jump 4k + s wraps mod 2**128 for k < 0, to no trial's stream.
        streams = TrialStreams(5)
        trial_seeds(streams, 0)
        with pytest.raises(ValueError, match="-1"):
            trial_seeds(streams, -1)
        for s, gen in enumerate(trial_seeds(streams, 1)):
            assert gen.bit_generator.state == jumped(5, 4 + s).bit_generator.state

    @pytest.mark.parametrize("count", [0, 5])
    def test_stream_count_outside_one_to_four_is_rejected(self, count):
        with pytest.raises(ValueError, match="count"):
            TrialStreams(1, count)

    @pytest.mark.parametrize("strategy", ["its", "uid_scan"])
    def test_trial_draws_graph_victim_noise_and_order_from_streams_0_to_3(
        self, strategy, monkeypatch
    ):
        # 12 groups are too few to cross log2(1/0.01) bits, so each its
        # trial ends in the fallback, which goes by score. The trials run as
        # one campaign block, which positions stream 3 only for the identity
        # scan's random order.
        config = small_config(
            users=9, groups=12, prior="zipf:1.0", epsilon=0.01, steps=2,
            strategy=strategy, master_seed=77,
        )
        model = harness.resolve_model(config)
        its = ITSConfig(model.epsilon, model.steps)
        transcripts = record_scans(monkeypatch)
        harness._trial_block(config, 0, 12, model)
        for k in (0, 3, 11):
            pair = generate_cprb(12, 9, model.edge_joint, jumped(77, 4 * k))
            victim = sample_victim(model.prior, jumped(77, 4 * k + 1))
            inst = VictimInstance(pair, victim, model.gm, jumped(77, 4 * k + 2))
            if strategy == "its":
                expected = run_its(pair, inst, model.prior, model.measures, its).queries
            else:
                # Stream 3's permutation of the users, up to the victim.
                order_rng = np.random.default_rng(jumped(77, 4 * k + 3))
                scan = (order_rng.permutation(9) + 1).tolist()
                expected = [("UID", j, int(j == victim)) for j in scan[: scan.index(victim) + 1]]
            assert transcripts[k].queries == expected


def record_scans(monkeypatch) -> list:
    """Patch the campaign's block scan to record each trial's transcript, in trial order."""
    transcripts, scan = [], harness._block_scan

    def recording_scan(*args):
        fields = scan(*args)
        transcripts.append(AttackTranscript(*fields))
        return fields

    monkeypatch.setattr(harness, "_block_scan", recording_scan)
    return transcripts


def public_replays(config, model, start, count) -> list:
    """``run_its`` on a pair and an instance built from each trial's streams: the public replays."""
    its = ITSConfig(model.epsilon, model.steps)
    streams, replays = TrialStreams(config.master_seed), []
    for trial in range(start, start + count):
        graph_rng, victim_rng, noise_rng, order_rng = trial_seeds(streams, trial)
        pair = generate_cprb(config.groups, config.users, model.edge_joint, graph_rng)
        inst = VictimInstance(pair, sample_victim(model.prior, victim_rng), model.gm, noise_rng)
        order = order_rng if config.strategy == "uid_scan" else None
        replays.append(run_its(pair, inst, model.prior, model.measures, its, order))
    return replays


@pytest.mark.parametrize("strategy", harness.STRATEGIES)
def test_trial_block_calls_each_traced_name_once_per_trial(strategy, monkeypatch):
    # The benchmark's tracer times a trial's layers by patching names on the
    # harness module, so a trial calls each through it: the streams, the
    # victim draw and the block scan once per trial, and the identity answer
    # once per identity query.
    calls = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in ("trial_seeds", "sample_victim", "identity_answer"):
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    transcripts = record_scans(monkeypatch)
    monkeypatch.setattr(harness, "_block_scan", counted("_block_scan", harness._block_scan))
    trials = 30
    config = small_config(prior="zipf:1.0", strategy=strategy)
    harness._trial_block(config, 4, trials, harness.resolve_model(config))
    identity_queries = sum(t.uid_count() for t in transcripts)
    assert identity_queries >= trials
    assert calls == {
        "trial_seeds": trials, "sample_victim": trials, "_block_scan": trials,
        "identity_answer": identity_queries,
    }


# Flips of exactly 0 and 1, and a p0 of 1e-300, give cut points at 0 and
# 2**32 and outcomes of zero and unit mass.
FLIPS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
P0S = st.one_of(st.just(1e-300), st.floats(0.05, 0.95))


@settings(max_examples=40, deadline=None)
@given(
    users=st.integers(1, 12),
    groups=st.integers(1, 80),
    p0=P0S,
    edge_flip=FLIPS,
    gm_flip=FLIPS,
    prior=st.sampled_from(["uniform", "zipf:1.5"]),
    epsilon=st.floats(0.05, 0.6),
    steps=st.integers(1, 4),
    strategy=st.sampled_from(["its", "uid_scan"]),
    master_seed=st.integers(0, 2**63),
    start=st.integers(0, 10**6),
    count=st.integers(1, 6),
)
@example(
    users=5, groups=40, p0=0.5, edge_flip=0.5, gm_flip=0.0, prior="zipf:1.5", epsilon=0.2,
    steps=3, strategy="its", master_seed=9, start=3, count=4,
)
def test_trial_block_is_the_concatenation_of_one_trial_blocks(
    users, groups, p0, edge_flip, gm_flip, prior, epsilon, steps, strategy,
    master_seed, start, count,
):
    # A block reuses one set of generators for all its trials; no draw of one
    # trial may leak into the next.
    config = ExperimentConfig(
        users=users, groups=groups, p0=p0, edge_flip=edge_flip, gm_flip=gm_flip,
        prior=prior, epsilon=epsilon, steps=steps, strategy=strategy,
        master_seed=master_seed,
    )
    # A flip of 1/2 gives I = 0, where a campaign refuses its; a block still
    # runs it, and the explicit example keeps such trials covered.
    model = harness.resolve_model(config)
    block = harness._trial_block(config, start, count, model)
    singles = [harness._trial_block(config, start + i, 1, model) for i in range(count)]
    assert len(block) == 4
    for index, per_trial in enumerate(block):
        assert np.array_equal(per_trial, np.concatenate([single[index] for single in singles]))


@settings(max_examples=40, deadline=None)
@given(
    users=st.integers(1, 12),
    groups=st.integers(1, 80),
    p0=P0S,
    edge_flip=FLIPS,
    gm_flip=FLIPS,
    prior=st.sampled_from(["uniform", "zipf:1.5"]),
    epsilon=st.floats(0.05, 0.6),
    steps=st.integers(1, 4),
    strategy=st.sampled_from(harness.STRATEGIES),
    master_seed=st.integers(0, 2**63),
    start=st.integers(0, 10**6),
    count=st.integers(1, 5),
)
@example(
    users=7, groups=40, p0=1e-300, edge_flip=1.0, gm_flip=0.0, prior="uniform", epsilon=0.3,
    steps=3, strategy="its", master_seed=3, start=0, count=3,
)
@example(
    users=7, groups=40, p0=1e-300, edge_flip=0.0, gm_flip=1.0, prior="zipf:1.5", epsilon=0.3,
    steps=3, strategy="its", master_seed=4, start=2, count=3,
)
def test_each_campaign_trial_equals_its_public_replay(
    users, groups, p0, edge_flip, gm_flip, prior, epsilon, steps, strategy,
    master_seed, start, count,
):
    # A campaign trial scans blocks drawn straight from its streams; the
    # public API builds a pair and an instance on the same streams and runs
    # run_its. Both reach the same scan, so every field must agree.
    config = ExperimentConfig(
        users=users, groups=groups, p0=p0, edge_flip=edge_flip, gm_flip=gm_flip,
        prior=prior, epsilon=epsilon, steps=steps, strategy=strategy,
        master_seed=master_seed,
    )
    model = harness.resolve_model(config)
    with pytest.MonkeyPatch.context() as patch:
        transcripts = record_scans(patch)
        qs, successes, verified, failed = harness._trial_block(config, start, count, model)
    replays = public_replays(config, model, start, count)
    for i, (transcript, replay) in enumerate(zip(transcripts, replays)):
        assert transcript == replay
        assert (qs[i], successes[i]) == (replay.q_count, replay.success)
        # The block counts failures without reading the answers; the replay reads them.
        assert verified[i] == len(replay.tau_star_per_step)
        assert failed[i] == replay.step_uid_responses().count(0)
    assert len(transcripts) == count


# Campaigns whose trials take the paths that cross a batch's boundaries,
# each with the path some trial must take on master seed 21, given its
# transcript and the block width w: a second block; a verification that
# fails inside block 0, after which the next step scans the rest of block
# 0 again; a graph shorter than one block; an odd user count, with second
# blocks; a third block, so a slot's generators are read across two later
# blocks after the rest of its batch drew; and the identity scan, which
# reads no block.
NOISY_16 = dict(users=16, groups=700, edge_flip=0.15, gm_flip=0.25, steps=4)
BATCH_CASES = {
    "second-block": (
        dict(NOISY_16, edge_flip=0.2, gm_flip=0.3, prior="zipf:1.0", epsilon=0.05),
        lambda t, w: len(t.gm_answers) > w,
    ),
    "failed-verification-in-block-0": (
        dict(NOISY_16, epsilon=0.6),
        lambda t, w: t.step_uid_responses()[:1] == [0]
        and t.tau_star_per_step[0] < w < len(t.gm_answers) + w,
    ),
    "shorter-than-a-block": (
        dict(NOISY_16, groups=40, epsilon=0.3, steps=3),
        lambda t, w: len(t.gm_answers) == 40 < w,
    ),
    "odd-m": (
        dict(NOISY_16, users=15, groups=400, edge_flip=0.2, gm_flip=0.3, epsilon=0.1),
        lambda t, w: len(t.gm_answers) > w,
    ),
    "third-block": (
        dict(NOISY_16, edge_flip=0.2, gm_flip=0.35, prior="zipf:1.0", epsilon=0.02),
        lambda t, w: len(t.gm_answers) > 2 * w,
    ),
    "uid-scan": (
        dict(users=9, groups=50, strategy="uid_scan"),
        lambda t, w: not t.gm_answers and t.success,
    ),
    # The edges of the batch pass, which sums and tests step 1 on block 0
    # of a batch: a step 1 that ends on block 0's last row; two candidates
    # that first cross in the row that ends step 1, the later with the
    # higher score; a batch of three whose trials cross and verify, cross
    # and fail, and do not cross in block 0. The last two are checked in
    # full by test_batch_edge_cases_take_their_paths.
    "crossing-on-the-last-row-of-block-0": (
        dict(NOISY_16, users=32, gm_flip=0.3, prior="zipf:1.0", epsilon=0.3),
        lambda t, w: t.tau_star_per_step[:1] == [w],
    ),
    "two-crossings-in-one-row": (
        dict(NOISY_16, users=32, edge_flip=0.1, gm_flip=0.02, prior="zipf:1.0", epsilon=0.45),
        lambda t, w: block_0_outcome(t, w) != "not crossed",
    ),
    "mixed-block-0-outcomes": (
        dict(NOISY_16, users=32, gm_flip=0.3, prior="zipf:2.0", epsilon=0.6),
        lambda t, w: block_0_outcome(t, w) == "crossed and failed",
    ),
}


def block_0_outcome(transcript, width) -> str:
    """How step 1 ends in block 0: crossed and verified, crossed and failed, or not crossed."""
    taus = transcript.tau_star_per_step
    if not taus or taus[0] > width:
        return "not crossed"
    return "crossed and " + ("verified" if transcript.step_uid_responses()[0] else "failed")


def step_one_crossers(config, model, trial) -> list:
    """(score, candidate) of every candidate at the threshold when the trial's step 1 ends.

    Walks the trial's graph and answers one query at a time, through the
    public one-query API; empty if step 1 never ends.
    """
    graph_rng, victim_rng, noise_rng = trial_seeds(TrialStreams(config.master_seed, 3), trial)
    pair = generate_cprb(config.groups, config.users, model.edge_joint, graph_rng)
    inst = VictimInstance(pair, sample_victim(model.prior, victim_rng), model.gm, noise_rng)
    state = init_state(model.prior, ITSConfig(model.epsilon, model.steps))
    for group in range(1, config.groups + 1):
        y = inst.noisy_gm_response(group, group)
        gm_update(state, pair.block_bits("scanned", group, group)[:, 0], y, model.measures)
        stop, crossers = threshold_check(state, model.epsilon)
        if stop:
            return [(state.scores()[j - 1], j) for j in crossers.tolist()]
    return []


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("case", BATCH_CASES)
def test_batched_trials_equal_their_public_replays(case, size, monkeypatch):
    # Eight trials from trial 5 on, in batches of 1, 2 and 3 trials (the
    # last batch of 3 holds two): the four arrays and every transcript
    # equal the public replays, and the batch's first blocks are decoded
    # with one stack per batch. The identity scan reads no block and runs
    # one trial at a time whatever the rule.
    fields, takes_path = BATCH_CASES[case]
    config = ExperimentConfig(**fields, master_seed=21)
    model = harness.resolve_model(config)
    stacks, answer = [], oracle._answer

    def recording_answer(u, *rest):
        stacks.append(u.shape[0] if u.ndim == 3 else None)
        return answer(u, *rest)

    monkeypatch.setattr(harness, "_batch_trials", lambda m: size)
    monkeypatch.setattr(oracle, "_answer", recording_answer)
    transcripts = record_scans(monkeypatch)
    start, count = 5, 8
    qs, successes, verified, failed = harness._trial_block(config, start, count, model)
    replays = public_replays(config, model, start, count)
    assert transcripts == replays
    assert any(takes_path(t, graph._block_width(config.users)) for t in replays)
    assert qs.tolist() == [t.q_count for t in replays]
    assert successes.tolist() == [t.success for t in replays]
    assert verified.tolist() == [len(t.tau_star_per_step) for t in replays]
    assert failed.tolist() == [t.step_uid_responses().count(0) for t in replays]
    if config.strategy == "uid_scan":
        assert stacks == []
    elif size > 1:
        assert [rows for rows in stacks if rows is not None] == [size] * (count // size) + (
            [count % size] if count % size else []
        )
    else:
        assert None in stacks and all(rows is None for rows in stacks)


def test_batch_edge_cases_take_their_paths():
    # On the trials of test_batched_trials_equal_their_public_replays: some
    # trial's step 1 ends in block 0 at a row where two candidates first
    # cross, and the later one has the higher score, so the row's first
    # crossing is not the guess; and the first batch of three mixes all
    # three block-0 outcomes.
    start, count = 5, 8
    fields = BATCH_CASES["two-crossings-in-one-row"][0]
    config = ExperimentConfig(**fields, master_seed=21)
    model = harness.resolve_model(config)
    replays = public_replays(config, model, start, count)
    width = graph._block_width(config.users)
    later_leads = []
    for trial, replay in zip(range(start, start + count), replays):
        crossers = step_one_crossers(config, model, trial)
        if len(crossers) >= 2 and block_0_outcome(replay, width) != "not crossed":
            lead = max(crossers, key=lambda crosser: (crosser[0], -crosser[1]))[1]
            assert replay.uid_queries[0][0] == lead
            later_leads.append(lead > min(j for _, j in crossers))
    assert any(later_leads)
    config = ExperimentConfig(**BATCH_CASES["mixed-block-0-outcomes"][0], master_seed=21)
    replays = public_replays(config, harness.resolve_model(config), start, 3)
    width = graph._block_width(config.users)
    assert {block_0_outcome(t, width) for t in replays} == {
        "crossed and verified", "crossed and failed", "not crossed",
    }


@pytest.mark.parametrize("strategy", harness.STRATEGIES)
def test_a_campaign_builds_no_pair_instance_state_or_transcript(strategy, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a campaign built a {type(self).__name__}")

    for cls in (BigraphPair, VictimInstance, ITSState, AttackTranscript):
        monkeypatch.setattr(cls, "__init__", refuse)
    summary = run_experiment(small_config(prior="zipf:1.0", strategy=strategy, trials=30))
    assert summary.success_rate == 1.0


@settings(max_examples=10, deadline=None)
@given(
    users=st.integers(1, 12),
    groups=st.integers(1, 80),
    p0=st.floats(0.05, 0.95),
    edge_flip=st.floats(0.0, 1.0),
    gm_flip=st.floats(0.0, 1.0),
    prior=st.sampled_from(["uniform", "zipf:1.5"]),
    epsilon=st.floats(0.05, 0.6),
    steps=st.integers(1, 4),
    strategy=st.sampled_from(harness.STRATEGIES),
    trials=st.integers(2, 24),
    master_seed=st.integers(0, 2**63),
)
def test_output_does_not_depend_on_the_worker_count(
    users, groups, p0, edge_flip, gm_flip, prior, epsilon, steps, strategy,
    trials, master_seed,
):
    config = ExperimentConfig(
        users=users, groups=groups, p0=p0, edge_flip=edge_flip, gm_flip=gm_flip,
        prior=prior, epsilon=epsilon, steps=steps, strategy=strategy,
        trials=trials, master_seed=master_seed,
    )
    # run_experiment refuses its on a model with zero mutual information.
    assume(strategy == "uid_scan" or harness.resolve_model(config).measures.mutual_info > 0.0)
    with pytest.MonkeyPatch.context() as patch:
        # Two usable CPUs on any machine, so workers=2 runs a real pool of two processes.
        patch.setattr(harness, "_usable_cpus", lambda: 2)
        serial = run_experiment(config)
        parallel = run_experiment(dataclasses.replace(config, workers=2))
    assert serial.to_json() == parallel.to_json()
    assert serial.csv_row() == parallel.csv_row()


class TestConfigValidation:
    # 2**70 entries exceed the largest array numpy can index, which numpy
    # refuses with ValueError, and 2**61 float64 entries its largest size.
    @pytest.mark.parametrize("field, fields", [
        ("users", dict(users=2**70)),
        ("users", dict(users=2**61, prior="zipf:1.0")),
        ("trials", dict(trials=2**70)),
        ("trials", dict(trials=2**61)),
    ])
    def test_a_campaign_too_large_to_allocate_names_its_field(self, field, fields):
        with pytest.raises(ConfigError, match=rf"^{field}: too many {field}") as raised:
            run_experiment(small_config(**fields))
        assert raised.value.field == field

    def test_a_config_error_survives_pickling(self):
        # A pool worker's error reaches the campaign through pickle.
        error = pickle.loads(pickle.dumps(ConfigError("trials", "too many trials")))
        assert (type(error), error.field, str(error)) == (
            ConfigError, "trials", "trials: too many trials"
        )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("users", 0),
            ("groups", -1),
            ("p0", 1.0),
            ("edge_flip", 1.5),
            ("gm_flip", -0.1),
            ("prior", "powerlaw"),
            ("prior", [True] + [1] * 15),
            ("prior", [1] * 15 + ["2"]),
            ("epsilon", 1.0),
            ("steps", 0),
            ("trials", 0),
            ("master_seed", -3),
            ("strategy", "tss"),
            ("workers", 0),
            ("format", "xml"),
            ("users", True),
            ("master_seed", False),
            ("p0", "x"),
            ("edge_flip", "x"),
            ("gm_flip", None),
            ("epsilon", "x"),
            ("out", 3),
            ("gm_flip", np.float32(0.1)),
            ("users", np.int64(16)),
            ("groups", np.int64(64)),
            ("trials", np.int64(5)),
            ("workers", np.int64(1)),
            ("master_seed", np.int64(3)),
            ("epsilon", np.array([0.5, 0.2])),
            ("steps", np.array([2, 3])),
        ],
    )
    def test_each_invalid_field_is_named(self, field, value):
        config = small_config(**{field: value})
        with pytest.raises(ConfigError) as err:
            config.validate()
        assert err.value.field == field
        assert field in str(err.value)

    def test_a_numpy_float32_is_refused_naming_its_type(self):
        # 0.1 is in range: the type is what is refused, and the message says so.
        with pytest.raises(ConfigError, match="^gm_flip: .*float32$"):
            small_config(gm_flip=np.float32(0.1)).validate()

    @pytest.mark.parametrize("field,value,kind", [
        ("users", np.int64(16), "int64"),
        ("master_seed", np.int64(3), "int64"),
        ("epsilon", np.array([0.5, 0.2]), "ndarray"),
        ("steps", np.array([2, 3]), "ndarray"),
    ])
    def test_a_numpy_integer_or_array_is_refused_naming_its_type(self, field, value, kind):
        # Each value is in range or holds values in range: the type is what
        # is refused, and the message says so.
        with pytest.raises(ConfigError, match=rf"^{field}: .*, not {kind}$"):
            small_config(**{field: value}).validate()

    def test_numpy_float64_fields_print_as_python_floats(self):
        rows = []
        for real in (float, np.float64):
            summary = run_experiment(small_config(p0=real(0.5), gm_flip=real(0.1), trials=20))
            rows.append(summary.csv_row())
        assert rows[0] == rows[1]
        assert rows[0][2:5] == ["0.5", "0.05", "0.1"]

    def test_a_path_like_out_is_accepted(self, tmp_path):
        summary = run_experiment(small_config(trials=2, out=tmp_path / "r.csv"))
        emit_results([summary], "csv", summary.config.out)
        assert (tmp_path / "r.csv").read_text().startswith("m,n,")

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
        assert summary.per_step_failure_rates == []

    def test_uid_scan_ignores_steps_and_fallback_order(self):
        # The scan is the attack with no threshold step, always in a random
        # order, never the threshold attack's score order: the configured
        # retry budget plays no part.
        base = ExperimentConfig(
            users=30, groups=8, strategy="uid_scan", trials=200, master_seed=23,
        )
        reference = run_experiment(base)
        for steps in (1, 2, 5):
            summary = run_experiment(dataclasses.replace(base, steps=steps))
            assert summary.to_json() == reference.to_json()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(users=100, groups=4),
            dict(users=30, groups=16, prior="zipf:1.5"),
            dict(users=256, groups=8192, edge_flip=0.05, gm_flip=0.05),
        ],
        ids=["m100-uniform", "m30-zipf", "m256-sandwich-flips"],
    )
    def test_uid_scan_reports_the_attack_it_runs(self, overrides):
        # The scan is the attack at l = 1: no verification step, and the
        # l = 1 bound report, whose certified bound core + m/2 lies above the
        # scan's (m+1)/2 whenever I > 0, since core > 1.
        summary = run_experiment(
            ExperimentConfig(strategy="uid_scan", trials=400, master_seed=41, **overrides)
        )
        assert summary.steps == 1 and summary.to_json()["l"] == 1
        assert summary.bound_report.params_used["l"] == 1
        assert summary.per_step_failure_rates == []
        assert summary.mean_q <= summary.bound_report.upper_finite

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

    def test_verification_bookkeeping_does_not_grow_with_steps(self):
        # A trial verifies at most one candidate per user, so a budget of a
        # million steps costs what a budget of m steps does, and reports
        # rates only for the first m steps.
        config = small_config(
            users=8, groups=4000, edge_flip=0.3, gm_flip=0.35, epsilon=0.9,
            steps=10**6, trials=200, master_seed=17,
        )
        start = time.perf_counter()
        summary = run_experiment(config)
        assert time.perf_counter() - start < 1.0
        rates = summary.per_step_failure_rates
        assert len(rates) == 8
        assert any(rates[:8])  # some verifications failed

    def test_failure_rates_cost_no_list_per_verification_slot(self):
        # 8 groups are too few to cross 1 + log2(256) bits, so no trial
        # verifies. A budget of a million steps allows m verifications per
        # trial; the rates must not cost a list entry per trial and slot.
        def traced_peak(steps):
            config = small_config(
                users=256, groups=8, edge_flip=0.0, gm_flip=0.0, epsilon=0.5, steps=steps,
                trials=500, master_seed=1,
            )
            tracemalloc.start()
            try:
                summary = run_experiment(config)
                return tracemalloc.get_traced_memory()[1], summary
            finally:
                tracemalloc.stop()

        traced_peak(4)  # first-campaign caches are not part of the comparison
        (small, few), (large, many) = traced_peak(4), traced_peak(10**6)
        assert few.per_step_failure_rates == [None] * 3
        assert many.per_step_failure_rates == [None] * 256
        assert few.mean_q == many.mean_q
        assert large - small < 2 * 500 * 256

    def test_per_step_counts_cost_no_memory_per_trial(self):
        # Trials here do verify, and some verifications fail. The campaign
        # keeps two counts per trial, its verifications and its failed
        # ones, in the smallest unsigned type that holds min(steps - 1, m).
        # So a budget of a million steps costs a byte more per count and
        # the rates list's 256 entries more than a budget of 4: a few KB,
        # where a table of (trials, min(steps - 1, m)) one-byte slots would
        # take 128 KB.
        def traced_peak(steps):
            config = small_config(
                users=256, groups=16, edge_flip=0.0, gm_flip=0.0, epsilon=0.5, steps=steps,
                trials=500, master_seed=1,
            )
            tracemalloc.start()
            try:
                summary = run_experiment(config)
                return tracemalloc.get_traced_memory()[1], summary
            finally:
                tracemalloc.stop()

        traced_peak(4)  # first-campaign caches are not part of the comparison
        (small, few), (large, many) = traced_peak(4), traced_peak(10**6)
        assert 0.0 < few.per_step_failure_rates[0] < 1.0
        assert len(many.per_step_failure_rates) == 256
        assert large - small < 4096

    def test_parallel_workers_change_nothing(self):
        serial = run_experiment(small_config(trials=60, workers=1))
        parallel = run_experiment(small_config(trials=60, workers=3))
        assert serial.to_json() == parallel.to_json()

    def test_one_worker_campaign_does_not_ask_for_the_core_count(self, monkeypatch):
        def usable_cpus():
            raise AssertionError("a one-worker campaign asked for the core count")

        monkeypatch.setattr(harness, "_usable_cpus", usable_cpus)
        run_experiment(small_config(trials=3, workers=1))
        run_experiment(small_config(trials=1, workers=4))

    def test_one_worker_campaign_imports_no_process_pool(self):
        # A fresh interpreter: pytest or hypothesis may have loaded the pool
        # modules in this one already.
        script = (
            "import sys\n"
            "import deanonlab\n"
            "POOL = ('concurrent.futures', 'multiprocessing')\n"
            "after_import = [m for m in POOL if m in sys.modules]\n"
            "deanonlab.run_experiment(deanonlab.ExperimentConfig(\n"
            "    users=8, groups=64, trials=2, workers=1))\n"
            "after_campaign = [m for m in POOL if m in sys.modules]\n"
            "print(after_import, after_campaign)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(harness.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[]", "[]"]

    def test_import_leaves_numpy_random_unloaded(self):
        # A fresh interpreter, as above. The unseeded seed sequence of a
        # campaign's trial streams subclasses a numpy.random class, so it is
        # made only when a campaign builds them.
        script = (
            "import sys\n"
            "import deanonlab\n"
            "after_import = 'numpy.random' in sys.modules\n"
            "deanonlab.run_experiment(deanonlab.ExperimentConfig(users=8, groups=64, trials=2))\n"
            "print(after_import, 'numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(harness.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False", "True"]

    def test_worker_count_is_capped_by_trials_and_cores(self, in_process_pool):
        capped = run_experiment(small_config(trials=3, workers=10**6))
        assert all(count <= min(3, harness._usable_cpus()) for count in in_process_pool)
        assert capped.to_json() == run_experiment(small_config(trials=3)).to_json()

    @pytest.mark.parametrize("affinity", [{0}, {0, 5, 9}])
    def test_worker_cap_counts_the_cpus_this_process_may_run_on(
        self, affinity, monkeypatch, in_process_pool
    ):
        # The host reports 64 CPUs; the process may run on fewer.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: affinity, raising=False)
        run_experiment(small_config(trials=8, workers=4))
        assert in_process_pool == ([] if len(affinity) == 1 else [3])
        assert harness._usable_cpus() == len(affinity)

    def test_worker_cap_falls_back_to_the_host_count_without_affinity(
        self, monkeypatch, in_process_pool
    ):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        run_experiment(small_config(trials=8, workers=4))
        assert in_process_pool == [2]
        assert harness._usable_cpus() == 2

    def test_a_campaign_builds_its_prior_and_model_once(self, monkeypatch):
        calls = Counter()

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in ("make_prior", "build_joint_uyz"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        monkeypatch.setattr(
            harness.InfoMeasures, "from_joint",
            classmethod(counted("from_joint", harness.InfoMeasures.from_joint.__func__)),
        )
        run_experiment(small_config(prior="zipf:1.0", trials=5))
        assert calls == {"make_prior": 1, "build_joint_uyz": 1, "from_joint": 1}

    def test_a_pool_campaign_builds_its_model_once(self, monkeypatch, in_process_pool):
        # 25 trials on 3 workers run as nine blocks, each on the campaign's model.
        builds, real = [], harness.make_prior

        def counted(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "make_prior", counted)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        run_experiment(small_config(prior="zipf:1.0", trials=25, workers=3))
        assert in_process_pool == [3]
        assert len(builds) == 1

    @pytest.mark.parametrize("prior", ["zipf:x", [1.0] * 15, [0.0] + [1.0] * 15])
    def test_a_malformed_prior_is_refused_naming_prior(self, prior):
        with pytest.raises(ConfigError) as err:
            run_experiment(small_config(prior=prior))
        assert err.value.field == "prior"

    def test_single_and_multi_block_campaigns_aggregate_alike(self, monkeypatch, in_process_pool):
        # An identity scan over 150 users: the query counts spread over far
        # more than 64 values with gaps between them, and a trial never
        # verifies, so the per-step table has no column.
        config = ExperimentConfig(
            users=150, groups=8, strategy="uid_scan", trials=45, master_seed=11,
        )
        single = run_experiment(config)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        multi = run_experiment(dataclasses.replace(config, workers=3))
        assert in_process_pool == [3]  # four-trial blocks, so 12 of them
        assert single.to_json() == multi.to_json()
        values = [value for value, _ in single.q_histogram]
        assert values[-1] - values[0] > 64 and len(values) < values[-1] - values[0] + 1
        qs, *_ = harness._trial_block(config, 0, config.trials, harness.resolve_model(config))
        assert single.q_histogram == [list(pair) for pair in sorted(Counter(qs.tolist()).items())]
        assert single.mean_q == float(qs.mean()) and single.std_q == float(qs.std(ddof=1))

    def test_noiseless_model_sandwiched_by_bounds(self):
        config = ExperimentConfig(
            users=256, groups=4096, p0=0.5, edge_flip=0.0, gm_flip=0.0,
            prior="uniform", epsilon=0.1, steps=4, trials=300, master_seed=33,
        )
        summary = run_experiment(config)
        # One noiseless bit per query: at least log2(m) = 8 queries, at most
        # the certified upper bound.
        assert 8.0 <= summary.mean_q <= summary.bound_report.upper_finite


def test_trials_of_a_campaign_share_read_only_scan_tables(monkeypatch):
    # The scan's density table, the oracle's P(y=1 | true bit) table, the
    # crossing limits, tiled over a block's rows, and the prior surprisal
    # are model constants: one read-only object each per campaign, whatever
    # the trial. The channel answers each batch's first blocks in one call,
    # and each later block.
    seen, p_ones = [], []
    scan, channel = harness._block_scan, oracle._channel

    def recording_scan(blocks, n, width, density, limits, surprisal, *rest):
        seen.append((density, limits, surprisal))
        return scan(blocks, n, width, density, limits, surprisal, *rest)

    def recording_channel(p_one, *rest):
        p_ones.append(p_one)
        return channel(p_one, *rest)

    monkeypatch.setattr(harness, "_block_scan", recording_scan)
    monkeypatch.setattr(oracle, "_channel", recording_channel)
    config = small_config(trials=12, prior="zipf:1.0")
    model = harness.resolve_model(config)
    run_experiment(config)
    batches = -(-12 // graph._batch_trials(16))
    assert batches == 2
    assert len(seen) == 12 and len(p_ones) >= batches
    tables = [*zip(*seen), p_ones]
    for same in tables:
        assert all(table is same[0] for table in same)
    density, limits, surprisal, p_one = (same[0] for same in tables)
    # m = 16 is even: the pair table, (i(lo), i(hi)) at entry lo + 256 * hi
    # for density indexes lo and hi, where index s + 2y stands for i(s; y),
    # and zero at every other entry.
    plain = [model.measures.density[s, y] for y in (0, 1) for s in (0, 1)]
    expected_pairs = np.zeros(4 * 256, dtype=complex)
    for lo in range(4):
        for hi in range(4):
            expected_pairs[lo + 256 * hi] = complex(plain[lo], plain[hi])
    assert density.dtype == np.complex128
    assert np.array_equal(density.view(np.uint64), expected_pairs.view(np.uint64))
    rows = min(graph._block_width(16), config.groups)
    expected = model.prior.crossing_limits(math.log2(1.0 / model.epsilon))
    assert np.array_equal(limits, np.tile(expected, rows))
    assert np.array_equal(p_one, model.gm.p_one_by_bit)
    for table in (density, limits, surprisal, p_one):
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_scan_tables_store_nothing_on_the_model():
    # The crossing limits are computed where they are asked for; the prior
    # keeps only its dataclass fields.
    config = small_config(trials=3, prior="zipf:1.0")
    model = harness.resolve_model(config)
    fields = {f.name for f in dataclasses.fields(model.prior)}
    model.prior.crossing_limits(2.5)
    assert set(vars(model.prior)) == fields
    harness._trial_block(config, 0, config.trials, model)
    assert set(vars(model.prior)) == fields


def record_blocks(monkeypatch):
    """Record the arguments of every block of trials a campaign starts; none runs."""
    ran = []
    monkeypatch.setattr(harness, "_trial_block", lambda *args: ran.append(args))
    return ran


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

    @pytest.mark.parametrize(
        "points", [lambda: np.array([]), lambda: (p for p in ())], ids=["array", "generator"],
    )
    def test_empty_points_of_any_iterable_are_refused(self, points):
        with pytest.raises(ConfigError) as info:
            run_sweep(small_config(trials=2), "noise", points())
        assert info.value.field == "points"

    @pytest.mark.parametrize(
        "points", [lambda: np.array([0.1, 0.2]), lambda: (p for p in (0.1, 0.2))],
        ids=["array", "generator"],
    )
    def test_points_of_any_iterable_run_as_a_list(self, points):
        expected = run_sweep(small_config(trials=4), "noise", [0.1, 0.2])
        sweep = run_sweep(small_config(trials=4), "noise", points())
        assert [s.to_json() for s in sweep] == [s.to_json() for s in expected]

    @pytest.mark.parametrize(
        "points, field",
        [([0.1, 2.0], "gm_flip"), ([0.1, 0.5], "strategy")],
        ids=["out-of-range", "zero-information"],
    )
    def test_every_point_is_checked_before_any_campaign_runs(self, points, field, monkeypatch):
        # A flip of 2 is no probability; a flip of 1/2 leaves the threshold
        # attack no information. Both are later points after a good one.
        ran = record_blocks(monkeypatch)
        with pytest.raises(ConfigError) as info:
            run_sweep(small_config(trials=2), "noise", points)
        assert info.value.field == field
        assert ran == []

    @pytest.mark.parametrize(
        "point", [4.7, True, "4.7", "inf", "nan"], ids=["float", "bool", "str", "inf", "nan"]
    )
    def test_user_axis_rejects_non_integral_points(self, point, monkeypatch):
        # int() would truncate 4.7 to 4 users and read True as 1.
        ran = record_blocks(monkeypatch)
        with pytest.raises(ConfigError) as info:
            run_sweep(small_config(trials=2), "m", [16, point])
        assert info.value.field == "points"
        assert ran == []

    @pytest.mark.parametrize(
        "axis, point",
        [("m", True), ("m", np.True_), ("noise", True), ("noise", False),
         ("noise", np.False_), ("zipf", True), ("zipf", np.True_)],
        ids=lambda v: f"np.{v}" if isinstance(v, np.bool_) else str(v),
    )
    def test_every_axis_refuses_bool_points(self, axis, point, monkeypatch):
        # float() would read True as 1.0 and False as 0.0.
        ran = record_blocks(monkeypatch)
        with pytest.raises(ConfigError) as info:
            run_sweep(small_config(trials=2), axis, [0.5 if axis != "m" else 16, point])
        assert info.value.field == "points"
        assert ran == []

    def test_user_axis_accepts_integral_points_of_any_type(self):
        sweep = run_sweep(small_config(trials=2), "m", [16.0, np.int64(8), "12", "16.0", "1e3"])
        assert [s.config.users for s in sweep] == [16, 8, 12, 16, 1000]
        assert all(type(s.config.users) is int for s in sweep)

    def test_a_malformed_base_is_refused_where_the_axis_overrides_it(self, monkeypatch):
        ran = record_blocks(monkeypatch)
        with pytest.raises(ConfigError) as info:
            run_sweep(small_config(users=-1, trials=2), "m", [8, 16])
        assert info.value.field == "users"
        assert ran == []

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
            users=1, groups=8, edge_flip=0.5, strategy="uid_scan", trials=3,
        ))
        row = dict(zip(CSV_COLUMNS, summary.csv_row()))
        assert row["upper_bound_stated"] == row["upper_bound_certified"] == "inf"
        blob = summary.to_json()
        assert list(blob)[: len(CSV_COLUMNS)] == CSV_COLUMNS
        assert blob["upper_bound_stated"] is None and blob["upper_bound_certified"] is None

    @pytest.mark.parametrize(
        "path", [3, 2.5, True, b"out.csv", ["out.csv"]], ids=["int", "float", "bool", "bytes", "list"]
    )
    def test_a_path_that_is_not_a_path_is_refused_untouched(self, path, monkeypatch):
        # An int is a file descriptor to os.path, so no file system call may see it.
        def refuse(*args, **kwargs):
            raise AssertionError("the file system was touched")

        monkeypatch.setattr(harness.os.path, "lexists", refuse)
        summary = run_experiment(small_config(trials=2))
        with pytest.raises(ConfigError) as info:
            emit_results([summary], "csv", path)
        assert info.value.field == "out"

    def test_unknown_format_rejected(self, tmp_path):
        summary = run_experiment(small_config(trials=2))
        with pytest.raises(ValueError):
            emit_results([summary], "tsv", tmp_path / "x")


def test_config_replace_keeps_validation():
    base = small_config()
    bad = dataclasses.replace(base, p0=0.0)
    with pytest.raises(ConfigError):
        bad.validate()
