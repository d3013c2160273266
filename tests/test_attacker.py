import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deanonlab import attacker, graph, oracle
from deanonlab.attacker import (
    ITSConfig,
    auto_epsilon_steps,
    gm_update,
    init_state,
    run_its,
    select_candidate,
    threshold_check,
)
from deanonlab.graph import generate_cprb
from deanonlab.oracle import VictimInstance
from deanonlab.stochastics import (
    EdgeJointDistribution,
    InfoMeasures,
    QueryChannel,
    VictimPrior,
    build_joint_uyz,
    make_prior,
)

NOISELESS_MODEL = (EdgeJointDistribution.from_marginal_flip(0.5, 0.0), QueryChannel.identity())
NOISY_MODEL = (EdgeJointDistribution.from_marginal_flip(0.5, 0.1), QueryChannel.bsc(0.2))
# About 0.07 bits per query: threshold steps run for dozens of groups.
LOW_INFO_MODEL = (EdgeJointDistribution.from_marginal_flip(0.5, 0.2), QueryChannel.bsc(0.25))


def measures_for(edge, gm):
    return InfoMeasures.from_joint(build_joint_uyz(edge, gm))


def scalar_density_table(edge, gm):
    """Density table rebuilt with plain loops, independent of InfoMeasures."""
    p_z = [1.0 - edge.p0, edge.p0]
    cond = edge.table / edge.table.sum(axis=1)[:, None]
    p_uy = [[0.0, 0.0], [0.0, 0.0]]
    for u in range(2):
        for y in range(2):
            for z in range(2):
                p_uy[u][y] += p_z[z] * cond[z, u] * gm.table[z, y]
    p_u = [sum(p_uy[u]) for u in range(2)]
    p_y = [p_uy[0][y] + p_uy[1][y] for y in range(2)]
    table = [[0.0, 0.0], [0.0, 0.0]]
    for u in range(2):
        for y in range(2):
            if p_uy[u][y] == 0.0:
                table[u][y] = float("-inf")
            else:
                table[u][y] = math.log2(p_uy[u][y] / (p_u[u] * p_y[y]))
    return table


def replay_its_by_hand(pair, victim, edge, gm, noise_seed, prior, epsilon, steps_l):
    """Straight-line scalar re-implementation of the attack, used as an oracle.

    Shares only the oracle primitives (whose replay determinism is covered in
    the oracle tests) and the graph matrices with the real implementation.
    """
    inst = VictimInstance(pair, victim, gm, noise_seed)
    density = scalar_density_table(edge, gm)
    sig1 = pair.sig1
    m, n = pair.m, pair.n
    thr = math.log2(1.0 / epsilon)
    surprisal = [math.log2(1.0 / p) for p in prior.probs.tolist()]
    eliminated = set()
    queries = []
    cursor = 1
    ordinal = 0
    info = {}

    def live_scores():
        return {j: info[j] - surprisal[j - 1] for j in range(1, m + 1) if j not in eliminated}

    for _ in range(1, steps_l):
        info = {j: 0.0 for j in range(1, m + 1)}
        stopped = any(v >= thr for v in live_scores().values())
        while not stopped and cursor <= n:
            group = cursor
            ordinal += 1
            y = inst.noisy_gm_response(group, ordinal)
            queries.append(("GM", group, y))
            for j in range(1, m + 1):
                info[j] = info[j] + density[sig1[j - 1, group - 1]][y]
            cursor += 1
            stopped = any(v >= thr for v in live_scores().values())
        if not stopped:
            break
        best, best_score = None, None
        for j, score in sorted(live_scores().items()):
            if best_score is None or score > best_score:
                best, best_score = j, score
        response = inst.uid_response(best)
        queries.append(("UID", best, response))
        if response == 1:
            return queries
        eliminated.add(best)
    scores = live_scores() if info else {
        j: -surprisal[j - 1] for j in range(1, m + 1) if j not in eliminated
    }
    order = sorted(scores, key=lambda j: (-scores[j], j))
    for j in order:
        response = inst.uid_response(j)
        queries.append(("UID", j, response))
        if response == 1:
            return queries
    raise AssertionError("replay failed to find the victim")


def run_at_width(pair, inst, prior, measures, config, block_width=None, order_seed=None):
    """``run_its``, its scan reading blocks of ``block_width`` groups; None keeps m's default."""
    with pytest.MonkeyPatch.context() as patch:
        if block_width is not None:
            patch.setattr(attacker, "_block_width", lambda m: block_width)
        return run_its(pair, inst, prior, measures, config, order_seed)


def attack(model, n, prior, victim, seed, epsilon, steps_l, block_width=None, noise_seed=None):
    """``run_its`` on the graph pair of ``seed``, and the pair.

    The noise stream is that of ``noise_seed``, by default ``seed``;
    ``block_width`` sets the scan's blocks, as in :func:`run_at_width`.
    """
    edge, gm = model
    pair = generate_cprb(n, prior.m, edge, seed=seed)
    inst = VictimInstance(pair, victim, gm, seed if noise_seed is None else noise_seed)
    config = ITSConfig(epsilon, steps_l)
    return run_at_width(pair, inst, prior, measures_for(edge, gm), config, block_width), pair


def attack_and_replay(
    model, n, prior, victim, seed, epsilon, steps_l, block_width=None, noise_seed=None
):
    """``run_its`` and its hand replay on one seeded graph pair and noise stream, as in :func:`attack`."""
    noise_seed = seed if noise_seed is None else noise_seed
    transcript, pair = attack(
        model, n, prior, victim, seed, epsilon, steps_l, block_width, noise_seed
    )
    edge, gm = model
    expected = replay_its_by_hand(
        pair, victim, edge, gm, noise_seed, prior, epsilon=epsilon, steps_l=steps_l
    )
    return transcript, expected


def count_drawn_groups(monkeypatch) -> list:
    """Patch the attack's block draw to record the group columns of each call, in order.

    The block reader draws through ``graph._uniforms`` under the name it
    imports into ``oracle``.
    """
    drawn, uniforms = [], oracle._uniforms

    def counting_uniforms(gen, rows, m):
        drawn.append(rows)
        return uniforms(gen, rows, m)

    monkeypatch.setattr(oracle, "_uniforms", counting_uniforms)
    return drawn


def first_seed(start, holds, tries=1000):
    """The first seed from ``start`` up for which ``holds(seed)`` is true.

    A test that needs its attack to take a rare path searches for a seed
    from a fixed start instead of naming one, so it keeps that path on any
    graph stream.
    """
    for seed in range(start, start + tries):
        if holds(seed):
            return seed
    raise AssertionError(f"no seed in [{start}, {start + tries}) takes the path")


def runs_out_after_one_step(transcript, n):
    """One step crossed before group n, and the next one asked every group left."""
    taus = transcript.tau_star_per_step
    return len(taus) == 1 and taus[0] < n and len(transcript.gm_answers) == n


class TestInitState:
    def test_uniform_surprisal(self):
        state = init_state(make_prior("uniform", 8), ITSConfig(0.5, 2))
        assert np.allclose(state.prior_surprisal, 3.0, atol=1e-12)
        assert not state.info.any()
        assert not state.eliminated.any()

    def test_concentrated_prior(self):
        prior = VictimPrior(np.array([0.97, 0.01, 0.01, 0.01]))
        state = init_state(prior, ITSConfig(0.5, 2))
        assert state.prior_surprisal[0] == pytest.approx(math.log2(1 / 0.97), abs=1e-12)

    def test_zipf_surprisal_matches_direct_eval(self):
        prior = make_prior("zipf:1", 4)
        state = init_state(prior, ITSConfig(0.5, 2))
        expected = [-math.log2(p) for p in prior.probs.tolist()]
        assert np.allclose(state.prior_surprisal, expected, atol=1e-12)


class TestGmUpdate:
    def test_independent_model_adds_nothing(self):
        edge = EdgeJointDistribution(np.outer([0.5, 0.5], [0.6, 0.4]))
        measures = measures_for(edge, QueryChannel.bsc(0.1))
        state = init_state(make_prior("uniform", 3), ITSConfig(0.5, 2))
        gm_update(state, np.array([1, 0, 1]), 1, measures)
        assert np.allclose(state.info, 0.0, atol=1e-12)

    def test_noiseless_gain_and_step_elimination(self):
        measures = measures_for(*NOISELESS_MODEL)
        state = init_state(make_prior("uniform", 3), ITSConfig(0.5, 2))
        gm_update(state, np.array([1, 0, 1]), 1, measures)
        assert state.info[0] == pytest.approx(1.0, abs=1e-12)
        assert state.info[1] == -np.inf
        assert state.info[2] == pytest.approx(1.0, abs=1e-12)

    def test_noisy_increments_come_from_density_table(self):
        edge, gm = NOISY_MODEL
        measures = measures_for(edge, gm)
        oracle = scalar_density_table(edge, gm)
        state = init_state(make_prior("uniform", 3), ITSConfig(0.5, 2))
        gm_update(state, np.array([1, 0, 1]), 1, measures)
        assert state.info[0] == pytest.approx(oracle[1][1], abs=1e-12)
        assert state.info[1] == pytest.approx(oracle[0][1], abs=1e-12)
        assert state.info[2] == pytest.approx(oracle[1][1], abs=1e-12)


class TestThresholdCheck:
    def test_below_threshold_no_stop(self):
        state = init_state(make_prior("uniform", 8), ITSConfig(0.5, 2))
        stop, crossers = threshold_check(state, 0.5)
        assert not stop and crossers.size == 0

    def test_boundary_is_inclusive(self):
        state = init_state(make_prior("uniform", 4), ITSConfig(0.5, 2))
        state.info[2] = state.prior_surprisal[2] + 1.0  # score exactly log2(1/0.5)
        stop, crossers = threshold_check(state, 0.5)
        assert stop and crossers.tolist() == [3]

    def test_eliminated_candidates_cannot_stop(self):
        state = init_state(make_prior("uniform", 4), ITSConfig(0.5, 2))
        state.info[2] = 50.0
        state.eliminated[2] = True
        stop, _ = threshold_check(state, 0.5)
        assert not stop


class TestSelectCandidate:
    def test_single_live_candidate(self):
        state = init_state(make_prior("uniform", 3), ITSConfig(0.5, 2))
        state.eliminated[[0, 2]] = True
        assert select_candidate(state) == 2

    def test_tie_breaks_to_lowest_index(self):
        state = init_state(make_prior("uniform", 6), ITSConfig(0.5, 2))
        state.info[1] = 5.0
        state.info[4] = 5.0
        assert select_candidate(state) == 2

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = init_state(make_prior("uniform", 12), ITSConfig(0.5, 2))
            state.info[:] = rng.normal(size=12)
            scores = state.info - state.prior_surprisal
            best, best_score = None, -np.inf
            for j in range(12):
                if scores[j] > best_score:
                    best, best_score = j, scores[j]
            assert select_candidate(state) == best + 1


class TestRunIts:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_matches_hand_replay_noiseless(self, seed):
        edge, gm = NOISELESS_MODEL
        pair = generate_cprb(64, 4, edge, seed=seed)
        prior = make_prior("uniform", 4)
        victim = 1 + seed % 4
        inst = VictimInstance(pair, victim, gm, noise_seed=1000 + seed)
        transcript = run_its(pair, inst, prior, measures_for(edge, gm), ITSConfig(0.5, 3))
        expected = replay_its_by_hand(
            pair, victim, edge, gm, 1000 + seed, prior, epsilon=0.5, steps_l=3
        )
        assert transcript.queries == expected
        assert transcript.success and transcript.identified == victim

    # From 10 and from 28, the first seed whose attack fails a verification,
    # so the replay also covers candidate elimination, score resets and the
    # exhaustive phase; the other seeds as they come.
    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14, 28, 39])
    def test_matches_hand_replay_noisy_zipf(self, seed):
        prior = make_prior("zipf:1.0", 6)

        def args(seed):
            return NOISY_MODEL, 256, prior, 1 + seed % 6, seed, 0.2, 4

        def fails_a_verification(transcript):
            return 0 in transcript.step_uid_responses()

        fails = seed in (10, 28)
        if fails:
            seed = first_seed(seed, lambda s: fails_a_verification(attack(*args(s))[0]))
        transcript, expected = attack_and_replay(*args(seed))
        assert transcript.queries == expected
        assert not fails or fails_a_verification(transcript)

    # With 32-column blocks (m=6 alone would get 341): from 28, the first
    # seed whose second step starts inside a block; from 143, the first with
    # three steps, the second and third starting inside blocks; the other
    # seeds as they come. Every case has steps whose groups run over columns
    # 32 and 64.
    @pytest.mark.parametrize("seed", [17, 28, 73, 135, 143, 147])
    def test_matches_hand_replay_across_block_edges(self, seed):
        prior = make_prior("zipf:1.0", 6)

        def args(seed):
            return LOW_INFO_MODEL, 512, prior, 1 + seed % 6, seed, 0.3, 4, 32

        def step_starts(transcript):
            """The first group of each completed step."""
            return np.cumsum([1] + transcript.tau_star_per_step)[:-1].tolist()

        def mid_block(starts, steps):
            """At least ``steps`` steps, each after the first starting inside a block."""
            return len(starts) >= steps and all((start - 1) % 32 for start in starts[1:steps])

        steps = {28: 2, 143: 3}.get(seed)
        if steps:
            seed = first_seed(seed, lambda s: mid_block(step_starts(attack(*args(s))[0]), steps))
        transcript, expected = attack_and_replay(*args(seed))
        assert transcript.queries == expected
        assert not steps or mid_block(step_starts(transcript), steps)
        starts = np.cumsum([1] + transcript.tau_star_per_step)
        spans = list(zip(starts[:-1], starts[1:] - 1))
        for column in (32, 64):
            assert any(first <= column < last for first, last in spans)

    @pytest.mark.parametrize("seed", [17, 20, 29])
    def test_matches_hand_replay_when_groups_run_out_mid_block(self, seed):
        # n = 45 ends inside the second 32-column block. On the graph and
        # victim of ``seed``, the first noise seed from ``seed`` up under
        # which one step crosses and the next one runs out of groups, so the
        # exhaustive phase follows.
        prior = make_prior("zipf:1.0", 6)
        args = (LOW_INFO_MODEL, 45, prior, 1 + seed % 6, seed, 0.3, 4, 32)
        noise_seed = first_seed(
            seed, lambda noise: runs_out_after_one_step(attack(*args, noise)[0], 45)
        )
        transcript, expected = attack_and_replay(*args, noise_seed)
        assert transcript.queries == expected
        assert [t for kind, t, _ in transcript.queries if kind == "GM"] == list(range(1, 46))
        assert len(transcript.tau_star_per_step) == 1
        assert transcript.tau_star_per_step[0] < 45

    @pytest.mark.parametrize("seed", [6, 67, 78, 115])
    def test_matches_hand_replay_noiseless_after_elimination(self, seed):
        # Noiseless densities are -inf for every mismatch. The first seed
        # from ``seed`` up whose first verification fails, so the next step
        # scans with a struck candidate.
        prior = make_prior("zipf:1.0", 8)

        def args(seed):
            return NOISELESS_MODEL, 64, prior, 1 + seed % 8, seed, 0.5, 4

        seed = first_seed(seed, lambda s: attack(*args(s))[0].step_uid_responses()[:1] == [0])
        transcript, expected = attack_and_replay(*args(seed))
        assert transcript.queries == expected
        assert transcript.step_uid_responses()[0] == 0

    def test_a_struck_candidate_that_keeps_matching_does_not_cross(self):
        # The first seed whose first verification strikes a candidate with a
        # larger prior than the victim's, which then matches the next step's
        # answers long enough to cross before the victim, were it live.
        prior = make_prior("zipf:1.0", 8)
        threshold = math.log2(1.0 / 0.5)

        def args(seed):
            return NOISELESS_MODEL, 64, prior, 1 + seed % 8, seed, 0.5, 4

        def would_cross_first(seed):
            transcript, pair = attack(*args(seed))
            (struck, response), taus = transcript.uid_queries[0], transcript.tau_star_per_step
            if response == 1 or len(taus) < 2 or struck > 1 + seed % 8:
                return False
            bits, answers = pair.row_bits("scanned", struck), transcript.gm_answers
            # Each match adds 1 bit; the victim crosses at the step's last group.
            for matched, k in enumerate(range(taus[0], taus[0] + taus[1] - 1), 1):
                if bits[k] != answers[k]:
                    return False
                if matched - prior.surprisal[struck - 1] >= threshold:
                    return True
            return False

        transcript, expected = attack_and_replay(*args(first_seed(0, would_cross_first)))
        assert transcript.queries == expected
        struck = transcript.uid_queries[0][0]
        assert all(target != struck for target, _ in transcript.uid_queries[1:])

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 32),
        n=st.integers(1, 200),
        p0=st.floats(0.05, 0.95),
        edge_flip=st.floats(0.0, 1.0),
        gm_flip=st.floats(0.0, 1.0),
        alpha=st.floats(0.3, 5.0),
        epsilon=st.floats(0.05, 0.6, exclude_min=True, exclude_max=True),
        steps_l=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_hand_replay_on_random_models(
        self, data, m, n, p0, edge_flip, gm_flip, alpha, epsilon, steps_l, seed
    ):
        model = (EdgeJointDistribution.from_marginal_flip(p0, edge_flip), QueryChannel.bsc(gm_flip))
        probs = np.random.default_rng(seed).dirichlet(np.full(m, alpha))
        prior = make_prior(np.maximum(probs, 1e-12).tolist())
        victim = data.draw(st.integers(1, m), label="victim")
        transcript, expected = attack_and_replay(model, n, prior, victim, seed, epsilon, steps_l)
        assert transcript.queries == expected
        assert transcript.success and transcript.identified == victim
        assert transcript.q_count <= n + m

    def test_single_user_crosses_after_threshold_bits(self):
        # One user with unit prior mass: the zero-query clause cannot fire for
        # epsilon < 1, so the run needs ceil(log2(1/eps)) one-bit queries plus
        # the identity check.
        edge, gm = NOISELESS_MODEL
        prior = VictimPrior(np.array([1.0]))
        for epsilon, expected_q in [(0.5, 2), (0.25, 3), (0.1, 5)]:
            pair = generate_cprb(32, 1, edge, seed=3)
            inst = VictimInstance(pair, 1, gm, noise_seed=4)
            transcript = run_its(pair, inst, prior, measures_for(edge, gm), ITSConfig(epsilon, 3))
            assert transcript.q_count == expected_q
            assert transcript.queries[-1] == ("UID", 1, 1)

    def test_uninformative_model_falls_through_to_uid_phase(self):
        edge = EdgeJointDistribution(np.outer([0.5, 0.5], [0.5, 0.5]))
        gm = QueryChannel.bsc(0.1)
        pair = generate_cprb(16, 8, edge, seed=9)
        inst = VictimInstance(pair, 5, gm, noise_seed=2)
        transcript = run_its(
            pair, inst, make_prior("uniform", 8), measures_for(edge, gm), ITSConfig(0.3, 1)
        )
        assert all(kind == "UID" for kind, _, _ in transcript.queries)
        assert transcript.q_count <= 8
        assert transcript.steps_used == 1

    def test_group_exhaustion_triggers_uid_phase(self):
        edge, gm = NOISY_MODEL
        pair = generate_cprb(3, 8, edge, seed=21)
        inst = VictimInstance(pair, 6, gm, noise_seed=22)
        transcript = run_its(
            pair, inst, make_prior("uniform", 8), measures_for(edge, gm), ITSConfig(1e-6, 5)
        )
        kinds = [kind for kind, _, _ in transcript.queries]
        assert kinds[:3] == ["GM", "GM", "GM"]
        assert set(kinds[3:]) == {"UID"}
        assert transcript.success and transcript.q_count <= 3 + 8

    def test_deterministic_given_seeds(self):
        edge, gm = NOISY_MODEL
        prior = make_prior("zipf:0.5", 10)
        measures = measures_for(edge, gm)
        transcripts = []
        for _ in range(2):
            pair = generate_cprb(128, 10, edge, seed=77)
            inst = VictimInstance(pair, 4, gm, noise_seed=88)
            transcripts.append(run_its(pair, inst, prior, measures, ITSConfig(0.15, 3)))
        assert transcripts[0].queries == transcripts[1].queries
        assert transcripts[0].tau_star_per_step == transcripts[1].tau_star_per_step

    def test_query_count_bookkeeping(self):
        edge, gm = NOISY_MODEL
        pair = generate_cprb(128, 10, edge, seed=5)
        inst = VictimInstance(pair, 3, gm, noise_seed=6)
        transcript = run_its(
            pair, inst, make_prior("uniform", 10), measures_for(edge, gm), ITSConfig(0.2, 3)
        )
        gm_count = sum(kind == "GM" for kind, _, _ in transcript.queries)
        assert transcript.q_count == len(transcript.queries)
        assert transcript.q_count == gm_count + transcript.uid_count()
        assert transcript.queries[-1] == ("UID", 3, 1)
        assert sum(transcript.tau_star_per_step) == gm_count

    def test_failed_verification_eliminates_candidate_for_good(self):
        # Scan seeds for a run whose first verification misses, then check the
        # rejected candidate never shows up as a later UID target.
        edge, gm = NOISY_MODEL
        prior = make_prior("uniform", 6)
        measures = measures_for(edge, gm)
        found = False
        for seed in range(200):
            pair = generate_cprb(256, 6, edge, seed=seed)
            inst = VictimInstance(pair, 1 + seed % 6, gm, noise_seed=seed * 7 + 1)
            transcript = run_its(pair, inst, prior, measures, ITSConfig(0.3, 4))
            uid_targets = [t for kind, t, _ in transcript.queries if kind == "UID"]
            if len(uid_targets) > 1:
                found = True
                assert len(set(uid_targets)) == len(uid_targets)
                assert transcript.steps_used > 1
        assert found, "no trial with a failed first verification in the seed range"

    def test_mismatched_instance_rejected(self):
        edge, gm = NOISY_MODEL
        pair_a = generate_cprb(16, 4, edge, seed=1)
        pair_b = generate_cprb(16, 4, edge, seed=2)
        inst = VictimInstance(pair_b, 1, gm, noise_seed=0)
        with pytest.raises(ValueError):
            run_its(pair_a, inst, make_prior("uniform", 4), measures_for(edge, gm), ITSConfig(0.5, 2))

    def test_prior_of_another_length_rejected(self):
        edge, gm = NOISY_MODEL
        pair = generate_cprb(16, 4, edge, seed=1)
        inst = VictimInstance(pair, 1, gm, noise_seed=0)
        with pytest.raises(ValueError, match="prior length"):
            run_its(pair, inst, make_prior("uniform", 5), measures_for(edge, gm), ITSConfig(0.5, 2))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 40),
        n=st.integers(1, 300),
        p0=st.floats(0.05, 0.95),
        edge_flip=st.floats(0.0, 1.0),
        gm_flip=st.floats(0.0, 1.0),
        alpha=st.floats(0.3, 5.0),
        epsilon=st.floats(0.05, 0.6, exclude_min=True, exclude_max=True),
        steps_l=st.integers(1, 4),
        order_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_transcript_does_not_depend_on_the_block_width(
        self, data, m, n, p0, edge_flip, gm_flip, alpha, epsilon, steps_l, order_seed, seed
    ):
        # The width decides both which columns one draw takes and where each
        # scan of run_its stops; neither may show in the transcript.
        edge, gm = EdgeJointDistribution.from_marginal_flip(p0, edge_flip), QueryChannel.bsc(gm_flip)
        probs = np.random.default_rng(seed).dirichlet(np.full(m, alpha))
        prior = make_prior(np.maximum(probs, 1e-12).tolist())
        victim = data.draw(st.integers(1, m), label="victim")
        width = data.draw(st.sampled_from([1, 3, 8, 32, 128, n]), label="width")
        measures = measures_for(edge, gm)
        config = ITSConfig(epsilon, steps_l)

        def attack(block_width):
            pair = generate_cprb(n, m, edge, seed=seed)
            inst = VictimInstance(pair, victim, gm, noise_seed=seed + 1)
            return run_at_width(pair, inst, prior, measures, config, block_width, order_seed)

        default, narrowed = attack(None), attack(width)
        assert narrowed.queries == default.queries
        assert narrowed.tau_star_per_step == default.tau_star_per_step
        assert (narrowed.steps_used, narrowed.identified) == (default.steps_used, default.identified)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 40),
        n=st.integers(1, 300),
        p0=st.floats(0.05, 0.95),
        edge_flip=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        gm_flip=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        epsilon=st.floats(0.05, 0.6, exclude_min=True, exclude_max=True),
        steps_l=st.integers(1, 4),
        order_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_transcript_does_not_depend_on_the_accumulate_form(
        self, data, m, n, p0, edge_flip, gm_flip, epsilon, steps_l, order_seed, seed
    ):
        edge, gm = EdgeJointDistribution.from_marginal_flip(p0, edge_flip), QueryChannel.bsc(gm_flip)
        prior = make_prior("zipf:1.0", m)
        victim = data.draw(st.integers(1, m), label="victim")
        measures = measures_for(edge, gm)
        config = ITSConfig(epsilon, steps_l)

        # Row by row against two candidates per add (even m) or the plain
        # accumulate (odd m), through whole attacks.
        def attack(rowwise_from):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(attacker, "_ROWWISE_FROM", rowwise_from)
                pair = generate_cprb(n, m, edge, seed=seed)
                inst = VictimInstance(pair, victim, gm, noise_seed=seed + 1)
                return run_its(pair, inst, prior, measures, config, order_seed=order_seed)

        assert attack(1) == attack(2**62)

    @pytest.mark.parametrize("seed", range(12))
    def test_small_m_trial_materializes_one_block_past_its_last_query(self, seed, monkeypatch):
        # The benchmark's noisy_small model: m=16, a wide graph, about 80
        # queries. The scan draws whole blocks of 128 groups, none past the
        # block of its last query.
        edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.15)
        gm = QueryChannel.bsc(0.25)
        prior = make_prior("zipf:1.0", 16)
        pair = generate_cprb(65536, 16, edge, seed=seed)
        inst = VictimInstance(pair, 1 + seed % 16, gm, noise_seed=seed)
        drawn = count_drawn_groups(monkeypatch)
        transcript = run_its(pair, inst, prior, measures_for(edge, gm), ITSConfig(0.1, 4))
        last = max(t for kind, t, _ in transcript.queries if kind == "GM")
        assert graph._block_width(16) == 128
        assert last <= sum(drawn) <= -(-last // 128) * 128

    # The benchmark's noisy_small model at m=16, whose steps mostly end in
    # their first block, and at wide m, whose blocks of 27 and 16 groups
    # make most steps scan several blocks.
    @pytest.mark.parametrize("m, n, seed", [
        (16, 65536, 0), (16, 65536, 5), (16, 65536, 9), (600, 3000, 1), (1024, 3000, 2),
    ])
    def test_each_scan_reads_the_block_codes_and_its_noise_once(self, m, n, seed, monkeypatch):
        # Each block's graph columns and its noise are drawn once, when the
        # scan first reaches the block; a later step that starts inside it
        # scans the block in hand.
        edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.15)
        gm = QueryChannel.bsc(0.25)
        prior = make_prior("zipf:1.0", m)
        pair = generate_cprb(n, m, edge, seed=seed)
        inst = VictimInstance(pair, 1 + 7 * seed % m, gm, noise_seed=seed)
        scans, accumulate = [], attacker._accumulate

        def counting_accumulate(grid):  # called once per scan of a block
            scans.append(len(grid))
            accumulate(grid)

        drawn = count_drawn_groups(monkeypatch)
        monkeypatch.setattr(attacker, "_accumulate", counting_accumulate)
        transcript = run_its(pair, inst, prior, measures_for(edge, gm), ITSConfig(0.1, 4))
        # One scan per block each step touches: the steps cover groups
        # 1..len(gm_answers) in order, the last one possibly unfinished.
        width, first, spans = graph._block_width(m), 1, 0
        taus = transcript.tau_star_per_step
        asked = len(transcript.gm_answers)
        for tau in taus + ([asked - sum(taus)] if sum(taus) < asked else []):
            spans += (first + tau - 2) // width - (first - 1) // width + 1
            first += tau
        assert len(scans) == spans and max(scans) <= width
        blocks = -(-asked // width)
        assert drawn == [width] * (blocks - 1) + [min(width, n - (blocks - 1) * width)]
        # The noise stream stands just past one uniform per group drawn.
        noise = np.random.default_rng(seed)
        noise.random(sum(drawn))
        assert inst._noise.gen.bit_generator.state == noise.bit_generator.state
        if m >= 512:
            assert spans > len(taus)  # some step read more than one block

    # On the graph and victim of ``seed``, the first noise seed from ``seed``
    # up under which a verification fails and fallback identity queries
    # follow the verifications.
    @pytest.mark.parametrize("model, n, epsilon, steps_l, seed", [
        (LOW_INFO_MODEL, 45, 0.3, 4, 17), (LOW_INFO_MODEL, 45, 0.3, 4, 20),
        (LOW_INFO_MODEL, 45, 0.3, 4, 29), (NOISY_MODEL, 256, 0.2, 2, 20),
        (NOISY_MODEL, 256, 0.2, 2, 77), (NOISY_MODEL, 256, 0.2, 2, 99),
    ])
    def test_step_uid_responses_are_the_first_identity_answers(self, model, n, epsilon, steps_l, seed):
        args = (model, n, make_prior("zipf:1.0", 6), 1 + seed % 6, seed, epsilon, steps_l)

        def falls_back_after_a_failure(transcript):
            return 1 <= len(transcript.tau_star_per_step) < len(transcript.uid_queries)

        noise_seed = first_seed(
            seed, lambda noise: falls_back_after_a_failure(attack(*args, noise_seed=noise)[0])
        )
        transcript = attack(*args, noise_seed=noise_seed)[0]
        uid_responses = [r for kind, _, r in transcript.queries if kind == "UID"]
        steps = len(transcript.tau_star_per_step)
        assert 1 <= steps < len(uid_responses)  # a verification, then fallback queries
        assert transcript.step_uid_responses() == uid_responses[:steps]


class TestAccumulate:
    @settings(max_examples=60, deadline=None)
    @given(
        w=st.integers(1, 40),
        m=st.one_of(st.integers(1, 24), st.sampled_from([510, 511, 512, 513])),
        rowwise_from=st.sampled_from([1, attacker._ROWWISE_FROM, 2**62]),
        neg_inf=st.floats(0.0, 0.5),
        neg_zero=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_cumsum_bit_for_bit(self, w, m, rowwise_from, neg_inf, neg_zero, seed):
        # Every form must make the adds of np.cumsum in its order: -0.0
        # columns stay -0.0, and -inf densities stay -inf without a NaN.
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal((w, m)) * 10.0 ** rng.integers(-3, 4)
        grid[:, rng.random(m) < neg_zero] = -0.0
        grid[rng.random((w, m)) < neg_inf] = -np.inf
        expected = np.cumsum(grid, axis=0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(attacker, "_ROWWISE_FROM", rowwise_from)
            attacker._accumulate(grid)
        assert np.array_equal(grid.view(np.uint64), expected.view(np.uint64))


class TestPosteriorEquivalence:
    def test_scores_match_bayes_log_posteriors(self):
        edge = EdgeJointDistribution.from_marginal_flip(0.45, 0.1)
        gm = QueryChannel.bsc(0.15)
        measures = measures_for(edge, gm)
        joint = build_joint_uyz(edge, gm)
        p_uy = joint.p_uy()
        log_y_given_u = np.log2(p_uy / p_uy.sum(axis=1)[:, None])
        prior = make_prior("zipf:0.8", 8)
        pair = generate_cprb(32, 8, edge, seed=314)
        inst = VictimInstance(pair, 5, gm, noise_seed=159)
        state = init_state(prior, ITSConfig(0.5, 2))
        sig1 = pair.sig1
        columns, ys = [], []
        for t in range(1, 33):
            column = sig1[:, t - 1]
            y = inst.noisy_gm_response(t, t)
            gm_update(state, column, y, measures)
            columns.append(column)
            ys.append(y)
            log_post = np.log2(prior.probs) + sum(
                log_y_given_u[c, yy] for c, yy in zip(columns, ys)
            )
            scores = state.info - state.prior_surprisal
            # Score and log-posterior differ by a candidate-independent offset.
            assert np.ptp(scores - log_post) <= 1e-9
            assert np.array_equal(
                np.argsort(-scores, kind="stable"), np.argsort(-log_post, kind="stable")
            )

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 24),
        n=st.integers(1, 40),
        p0=st.floats(0.05, 0.95),
        edge_flip=st.one_of(st.just(0.0), st.floats(0.0, 0.45, allow_subnormal=False)),
        gm_flip=st.one_of(st.just(0.0), st.floats(0.0, 0.45, allow_subnormal=False)),
        alpha=st.floats(0.5, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scores_track_the_bayes_posterior_on_random_models(
        self, m, n, p0, edge_flip, gm_flip, alpha, seed
    ):
        # Noiseless flips make responses impossible for some candidates, so
        # densities and log-posteriors of -inf occur; struck candidates have
        # posterior 0. Exact ties occur too, so the leader is checked up to
        # ties rather than as an exact ordering.
        rng = np.random.default_rng(seed)
        edge = EdgeJointDistribution.from_marginal_flip(p0, edge_flip)
        gm = QueryChannel.bsc(gm_flip)
        measures = measures_for(edge, gm)
        p_uy = build_joint_uyz(edge, gm).p_uy()
        with np.errstate(divide="ignore"):
            log_y_given_u = np.log2(p_uy) - np.log2(p_uy.sum(axis=1))[:, None]
        probs = rng.dirichlet(np.full(m, alpha))
        prior = VictimPrior(probs / probs.sum())
        pair = generate_cprb(n, m, edge, seed=int(rng.integers(2**63)))
        victim = int(rng.integers(1, m + 1))
        inst = VictimInstance(pair, victim, gm, noise_seed=int(rng.integers(2**63)))
        # A failed verification never strikes the victim.
        struck = rng.random(m) < rng.random()
        struck[victim - 1] = False
        state = init_state(prior, ITSConfig(0.5, 2))
        state.eliminated[:] = struck
        log_post = np.where(struck, -np.inf, np.log2(prior.probs))
        sig1 = pair.sig1
        for t in range(1, n + 1):
            column = sig1[:, t - 1]
            y = inst.noisy_gm_response(t, t)
            gm_update(state, column, y, measures)
            log_post = log_post + log_y_given_u[column, y]
            scores = state.scores()
            live = np.isfinite(log_post)
            assert live[victim - 1]
            assert np.array_equal(np.isneginf(scores), ~live)
            assert np.ptp(scores[live] - log_post[live]) <= 1e-9
            leader = select_candidate(state)
            assert log_post[leader - 1] >= log_post[live].max() - 1e-9


class TestDrift:
    def test_true_candidate_gains_mutual_information_per_query(self):
        edge, gm = NOISY_MODEL
        measures = measures_for(edge, gm)
        pair = generate_cprb(20_000, 2, edge, seed=11)
        inst = VictimInstance(pair, 1, gm, noise_seed=13)
        u_true = pair.row_bits("scanned", 1)
        u_wrong = pair.row_bits("scanned", 2)
        ys = np.array([inst.noisy_gm_response(t, t) for t in range(1, 20_001)])
        inc_true = measures.density[u_true, ys]
        inc_wrong = measures.density[u_wrong, ys]
        se_true = inc_true.std(ddof=1) / math.sqrt(inc_true.size)
        se_wrong = inc_wrong.std(ddof=1) / math.sqrt(inc_wrong.size)
        assert abs(inc_true.mean() - measures.mutual_info) <= 3 * se_true
        assert inc_wrong.mean() <= 3 * se_wrong


class TestUidScan:
    # With no threshold step (steps_l = 1) the attack is the identity scan:
    # given an order_seed it asks users default_rng(seed).permutation(m) + 1.
    ORDER = (np.random.default_rng(404).permutation(7) + 1).tolist()

    def scan(self, victim, m=7, seed=404):
        edge, gm = NOISELESS_MODEL
        pair = generate_cprb(4, m, edge, 1)
        inst = VictimInstance(pair, victim, gm, 0)
        config = ITSConfig(0.5, 1)
        return run_its(pair, inst, make_prior("uniform", m), measures_for(edge, gm), config, seed)

    def test_victim_first(self):
        transcript = self.scan(self.ORDER[0])
        assert transcript.queries == [("UID", self.ORDER[0], 1)]
        assert transcript.steps_used == 1 and transcript.tau_star_per_step == []

    def test_victim_last(self):
        transcript = self.scan(self.ORDER[-1])
        assert transcript.q_count == 7
        assert [target for _, target, _ in transcript.queries] == self.ORDER

    def test_random_order_deterministic_given_seed(self):
        a = self.scan(5)
        b = self.scan(5)
        assert a.queries == b.queries

    def test_an_order_generator_is_copied_and_never_advanced(self):
        # Two calls with one generator ask the same order, that of its int
        # seed, and leave the caller's generator where it stood.
        rng = np.random.default_rng(404)
        before = rng.bit_generator.state
        first, second = self.scan(self.ORDER[-1], seed=rng), self.scan(self.ORDER[-1], seed=rng)
        assert rng.bit_generator.state == before
        assert first == second == self.scan(self.ORDER[-1])
        assert [target for _, target, _ in first.queries] == self.ORDER

    @pytest.mark.parametrize("m", [1, 2, 7, 100, 300])
    def test_asks_the_seeded_permutation_up_to_the_victim(self, m):
        for seed in range(20):
            victim = seed % m + 1
            order = (np.random.default_rng(seed).permutation(m) + 1).tolist()
            expected = order[: order.index(victim) + 1]
            transcript = self.scan(victim, m, seed)
            assert transcript.queries == [("UID", j, int(j == victim)) for j in expected]
            assert transcript.identified == victim and transcript.success


class TestFinalPhaseOrders:
    # Two groups never reach log2(1e6) bits, so the one step runs out of
    # groups and every user is left to the fallback.
    EXHAUST = ITSConfig(1e-6, 2)

    def base(self, seed=50):
        edge, gm = NOISY_MODEL
        pair = generate_cprb(2, 6, edge, seed=seed)
        prior = make_prior("zipf:1.0", 6)
        return edge, gm, pair, prior

    @pytest.mark.parametrize("prior_spec", ["zipf:1.0", "uniform"])
    @pytest.mark.parametrize("seed", range(4))
    def test_default_order_walks_down_the_final_scores(self, prior_spec, seed):
        # A uniform prior over 6 users and 2 groups forces ties, which go to
        # the lower index.
        edge, gm = NOISY_MODEL
        prior = make_prior(prior_spec, 6)
        measures = measures_for(edge, gm)
        for victim in range(1, 7):
            pair = generate_cprb(2, 6, edge, seed=seed)
            inst = VictimInstance(pair, victim, gm, noise_seed=seed + 10)
            transcript = run_its(pair, inst, prior, measures, self.EXHAUST)
            assert transcript.tau_star_per_step == [] and len(transcript.gm_answers) == 2
            state = init_state(prior, self.EXHAUST)
            for group, y in enumerate(transcript.gm_answers, start=1):
                gm_update(state, pair.block_bits("scanned", group, group)[:, 0], y, measures)
            scores = state.scores().tolist()
            order = sorted(range(1, 7), key=lambda j: (-scores[j - 1], j))
            targets = [t for kind, t, _ in transcript.queries if kind == "UID"]
            assert targets == order[: order.index(victim) + 1]

    def test_random_order_is_a_permutation_and_reproducible(self):
        edge, gm, pair, prior = self.base()
        runs = []
        for _ in range(2):
            pair_r = generate_cprb(2, 6, edge, seed=50)
            inst = VictimInstance(pair_r, 6, gm, noise_seed=1)
            runs.append(
                run_its(
                    pair_r, inst, prior, measures_for(edge, gm), self.EXHAUST, order_seed=7,
                )
            )
        targets = [t for kind, t, _ in runs[0].queries if kind == "UID"]
        assert sorted(targets) == sorted(set(targets))
        assert runs[0].queries == runs[1].queries
        # No step crossed, so the fallback walks the order seed's permutation
        # of all users up to the victim; the noise seed plays no part.
        order = (np.random.default_rng(7).permutation(6) + 1).tolist()
        assert targets == order[: order.index(6) + 1]


class TestConfigAndDefaults:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ITSConfig(0.0, 2)
        with pytest.raises(ValueError):
            ITSConfig(1.0, 2)
        with pytest.raises(ValueError):
            ITSConfig(0.5, 0)
        for steps_l in (2.5, True):
            with pytest.raises(ValueError, match="steps_l"):
                ITSConfig(0.25, steps_l)
        assert ITSConfig(0.5, np.int64(2)).steps_l == 2

    def test_auto_schedule_refuses_no_users(self):
        with pytest.raises(ValueError, match="m must be at least 1"):
            auto_epsilon_steps(0)

    def test_auto_small_m_clamp(self):
        assert auto_epsilon_steps(2) == (0.25, 3)
        assert auto_epsilon_steps(16) == (0.25, 3)

    def test_auto_exact_power(self):
        eps, steps = auto_epsilon_steps(2**16)
        assert eps == pytest.approx(0.25, abs=1e-15)
        assert steps == 8

    def test_auto_matches_direct_formula(self):
        m = 10**6
        lm = math.log2(m)
        llm = math.log2(lm)
        eps, steps = auto_epsilon_steps(m)
        assert eps == pytest.approx(llm / lm, abs=1e-15)
        assert steps == math.ceil(lm / (llm - math.log2(llm)))
