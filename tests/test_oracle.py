import numpy as np
import pytest

from deanonlab import graph
from deanonlab.attacker import expected_response_column
from deanonlab.graph import generate_cprb
from deanonlab.oracle import VictimInstance
from deanonlab.stochastics import EdgeJointDistribution, QueryChannel

NOISELESS = QueryChannel.identity()


def make_pair(n=20, m=8, p0=0.5, flip=0.1, seed=17):
    return generate_cprb(n, m, EdgeJointDistribution.from_marginal_flip(p0, flip), seed)


def block_answers(inst, first_group, count, first_ordinal):
    """Answers to ``count`` consecutive group queries, read as the attack's block scan reads them."""
    codes = inst.pair.block_codes(first_group, first_group + count - 1)
    return inst._answers(codes, first_ordinal)


class TestTrueResponse:
    # Through the identity channel the answer is the victim's true-graph bit.
    def test_all_ones_graph(self):
        pair = generate_cprb(6, 4, EdgeJointDistribution.from_marginal_flip(1.0, 0.0), 1)
        inst = VictimInstance(pair, 2, NOISELESS, 0)
        assert all(inst.noisy_gm_response(g, g) == 1 for g in range(1, 7))

    def test_all_zeros_graph(self):
        pair = generate_cprb(6, 4, EdgeJointDistribution.from_marginal_flip(0.0, 0.0), 1)
        inst = VictimInstance(pair, 2, NOISELESS, 0)
        assert all(inst.noisy_gm_response(g, g) == 0 for g in range(1, 7))

    def test_matches_matrix_lookup(self):
        pair = make_pair()
        inst = VictimInstance(pair, 5, NOISELESS, 0)
        true_bits = pair.block_bits("true", 1, pair.n)
        for g in range(1, pair.n + 1):
            assert inst.noisy_gm_response(g, g) == true_bits[4, g - 1]

    def test_group_range_checked(self):
        inst = VictimInstance(make_pair(n=10), 1, NOISELESS, 0)
        with pytest.raises(IndexError):
            inst.noisy_gm_response(11, 1)
        with pytest.raises(IndexError):
            inst.noisy_gm_response(0, 1)


class TestNoisyResponse:
    def test_identity_channel_is_exact(self):
        pair = make_pair()
        inst = VictimInstance(pair, 3, NOISELESS, 99)
        for ordinal, g in enumerate(range(1, pair.n + 1), start=1):
            assert inst.noisy_gm_response(g, ordinal) == pair.bit("true", 3, g)

    def test_completely_noisy_channel_frequency(self):
        # Both rows Bernoulli(q): the response ignores the true bit entirely.
        q = 0.3
        channel = QueryChannel(np.array([[1 - q, q], [1 - q, q]]))
        pair = make_pair(n=4)
        inst = VictimInstance(pair, 1, channel, 123)
        draws = np.array([inst.noisy_gm_response(1, t) for t in range(1, 100_001)])
        assert abs(draws.mean() - q) < 0.01

    def test_flip_rate_with_fixed_true_one(self):
        pair = generate_cprb(3, 2, EdgeJointDistribution.from_marginal_flip(1.0, 0.0), 5)
        inst = VictimInstance(pair, 1, QueryChannel.bsc(0.2), 321)
        draws = np.array([inst.noisy_gm_response(2, t) for t in range(1, 100_001)])
        assert abs((draws == 0).mean() - 0.2) < 0.01

    def test_memoryless_adjacent_correlation(self):
        pair = generate_cprb(3, 2, EdgeJointDistribution.from_marginal_flip(1.0, 0.0), 5)
        inst = VictimInstance(pair, 1, QueryChannel.bsc(0.4), 777)
        draws = np.array([inst.noisy_gm_response(1, t) for t in range(1, 100_001)], dtype=float)
        corr = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(corr) < 0.02

    def test_replay_same_ordinal_reproduces_response(self):
        pair = make_pair()
        inst = VictimInstance(pair, 2, QueryChannel.bsc(0.3), 42)
        first = [inst.noisy_gm_response(1, t) for t in (1, 2, 3, 4, 5)]
        again = [inst.noisy_gm_response(1, t) for t in (5, 3, 1, 2, 4)]
        assert again == [first[4], first[2], first[0], first[1], first[3]]

    def test_fresh_instance_same_seed_replays_transcript(self):
        pair = make_pair()
        a = VictimInstance(pair, 2, QueryChannel.bsc(0.3), 42)
        b = VictimInstance(pair, 2, QueryChannel.bsc(0.3), 42)
        seq_a = [a.noisy_gm_response(g, t) for t, g in enumerate(range(1, 11), start=1)]
        seq_b = [b.noisy_gm_response(g, t) for t, g in enumerate(range(1, 11), start=1)]
        assert seq_a == seq_b

    def test_ordinal_must_be_positive(self):
        inst = VictimInstance(make_pair(), 1, NOISELESS, 0)
        with pytest.raises(ValueError):
            inst.noisy_gm_response(1, 0)


class TestBlockResponses:
    RANGES = [(1, 32, 1), (5, 40, 9), (90, 11, 300), (100, 1, 2)]

    # Noise is drawn in blocks of the pair's width, so at the narrow widths
    # the ranges cross noise-block edges; the default width is 256 at m=8.
    @pytest.mark.parametrize("width", [1, 3, 8, pytest.param(None, id="default")])
    def test_equals_single_reads_in_either_order(self, monkeypatch, width):
        default_pair = make_pair(n=100, m=8, seed=3)
        if width is not None:
            monkeypatch.setattr(graph, "_block_width", lambda m: width)
        pair = make_pair(n=100, m=8, seed=3)
        assert pair.block_width == (width or 256)
        channel = QueryChannel.bsc(0.3)
        for first_group, count, first_ordinal in self.RANGES:
            asks = [(first_group + k, first_ordinal + k) for k in range(count)]
            block_first = VictimInstance(pair, 6, channel, 55)
            assert block_first._noise.width == pair.block_width
            block = block_answers(block_first, first_group, count, first_ordinal).tolist()
            default = VictimInstance(default_pair, 6, channel, 55)
            assert block_answers(default, first_group, count, first_ordinal).tolist() == block
            assert [block_first.noisy_gm_response(g, t) for g, t in asks] == block
            single_first = VictimInstance(pair, 6, channel, 55)
            singles = [single_first.noisy_gm_response(g, t) for g, t in asks]
            assert singles == block
            again = block_answers(single_first, first_group, count, first_ordinal)
            assert again.tolist() == block

    def test_later_single_reads_are_unchanged(self):
        pair = make_pair(n=100, m=8, seed=3)
        channel = QueryChannel.bsc(0.3)
        asks = [(1 + t % 100, t) for t in range(1, 701)]
        fresh = VictimInstance(pair, 2, channel, 77)
        expected = [fresh.noisy_gm_response(g, t) for g, t in asks]
        inst = VictimInstance(pair, 2, channel, 77)
        for first_group, count, first_ordinal in reversed(self.RANGES):
            block_answers(inst, first_group, count, first_ordinal)
        assert [inst.noisy_gm_response(g, t) for g, t in asks] == expected

    def test_identity_channel_reads_the_true_row(self):
        pair = make_pair(n=45)
        inst = VictimInstance(pair, 3, NOISELESS, 5)
        true_bits = pair.block_bits("true", 1, pair.n)
        assert np.array_equal(block_answers(inst, 7, 39, 1), true_bits[2, 6:45])

    def test_range_checked(self):
        inst = VictimInstance(make_pair(n=10), 1, NOISELESS, 0)
        with pytest.raises(IndexError):
            block_answers(inst, 9, 3, 1)
        with pytest.raises(IndexError):
            block_answers(inst, 1, 0, 1)


class TestUidResponse:
    def test_only_the_victim_answers_yes(self):
        pair = make_pair(m=6)
        inst = VictimInstance(pair, 4, NOISELESS, 0)
        responses = [inst.uid_response(j) for j in range(1, 7)]
        assert responses == [0, 0, 0, 1, 0, 0]

    def test_never_consumes_noise(self):
        pair = make_pair(m=6)
        inst = VictimInstance(pair, 4, QueryChannel.bsc(0.4), 3)
        for j in range(1, 7):
            inst.uid_response(j)
        assert inst._noise.blocks == []

    def test_candidate_range_checked(self):
        inst = VictimInstance(make_pair(m=6), 4, NOISELESS, 0)
        with pytest.raises(ValueError):
            inst.uid_response(7)


class TestExpectedResponseColumn:
    def test_all_ones(self):
        pair = generate_cprb(5, 7, EdgeJointDistribution.from_marginal_flip(1.0, 0.0), 2)
        assert np.array_equal(expected_response_column(pair, 3), np.ones(7, dtype=np.uint8))

    def test_indicator_of_members(self):
        pair = make_pair(n=12, m=9, seed=6)
        for group in (1, 7, 12):
            column = expected_response_column(pair, group)
            members = {j for j in range(1, pair.m + 1) if pair.row_bits("scanned", j)[group - 1]}
            assert set((np.flatnonzero(column) + 1).tolist()) == members

    def test_matches_column_scan(self):
        pair = make_pair(n=12, m=9, seed=6)
        sig1 = pair.sig1
        for group in (1, 5, 12):
            assert np.array_equal(expected_response_column(pair, group), sig1[:, group - 1])


def test_victim_index_validated():
    with pytest.raises(ValueError):
        VictimInstance(make_pair(m=4), 5, NOISELESS, 0)
