import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deanonlab.attacker import expected_response_column
from deanonlab.graph import generate_cprb
from deanonlab.oracle import VictimInstance, _BlockReader, _density_table, _look_up
from deanonlab.stochastics import EdgeJointDistribution, QueryChannel

NOISELESS = QueryChannel.identity()


def make_pair(n=20, m=8, p0=0.5, flip=0.1, seed=17):
    return generate_cprb(n, m, EdgeJointDistribution.from_marginal_flip(p0, flip), seed)


def block_answers(inst, first_group, count, first_ordinal, width=None):
    """Answers to ``count`` consecutive group queries, read by the attack's block reader.

    The first query asks ``first_group`` with ``first_ordinal``; the reader
    runs on the pair's and the instance's streams positioned there, in
    blocks of ``width`` groups (by default one block).
    """
    pair, width = inst.pair, width or count
    graph_gen = pair._stream.seek((first_group - 1) * ((pair.m + 1) // 2))
    noise_gen = inst._noise.seek(first_ordinal - 1)
    reader = _BlockReader(count, pair.m, width, pair._cuts, inst._p_one, np.zeros(4))
    return np.concatenate([ys for _, ys, _ in reader.blocks(graph_gen, noise_gen, inst.victim)])


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

    # At the narrow widths the ranges cross block edges; by default a range
    # is one block.
    @pytest.mark.parametrize("width", [1, 3, 8, pytest.param(None, id="default")])
    def test_equals_single_reads_in_either_order(self, width):
        pair = make_pair(n=100, m=8, seed=3)
        channel = QueryChannel.bsc(0.3)
        for first_group, count, first_ordinal in self.RANGES:
            asks = [(first_group + k, first_ordinal + k) for k in range(count)]
            block_first = VictimInstance(pair, 6, channel, 55)
            block = block_answers(block_first, first_group, count, first_ordinal).tolist()
            narrow = VictimInstance(pair, 6, channel, 55)
            assert block_answers(narrow, first_group, count, first_ordinal, width).tolist() == block
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

    def test_index_is_the_scanned_bit_plus_twice_the_answer(self):
        # The entry s + 2y of the scan's density table, i(s; y), and that
        # entry's density.
        pair = make_pair(n=70, m=9, seed=12)
        inst = VictimInstance(pair, 4, QueryChannel.bsc(0.3), 8)
        density = np.array([0.5, -1.0, 2.0, -np.inf])
        reader = _BlockReader(70, 9, 32, pair._cuts, inst._p_one, density)
        # The reader draws from the pair's and the instance's generators, so
        # every block is read before the references position them; each
        # block's densities are kept before the next block reuses their buffer.
        blocks = [
            (index, ys, sums.copy())
            for index, ys, sums in reader.blocks(pair._stream.seek(0), inst._noise.seek(0), 4)
        ]
        scanned = pair.block_bits("scanned", 1, 70).T
        for k, (rows, (index, ys, sums)) in enumerate(zip((32, 32, 6), blocks)):
            assert index.shape == (rows, 9) and index.dtype == np.uint8
            assert np.array_equal(index, scanned[32 * k : 32 * k + rows] + 2 * ys[:, None])
            assert np.array_equal(sums, density[index])
            assert ys.tolist() == [
                inst.noisy_gm_response(g, g) for g in range(32 * k + 1, 32 * k + rows + 1)
            ]
        assert len(blocks) == 3


# A density: finite, or -inf where a candidate's bit makes the answer impossible.
DENSITIES = st.one_of(st.just(-np.inf), st.floats(-64.0, 64.0))


class TestDensityLookup:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        half=st.integers(1, 40),
        trials=st.one_of(st.none(), st.integers(1, 8)),
        rows=st.integers(1, 40),
        values=st.lists(DENSITIES, min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pair_gather_equals_the_plain_take_bit_for_bit(
        self, data, half, trials, rows, values, seed
    ):
        # One block or a (T, w, m) stack, and the rows after a crossing that
        # the scan looks up again.
        m = 2 * half
        density = np.array(values).reshape(2, 2)
        shape = (rows, m) if trials is None else (trials, rows, m)
        index = np.random.default_rng(seed).integers(0, 4, shape, dtype=np.uint8)
        sums = np.full(shape, np.nan)
        skip = data.draw(st.integers(0, rows - 1))
        if trials is None:
            rest = index[skip:], sums[skip:]
        else:
            t = data.draw(st.integers(0, trials - 1))
            rest = index[t, skip:], sums[t, skip:]
        table, plain = _density_table(density, m), _density_table(density, m + 1)
        for grid, out in ((index, sums), rest):
            _look_up(table, grid, out)
            assert np.array_equal(out.view(np.uint64), plain.take(grid).view(np.uint64))

    @pytest.mark.parametrize("m", [1, 9, 255])
    def test_odd_m_keeps_the_four_entry_table(self, m):
        density = np.array([[0.5, -np.inf], [-1.0, 2.0]])
        table = _density_table(density, m)
        assert table.dtype == np.float64 and not table.flags.writeable
        # i(s; y) at entry s + 2y.
        assert table.tolist() == [0.5, -1.0, -np.inf, 2.0]


class TestUidResponse:
    def test_only_the_victim_answers_yes(self):
        pair = make_pair(m=6)
        inst = VictimInstance(pair, 4, NOISELESS, 0)
        responses = [inst.uid_response(j) for j in range(1, 7)]
        assert responses == [0, 0, 0, 1, 0, 0]

    def test_never_consumes_noise(self):
        pair = make_pair(m=6)
        inst = VictimInstance(pair, 4, QueryChannel.bsc(0.4), 3)
        before = inst._noise.gen.bit_generator.state
        for j in range(1, 7):
            inst.uid_response(j)
        # No answer read the noise stream: the private generator's state is unchanged.
        assert inst._noise.gen.bit_generator.state == before

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


def test_any_group_and_ordinal_read_their_own_bit_and_uniform():
    # Query ordinal t takes the double of raw output t - 1 of the noise
    # stream, and group g the victim's true bit in column g: asked in any
    # order, each answer is that uniform against the channel's P(y = 1 | z).
    pair = make_pair(n=50, m=7, seed=21)
    channel = QueryChannel.bsc(0.35)
    inst = VictimInstance(pair, 5, channel, 909)
    true = pair.row_bits("true", 5)
    uniforms = np.random.default_rng(909).random(400)
    rng = np.random.default_rng(1)
    groups, ordinals = rng.integers(1, 51, 300).tolist(), rng.integers(1, 401, 300).tolist()
    for group, ordinal in zip(groups, ordinals):
        expected = int(uniforms[ordinal - 1] < channel.p_one_by_bit[true[group - 1]])
        assert inst.noisy_gm_response(group, ordinal) == expected


def test_an_instance_copies_a_generator_and_never_advances_it():
    pair = make_pair()
    channel = QueryChannel.bsc(0.3)
    reference = VictimInstance(pair, 2, channel, 42)
    gen = np.random.default_rng(42)
    state = gen.bit_generator.state
    inst = VictimInstance(pair, 2, channel, gen)
    assert gen.bit_generator.state == state
    gen.random(1000)  # the caller's generator moves on
    moved = gen.bit_generator.state
    asks = [(1 + t % pair.n, t) for t in range(1, 61)]
    assert [inst.noisy_gm_response(*ask) for ask in asks] == [
        reference.noisy_gm_response(*ask) for ask in asks
    ]
    assert gen.bit_generator.state == moved


def test_a_noise_generator_over_another_bit_generator_is_refused():
    with pytest.raises(TypeError, match=r"^noise_seed must be .* not one over MT19937"):
        VictimInstance(make_pair(), 1, NOISELESS, np.random.Generator(np.random.MT19937(1)))
