import numpy as np
import pytest
from scipy import stats

from deanonlab import graph
from deanonlab.graph import BigraphPair, generate_cprb
from deanonlab.stochastics import EdgeJointDistribution

ALL_ONES = EdgeJointDistribution.from_marginal_flip(1.0, 0.0)
ALL_ZEROS = EdgeJointDistribution.from_marginal_flip(0.0, 0.0)
FAIR_CORRELATED = EdgeJointDistribution.from_marginal_flip(0.5, 0.0)


def column(pair, which, group):
    """The length-m 0/1 column of one group, read as a one-group block."""
    return pair.block_bits(which, group, group)[:, 0]


def members(pair, which, group):
    """1-based users in the group, read from its column."""
    return set((np.flatnonzero(column(pair, which, group)) + 1).tolist())


def test_degenerate_all_ones():
    pair = generate_cprb(5, 3, ALL_ONES, seed=1)
    assert np.all(pair.sig0 == 1)
    assert np.all(pair.sig1 == 1)


def test_degenerate_all_zeros():
    pair = generate_cprb(5, 3, ALL_ZEROS, seed=1)
    assert not pair.sig0.any()
    assert not pair.sig1.any()


def test_rejects_empty_dimensions():
    with pytest.raises(ValueError):
        generate_cprb(0, 3, FAIR_CORRELATED, seed=1)
    with pytest.raises(ValueError):
        generate_cprb(3, 0, FAIR_CORRELATED, seed=1)


def test_fair_correlated_statistics():
    pair = generate_cprb(100, 100, FAIR_CORRELATED, seed=2024)
    sig0 = pair.sig0
    ones = int(sig0.sum())
    total = sig0.size
    # Ones count against Binomial(10^4, 0.5) at level 0.001.
    result = stats.chisquare([ones, total - ones], [total / 2, total / 2])
    assert result.pvalue > 0.001
    # Full correlation makes the two graphs agree everywhere.
    assert np.array_equal(sig0, pair.sig1)


def test_position_histogram_matches_edge_joint():
    edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.2)
    pair = generate_cprb(128, 128, edge, seed=7)
    e0 = pair.sig0.ravel()
    e1 = pair.sig1.ravel()
    counts = np.array(
        [
            ((e0 == a) & (e1 == b)).sum()
            for a in (0, 1)
            for b in (0, 1)
        ]
    )
    expected = edge.table.ravel() * e0.size
    result = stats.chisquare(counts, expected)
    assert result.pvalue > 0.001


def test_bit_for_bit_reproducible():
    a = generate_cprb(77, 13, EdgeJointDistribution.from_marginal_flip(0.4, 0.1), seed=99)
    b = generate_cprb(77, 13, EdgeJointDistribution.from_marginal_flip(0.4, 0.1), seed=99)
    assert np.array_equal(a.sig0, b.sig0)
    assert np.array_equal(a.sig1, b.sig1)


def test_access_order_does_not_change_bits():
    edge = EdgeJointDistribution.from_marginal_flip(0.3, 0.15)
    eager = generate_cprb(200, 9, edge, seed=5)
    full0, full1 = eager.sig0, eager.sig1

    lazy = generate_cprb(200, 9, edge, seed=5)
    # Touch columns out of order through the public readers first.
    assert np.array_equal(column(lazy, "scanned", 150), full1[:, 149])
    assert np.array_equal(column(lazy, "true", 3), full0[:, 2])
    assert members(lazy, "scanned", 77) == set((np.flatnonzero(full1[:, 76]) + 1).tolist())
    assert np.array_equal(lazy.sig0, full0)
    assert np.array_equal(lazy.sig1, full1)


def test_column_stream_oracle():
    # Group column g is exactly uniforms [m(g-1), mg) of default_rng(seed),
    # one per user. On [0, 1) the outcomes run (0,0), (0,1), (1,1), (1,0), so
    # the true bit is u >= P00 + P01 and the scanned bit P00 <= u < P00 +
    # P01 + P11. The law is asymmetric, so any other order of the intervals
    # changes bits.
    edge = EdgeJointDistribution.from_marginal_flip(0.3, 0.2)
    seed, n, m = 31337, 100, 37
    pair = generate_cprb(n, m, edge, seed=seed)
    u = np.random.default_rng(seed).random(m * n)
    (p00, p01), (p10, p11) = edge.table.tolist()
    cut1 = p00
    cut2 = cut1 + p01
    cut3 = cut2 + p11
    assert cut3 + p10 == 1.0
    for g in range(1, n + 1):
        draws = u[m * (g - 1) : m * g]
        e0 = draws >= cut2
        e1 = (draws >= cut1) & (draws < cut3)
        assert np.array_equal(column(pair, "true", g), e0.astype(np.uint8))
        assert np.array_equal(column(pair, "scanned", g), e1.astype(np.uint8))


@pytest.mark.parametrize("p0", [0.0, 1.0])
@pytest.mark.parametrize("flip", [0.3, 1.0])
def test_degenerate_true_graph_under_a_noisy_scan(p0, flip):
    pair = generate_cprb(200, 33, EdgeJointDistribution.from_marginal_flip(p0, flip), seed=8)
    assert np.all(pair.sig0 == p0)
    if flip == 1.0:
        assert np.all(pair.sig1 == 1 - p0)
    else:
        assert 0 < pair.sig1.sum() < pair.sig1.size


# Widths 5 and 12 are not multiples of 8: a block need not fill whole bytes.
@pytest.mark.parametrize("block", [5, 8, 12, 64])
def test_block_width_is_not_part_of_the_layout(monkeypatch, block):
    edge = EdgeJointDistribution.from_marginal_flip(0.4, 0.1)
    reference = generate_cprb(203, 11, edge, seed=17)
    full0, full1 = reference.sig0, reference.sig1
    # The position budget alone would give m=11 blocks of 186 columns.
    monkeypatch.setattr(graph, "_BLOCK", block)
    monkeypatch.setattr(graph, "_BLOCK_POSITIONS", 0)
    pair = generate_cprb(203, 11, edge, seed=17)
    assert pair.block_width == block
    column(pair, "true", 9)
    assert pair._ready == -(-9 // block) * block
    assert np.array_equal(pair.sig0, full0)
    assert np.array_equal(pair.sig1, full1)


def test_narrow_graph_is_a_prefix_of_a_wide_one():
    edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.15)
    narrow = generate_cprb(40, 9, edge, seed=4242)
    wide = generate_cprb(300, 9, edge, seed=4242)
    assert np.array_equal(wide.sig0[:, :40], narrow.sig0)
    assert np.array_equal(wide.sig1[:, :40], narrow.sig1)


def test_storage_grows_with_materialized_columns():
    # m and n are multiples of 8, so a full pair packs into exactly 2mn/8
    # bytes whichever way the bits are laid out.
    n, m = 8192, 16
    full_bytes = 2 * m * n // 8
    pair = generate_cprb(n, m, FAIR_CORRELATED, seed=6)
    column(pair, "true", 1)
    assert pair._packed.nbytes <= full_bytes // 64
    assert pair.sig0.shape == (m, n)
    assert pair._packed.nbytes == full_bytes


@pytest.fixture(scope="module")
def slice_pair():
    return generate_cprb(40, 6, EdgeJointDistribution.from_marginal_flip(0.5, 0.1), seed=8)


class TestSignatureSlices:
    @pytest.fixture
    def pair(self, slice_pair):
        return slice_pair

    def test_full_range_equals_signature(self, pair):
        assert np.array_equal(
            pair.block_bits("true", 1, pair.n)[1], pair.row_bits("true", 2)
        )

    def test_single_bit(self, pair):
        sig = pair.row_bits("scanned", 3)
        for k in (1, 17, 40):
            assert pair.block_bits("scanned", k, k)[2].tolist() == [sig[k - 1]]

    def test_split_concatenation(self, pair):
        sig = pair.row_bits("true", 5)
        left = pair.block_bits("true", 1, 13)[4]
        right = pair.block_bits("true", 14, pair.n)[4]
        assert np.array_equal(np.concatenate([left, right]), sig)

    def test_invalid_ranges(self, pair):
        for first, last in [(0, 5), (9, 5), (1, pair.n + 1), (0, 0), (pair.n + 1, pair.n + 1)]:
            with pytest.raises(IndexError):
                pair.block_bits("true", first, last)
        with pytest.raises(ValueError):
            pair.block_bits("guessed", 1, 5)


@pytest.mark.parametrize(
    "first, last", [(1, 45), (3, 3), (3, 11), (8, 9), (30, 37), (31, 45), (45, 45)]
)
def test_block_bits_equal_matrix_slices(first, last):
    # n = 45 is not a multiple of 8, and most ranges start and end mid-byte.
    edge = EdgeJointDistribution.from_marginal_flip(0.4, 0.2)
    full = generate_cprb(45, 11, edge, seed=23)
    full0, full1 = full.sig0, full.sig1
    lazy = generate_cprb(45, 11, edge, seed=23)
    block1 = lazy.block_bits("scanned", first, last)
    block0 = lazy.block_bits("true", first, last)
    assert block0.shape == (11, last - first + 1)
    assert np.array_equal(block0, full0[:, first - 1 : last])
    assert np.array_equal(block1, full1[:, first - 1 : last])
    # m = 11: the last byte of each group row holds users 9-11 and 5 pad bits.
    for user in (1, 8, 9, 11):
        row0 = lazy.user_bits("true", user, first, last)
        row1 = lazy.user_bits("scanned", user, first, last)
        assert np.array_equal(row0, full0[user - 1, first - 1 : last])
        assert np.array_equal(row1, full1[user - 1, first - 1 : last])
        assert lazy.bit("true", user, last) == full0[user - 1, last - 1]


class TestMembers:
    def test_all_ones_full_membership(self):
        pair = generate_cprb(4, 6, ALL_ONES, seed=0)
        assert members(pair, "true", 2) == set(range(1, 7))

    def test_all_zeros_empty(self):
        pair = generate_cprb(4, 6, ALL_ZEROS, seed=0)
        assert members(pair, "scanned", 1) == set()

    def test_matches_column_scan(self):
        pair = generate_cprb(30, 20, EdgeJointDistribution.from_marginal_flip(0.4, 0.2), seed=3)
        sig1 = pair.sig1
        for group in (1, 11, 30):
            expected = {i + 1 for i in range(pair.m) if sig1[i, group - 1] == 1}
            assert members(pair, "scanned", group) == expected

    def test_membership_signature_consistency(self):
        pair = generate_cprb(25, 15, EdgeJointDistribution.from_marginal_flip(0.6, 0.1), seed=44)
        for which in ("true", "scanned"):
            for group in (1, 13, 25):
                member_set = members(pair, which, group)
                for user in range(1, pair.m + 1):
                    assert (user in member_set) == (
                        pair.row_bits(which, user)[group - 1] == 1
                    )


def test_index_errors():
    pair = generate_cprb(10, 5, FAIR_CORRELATED, seed=1)
    with pytest.raises(IndexError):
        pair.row_bits("true", 0)
    with pytest.raises(IndexError):
        pair.row_bits("true", 6)
    with pytest.raises(IndexError):
        column(pair, "true", 11)
    # upto must lie in [0, n]: no phantom groups past n, no negative counts.
    with pytest.raises(IndexError):
        pair.row_bits("true", 1, upto=15)
    with pytest.raises(IndexError):
        pair.row_bits("true", 1, upto=-3)
    assert pair.row_bits("true", 1, upto=0).size == 0
    for user, first, last in [(0, 1, 2), (6, 1, 2), (1, 0, 2), (1, 3, 2), (1, 1, 11)]:
        with pytest.raises(IndexError):
            pair.user_bits("true", user, first, last)
    with pytest.raises(ValueError):
        pair.row_bits("guessed", 1)


def test_from_matrices_validation():
    with pytest.raises(ValueError):
        BigraphPair.from_matrices(np.array([[0, 2]]), np.array([[0, 1]]))
    with pytest.raises(ValueError):
        BigraphPair.from_matrices(np.array([[0, 1]]), np.array([[0, 1, 1]]))
