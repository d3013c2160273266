import numpy as np
import pytest
from scipy import stats

from deanonlab import graph
from deanonlab.graph import BigraphPair, generate_cprb, members
from deanonlab.stochastics import EdgeJointDistribution

ALL_ONES = EdgeJointDistribution.from_marginal_flip(1.0, 0.0)
ALL_ZEROS = EdgeJointDistribution.from_marginal_flip(0.0, 0.0)
FAIR_CORRELATED = EdgeJointDistribution.from_marginal_flip(0.5, 0.0)


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
    assert np.array_equal(lazy.column_bits("scanned", 150), full1[:, 149])
    assert np.array_equal(lazy.column_bits("true", 3), full0[:, 2])
    assert members(lazy, "scanned", 77) == set((np.flatnonzero(full1[:, 76]) + 1).tolist())
    assert np.array_equal(lazy.sig0, full0)
    assert np.array_equal(lazy.sig1, full1)


def test_column_stream_oracle():
    # Group column g is exactly uniforms [2m(g-1), 2mg) of default_rng(seed):
    # m against p0 for the true bits of users 1..m, then m against the
    # conditional of the scanned bit given the realized true bit.
    edge = EdgeJointDistribution.from_marginal_flip(0.3, 0.2)
    seed, n, m = 31337, 100, 37
    pair = generate_cprb(n, m, edge, seed=seed)
    u = np.random.default_rng(seed).random(2 * m * n)
    cond = edge.table / edge.table.sum(axis=1)[:, None]
    for g in range(1, n + 1):
        draws = u[2 * m * (g - 1) : 2 * m * g]
        e0 = draws[:m] < edge.p0
        e1 = draws[m:] < np.where(e0, cond[1, 1], cond[0, 1])
        assert np.array_equal(pair.column_bits("true", g), e0.astype(np.uint8))
        assert np.array_equal(pair.column_bits("scanned", g), e1.astype(np.uint8))


@pytest.mark.parametrize("block", [8, 64])
def test_block_width_is_not_part_of_the_layout(monkeypatch, block):
    edge = EdgeJointDistribution.from_marginal_flip(0.4, 0.1)
    reference = generate_cprb(203, 11, edge, seed=17)
    full0, full1 = reference.sig0, reference.sig1
    monkeypatch.setattr(graph, "_BLOCK", block)
    pair = generate_cprb(203, 11, edge, seed=17)
    pair.column_bits("true", 9)
    assert np.array_equal(pair.sig0, full0)
    assert np.array_equal(pair.sig1, full1)


def test_narrow_graph_is_a_prefix_of_a_wide_one():
    edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.15)
    narrow = generate_cprb(40, 9, edge, seed=4242)
    wide = generate_cprb(300, 9, edge, seed=4242)
    assert np.array_equal(wide.sig0[:, :40], narrow.sig0)
    assert np.array_equal(wide.sig1[:, :40], narrow.sig1)


def test_storage_grows_with_materialized_columns():
    pair = generate_cprb(8192, 4, FAIR_CORRELATED, seed=6)
    pair.column_bits("true", 1)
    assert pair._packed.nbytes < 2 * 4 * 8192 // 8
    assert pair.sig0.shape == (4, 8192)
    assert pair._packed.shape == (2, 4, 8192 // 8)


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
        members(pair, "true", 11)
    with pytest.raises(ValueError):
        pair.row_bits("guessed", 1)


class TestJsonRoundTrip:
    def test_hex_convention_most_significant_bit_is_group_one(self):
        sig0 = np.array([[1, 0, 1, 1, 0]])
        sig1 = np.array([[0, 1, 1, 0, 1]])
        blob = BigraphPair.from_matrices(sig0, sig1).to_json()
        # 10110 padded to 10110000 = 0xb0; 01101 padded to 01101000 = 0x68.
        assert blob == {"n": 5, "m": 1, "sig0": ["b0"], "sig1": ["68"]}

    def test_round_trip_preserves_bits(self):
        pair = generate_cprb(21, 7, EdgeJointDistribution.from_marginal_flip(0.5, 0.25), seed=12)
        restored = BigraphPair.from_json(pair.to_json())
        assert restored.n == pair.n and restored.m == pair.m
        assert np.array_equal(restored.sig0, pair.sig0)
        assert np.array_equal(restored.sig1, pair.sig1)

    def test_from_json_validates_row_width(self):
        blob = {"n": 5, "m": 1, "sig0": ["b0b0"], "sig1": ["68"]}
        with pytest.raises(ValueError):
            BigraphPair.from_json(blob)


def test_from_matrices_validation():
    with pytest.raises(ValueError):
        BigraphPair.from_matrices(np.array([[0, 2]]), np.array([[0, 1]]))
    with pytest.raises(ValueError):
        BigraphPair.from_matrices(np.array([[0, 1]]), np.array([[0, 1, 1]]))
