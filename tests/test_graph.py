import tracemalloc

import numpy as np
import pytest
from scipy import stats

from deanonlab import graph
from deanonlab.graph import generate_cprb
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
    assert np.all(pair.block_bits("true", 1, pair.n) == 1)
    assert np.all(pair.sig1 == 1)


def test_degenerate_all_zeros():
    pair = generate_cprb(5, 3, ALL_ZEROS, seed=1)
    assert not pair.block_bits("true", 1, pair.n).any()
    assert not pair.sig1.any()


def test_rejects_empty_dimensions():
    with pytest.raises(ValueError):
        generate_cprb(0, 3, FAIR_CORRELATED, seed=1)
    with pytest.raises(ValueError):
        generate_cprb(3, 0, FAIR_CORRELATED, seed=1)


def test_fair_correlated_statistics():
    pair = generate_cprb(100, 100, FAIR_CORRELATED, seed=2024)
    true_bits = pair.block_bits("true", 1, pair.n)
    ones = int(true_bits.sum())
    total = true_bits.size
    # Ones count against Binomial(10^4, 0.5) at level 0.001.
    result = stats.chisquare([ones, total - ones], [total / 2, total / 2])
    assert result.pvalue > 0.001
    # Full correlation makes the two graphs agree everywhere.
    assert np.array_equal(true_bits, pair.sig1)


def test_position_histogram_matches_edge_joint():
    edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.2)
    pair = generate_cprb(128, 128, edge, seed=7)
    e0 = pair.block_bits("true", 1, pair.n).ravel()
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
    assert np.array_equal(a.block_bits("true", 1, a.n), b.block_bits("true", 1, b.n))
    assert np.array_equal(a.sig1, b.sig1)


def test_access_order_does_not_change_bits():
    edge = EdgeJointDistribution.from_marginal_flip(0.3, 0.15)
    eager = generate_cprb(200, 9, edge, seed=5)
    full0, full1 = eager.block_bits("true", 1, eager.n), eager.sig1

    lazy = generate_cprb(200, 9, edge, seed=5)
    # Touch columns out of order through the public readers first.
    assert np.array_equal(column(lazy, "scanned", 150), full1[:, 149])
    assert np.array_equal(column(lazy, "true", 3), full0[:, 2])
    assert members(lazy, "scanned", 77) == set((np.flatnonzero(full1[:, 76]) + 1).tolist())
    assert np.array_equal(lazy.block_bits("true", 1, lazy.n), full0)
    assert np.array_equal(lazy.sig1, full1)


@pytest.mark.parametrize(
    "edge",
    [
        EdgeJointDistribution.from_marginal_flip(0.3, 0.2),
        EdgeJointDistribution.from_marginal_flip(0.3, 0.0),
        EdgeJointDistribution.from_marginal_flip(0.3, 1.0),
        EdgeJointDistribution.from_marginal_flip(0.0, 0.3),
        EdgeJointDistribution.from_marginal_flip(1.0, 0.3),
        EdgeJointDistribution(np.array([[0.5, 0.0], [0.25, 0.25]])),
    ],
    ids=["asymmetric", "flip0", "flip1", "p0=0", "p0=1", "no-01-mass"],
)
def test_column_stream_oracle(edge):
    # Group column g is exactly uniforms [m(g-1), mg) of default_rng(seed),
    # one per user. On [0, 1) the outcomes run (0,0), (0,1), (1,1), (1,0), so
    # the true bit is u >= P00 + P01 and the scanned bit P00 <= u < P00 +
    # P01 + P11. The asymmetric law changes bits under any other order of
    # the intervals; the others tie two or three cut points, where the count
    # of cuts at or below u must still give these interval comparisons.
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
    assert np.all(pair.block_bits("true", 1, pair.n) == p0)
    if flip == 1.0:
        assert np.all(pair.sig1 == 1 - p0)
    else:
        assert 0 < pair.sig1.sum() < pair.sig1.size


@pytest.mark.parametrize("block", [5, 8, 12, 64])
def test_block_width_is_not_part_of_the_layout(monkeypatch, block):
    edge = EdgeJointDistribution.from_marginal_flip(0.4, 0.1)
    reference = generate_cprb(203, 11, edge, seed=17)
    full0, full1 = reference.block_bits("true", 1, reference.n), reference.sig1
    # The rule alone would give m=11 blocks of 186 columns.
    monkeypatch.setattr(graph, "_block_width", lambda m: block)
    pair = generate_cprb(203, 11, edge, seed=17)
    assert pair.block_width == block
    column(pair, "true", 9)
    assert sum(len(stored) for stored in pair._codes.blocks) == -(-9 // block) * block
    assert np.array_equal(pair.block_bits("true", 1, pair.n), full0)
    assert np.array_equal(pair.sig1, full1)


def test_narrow_graph_is_a_prefix_of_a_wide_one():
    edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.15)
    narrow = generate_cprb(40, 9, edge, seed=4242)
    wide = generate_cprb(300, 9, edge, seed=4242)
    assert np.array_equal(wide.block_bits("true", 1, 40), narrow.block_bits("true", 1, 40))
    assert np.array_equal(wide.sig1[:, :40], narrow.sig1)


def stored_bytes(pair):
    return sum(block.nbytes for block in pair._codes.blocks)


def test_storage_grows_with_materialized_columns():
    # One byte per materialized position: a one-column read stores one
    # block, and a full pair takes exactly mn bytes.
    n, m = 8192, 16
    pair = generate_cprb(n, m, FAIR_CORRELATED, seed=6)
    column(pair, "true", 1)
    assert stored_bytes(pair) == pair.block_width * m
    assert pair.block_bits("true", 1, pair.n).shape == (m, n)
    assert stored_bytes(pair) == m * n


def test_scan_peak_does_not_grow_with_scan_length(monkeypatch):
    # Reading a graph left to right block by block never holds more than one
    # block's temporaries on top of the stored blocks, however long the scan:
    # a store that grows by copying would hold its old and new arrays at once.
    edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.3)
    width, m = 32, 1024
    monkeypatch.setattr(graph, "_block_width", lambda m: width)

    def peak_over_stored(blocks):
        tracemalloc.start()
        try:
            pair = generate_cprb(blocks * width, m, edge, seed=1)
            assert pair.block_width == width
            for last in range(width, blocks * width + 1, width):
                pair.bit("scanned", 1, last)
            stored, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - stored

    short, long = peak_over_stored(8), peak_over_stored(32)
    # A few hundred bytes of list and generator bookkeeping may differ; one
    # block of codes is 32 KiB.
    assert abs(long - short) < 1024


@pytest.mark.parametrize(
    "read",
    [
        lambda pair: pair.block_bits("scanned", 3, 9),
        lambda pair: pair.block_bits("true", 1, pair.n),
        lambda pair: pair.block_bits("scanned", 5, 5).T,
        lambda pair: pair.block_bits("true", 1, 20)[1],
        lambda pair: pair.block_bits("scanned", 7, 7)[5],
        lambda pair: pair.row_bits("scanned", 4),
        lambda pair: pair.sig1,
    ],
    ids=["block", "block-all", "block-grid", "user", "user-one", "row", "sig1"],
)
def test_a_read_never_hands_out_writable_storage(read):
    pair = generate_cprb(40, 6, EdgeJointDistribution.from_marginal_flip(0.5, 0.1), seed=8)
    before = read(pair).copy()
    full0, full1 = pair.block_bits("true", 1, pair.n).copy(), pair.sig1
    try:
        read(pair)[...] = 1 - before
    except ValueError:
        pass
    assert np.array_equal(read(pair), before)
    assert np.array_equal(pair.block_bits("true", 1, pair.n), full0)
    assert np.array_equal(pair.sig1, full1)


@pytest.mark.parametrize("m", [1, 6, 33])
def test_generated_reads_are_read_only_bytes_of_0_or_1(m):
    # Readers decode the stored outcome codes into bits, and must hand out
    # read-only uint8 0/1: an index array of bools would be a mask, not bits.
    pair = generate_cprb(300, m, EdgeJointDistribution.from_marginal_flip(0.5, 0.3), seed=m)
    reads = [
        pair.block_bits("scanned", 1, 300), pair.block_bits("true", 5, 40),
        pair.row_bits("true", m), pair.block_bits("scanned", 250, 250)[0],
    ]
    for read in reads:
        assert read.dtype == np.uint8
        assert not read.flags.writeable
        assert set(np.unique(read).tolist()) <= {0, 1}
    assert set(np.unique(reads[0]).tolist()) == {0, 1}


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
    edge = EdgeJointDistribution.from_marginal_flip(0.4, 0.2)
    full = generate_cprb(45, 11, edge, seed=23)
    full0, full1 = full.block_bits("true", 1, full.n), full.sig1
    lazy = generate_cprb(45, 11, edge, seed=23)
    block1 = lazy.block_bits("scanned", first, last)
    block0 = lazy.block_bits("true", first, last)
    assert block0.shape == (11, last - first + 1)
    assert np.array_equal(block0, full0[:, first - 1 : last])
    assert np.array_equal(block1, full1[:, first - 1 : last])
    for user in (1, 8, 9, 11):
        assert lazy.bit("true", user, last) == full0[user - 1, last - 1]
        assert lazy.bit("scanned", user, first) == full1[user - 1, first - 1]


def test_reads_across_block_edges_equal_matrix_slices(monkeypatch):
    # With 8-column blocks most of these ranges span two or more stored
    # blocks, which a read joins. Every read, on a fresh pair, must equal the
    # slice of the full matrices.
    edge = EdgeJointDistribution.from_marginal_flip(0.4, 0.2)
    full = generate_cprb(45, 11, edge, seed=23)
    full0, full1 = full.block_bits("true", 1, full.n), full.sig1
    monkeypatch.setattr(graph, "_block_width", lambda m: 8)
    for first, last in [(1, 45), (3, 11), (8, 9), (9, 16), (7, 25), (30, 37), (31, 45), (45, 45)]:
        pair = generate_cprb(45, 11, edge, seed=23)
        assert pair.block_width == 8
        assert np.array_equal(pair.block_bits("true", first, last), full0[:, first - 1 : last])
        assert np.array_equal(pair.block_bits("scanned", first, last), full1[:, first - 1 : last])
        assert pair.bit("scanned", 4, last) == full1[3, last - 1]


def test_block_width_is_fixed_when_the_pair_is_built():
    # Block offsets derive from the width, so a width changed after a read
    # would misplace every later block; assigning it must fail instead.
    pair = generate_cprb(200, 8, FAIR_CORRELATED, seed=5)
    pair.bit("true", 1, 1)
    with pytest.raises(AttributeError):
        pair.block_width = 16
    assert pair.block_width == 256
    fresh = generate_cprb(200, 8, FAIR_CORRELATED, seed=5).block_bits("true", 1, 200)
    for group in range(1, 201):
        assert np.array_equal(column(pair, "true", group), fresh[:, group - 1])


@pytest.mark.parametrize(
    "m, width",
    # The benchmark's noisy_small (m=16) and sandwich (m=256) widths, the
    # last m with a 32-column block, and the narrower blocks of wide graphs.
    [(1, 2048), (16, 128), (256, 32), (512, 32), (1024, 16), (4096, 4), (16384, 1), (65536, 1)],
)
def test_block_width_rule(m, width):
    assert generate_cprb(3, m, FAIR_CORRELATED, seed=0).block_width == width


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
    # A bad user is refused before any read: user 0 must not wrap to row m.
    for user, group in [(0, 1), (-1, 1), (6, 1), (1, 0), (1, 11)]:
        with pytest.raises(IndexError):
            pair.bit("true", user, group)
    with pytest.raises(IndexError, match=r"user index 0 outside \[1, 5\]"):
        pair.row_bits("guessed", 0)
    assert stored_bytes(pair) == 0
    with pytest.raises(ValueError):
        pair.row_bits("guessed", 1)
    with pytest.raises(ValueError):
        pair.bit("guessed", 1, 1)

