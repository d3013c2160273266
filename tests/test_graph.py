import math
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


def test_rejects_an_edge_law_that_is_not_an_edge_joint_distribution():
    with pytest.raises(TypeError, match="EdgeJointDistribution"):
        generate_cprb(3, 3, FAIR_CORRELATED.table, seed=1)


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
    # Group column g takes raw outputs [h(g-1), hg) of PCG64(seed), h =
    # ceil(m/2): user 2i+1 reads the low 32 bits of output i and user 2i+2
    # its high 32 bits, and with m odd the last high half goes unused. On
    # [0, 2**32) the outcomes run (0,0), (0,1), (1,1), (1,0), cut at C_k =
    # ceil(2**32 c_k) for the running sums c_k of their masses, so the true
    # bit is u >= C2 and the scanned bit C1 <= u < C3. The asymmetric law
    # changes bits under any other order of the intervals; the others tie
    # two or three cut points, where the count of cuts at or below u must
    # still give these interval comparisons.
    seed, n, m = 31337, 100, 37
    half = (m + 1) // 2
    words = np.random.PCG64(seed).random_raw(n * half).tolist()
    (p00, p01), (p10, p11) = edge.table.tolist()
    assert p00 + p01 + p11 + p10 == 1.0
    cut1, cut2, cut3 = (math.ceil(c * 2**32) for c in (p00, p00 + p01, p00 + p01 + p11))
    true, scanned = np.empty((m, n), dtype=np.uint8), np.empty((m, n), dtype=np.uint8)
    for g in range(n):
        for j in range(m):
            u = words[g * half + j // 2] >> (32 * (j % 2)) & 0xFFFFFFFF
            true[j, g], scanned[j, g] = u >= cut2, cut1 <= u < cut3
    pair = generate_cprb(n, m, edge, seed=seed)
    for g in range(1, n + 1):
        assert np.array_equal(column(pair, "true", g), true[:, g - 1])
        assert np.array_equal(column(pair, "scanned", g), scanned[:, g - 1])
    # Each group takes whole outputs, so an odd m gives the same bits read
    # in blocks of any width.
    for width in (1, 3, 32):
        for which, full in (("true", true), ("scanned", scanned)):
            blocks = [
                pair.block_bits(which, first, min(first + width - 1, n))
                for first in range(1, n + 1, width)
            ]
            assert np.array_equal(np.concatenate(blocks, axis=1), full)


class RawWords:
    """A generator stand-in whose raw 64-bit outputs are the given words, in order."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return out.copy()


# Laws whose cut points tie or reach 0 and 2**32: p0 = 1e-300 is a valid
# config whose true-bit-1 outcomes round to an empty interval.
BOUNDARY_LAWS = [
    EdgeJointDistribution.from_marginal_flip(1e-300, 0.0),
    EdgeJointDistribution.from_marginal_flip(1e-300, 1.0),
    EdgeJointDistribution.from_marginal_flip(0.3, 0.0),
    EdgeJointDistribution.from_marginal_flip(0.3, 1.0),
    EdgeJointDistribution.from_marginal_flip(0.0, 0.3),
    EdgeJointDistribution.from_marginal_flip(1.0, 0.3),
    EdgeJointDistribution.from_marginal_flip(1.0, 0.0),
    EdgeJointDistribution(np.array([[0.5, 0.0], [0.25, 0.25]])),
]
BOUNDARY_IDS = [
    "p0=1e-300", "p0=1e-300-flip1", "flip0", "flip1", "p0=0", "p0=1", "p0=1-flip0", "no-01-mass",
]


@pytest.mark.parametrize("edge", BOUNDARY_LAWS, ids=BOUNDARY_IDS)
def test_both_decoders_draw_no_zero_mass_outcome_and_every_unit_mass_one(edge):
    # The decoder's two forms, every user's true bits (a pair's reads) and
    # one user's (a scan's blocks), from uniforms at and next to every cut
    # point and at both ends of [0, 2**32). An outcome's code is its place
    # in the layout order, the count of cut points at or below u.
    cuts = edge.generation_cuts
    assert all(isinstance(c, int) for c in cuts) and 0 <= cuts[0] <= cuts[1] <= cuts[2] <= 2**32
    points = sorted({0, 1, 2**32 - 2, 2**32 - 1} | {
        c + d for c in cuts for d in (-1, 0, 1) if 0 <= c + d < 2**32
    })
    points += [0] * (len(points) % 2)  # whole words only
    words = [lo | hi << 32 for lo, hi in zip(points[::2], points[1::2])]
    m = len(points)
    scanned, true = graph._decode(graph._uniforms(RawWords(words), 1, m), cuts, slice(None))
    assert scanned.dtype == np.uint8 and scanned.shape == (1, m) and true.shape == (1, m)
    outcomes = [(int(t), int(s)) for t, s in zip(true[0], scanned[0])]
    layout = [(0, 0), (0, 1), (1, 1), (1, 0)]
    assert [layout.index(o) for o in outcomes] == [sum(u >= c for c in cuts) for u in points]
    (p00, p01), (p10, p11) = edge.table.tolist()
    for outcome, mass in zip(layout, (p00, p01, p11, p10)):
        if mass == 0.0:
            assert outcome not in outcomes
        if mass == 1.0:
            assert set(outcomes) == {outcome}
    for user in range(1, m + 1):
        one_scanned, one_true = graph._decode(
            graph._uniforms(RawWords(words), 1, m), cuts, (slice(None), user - 1)
        )
        assert np.array_equal(one_scanned, scanned)
        assert one_true.tolist() == [true[0, user - 1]]


def test_a_skewed_law_is_drawn_at_its_frequencies():
    # Over 1001 x 1000 positions (m odd), each outcome's count lies within 5
    # standard deviations of its expectation; the cut points round the law
    # by less than 2**-32 per outcome, far below that.
    edge = EdgeJointDistribution.from_marginal_flip(0.1, 0.01)
    n, m = 1000, 1001
    pair = generate_cprb(n, m, edge, seed=2718)
    true, scanned = pair.block_bits("true", 1, n), pair.sig1
    # The outcomes' places in the layout order (0,0), (0,1), (1,1), (1,0).
    codes = 2 * true + (true ^ scanned)
    counts = np.bincount(codes.ravel(), minlength=4)
    (p00, p01), (p10, p11) = edge.table.tolist()
    for count, p in zip(counts.tolist(), (p00, p01, p11, p10)):
        assert abs(count - n * m * p) <= 5 * math.sqrt(n * m * p * (1 - p))


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
def test_block_width_is_not_part_of_the_layout(block):
    # Blocks of any width, read left to right or right to left, join into
    # the full matrices.
    edge = EdgeJointDistribution.from_marginal_flip(0.4, 0.1)
    reference = generate_cprb(203, 11, edge, seed=17)
    full0, full1 = reference.block_bits("true", 1, reference.n), reference.sig1
    pair = generate_cprb(203, 11, edge, seed=17)
    spans = [(first, min(first + block - 1, 203)) for first in range(1, 204, block)]
    for order in (spans, spans[::-1]):
        for which, full in (("true", full0), ("scanned", full1)):
            for first, last in order:
                assert np.array_equal(
                    pair.block_bits(which, first, last), full[:, first - 1 : last]
                )


def test_narrow_graph_is_a_prefix_of_a_wide_one():
    edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.15)
    narrow = generate_cprb(40, 9, edge, seed=4242)
    wide = generate_cprb(300, 9, edge, seed=4242)
    assert np.array_equal(wide.block_bits("true", 1, 40), narrow.block_bits("true", 1, 40))
    assert np.array_equal(wide.sig1[:, :40], narrow.sig1)


def test_scan_peak_does_not_grow_with_scan_length():
    # Reading a graph left to right a group at a time never holds more than
    # one read's temporaries, however long the scan: the pair keeps no bits.
    edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.3)
    width, m = 32, 1024

    def peak_over_stored(blocks):
        tracemalloc.start()
        try:
            pair = generate_cprb(blocks * width, m, edge, seed=1)
            for last in range(width, blocks * width + 1, width):
                pair.bit("scanned", 1, last)
            stored, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - stored

    short, long = peak_over_stored(8), peak_over_stored(32)
    # A few hundred bytes of generator bookkeeping may differ; one group's
    # uniforms take 4 KiB.
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
    # Readers decode the stream's uniforms into bits, and must hand out
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


def test_reads_across_block_edges_equal_matrix_slices():
    # One pair read back and forth: each read positions the stream at its
    # first group, forward or back from where the last read ended, and must
    # equal the slice of the full matrices.
    edge = EdgeJointDistribution.from_marginal_flip(0.4, 0.2)
    full = generate_cprb(45, 11, edge, seed=23)
    full0, full1 = full.block_bits("true", 1, full.n), full.sig1
    pair = generate_cprb(45, 11, edge, seed=23)
    for first, last in [(1, 45), (3, 11), (8, 9), (9, 16), (7, 25), (30, 37), (31, 45), (45, 45)]:
        assert np.array_equal(pair.block_bits("true", first, last), full0[:, first - 1 : last])
        assert np.array_equal(pair.block_bits("scanned", first, last), full1[:, first - 1 : last])
        assert pair.bit("scanned", 4, last) == full1[3, last - 1]


@pytest.mark.parametrize(
    "m, width",
    # The benchmark's noisy_small (m=16) and sandwich (m=256) widths, the
    # last m with a 32-column block, and the narrower blocks of wide graphs.
    [(1, 2048), (16, 128), (256, 32), (512, 32), (1024, 16), (4096, 4), (16384, 1), (65536, 1)],
)
def test_block_width_rule(m, width):
    assert graph._block_width(m) == width


@pytest.mark.parametrize(
    "m, trials",
    # The benchmark's noisy_small (m=16) batch, the last m with blocks of 64
    # groups or more, and from the next one on, the benchmark's sandwich
    # (m=256) among them, one trial at a time.
    [(1, 8), (16, 8), (20, 8), (32, 8), (33, 1), (64, 1), (256, 1), (512, 1), (65536, 1)],
)
def test_batch_trials_rule(m, trials):
    assert graph._batch_trials(m) == trials


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
    before = pair._stream.gen.bit_generator.state
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
    # No refused call read the stream: the private generator's state is unchanged.
    assert pair._stream.gen.bit_generator.state == before
    with pytest.raises(ValueError):
        pair.row_bits("guessed", 1)
    with pytest.raises(ValueError):
        pair.bit("guessed", 1, 1)



def test_reading_from_any_group_equals_reading_in_order():
    # Seeded random reads of one pair, each positioning the stream at its
    # first group, against one read of each graph in order from the start.
    # A single true bit is decoded from its uniform alone, and a victim
    # instance reads it so.
    edge = EdgeJointDistribution.from_marginal_flip(0.4, 0.2)
    rng = np.random.default_rng(606)
    for n, m in [(50, 1), (50, 7), (40, 12)]:
        reference = generate_cprb(n, m, edge, seed=n * m)
        full = {"true": reference.block_bits("true", 1, n), "scanned": reference.sig1}
        pair = generate_cprb(n, m, edge, seed=n * m)
        for _ in range(120):
            which = ("true", "scanned")[int(rng.integers(2))]
            first = int(rng.integers(1, n + 1))
            last = int(rng.integers(first, n + 1))
            user = int(rng.integers(1, m + 1))
            block = pair.block_bits(which, first, last)
            assert np.array_equal(block, full[which][:, first - 1 : last])
            assert pair.bit(which, user, last) == full[which][user - 1, last - 1]
            assert pair._true_bit(user, first) == full["true"][user - 1, first - 1]


def test_a_pair_copies_a_generator_and_never_advances_it():
    edge = EdgeJointDistribution.from_marginal_flip(0.4, 0.2)
    reference = generate_cprb(60, 7, edge, seed=41)
    gen = np.random.default_rng(41)
    state = gen.bit_generator.state
    pair = generate_cprb(60, 7, edge, gen)
    assert gen.bit_generator.state == state
    gen.random(1000)  # the caller's generator moves on
    moved = gen.bit_generator.state
    assert np.array_equal(pair.sig1, reference.sig1)
    assert np.array_equal(pair.block_bits("true", 1, 60), reference.block_bits("true", 1, 60))
    assert pair.bit("true", 3, 17) == reference.bit("true", 3, 17)
    assert gen.bit_generator.state == moved


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM]
)
def test_a_generator_over_another_bit_generator_is_refused(bit_generator):
    # A pair positions its stream with PCG64.advance, which no other bit
    # generator offers with the same outputs.
    with pytest.raises(TypeError, match=r"^seed must be .* not one over " + bit_generator.__name__):
        generate_cprb(4, 3, FAIR_CORRELATED, np.random.Generator(bit_generator(1)))
