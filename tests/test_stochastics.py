import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from deanonlab.stochastics import (
    NEG_INF,
    EdgeJointDistribution,
    InfoMeasures,
    JointUYZ,
    QueryChannel,
    VictimPrior,
    build_joint_uyz,
    entropy,
    make_prior,
    sample_victim,
)


def bsc_style_model():
    # p0=0.5, scan flip 0.1, response flip 0.2: the workhorse noisy example.
    edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.1)
    gm = QueryChannel.bsc(0.2)
    return edge, gm


def independent_edges(p0, p1):
    """Edge law with independent true and scanned bits (zero coupling)."""
    return EdgeJointDistribution(np.outer([1.0 - p0, p0], [1.0 - p1, p1]))


def measures_of(edge, gm):
    return InfoMeasures.from_joint(build_joint_uyz(edge, gm))


def oracle_joint_table(p0, edge_flip, gm_flip):
    """Direct multiplication over all 8 (u, y, z) triples."""
    p_z = [1.0 - p0, p0]
    u_given_z = [[1.0 - edge_flip, edge_flip], [edge_flip, 1.0 - edge_flip]]
    y_given_z = [[1.0 - gm_flip, gm_flip], [gm_flip, 1.0 - gm_flip]]
    table = np.zeros((2, 2, 2))
    for u in range(2):
        for y in range(2):
            for z in range(2):
                table[u, y, z] = p_z[z] * u_given_z[z][u] * y_given_z[z][y]
    return table


class TestEdgeJoint:
    def test_marginals_from_flip(self):
        edge = EdgeJointDistribution.from_marginal_flip(0.3, 0.1)
        assert edge.p0 == pytest.approx(0.3, abs=1e-15)
        assert edge.p1 == pytest.approx(0.3 * 0.9 + 0.7 * 0.1, abs=1e-15)

    def test_product_law(self):
        edge = independent_edges(0.3, 0.6)
        assert edge.table[1, 1] == pytest.approx(0.18, abs=1e-15)
        assert edge.p0 == pytest.approx(0.3)
        assert edge.p1 == pytest.approx(0.6)

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            EdgeJointDistribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            EdgeJointDistribution(np.array([[1.2, -0.2], [0.0, 0.0]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            EdgeJointDistribution(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            QueryChannel(np.array([[np.nan, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            EdgeJointDistribution(np.full((2, 3), 1.0 / 6.0))

    def test_table_is_read_only(self):
        edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.0)
        with pytest.raises(ValueError):
            edge.table[0, 0] = 1.0

    @pytest.mark.parametrize("p0, flip", [
        (0.3, 0.2), (0.1, 0.01), (0.5, 0.0), (1e-300, 0.0), (1e-300, 1.0), (0.0, 0.3), (1.0, 0.3),
    ])
    def test_generation_cuts_round_the_running_sums_up_to_32_bits(self, p0, flip):
        edge = EdgeJointDistribution.from_marginal_flip(p0, flip)
        (p00, p01), (p10, p11) = edge.table.tolist()
        sums = (p00, p00 + p01, p00 + p01 + p11)
        total = sums[-1] + p10
        cuts = edge.generation_cuts
        assert cuts == tuple(math.ceil(c / total * 2**32) for c in sums)
        assert all(type(c) is int for c in cuts)
        # Each outcome's realized probability is within 2**-32 of its mass.
        bounds = (0, *cuts, 2**32)
        for k, mass in enumerate((p00, p01, p11, p10)):
            assert abs((bounds[k + 1] - bounds[k]) / 2**32 - mass / total) < 2**-32


class TestQueryChannel:
    def test_bsc_rows(self):
        ch = QueryChannel.bsc(0.2)
        assert np.allclose(ch.table, [[0.8, 0.2], [0.2, 0.8]])

    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError):
            QueryChannel(np.array([[0.7, 0.2], [0.2, 0.8]]))


class TestJointUYZ:
    def test_deterministic_coupling(self):
        edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.0)
        joint = build_joint_uyz(edge, QueryChannel.identity())
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 0.5
        expected[1, 1, 1] = 0.5
        assert np.allclose(joint.table, expected, atol=1e-15)

    def test_independent_edges_factorize(self):
        edge = independent_edges(0.5, 0.3)
        joint = build_joint_uyz(edge, QueryChannel.bsc(0.2))
        p_u = joint.table.sum(axis=(1, 2))
        p_yz = joint.table.sum(axis=0)
        assert np.allclose(joint.table, p_u[:, None, None] * p_yz[None, :, :], atol=1e-14)

    def test_matches_direct_multiplication(self):
        edge, gm = bsc_style_model()
        joint = build_joint_uyz(edge, gm)
        assert np.allclose(joint.table, oracle_joint_table(0.5, 0.1, 0.2), atol=1e-14)

    @pytest.mark.parametrize("p0", [0.0, 1.0])
    def test_rejects_degenerate_p0(self, p0):
        edge = EdgeJointDistribution.from_marginal_flip(p0, 0.1)
        with pytest.raises(ValueError, match="degenerate"):
            build_joint_uyz(edge, QueryChannel.bsc(0.2))

    def test_rejects_a_true_bit_row_without_mass(self):
        # The table sums to 1 within SUM_TOL, so p0 = 1 - 1e-13 lies in (0, 1)
        # while the true-bit-0 row has no mass to condition on.
        edge = EdgeJointDistribution([[0.0, 0.0], [0.5, 0.5 - 1e-13]])
        assert 0.0 < edge.p0 < 1.0
        with pytest.raises(ValueError, match="zero-mass"):
            build_joint_uyz(edge, QueryChannel.bsc(0.2))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            JointUYZ(np.full((2, 2, 2), 0.2))


class TestInfoDensity:
    def test_independent_is_zero(self):
        density = measures_of(independent_edges(0.4, 0.7), QueryChannel.bsc(0.1)).density
        assert np.allclose(density, 0.0, rtol=0.0, atol=1e-12)

    def test_noiseless_correlated(self):
        edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.0)
        density = measures_of(edge, QueryChannel.identity()).density
        assert density[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert density[0, 1] == NEG_INF

    def test_matches_conditional_oracle(self):
        edge, gm = bsc_style_model()
        joint = build_joint_uyz(edge, gm)
        table = oracle_joint_table(0.5, 0.1, 0.2)
        p_uy = table.sum(axis=2)
        p_u = p_uy.sum(axis=1)
        p_y = p_uy.sum(axis=0)
        expected = math.log2((p_uy[1, 1] / p_u[1]) / p_y[1])
        density = InfoMeasures.from_joint(joint).density
        assert density[1, 1] == pytest.approx(expected, abs=1e-12)


    @pytest.mark.parametrize(
        "p0, edge_flip", [(1e-300, 0.0), (1e-200, 1e-200), (5e-324, 0.0)]
    )
    def test_tiny_p0_gives_finite_densities_without_warning(self, p0, edge_flip):
        # P(u=1) * P(y=1) underflows to 0; the density is still the finite
        # log2 P(u=1, y=1) - log2 P(u=1) - log2 P(y=1).
        edge = EdgeJointDistribution.from_marginal_flip(p0, edge_flip)
        joint = build_joint_uyz(edge, QueryChannel.identity())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            measures = InfoMeasures.from_joint(joint)
        p_uy = joint.p_uy()
        p_u, p_y = p_uy.sum(axis=1), p_uy.sum(axis=0)
        assert p_u[1] * p_y[1] == 0.0
        expected = math.log2(p_uy[1, 1]) - (math.log2(p_u[1]) + math.log2(p_y[1]))
        assert measures.density[1, 1] == expected
        possible = p_uy > 0.0
        assert np.isfinite(measures.density[possible]).all()
        assert (measures.density[~possible] == NEG_INF).all()
        assert math.isfinite(measures.i_max) and measures.i_max == expected


class TestCodeTables:
    def test_p_one_by_bit_reads_each_true_bit(self):
        gm = QueryChannel([[0.9, 0.1], [0.3, 0.7]])
        assert gm.p_one_by_bit.tolist() == [0.1, 0.7]
        assert gm.p_one_by_bit.flags.c_contiguous

    def test_tables_are_cached_and_read_only(self):
        measures, gm = measures_of(*bsc_style_model()), QueryChannel.bsc(0.2)
        assert gm.p_one_by_bit is gm.p_one_by_bit
        for table in (measures.density, gm.p_one_by_bit):
            with pytest.raises(ValueError):
                table[0] = 0


class TestMutualInformation:
    def test_independent_is_zero(self):
        measures = measures_of(independent_edges(0.5, 0.5), QueryChannel.bsc(0.2))
        assert measures.mutual_info == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_correlated_is_one_bit(self):
        edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.0)
        measures = measures_of(edge, QueryChannel.identity())
        assert measures.mutual_info == pytest.approx(1.0, abs=1e-12)

    def test_matches_exhaustive_sum(self):
        p_uy = oracle_joint_table(0.5, 0.1, 0.2).sum(axis=2)
        p_u = p_uy.sum(axis=1)
        p_y = p_uy.sum(axis=0)
        expected = sum(
            p_uy[u, y] * math.log2(p_uy[u, y] / (p_u[u] * p_y[y]))
            for u in range(2)
            for y in range(2)
        )
        assert measures_of(*bsc_style_model()).mutual_info == pytest.approx(expected, abs=1e-12)


class TestInfoMeasures:
    def test_i_max_cases(self):
        independent = build_joint_uyz(independent_edges(0.5, 0.5), QueryChannel.bsc(0.1))
        assert InfoMeasures.from_joint(independent).i_max == pytest.approx(0.0, abs=1e-12)
        noiseless = build_joint_uyz(
            EdgeJointDistribution.from_marginal_flip(0.5, 0.0), QueryChannel.identity()
        )
        assert InfoMeasures.from_joint(noiseless).i_max == pytest.approx(1.0, abs=1e-12)

    def test_i_max_matches_density_table(self):
        measures = measures_of(*bsc_style_model())
        p_uy = oracle_joint_table(0.5, 0.1, 0.2).sum(axis=2)
        p_u = p_uy.sum(axis=1)
        p_y = p_uy.sum(axis=0)
        expected = max(
            math.log2(p_uy[u, y] / (p_u[u] * p_y[y]))
            for u in range(2)
            for y in range(2)
            if p_uy[u, y] > 0.0
        )
        assert measures.i_max == pytest.approx(expected, abs=1e-12)

    def test_density_expectation_equals_mutual_info(self):
        # Exact algebraic identity, so the tolerance is tight.
        rng = np.random.default_rng(1234)
        for _ in range(50):
            p0 = rng.uniform(0.05, 0.95)
            edge = EdgeJointDistribution.from_marginal_flip(p0, rng.uniform(0.0, 0.45))
            joint = build_joint_uyz(edge, QueryChannel.bsc(rng.uniform(0.0, 0.45)))
            measures = InfoMeasures.from_joint(joint)
            p_uy = joint.p_uy()
            mask = p_uy > 0
            assert measures.mutual_info == pytest.approx(
                float((p_uy[mask] * measures.density[mask]).sum()), abs=1e-12
            )
            if measures.mutual_info > 0.0:
                assert measures.i_max >= measures.mutual_info

    def test_mismatched_candidate_drift_nonpositive(self):
        # Expectation of the density under independent P_U x P_Y never exceeds 0.
        rng = np.random.default_rng(99)
        for _ in range(50):
            edge = EdgeJointDistribution.from_marginal_flip(
                rng.uniform(0.1, 0.9), rng.uniform(0.01, 0.45)
            )
            joint = build_joint_uyz(edge, QueryChannel.bsc(rng.uniform(0.01, 0.45)))
            measures = InfoMeasures.from_joint(joint)
            p_uy = joint.p_uy()
            p_u = p_uy.sum(axis=1)
            p_y = p_uy.sum(axis=0)
            outer = p_u[:, None] * p_y[None, :]
            finite = np.isfinite(measures.density)
            drift = float((outer[finite] * measures.density[finite]).sum())
            assert drift <= 1e-12

    def test_extra_noise_never_helps(self):
        # Post-composing the response channel with more symmetric noise can
        # only lose information.
        rng = np.random.default_rng(4321)
        for _ in range(30):
            edge = EdgeJointDistribution.from_marginal_flip(
                rng.uniform(0.1, 0.9), rng.uniform(0.0, 0.4)
            )
            gm = QueryChannel.bsc(rng.uniform(0.0, 0.4))
            extra = QueryChannel.bsc(rng.uniform(0.05, 0.45))
            base = measures_of(edge, gm).mutual_info
            degraded = measures_of(edge, QueryChannel(gm.table @ extra.table)).mutual_info
            assert degraded <= base + 1e-12


class TestPriors:
    def test_uniform(self):
        prior = make_prior("uniform", 4)
        assert np.allclose(prior.probs, 0.25)

    def test_zipf_zero_exponent_is_uniform(self):
        assert np.allclose(make_prior("zipf:0", 6).probs, 1.0 / 6.0)

    def test_zipf_one_hand_normalization(self):
        # Weights (1, 1/2, 1/3, 1/4) normalized by 25/12.
        prior = make_prior("zipf:1", 4)
        assert np.allclose(prior.probs, np.array([12, 6, 4, 3]) / 25.0, atol=1e-15)

    def test_explicit_vector_normalized(self):
        prior = make_prior([2.0, 1.0, 1.0])
        assert np.allclose(prior.probs, [0.5, 0.25, 0.25])

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            make_prior([0.5, 0.5, 0.0])
        with pytest.raises(ValueError):
            VictimPrior(np.array([1.0, 0.0]) / 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_prior("zipf:nan", 4)
        with pytest.raises(ValueError, match="positive"):
            make_prior([float("nan"), 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            VictimPrior(np.array([np.nan, 0.5, 0.5]))

    @pytest.mark.parametrize("probs", [
        [True, 1, 1, 1], [1, 1, 1, "2"], np.array([True, True]), np.array(["1", "2"]),
    ])
    def test_rejects_bool_and_string_entries(self, probs):
        with pytest.raises(ValueError, match="numbers"):
            make_prior(probs)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_prior("powerlaw", 4)

    def test_rejects_unnormalized_direct_construction(self):
        with pytest.raises(ValueError):
            VictimPrior(np.array([0.5, 0.6]))

    def test_cached_cdf_and_surprisal_are_the_direct_formulas(self):
        prior = make_prior("zipf:1.3", 37)
        assert prior._cdf_list == np.cumsum(prior.probs).tolist()
        assert np.array_equal(prior.surprisal, -np.log2(prior.probs))
        # Computed once per prior and shared by every trial, so read-only.
        assert prior.surprisal is prior.surprisal
        with pytest.raises(ValueError):
            prior.surprisal[0] = 0.0

    def test_crossing_limits_are_read_only_and_the_same_for_a_threshold_asked_again(self):
        prior = make_prior("zipf:1.3", 37)
        limits = prior.crossing_limits(3.5)
        with pytest.raises(ValueError):
            limits[0] = 0.0
        prior.crossing_limits(2.0)
        again = prior.crossing_limits(3.5)
        assert np.array_equal(again, limits)

    def test_entropy_uniform(self):
        assert entropy(make_prior("uniform", 8)) == pytest.approx(3.0, abs=1e-12)

    def test_entropy_near_degenerate(self):
        eps0 = 1e-12
        m = 4
        probs = np.full(m, eps0)
        probs[0] = 1.0 - (m - 1) * eps0
        assert entropy(VictimPrior(probs)) < 1e-9

    def test_entropy_zipf_direct_sum(self):
        prior = make_prior("zipf:1.0", 16)
        expected = -sum(p * math.log2(p) for p in prior.probs.tolist())
        assert entropy(prior) == pytest.approx(expected, abs=1e-12)


class TestSampleVictim:
    def test_near_degenerate_always_hits_the_mass_point(self):
        probs = np.array([1e-13, 1e-13, 1.0 - 2e-13])
        prior = VictimPrior(probs)
        assert all(sample_victim(prior, seed) == 3 for seed in range(1000))

    def test_uniform_two_frequencies(self):
        prior = make_prior("uniform", 2)
        draws = np.array([sample_victim(prior, seed) for seed in range(100_000)])
        assert abs((draws == 1).mean() - 0.5) < 0.01

    def test_zipf_chi_square_fit(self):
        prior = make_prior("zipf:1", 4)
        draws = np.array([sample_victim(prior, seed) for seed in range(100_000)])
        counts = np.bincount(draws, minlength=5)[1:]
        result = stats.chisquare(counts, prior.probs * draws.size)
        assert result.pvalue > 0.001

    def test_deterministic_given_seed(self):
        prior = make_prior("zipf:0.5", 10)
        assert sample_victim(prior, 42) == sample_victim(prior, 42)


def _priors():
    """Uniform, zipf and explicit priors, down to entries near the smallest double."""
    uniform = st.integers(1, 600).map(lambda m: make_prior("uniform", m))
    zipf = st.builds(
        lambda s, m: make_prior(f"zipf:{s}", m), st.floats(0.0, 4.0), st.integers(1, 600)
    )
    explicit = st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=40).map(make_prior)
    extreme = st.sampled_from([[1.0, 5e-324], [1.0, 1e-300, 1e-200], [1.0 - 1e-12, 1e-12]])
    return st.one_of(uniform, zipf, explicit, extreme.map(make_prior))


@settings(max_examples=150, deadline=None)
@given(
    prior=_priors(),
    eps=st.one_of(
        st.floats(1e-300, 1.0 - 1e-12),
        st.sampled_from([1e-300, 1e-12, 0.1, 0.5, 1.0 - 1e-12]),
    ),
)
def test_crossing_limit_compare_equals_the_threshold_test(prior, eps):
    threshold = math.log2(1.0 / eps)
    surprisal = prior.surprisal
    limits = prior.crossing_limits(threshold)
    m = prior.m
    sums = [
        limits,
        np.nextafter(limits, np.inf),
        np.nextafter(limits, -np.inf),
        np.full(m, np.inf),
        np.full(m, -np.inf),
    ]
    for s in sums:
        assert np.array_equal(s >= limits, (s - surprisal) >= threshold)
    # The limit is the smallest double that crosses.
    assert ((limits - surprisal) >= threshold).all()
    assert not ((np.nextafter(limits, -np.inf) - surprisal) >= threshold).any()
    # A struck candidate's NaN limit is never reached, not even by +inf.
    struck = np.full(m, np.nan)
    for s in sums:
        assert not (s >= struck).any()


@pytest.mark.parametrize("threshold", [0.0, -0.0, -2.0, float("nan")])
def test_crossing_limits_refuse_a_threshold_that_is_not_positive(threshold):
    # At -2 bits the uniform four-user limits start at 0, about 2**62 ulps
    # above the smallest crossing double.
    with pytest.raises(ValueError, match="threshold"):
        make_prior("uniform", 4).crossing_limits(threshold)


class _FixedUniform(np.random.Generator):
    """A generator whose ``random()`` returns a chosen uniform."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, *args, **kwargs):
        return self.u


@settings(max_examples=150, deadline=None)
@given(prior=_priors(), seed=st.integers(0, 2**63))
def test_sample_victim_is_the_right_side_searchsorted_of_its_uniform(prior, seed):
    # sample_victim bisects a list of the cdf; a right-side searchsorted of
    # the same uniform in the cdf array must give the same index. Seeded
    # uniforms almost never hit a cdf entry or pass the last one, so those
    # are asked for directly: every entry, its neighbouring doubles, 0 and
    # the largest double below 1.
    gen = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    m, cdf = prior.m, np.cumsum(prior.probs)
    for _ in range(50):
        u = twin.random()
        assert sample_victim(prior, gen) == min(int(cdf.searchsorted(u, "right")), m - 1) + 1
    edges = [0.0, np.nextafter(1.0, 0.0)]
    for entry in cdf[:100].tolist() + cdf[-3:].tolist():
        edges += [entry, np.nextafter(entry, 0.0), np.nextafter(entry, 1.0)]
    for u in edges:
        if 0.0 <= u < 1.0:
            expected = min(int(cdf.searchsorted(u, "right")), m - 1) + 1
            assert sample_victim(prior, _FixedUniform(float(u))) == expected


@pytest.mark.parametrize("build, message", [
    (lambda: EdgeJointDistribution.from_marginal_flip(1.5, 0.1), "p0 must lie in"),
    (lambda: EdgeJointDistribution.from_marginal_flip(0.5, -0.1), "flip must lie in"),
    (lambda: QueryChannel.bsc(1.5), "flip must lie in"),
    (lambda: VictimPrior(np.full((2, 2), 0.25)), "1-D"),
    (lambda: VictimPrior(np.array([])), "nonempty"),
    (lambda: make_prior("uniform"), "require a positive user count"),
])
def test_a_law_refuses_an_argument_out_of_its_domain(build, message):
    with pytest.raises(ValueError, match=message):
        build()
