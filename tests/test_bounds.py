import math

import numpy as np
import pytest

from deanonlab.attacker import auto_epsilon_steps
from deanonlab.bounds import (
    build_report,
    converse_lower_bound,
    group_sufficiency,
    query_upper_bound,
)
from deanonlab.stochastics import (
    EdgeJointDistribution,
    InfoMeasures,
    QueryChannel,
    build_joint_uyz,
    entropy,
    make_prior,
)


class TestUpperBound:
    def test_frozen_reference_point(self):
        # H=8, I=0.5, i_max=2, eps=0.1, steps=4, m=256, evaluated by hand:
        # core = (1/0.9)((8 + log2(10) + 2)/0.5 + 1); tails 128*eps^4, 128*eps^3.
        bound = query_upper_bound(8.0, 0.5, 2.0, 0.1, 4, 256)
        assert bound.stated == pytest.approx(30.728195766416, abs=1e-9)
        assert bound.certified == pytest.approx(30.843395766416, abs=1e-9)

    def test_tail_vanishes_for_large_step_budget(self):
        bound = query_upper_bound(0.0, 1.0, 1.0, 0.5, 60, 2)
        assert bound.stated == pytest.approx(6.0, abs=1e-12)
        assert bound.certified == pytest.approx(6.0, abs=1e-12)

    def test_more_information_means_fewer_queries(self):
        low = query_upper_bound(8.0, 0.5, 2.0, 0.1, 4, 256)
        high = query_upper_bound(8.0, 1.0, 2.0, 0.1, 4, 256)
        assert high.certified < low.certified

    def test_zero_information_is_unbounded(self):
        bound = query_upper_bound(8.0, 0.0, 1.0, 0.1, 4, 256)
        assert math.isinf(bound.stated) and math.isinf(bound.certified)

    def test_certified_variant_is_the_looser_one(self):
        bound = query_upper_bound(5.0, 0.7, 1.5, 0.2, 3, 64)
        assert bound.certified >= bound.stated

    def test_monotonicity_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h = rng.uniform(0.0, 12.0)
            i = rng.uniform(0.05, 1.0)
            imax = rng.uniform(i, 3.0)
            eps = rng.uniform(0.01, 0.9)
            steps = int(rng.integers(1, 8))
            m = int(rng.integers(2, 4096))
            base = query_upper_bound(h, i, imax, eps, steps, m).certified
            assert query_upper_bound(h + 0.5, i, imax, eps, steps, m).certified >= base
            assert query_upper_bound(h, i + 0.05, imax, eps, steps, m).certified <= base
            assert query_upper_bound(h, i, imax + 0.5, eps, steps, m).certified >= base
            assert query_upper_bound(h, i, imax, eps, steps + 1, m).certified <= base
            assert query_upper_bound(h, i, imax, eps, steps, 2 * m).certified >= base

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            query_upper_bound(1.0, 0.5, 1.0, 0.0, 2, 4)
        with pytest.raises(ValueError):
            query_upper_bound(1.0, 0.5, 1.0, 0.5, 0, 4)


class TestConverse:
    def test_zero_entropy(self):
        assert converse_lower_bound(0.0, 1.0) == 0.0

    def test_simple_ratio(self):
        assert converse_lower_bound(3.0, 1.0) == pytest.approx(3.0, abs=1e-15)

    def test_composed_from_model_measures(self):
        prior = make_prior("zipf:1", 16)
        edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.1)
        joint = build_joint_uyz(edge, QueryChannel.bsc(0.2))
        h = entropy(prior)
        i = InfoMeasures.from_joint(joint).mutual_info
        assert converse_lower_bound(h, i) == pytest.approx(h / i, abs=1e-12)

    def test_doubling_users_adds_inverse_information(self):
        i = 0.37
        for m in (4, 16, 128):
            low = converse_lower_bound(math.log2(m), i)
            high = converse_lower_bound(math.log2(2 * m), i)
            assert high - low == pytest.approx(1.0 / i, abs=1e-12)

    def test_requires_positive_information(self):
        with pytest.raises(ValueError):
            converse_lower_bound(1.0, 0.0)

    def test_zero_entropy_needs_no_information(self):
        assert converse_lower_bound(0.0, 0.0) == 0.0


class TestAsymptoticParams:
    def test_power_of_two_sixteen(self):
        eps, steps = auto_epsilon_steps(2**16)
        assert eps == pytest.approx(0.25, abs=1e-15)
        assert steps == 8

    def test_huge_power(self):
        eps, steps = auto_epsilon_steps(2**256)
        assert eps == pytest.approx(0.03125, abs=1e-15)
        assert steps == math.ceil(256.0 / (8.0 - 3.0))

    def test_million_users(self):
        eps, steps = auto_epsilon_steps(10**6)
        assert eps == pytest.approx(0.21659024634020064, abs=1e-12)
        assert steps == 10

    def test_schedule_takes_over_at_m_17(self):
        # Below 17 users the iterated logs are not meaningful: clamped defaults.
        assert auto_epsilon_steps(16) == (0.25, 3)
        lm = math.log2(17)
        llm = math.log2(lm)
        assert auto_epsilon_steps(17) == (llm / lm, math.ceil(lm / (llm - math.log2(llm))))


class TestGroupSufficiency:
    def test_huge_group_count_satisfies_everything(self):
        suff = group_sufficiency(10**9, 8.0, 0.5, 2.0, 0.1, 4, 256)
        assert suff.finite_ok and suff.asymptotic_ok and suff.coverage_ok

    def test_zero_groups_satisfies_nothing(self):
        suff = group_sufficiency(0, 8.0, 0.5, 2.0, 0.1, 4, 256)
        assert not (suff.finite_ok or suff.asymptotic_ok or suff.coverage_ok)

    def test_asymptotic_boundary_flips_at_the_exact_requirement(self):
        # H/I * log2 log2 m = 16 * 3 = 48 for H=8, I=0.5, m=256.
        below = group_sufficiency(48, 8.0, 0.5, 2.0, 0.1, 4, 256)
        above = group_sufficiency(49, 8.0, 0.5, 2.0, 0.1, 4, 256)
        assert below.asymptotic_required == pytest.approx(48.0, abs=1e-12)
        assert not below.asymptotic_ok
        assert above.asymptotic_ok


class TestBoundReport:
    def test_report_is_internally_consistent(self):
        report = build_report(
            n=8192, m=256, entropy_bits=8.0, mutual_info_bits=0.5,
            i_max_bits=2.0, epsilon=0.1, steps=4,
        )
        assert report.upper_finite >= report.upper_finite_stated
        assert report.lower_converse == pytest.approx(16.0, abs=1e-12)
        assert report.params_used["m"] == 256 and report.params_used["n"] == 8192
        assert set(report.conditions_met) == {"finite_groups", "asymptotic_groups", "coverage"}
        blob = report.to_json()
        assert blob["lower_converse"] == report.lower_converse
        assert "upper_asymptotic_leading" not in blob

    @pytest.mark.parametrize("mutual_info", [0.0, 0.5])
    def test_single_user_converse_floor_is_zero(self, mutual_info):
        h = entropy(make_prior("uniform", 1))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
        report = build_report(
            n=8, m=1, entropy_bits=h, mutual_info_bits=mutual_info,
            i_max_bits=mutual_info, epsilon=0.25, steps=3,
        )
        assert report.lower_converse == 0.0
        assert math.copysign(1.0, report.lower_converse) == 1.0

    def test_unbounded_values_serialize_as_none(self):
        report = build_report(
            n=8, m=4, entropy_bits=2.0, mutual_info_bits=0.0,
            i_max_bits=0.0, epsilon=0.25, steps=3,
        )
        assert math.isinf(report.lower_converse) and math.isinf(report.upper_finite)
        blob = report.to_json()
        assert blob["lower_converse"] is None and blob["upper_finite"] is None
        assert blob["params_used"]["entropy_bits"] == 2.0

    def test_converse_never_exceeds_certified_upper_when_conditions_hold(self):
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(300):
            h = rng.uniform(0.5, 12.0)
            i = rng.uniform(0.05, 1.0)
            imax = rng.uniform(i, 3.0)
            eps = rng.uniform(0.01, 0.5)
            steps = int(rng.integers(2, 8))
            m = int(rng.integers(2, 4096))
            n = int(rng.integers(1, 10**7))
            suff = group_sufficiency(n, h, i, imax, eps, steps, m)
            if not (suff.finite_ok and suff.asymptotic_ok and suff.coverage_ok):
                continue
            checked += 1
            upper = query_upper_bound(h, i, imax, eps, steps, m)
            assert converse_lower_bound(h, i) <= upper.certified
        assert checked > 20
