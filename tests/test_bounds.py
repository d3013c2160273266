import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deanonlab.attacker import auto_epsilon_steps
from deanonlab.bounds import build_report
from deanonlab.stochastics import (
    EdgeJointDistribution,
    InfoMeasures,
    QueryChannel,
    build_joint_uyz,
    entropy,
    make_prior,
)


def _report(h, i, imax=1.0, eps=0.25, steps=3, m=4, n=1):
    return build_report(
        n=n, m=m, entropy_bits=h, mutual_info_bits=i,
        i_max_bits=imax, epsilon=eps, steps=steps,
    )


class TestUpperBound:
    def test_frozen_reference_point(self):
        # H=8, I=0.5, i_max=2, eps=0.1, steps=4, m=256, evaluated by hand:
        # core = (1/0.9)((8 + log2(10) + 2)/0.5 + 1); tails 128*eps^4, 128*eps^3.
        bound = _report(8.0, 0.5, 2.0, 0.1, 4, 256)
        assert bound.upper_finite_stated == pytest.approx(30.728195766416, abs=1e-9)
        assert bound.upper_finite == pytest.approx(30.843395766416, abs=1e-9)

    def test_tail_vanishes_for_large_step_budget(self):
        bound = _report(0.0, 1.0, 1.0, 0.5, 60, 2)
        assert bound.upper_finite_stated == pytest.approx(6.0, abs=1e-12)
        assert bound.upper_finite == pytest.approx(6.0, abs=1e-12)

    def test_more_information_means_fewer_queries(self):
        low = _report(8.0, 0.5, 2.0, 0.1, 4, 256)
        high = _report(8.0, 1.0, 2.0, 0.1, 4, 256)
        assert high.upper_finite < low.upper_finite

    def test_zero_information_is_unbounded(self):
        bound = _report(8.0, 0.0, 1.0, 0.1, 4, 256)
        assert math.isinf(bound.upper_finite_stated) and math.isinf(bound.upper_finite)

    def test_certified_variant_is_the_looser_one(self):
        bound = _report(5.0, 0.7, 1.5, 0.2, 3, 64)
        assert bound.upper_finite >= bound.upper_finite_stated

    def test_monotonicity_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h = rng.uniform(0.0, 12.0)
            i = rng.uniform(0.05, 1.0)
            imax = rng.uniform(i, 3.0)
            eps = rng.uniform(0.01, 0.9)
            steps = int(rng.integers(1, 8))
            m = int(rng.integers(2, 4096))
            base = _report(h, i, imax, eps, steps, m).upper_finite
            assert _report(h + 0.5, i, imax, eps, steps, m).upper_finite >= base
            assert _report(h, i + 0.05, imax, eps, steps, m).upper_finite <= base
            assert _report(h, i, imax + 0.5, eps, steps, m).upper_finite >= base
            assert _report(h, i, imax, eps, steps + 1, m).upper_finite <= base
            assert _report(h, i, imax, eps, steps, 2 * m).upper_finite >= base

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _report(1.0, 0.5, 1.0, 0.0, 2, 4)
        with pytest.raises(ValueError):
            _report(1.0, 0.5, 1.0, 0.5, 0, 4)
        with pytest.raises(ValueError, match="mutual information"):
            _report(1.0, -0.5)


class TestConverse:
    def test_zero_entropy(self):
        assert _report(0.0, 1.0).lower_converse == 0.0

    def test_simple_ratio(self):
        assert _report(3.0, 1.0).lower_converse == pytest.approx(3.0, abs=1e-15)

    def test_composed_from_model_measures(self):
        prior = make_prior("zipf:1", 16)
        edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.1)
        joint = build_joint_uyz(edge, QueryChannel.bsc(0.2))
        h = entropy(prior)
        i = InfoMeasures.from_joint(joint).mutual_info
        assert _report(h, i).lower_converse == pytest.approx(h / i, abs=1e-12)

    def test_doubling_users_adds_inverse_information(self):
        i = 0.37
        for m in (4, 16, 128):
            low = _report(math.log2(m), i).lower_converse
            high = _report(math.log2(2 * m), i).lower_converse
            assert high - low == pytest.approx(1.0 / i, abs=1e-12)

    def test_requires_positive_information(self):
        # Without information no strategy can pin down an uncertain victim.
        assert _report(1.0, 0.0).lower_converse == math.inf

    def test_zero_entropy_needs_no_information(self):
        assert _report(0.0, 0.0).lower_converse == 0.0


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
        met = _report(8.0, 0.5, 2.0, 0.1, 4, 256, n=10**9).conditions_met
        assert met["finite_groups"] and met["asymptotic_groups"] and met["coverage"]

    def test_zero_groups_satisfies_nothing(self):
        met = _report(8.0, 0.5, 2.0, 0.1, 4, 256, n=0).conditions_met
        assert not (met["finite_groups"] or met["asymptotic_groups"] or met["coverage"])

    def test_asymptotic_boundary_flips_at_the_exact_requirement(self):
        # H/I * log2 log2 m = 16 * 3 = 48 for H=8, I=0.5, m=256.
        below = _report(8.0, 0.5, 2.0, 0.1, 4, 256, n=48)
        above = _report(8.0, 0.5, 2.0, 0.1, 4, 256, n=49)
        assert below.groups_required_asymptotic == pytest.approx(48.0, abs=1e-12)
        assert not below.conditions_met["asymptotic_groups"]
        assert above.conditions_met["asymptotic_groups"]

    def test_coverage_flips_at_the_stated_bound(self):
        # core = 2 * ((8 + 1 + 2)/0.5 + 1) = 46; tails 128*0.5 and 128*1.
        below = _report(8.0, 0.5, 2.0, 0.5, 1, 256, n=110)
        above = _report(8.0, 0.5, 2.0, 0.5, 1, 256, n=111)
        assert below.upper_finite_stated == 110.0 and above.upper_finite == 174.0
        assert not below.conditions_met["coverage"]
        assert above.conditions_met["coverage"]

    def test_finite_requirement_is_unbounded_when_the_tail_budget_underflows(self):
        # eps**steps = 1e-400 is below the smallest float.
        bound = _report(2.0, 0.5, 1.0, 0.01, 200, 4, n=8)
        assert bound.groups_required_finite == math.inf
        assert not bound.conditions_met["finite_groups"]
        assert bound.to_json()["groups_required_finite"] is None


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
            bound = _report(h, i, imax, eps, steps, m, n)
            if not all(bound.conditions_met.values()):
                continue
            checked += 1
            assert bound.lower_converse <= bound.upper_finite
        assert checked > 20


_ENTROPY = st.one_of(st.just(0.0), st.floats(0.0, 40.0))
_INFO = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))


@settings(max_examples=300, deadline=None)
@given(
    h=_ENTROPY,
    i=_INFO,
    imax=st.floats(0.0, 20.0),
    eps=st.floats(1e-6, 1.0, exclude_max=True),
    steps=st.integers(1, 400),
    m=st.integers(1, 2**20),
    n=st.integers(0, 10**9),
)
def test_report_orders_its_bounds_and_states_each_condition(h, i, imax, eps, steps, m, n):
    bound = _report(h, i, imax, eps, steps, m, n)
    if i > 0.0:
        assert bound.lower_converse <= bound.upper_finite_stated <= bound.upper_finite
    else:
        assert bound.upper_finite_stated == bound.upper_finite == math.inf
    assert bound.conditions_met == {
        "finite_groups": bound.groups_required_finite < n,
        "asymptotic_groups": bound.groups_required_asymptotic < n,
        "coverage": bound.upper_finite_stated < n,
    }
