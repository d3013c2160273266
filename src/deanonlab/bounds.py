"""Closed-form performance bounds for query-count comparison.

The threshold attack's expected query count admits the finite-size upper
bound

    (1 / (1 - eps)) * ((H + log2(1/eps) + i_max) / I + 1) + (m / 2) * eps**k

with H the victim-index entropy, I the per-query mutual information, i_max
the largest information density, eps the threshold parameter and k a tail
exponent tied to the retry budget ``steps``. The stricter accounting of the
step-failure chain yields exponent ``steps``; a conservative variant uses
``steps - 1``. Both are computed, and the looser ``steps - 1`` variant is
reported as the certified bound.

Any strategy whatsoever needs at least H / I queries to leading order, so
that ratio serves as the converse reference line. Its finite-size correction
terms are not modeled: at small m the empirical mean may legitimately sit
slightly below the ratio.

All inputs and outputs use bits (base-2 logs), matching the rest of the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class UpperBound(NamedTuple):
    stated: float
    certified: float


class GroupSufficiency(NamedTuple):
    """Group-count requirements, each paired with whether n satisfies it.

    ``finite``: groups the retry chain could consume within the tail budget.
    ``asymptotic``: H / I * log2 log2 m, the large-m schedule requirement.
    ``coverage``: the finite upper bound itself (queries never exceed groups).
    """

    finite_required: float
    finite_ok: bool
    asymptotic_required: float
    asymptotic_ok: bool
    coverage_required: float
    coverage_ok: bool


@dataclass(frozen=True)
class BoundReport:
    """Bound values and validity conditions for one model configuration."""

    upper_finite: float  # certified variant (looser tail exponent)
    upper_finite_stated: float
    lower_converse: float
    groups_required_finite: float
    groups_required_asymptotic: float
    params_used: dict
    conditions_met: dict

    def to_json(self) -> dict:
        """Plain dict of the report; an infinite value (unbounded) becomes None."""
        return {
            "upper_finite": _finite_or_none(self.upper_finite),
            "upper_finite_stated": _finite_or_none(self.upper_finite_stated),
            "lower_converse": _finite_or_none(self.lower_converse),
            "groups_required_finite": _finite_or_none(self.groups_required_finite),
            "groups_required_asymptotic": _finite_or_none(self.groups_required_asymptotic),
            "params_used": {k: _finite_or_none(v) for k, v in self.params_used.items()},
            "conditions_met": dict(self.conditions_met),
        }


def _finite_or_none(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _check_core_params(mutual_info_bits: float, epsilon: float, steps: int):
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if mutual_info_bits < 0.0:
        raise ValueError("mutual information cannot be negative")


def query_upper_bound(
    entropy_bits: float,
    mutual_info_bits: float,
    i_max_bits: float,
    epsilon: float,
    steps: int,
    m: int,
) -> UpperBound:
    """Finite-size upper bound on the expected query count, both tail variants.

    Returns +inf in both slots when the mutual information is zero: group
    queries carry no evidence and the threshold phase never ends on its own.
    """
    _check_core_params(mutual_info_bits, epsilon, steps)
    if mutual_info_bits == 0.0:
        return UpperBound(math.inf, math.inf)
    core = (1.0 / (1.0 - epsilon)) * (
        (entropy_bits + math.log2(1.0 / epsilon) + i_max_bits) / mutual_info_bits + 1.0
    )
    tail = 0.5 * m
    return UpperBound(
        stated=core + tail * epsilon**steps,
        certified=core + tail * epsilon ** (steps - 1),
    )


def converse_lower_bound(entropy_bits: float, mutual_info_bits: float) -> float:
    """Leading-order lower bound H / I on any strategy's expected queries.

    Zero when H = 0, whatever I: a known victim needs no queries at all.
    """
    if entropy_bits == 0.0:
        return 0.0
    if mutual_info_bits <= 0.0:
        raise ValueError("converse requires strictly positive mutual information")
    return entropy_bits / mutual_info_bits


def group_sufficiency(
    n: int,
    entropy_bits: float,
    mutual_info_bits: float,
    i_max_bits: float,
    epsilon: float,
    steps: int,
    m: int,
) -> GroupSufficiency:
    """Check the group-count conditions under which the upper bound applies.

    All three are strict "required < n" comparisons; the required values are
    reported so callers can see the margins.
    """
    _check_core_params(mutual_info_bits, epsilon, steps)
    if mutual_info_bits == 0.0:
        finite = coverage = math.inf
        asymptotic = math.inf if entropy_bits > 0.0 else 0.0
    else:
        inner = (
            entropy_bits + math.log2(1.0 / epsilon) + i_max_bits
        ) / mutual_info_bits + 1.0
        finite = inner / ((1.0 - epsilon) * epsilon**steps)
        if m >= 4:
            asymptotic = (entropy_bits / mutual_info_bits) * math.log2(math.log2(m))
        else:
            asymptotic = 0.0
        coverage = query_upper_bound(
            entropy_bits, mutual_info_bits, i_max_bits, epsilon, steps, m
        ).stated
    return GroupSufficiency(
        finite_required=finite,
        finite_ok=finite < n,
        asymptotic_required=asymptotic,
        asymptotic_ok=asymptotic < n,
        coverage_required=coverage,
        coverage_ok=coverage < n,
    )


def build_report(
    n: int,
    m: int,
    entropy_bits: float,
    mutual_info_bits: float,
    i_max_bits: float,
    epsilon: float,
    steps: int,
) -> BoundReport:
    """Assemble the full bound report for one model configuration."""
    upper = query_upper_bound(entropy_bits, mutual_info_bits, i_max_bits, epsilon, steps, m)
    if mutual_info_bits > 0.0 or entropy_bits == 0.0:
        lower = converse_lower_bound(entropy_bits, mutual_info_bits)
    else:
        lower = math.inf
    suff = group_sufficiency(n, entropy_bits, mutual_info_bits, i_max_bits, epsilon, steps, m)
    return BoundReport(
        upper_finite=upper.certified,
        upper_finite_stated=upper.stated,
        lower_converse=lower,
        groups_required_finite=suff.finite_required,
        groups_required_asymptotic=suff.asymptotic_required,
        params_used={
            "epsilon": epsilon,
            "l": steps,
            "entropy_bits": entropy_bits,
            "mutual_info_bits": mutual_info_bits,
            "i_max_bits": i_max_bits,
            "m": m,
            "n": n,
        },
        conditions_met={
            "finite_groups": suff.finite_ok,
            "asymptotic_groups": suff.asymptotic_ok,
            "coverage": suff.coverage_ok,
        },
    )
