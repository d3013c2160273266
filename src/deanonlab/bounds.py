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

H / I is the leading-order cost of group queries at fixed I as m grows
without bound, and serves as the converse reference line. It is not a
floor at finite m: identity queries carry information too, and a strategy
that picks each next group by the current posterior can learn more than I
bits per query, so either can beat it (an identity scan over 64 users
averaged 32 queries against H / I = 50.5). Its finite-size correction terms
are not modeled.

All inputs and outputs use bits (base-2 logs), matching the rest of the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class BoundReport:
    """Bound values and validity conditions for one model configuration.

    ``conditions_met`` pairs each group-count requirement with a strict
    "required < n" comparison; the required values are reported so callers
    can see the margins:

    * ``finite_groups``: ``groups_required_finite``, the groups the retry
      chain could consume within the tail budget;
    * ``asymptotic_groups``: ``groups_required_asymptotic``,
      H / I * log2 log2 m, the large-m schedule requirement;
    * ``coverage``: ``upper_finite_stated``, the finite upper bound itself
      (queries never exceed groups).
    """

    upper_finite: float  # certified variant (looser tail exponent)
    upper_finite_stated: float
    lower_converse: float
    groups_required_finite: float
    groups_required_asymptotic: float
    params_used: dict
    conditions_met: dict

    def to_json(self) -> dict:
        """Plain dict of the report, in field order; an infinite value (unbounded) becomes None."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                out[f.name] = {k: _finite_or_none(v) for k, v in value.items()}
            else:
                out[f.name] = _finite_or_none(value)
        return out


def _finite_or_none(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def build_report(
    n: int,
    m: int,
    entropy_bits: float,
    mutual_info_bits: float,
    i_max_bits: float,
    epsilon: float,
    steps: int,
) -> BoundReport:
    """Assemble the full bound report for one model configuration.

    With zero mutual information group queries carry no evidence and the
    threshold phase never ends on its own: both upper bounds and the finite
    group requirement are +inf. The converse floor and the asymptotic group
    requirement are then 0 for a known victim (H = 0) and +inf otherwise.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if mutual_info_bits < 0.0:
        raise ValueError("mutual information cannot be negative")
    if mutual_info_bits == 0.0:
        stated = certified = finite = math.inf
        lower = asymptotic = 0.0 if entropy_bits == 0.0 else math.inf
    else:
        inner = (entropy_bits + math.log2(1.0 / epsilon) + i_max_bits) / mutual_info_bits + 1.0
        core = (1.0 / (1.0 - epsilon)) * inner
        tail = 0.5 * m
        stated = core + tail * epsilon**steps
        certified = core + tail * epsilon ** (steps - 1)
        budget = (1.0 - epsilon) * epsilon**steps  # underflows to 0 for long chains
        finite = inner / budget if budget > 0.0 else math.inf
        # A known victim needs no queries; the test also keeps H = -0.0 at +0.0.
        lower = 0.0 if entropy_bits == 0.0 else entropy_bits / mutual_info_bits
        if m >= 4:
            asymptotic = (entropy_bits / mutual_info_bits) * math.log2(math.log2(m))
        else:
            asymptotic = 0.0
    return BoundReport(
        upper_finite=certified,
        upper_finite_stated=stated,
        lower_converse=lower,
        groups_required_finite=finite,
        groups_required_asymptotic=asymptotic,
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
            "finite_groups": finite < n,
            "asymptotic_groups": asymptotic < n,
            "coverage": stated < n,
        },
    )
