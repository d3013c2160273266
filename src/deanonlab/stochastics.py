"""Probability laws of the de-anonymization model and derived information measures.

Three elementary laws parameterize a model instance:

* ``EdgeJointDistribution`` couples the true and scanned edge indicator at a
  single (user, group) position.
* ``QueryChannel`` is the row-stochastic noise on group-membership responses.
* ``VictimPrior`` weights which user index shows up as the victim.

From the first two, ``build_joint_uyz`` assembles the joint law of
(expected response U, received response Y, correct response Z) for a single
group-membership query, and ``InfoMeasures`` derives the per-query evidence
table: the information density i(u; y) = log2 P(y|u) / P(y), its expectation
I(U; Y), and its maximum entry.

The module also owns the outcome code layout. A (true, scanned) bit pair is
stored as one code k, the k-th of the outcomes (0,0), (0,1), (1,1), (1,0):
``EdgeJointDistribution.generation_cuts`` lays them end to end on [0, 1) in
that order, and ``CODE_BITS`` decodes a code into either bit. The tables a
scan reads by code are derived from that layout once per model object and
cached read-only: ``InfoMeasures.density_by_code`` (the density of a
candidate whose scanned bit has code k, given answer y, at entry k + 4y) and
``QueryChannel.p_one_by_code`` (P(answer 1 | the true bit of code k)). The
threshold attack's per-candidate crossing limits are cached on the
``VictimPrior`` the same way (``VictimPrior.crossing_limits``).

Every logarithm in this package is base 2, so entropies, densities, mutual
information and decision thresholds all share the same unit (bits).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Tolerance for "sums to one" checks on distribution tables.
SUM_TOL = 1e-12

#: Sentinel for an observation that is impossible under the candidate's
#: hypothesis. Consumers treat a candidate carrying this value as eliminated
#: for the current attack step rather than raising.
NEG_INF = float("-inf")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # half the cost of assigning a.flags.writeable
    return a


# Each graph's bit by outcome code, in the order generation_cuts lays the outcomes on [0, 1).
CODE_BITS = {
    "true": _read_only(np.array([0, 0, 1, 1], dtype=np.uint8)),
    "scanned": _read_only(np.array([0, 1, 1, 0], dtype=np.uint8)),
}


def _as_table(values, shape, name: str) -> np.ndarray:
    table = np.array(values, dtype=np.float64)
    if table.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {table.shape}")
    if not np.all((table >= 0.0) & (table <= 1.0)):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class EdgeJointDistribution:
    """Joint law of the (true, scanned) edge bits at one graph position.

    ``table[a, b]`` is the probability that the true graph has edge bit ``a``
    and the scanned graph has edge bit ``b`` at the same position. Distinct
    positions are drawn independently.
    """

    table: np.ndarray

    def __post_init__(self):
        table = _as_table(self.table, (2, 2), "edge joint table")
        if abs(float(table.sum()) - 1.0) > SUM_TOL:
            raise ValueError("edge joint table must sum to 1")
        object.__setattr__(self, "table", table)

    @property
    def p0(self) -> float:
        """Marginal edge probability of the true graph."""
        return float(self.table[1, 0] + self.table[1, 1])

    @property
    def p1(self) -> float:
        """Marginal edge probability of the scanned graph."""
        return float(self.table[0, 1] + self.table[1, 1])

    def scanned_given_true(self) -> np.ndarray:
        """Conditional P(scanned bit = u | true bit = z) as a (z, u) table."""
        marg = self.table.sum(axis=1)
        if np.any(marg <= 0.0):
            raise ValueError(
                "conditional undefined: true-edge marginal has a zero-mass value"
            )
        return self.table / marg[:, None]

    @cached_property
    def generation_cuts(self) -> tuple[float, float, float]:
        """Cut points (c1, c2, c3) between the outcomes (0,0), (0,1), (1,1),
        (1,0) of the (true, scanned) bit pair, laid end to end on [0, 1).

        A uniform u falls in outcome ``(u >= c1) + (u >= c2) + (u >= c3)``.
        The cumulative masses are divided by their total, so a zero-mass tail
        ends exactly at 1 and p0 in {0, 1} gives constant true bits.
        """
        t = self.table
        cdf = np.cumsum([t[0, 0], t[0, 1], t[1, 1], t[1, 0]])
        c1, c2, c3 = (cdf[:3] / cdf[3]).tolist()
        return c1, c2, c3

    @classmethod
    def from_marginal_flip(cls, p0: float, flip: float) -> "EdgeJointDistribution":
        """True bit ~ Bernoulli(p0); scanned bit flips it with probability ``flip``."""
        if not 0.0 <= p0 <= 1.0:
            raise ValueError("p0 must lie in [0, 1]")
        if not 0.0 <= flip <= 1.0:
            raise ValueError("flip must lie in [0, 1]")
        table = np.array(
            [
                [(1.0 - p0) * (1.0 - flip), (1.0 - p0) * flip],
                [p0 * flip, p0 * (1.0 - flip)],
            ]
        )
        return cls(table)


@dataclass(frozen=True)
class QueryChannel:
    """Row-stochastic response noise: ``table[z, y]`` = P(received y | correct z)."""

    table: np.ndarray

    def __post_init__(self):
        table = _as_table(self.table, (2, 2), "query channel table")
        if np.any(np.abs(table.sum(axis=1) - 1.0) > SUM_TOL):
            raise ValueError("query channel rows must each sum to 1")
        object.__setattr__(self, "table", table)

    @classmethod
    def bsc(cls, flip: float) -> "QueryChannel":
        """Binary symmetric noise with the given flip probability."""
        if not 0.0 <= flip <= 1.0:
            raise ValueError("flip must lie in [0, 1]")
        return cls(np.array([[1.0 - flip, flip], [flip, 1.0 - flip]]))

    @classmethod
    def identity(cls) -> "QueryChannel":
        return cls(np.eye(2))

    @cached_property
    def p_one_by_code(self) -> np.ndarray:
        """P(received 1 | correct z) at entry k, for z the true bit of outcome code k."""
        return _read_only(self.table[CODE_BITS["true"], 1])


@dataclass(frozen=True)
class VictimPrior:
    """Distribution of the victim's user index over [1, m].

    Entries must be strictly positive: a zero-probability user would carry an
    infinite prior surprisal and can simply be dropped from the index set.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("prior must be a nonempty 1-D vector")
        if not np.all(probs > 0.0):
            raise ValueError("prior entries must be strictly positive")
        if not abs(float(probs.sum()) - 1.0) <= SUM_TOL:
            raise ValueError("prior must sum to 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def m(self) -> int:
        return int(self.probs.size)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative probabilities, the inverse-CDF table of ``sample_victim``."""
        cdf = np.cumsum(self.probs)
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def _cdf_list(self) -> list[float]:
        """``cdf`` as a list of floats, which ``bisect`` searches without a numpy call."""
        return self.cdf.tolist()

    @cached_property
    def surprisal(self) -> np.ndarray:
        """Prior surprisal log2(1 / P(j)) of each user, in bits."""
        surprisal = -np.log2(self.probs)
        surprisal.setflags(write=False)
        return surprisal

    def crossing_limits(self, threshold: float) -> np.ndarray:
        """Per user j, the smallest double L_j with ``L_j - surprisal[j] >= threshold``.

        The subtraction is the rounded float one. Rounding is monotone, so
        for every double s, ``s >= L_j`` holds exactly when
        ``s - surprisal[j] >= threshold`` does: one compare tests a running
        sum against the threshold, with no subtraction. The search starts at
        the rounded ``threshold + surprisal[j]`` and moves by single ulps.
        The limits of the last threshold asked for are cached read-only on
        the prior, so a campaign computes them once.
        """
        cached = self.__dict__.get("_crossing_limits")
        if cached is not None and cached[0] == threshold:
            return cached[1]
        surprisal = self.surprisal
        limits = threshold + surprisal
        while True:
            short = limits - surprisal < threshold
            if not short.any():
                break
            limits[short] = np.nextafter(limits[short], np.inf)
        while True:
            below = np.nextafter(limits, -np.inf)
            reach = below - surprisal >= threshold
            if not reach.any():
                break
            limits[reach] = below[reach]
        self.__dict__["_crossing_limits"] = (threshold, _read_only(limits))
        return limits


def make_prior(kind, m: int | None = None) -> VictimPrior:
    """Build a victim prior.

    ``kind`` is either an explicit probability vector (normalized here), the
    string ``"uniform"``, or ``"zipf:S"`` for weights proportional to
    rank**(-S). String forms require ``m``.
    """
    if isinstance(kind, str):
        if m is None or m < 1:
            raise ValueError("string prior kinds require a positive user count m")
        if kind == "uniform":
            return VictimPrior(np.full(m, 1.0 / m))
        if kind.startswith("zipf:"):
            s = float(kind.split(":", 1)[1])
            if not s >= 0.0:
                raise ValueError("zipf exponent must be a nonnegative number")
            weights = np.arange(1, m + 1, dtype=np.float64) ** (-s)
            return VictimPrior(weights / weights.sum())
        raise ValueError(f"unknown prior kind {kind!r}")
    # A float conversion would read True as 1 and "2" as 2; neither is a weight.
    entries = np.asarray(kind, dtype=object).ravel()
    if any(isinstance(p, (bool, np.bool_, str, bytes)) for p in entries):
        raise ValueError("explicit prior entries must be numbers")
    probs = np.asarray(kind, dtype=np.float64)
    if m is not None and probs.size != m:
        raise ValueError("explicit prior length disagrees with m")
    with np.errstate(over="ignore"):
        total = probs.sum()
    if not (np.all(probs > 0.0) and total < np.inf):
        raise ValueError("prior entries must be strictly positive with a finite sum")
    return VictimPrior(probs / total)


def entropy(prior: VictimPrior) -> float:
    """Shannon entropy of the victim index, in bits."""
    p = prior.probs
    # Adding 0.0 turns the -0.0 of a one-user prior into +0.0.
    return float(-(p * np.log2(p)).sum()) + 0.0


def sample_victim(prior: VictimPrior, seed) -> int:
    """Draw a 1-based victim index, deterministic given ``seed``.

    ``seed`` is an int seed or a ``numpy.random.Generator``, which is drawn
    from. Inverse-CDF sampling on a single uniform, so runs that share a seed
    but vary the prior produce positively coupled draws (useful for
    common-random-number sweeps). The index is the right-side
    ``searchsorted`` of the uniform in ``prior.cdf``, found by bisecting the
    same values as a list.
    """
    cdf = prior._cdf_list
    return min(bisect_right(cdf, np.random.default_rng(seed).random()), len(cdf) - 1) + 1


@dataclass(frozen=True)
class JointUYZ:
    """Joint law P(u, y, z) of one group-membership query.

    z is the correct response (the true-graph edge bit), u the response the
    attacker's scanned graph predicts, y the noisy response actually received.
    u and y are conditionally independent given z.
    """

    table: np.ndarray

    def __post_init__(self):
        table = _as_table(self.table, (2, 2, 2), "joint u,y,z table")
        if abs(float(table.sum()) - 1.0) > SUM_TOL:
            raise ValueError("joint u,y,z table must sum to 1")
        object.__setattr__(self, "table", table)

    def p_uy(self) -> np.ndarray:
        return self.table.sum(axis=2)


def build_joint_uyz(edge_joint: EdgeJointDistribution, gm: QueryChannel) -> JointUYZ:
    """Assemble P(u, y, z) = P(z) P(u|z) P(y|z) for one group query.

    P(z) is the true-graph edge marginal Bernoulli(p0): the correct answer to
    "is the victim in this group" is exactly the victim's true-graph edge bit.
    Degenerate p0 in {0, 1} is rejected; such a model yields uninformative
    queries and leaves the scanned-bit conditional undefined on one branch.
    """
    p0 = edge_joint.p0
    if not 0.0 < p0 < 1.0:
        raise ValueError("degenerate model: true-edge marginal p0 must lie in (0, 1)")
    p_z = np.array([1.0 - p0, p0])
    u_given_z = edge_joint.scanned_given_true()
    table = np.einsum("z,zu,zy->uyz", p_z, u_given_z, gm.table)
    return JointUYZ(table)


@dataclass(frozen=True)
class InfoMeasures:
    """Per-query evidence table derived from a JointUYZ.

    ``density[u, y]`` is the information density i(u; y) in bits, with
    impossible (u, y) pairs carried as the -inf sentinel. ``mutual_info`` is
    its expectation under P(u, y); ``i_max`` the largest finite entry.
    Possible pairs have finite densities, however small their masses.
    """

    density: np.ndarray
    mutual_info: float
    i_max: float

    @classmethod
    def from_joint(cls, joint: JointUYZ) -> "InfoMeasures":
        p_uy = joint.p_uy()
        p_u = p_uy.sum(axis=1)
        p_y = p_uy.sum(axis=0)
        density = np.full((2, 2), NEG_INF)
        mask = p_uy > 0.0
        u, y = np.nonzero(mask)
        outer = p_u[u] * p_y[y]
        # A product of two tiny marginals can underflow to 0; its log is then
        # the sum of their logs, which leaves every other entry as it was.
        tiny = outer == 0.0
        outer[tiny] = 1.0
        log_outer = np.log2(outer)
        log_outer[tiny] = np.log2(p_u[u[tiny]]) + np.log2(p_y[y[tiny]])
        density[mask] = np.log2(p_uy[mask]) - log_outer
        mutual = float((p_uy[mask] * density[mask]).sum())
        # Exact arithmetic gives a nonnegative value; guard rounding residue.
        mutual = max(mutual, 0.0)
        density.setflags(write=False)
        return cls(density=density, mutual_info=mutual, i_max=float(density[mask].max()))

    @cached_property
    def density_by_code(self) -> np.ndarray:
        """i(u; y) at entry k + 4y, for u the scanned bit of outcome code k (length 8)."""
        return _read_only(self.density[CODE_BITS["scanned"]].T.ravel())
