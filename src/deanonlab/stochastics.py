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

Each law derives once, when built, the read-only tables its readers use:
the integer cut points of the graph's generation stream
(``EdgeJointDistribution.generation_cuts``; the ``graph`` module describes
the layout), the channel's ``QueryChannel.p_one_by_bit`` (P(answer 1 | true
bit z) at entry z), and the prior's surprisals and the cumulative list
that ``sample_victim`` bisects. ``VictimPrior.crossing_limits`` computes
the threshold attack's per-candidate crossing limits. The 2x2 laws are
checked and combined as Python floats, adding and multiplying in the order
numpy does, so each value equals numpy's to the bit; logarithms still come
from ``np.log2``.

Every logarithm in this package is base 2, so entropies, densities, mutual
information and decision thresholds all share the same unit (bits).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

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


# Each graph position reads one uniform 32-bit integer, so the cut points
# are integers in [0, 2**32].
_UNIFORM_RANGE = 1 << 32

def _as_table(values, shape, name: str) -> tuple[np.ndarray, list[float]]:
    """``values`` as a read-only float64 table of ``shape``, and its entries as a flat list.

    The tables are small, so the range and sum checks run on the list.
    """
    table = np.array(values, dtype=np.float64)
    if table.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {table.shape}")
    entries = table.ravel().tolist()
    for p in entries:
        if not 0.0 <= p <= 1.0:  # NaN fails too
            raise ValueError(f"{name} entries must lie in [0, 1]")
    table.setflags(write=False)
    return table, entries


@dataclass(frozen=True)
class EdgeJointDistribution:
    """Joint law of the (true, scanned) edge bits at one graph position.

    ``table[a, b]`` is the probability that the true graph has edge bit ``a``
    and the scanned graph has edge bit ``b`` at the same position. Distinct
    positions are drawn independently.

    ``generation_cuts`` holds the integer cut points (C1, C2, C3) between
    the outcomes (0,0), (0,1), (1,1), (1,0) of the (true, scanned) bit pair,
    laid end to end on the 32-bit integers: a uniform u in [0, 2**32) falls
    in outcome ``(u >= C1) + (u >= C2) + (u >= C3)``. ``C_k`` is
    ``ceil(c_k * 2**32)`` for the running sums c_k of the masses in that
    order, divided by their total. The rounding moves each outcome's
    probability by less than 2**-32; an outcome of zero mass gets an empty
    interval and one of unit mass all of [0, 2**32), so p0 in {0, 1} still
    gives constant true bits.
    """

    table: np.ndarray
    generation_cuts: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table, entries = _as_table(self.table, (2, 2), "edge joint table")
        if abs(math.fsum(entries) - 1.0) > SUM_TOL:
            raise ValueError("edge joint table must sum to 1")
        object.__setattr__(self, "table", table)
        # Running sums over the outcomes in layout order, as np.cumsum adds them.
        t00, t01, t10, t11 = entries
        c1 = t00
        c2 = c1 + t01
        c3 = c2 + t11
        total = c3 + t10
        cuts = tuple(math.ceil(c / total * _UNIFORM_RANGE) for c in (c1, c2, c3))
        object.__setattr__(self, "generation_cuts", cuts)

    @property
    def p0(self) -> float:
        """Marginal edge probability of the true graph."""
        return self.table.item(1, 0) + self.table.item(1, 1)

    @property
    def p1(self) -> float:
        """Marginal edge probability of the scanned graph."""
        return self.table.item(0, 1) + self.table.item(1, 1)

    @classmethod
    def from_marginal_flip(cls, p0: float, flip: float) -> "EdgeJointDistribution":
        """True bit ~ Bernoulli(p0); scanned bit flips it with probability ``flip``."""
        if not 0.0 <= p0 <= 1.0:
            raise ValueError("p0 must lie in [0, 1]")
        if not 0.0 <= flip <= 1.0:
            raise ValueError("flip must lie in [0, 1]")
        return cls(
            [
                [(1.0 - p0) * (1.0 - flip), (1.0 - p0) * flip],
                [p0 * flip, p0 * (1.0 - flip)],
            ]
        )


@dataclass(frozen=True)
class QueryChannel:
    """Row-stochastic response noise: ``table[z, y]`` = P(received y | correct z).

    ``p_one_by_bit`` is P(received 1 | correct z) at entry z, a contiguous
    copy of ``table[:, 1]``.
    """

    table: np.ndarray
    p_one_by_bit: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table, (p00, p01, p10, p11) = _as_table(self.table, (2, 2), "query channel table")
        if abs(p00 + p01 - 1.0) > SUM_TOL or abs(p10 + p11 - 1.0) > SUM_TOL:
            raise ValueError("query channel rows must each sum to 1")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "p_one_by_bit", _read_only(table[:, 1].copy()))

    @classmethod
    def bsc(cls, flip: float) -> "QueryChannel":
        """Binary symmetric noise with the given flip probability."""
        if not 0.0 <= flip <= 1.0:
            raise ValueError("flip must lie in [0, 1]")
        return cls([[1.0 - flip, flip], [flip, 1.0 - flip]])

    @classmethod
    def identity(cls) -> "QueryChannel":
        return cls(np.eye(2))


@dataclass(frozen=True)
class VictimPrior:
    """Distribution of the victim's user index over [1, m].

    Entries must be strictly positive: a zero-probability user would carry an
    infinite prior surprisal and can simply be dropped from the index set.
    ``surprisal`` is each user's prior surprisal log2(1 / P(j)), in bits;
    ``_cdf_list`` holds the cumulative probabilities as a list of floats,
    which ``sample_victim`` bisects without a numpy call.
    """

    probs: np.ndarray
    surprisal: np.ndarray = field(init=False, repr=False, compare=False)
    _cdf_list: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("prior must be a nonempty 1-D vector")
        if not np.minimum.reduce(probs) > 0.0:  # NaN fails too
            raise ValueError("prior entries must be strictly positive")
        if not abs(float(np.add.reduce(probs)) - 1.0) <= SUM_TOL:
            raise ValueError("prior must sum to 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "surprisal", _read_only(-np.log2(probs)))
        object.__setattr__(self, "_cdf_list", np.add.accumulate(probs).tolist())

    @property
    def m(self) -> int:
        return int(self.probs.size)

    def crossing_limits(self, threshold: float) -> np.ndarray:
        """Per user j, the smallest double L_j with ``L_j - surprisal[j] >= threshold``.

        The subtraction is the rounded float one. Rounding is monotone, so
        for every double s, ``s >= L_j`` holds exactly when
        ``s - surprisal[j] >= threshold`` does: one compare tests a running
        sum against the threshold, with no subtraction. The search starts at
        the rounded ``threshold + surprisal[j]`` and moves by single ulps.
        The threshold must be positive, as log2(1/eps) is for every eps in
        (0, 1): below 0 a limit near 0 could be billions of ulps from its
        start, and the search would not end. The limits are returned
        read-only.
        """
        if not threshold > 0.0:
            raise ValueError("threshold must be a positive number of bits")
        surprisal = self.surprisal
        limits = threshold + surprisal
        while True:
            short = limits - surprisal < threshold
            if not np.count_nonzero(short):
                break
            limits[short] = np.nextafter(limits[short], np.inf)
        while True:
            # Each limit lies above its surprisal, which is at least 0, so it
            # is a positive double: the next double down has integer bits one
            # lower.
            below = (limits.view(np.int64) - 1).view(np.float64)
            reach = below - surprisal >= threshold
            if not np.count_nonzero(reach):
                break
            limits[reach] = below[reach]
        return _read_only(limits)


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
            return VictimPrior(weights / np.add.reduce(weights))
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
    # The sum of P(j) log2(1 / P(j)); adding 0.0 turns the -0.0 of a one-user
    # prior into +0.0.
    return float(np.add.reduce(prior.probs * prior.surprisal)) + 0.0


def sample_victim(prior: VictimPrior, seed) -> int:
    """Draw a 1-based victim index, deterministic given ``seed``.

    ``seed`` is an int seed or a ``numpy.random.Generator``, which is drawn
    from. Inverse-CDF sampling on a single uniform, so runs that share a seed
    but vary the prior produce positively coupled draws (useful for
    common-random-number sweeps). The index is the right-side
    ``searchsorted`` of the uniform in the prior's cumulative probabilities,
    found by bisecting them as a list.
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
        table, entries = _as_table(self.table, (2, 2, 2), "joint u,y,z table")
        if abs(math.fsum(entries) - 1.0) > SUM_TOL:
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
    rows = edge_joint.table.tolist()
    # p0 in (0, 1) can still leave a row without mass: the table sums to 1
    # only within SUM_TOL.
    if min(a + b for a, b in rows) <= 0.0:
        raise ValueError("conditional undefined: true-edge marginal has a zero-mass value")
    (u00, u01), (u10, u11) = ((a / (a + b), b / (a + b)) for a, b in rows)  # P(u | z) by (z, u)
    (y00, y01), (y10, y11) = gm.table.tolist()  # P(y | z) by (z, y)
    q0, q1 = 1.0 - p0, p0  # P(z)
    # Entry [u][y][z], multiplied left to right as np.einsum multiplies its operands.
    table = [
        [[q0 * u00 * y00, q1 * u10 * y10], [q0 * u00 * y01, q1 * u10 * y11]],
        [[q0 * u01 * y00, q1 * u11 * y10], [q0 * u01 * y01, q1 * u11 * y11]],
    ]
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
        # The marginals add two entries each, as numpy's sums do, and the
        # mutual information adds its terms in row-major order, as a numpy
        # sum of four or fewer entries does.
        ((a, b), (c, d)), ((e, f), (g, h)) = joint.table.tolist()  # [u][y][z]
        p_uy = ((a + b, c + d), (e + f, g + h))
        p_u = (p_uy[0][0] + p_uy[0][1], p_uy[1][0] + p_uy[1][1])
        p_y = (p_uy[0][0] + p_uy[1][0], p_uy[0][1] + p_uy[1][1])
        pairs = [(u, y) for u, y in ((0, 0), (0, 1), (1, 0), (1, 1)) if p_uy[u][y] > 0.0]
        # A product of two tiny marginals can underflow to 0; its log is then
        # the sum of their logs, which leaves every other entry as it was.
        # One np.log2 call over a float64 array takes every logarithm, four
        # per possible pair.
        args = []
        for u, y in pairs:
            outer = p_u[u] * p_y[y]
            args += (p_uy[u][y], outer if outer > 0.0 else 1.0, p_u[u], p_y[y])
        logs = np.log2(args).tolist()
        density = [[NEG_INF, NEG_INF], [NEG_INF, NEG_INF]]
        mutual = 0.0
        for n, (u, y) in enumerate(pairs):
            log_uy, log_outer, log_u, log_y = logs[4 * n : 4 * n + 4]
            if p_u[u] * p_y[y] == 0.0:
                log_outer = log_u + log_y
            density[u][y] = log_uy - log_outer
            mutual += p_uy[u][y] * density[u][y]
        # Exact arithmetic gives a nonnegative value; guard rounding residue.
        mutual = max(mutual, 0.0)
        i_max = max(density[u][y] for u, y in pairs)
        return cls(density=_read_only(np.array(density)), mutual_info=mutual, i_max=i_max)

