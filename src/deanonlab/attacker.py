"""The information threshold attack, and with no threshold steps its identity scan.

The threshold attack keeps one running score per candidate user j:

    score(j) = sum of information densities i(u_t(j); y_t) over the group
               queries issued so far, minus the prior surprisal
               log2(1 / P(victim = j)),

where u_t(j) is candidate j's scanned-graph bit for the queried group and
y_t the received response. Group queries walk a shared cursor through fresh
groups; the walk stops as soon as some candidate's score reaches the
threshold log2(1/epsilon). The top-scoring candidate is then verified with a
single noiseless identity query. On failure the candidate is struck from all
later consideration, scores reset, and the walk resumes on the next groups.
After ``steps_l - 1`` failed verifications (or if the graph runs out of
groups), the attack falls back to exhaustive identity queries over the users
not yet struck, so it always terminates with the victim found. With
``steps_l = 1`` there is no threshold step and the attack is that fallback
alone: in the "random" order it is the naive identity-scan baseline.

The walk is computed a block of groups at a time rather than one query at a
time: the scanned bits of the block, the received answers to all its
queries, every candidate's running sum after each of them (a cumulative sum
along the block), and the first query after which some score reaches the
threshold. The queries past that crossing are dropped. This is exact, not an
approximation: the running sum after query k is ((info + d_1) + d_2) + ... +
d_k, the same floating-point adds in the same order as folding one answer at
a time, and the stop test is the same subtraction and comparison, so the
transcript is bit-identical to the one-query walk. Dropped answers cost
nothing either: noise is indexed by query ordinal, and every group query
asks the next unused group, so a query's ordinal is its group index and the
next step reads the same answers again.

A candidate whose expected bit makes the received response impossible
(density -inf) drops out of the running step but is revived by the next
reset; only failed identity checks eliminate permanently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, repeat

import numpy as np

from .graph import BigraphPair
# expected_response_column is the one-group form of the block read in
# run_its; it stays importable here because the benchmark's tracer patches
# the attack's call sites on this module.
from .oracle import VictimInstance, expected_response_column  # noqa: F401
from .stochastics import InfoMeasures, VictimPrior

FINAL_PHASE_ORDERS = ("by_info_value_desc", "random", "by_prior_desc")


@dataclass(frozen=True)
class ITSConfig:
    """Tuning knobs of the information threshold attack.

    epsilon sets the stopping threshold log2(1/epsilon); steps_l caps the
    number of verify-and-retry rounds before the exhaustive fallback. Groups
    are always consumed in increasing index order. ``final_phase_order``
    picks the order of fallback identity queries.
    """

    epsilon: float
    steps_l: int
    final_phase_order: str = "by_info_value_desc"

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly inside (0, 1)")
        if self.steps_l < 1:
            raise ValueError("steps_l must be at least 1")
        if self.final_phase_order not in FINAL_PHASE_ORDERS:
            raise ValueError(f"final_phase_order must be one of {FINAL_PHASE_ORDERS}")

    @property
    def threshold_bits(self) -> float:
        return math.log2(1.0 / self.epsilon)


def auto_epsilon_steps(m: int) -> tuple[float, int]:
    """Default (epsilon, steps_l) schedule as a function of the user count.

    Tracks the asymptotic schedule epsilon = log2 log2 m / log2 m with steps
    log2 m / (log2 log2 m - log2 log2 log2 m), clamped to usable values:
    epsilon at most 0.5, at least 2 steps, and fixed (0.25, 3) for m <= 16
    where the iterated logs are not meaningful.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m <= 16:
        return 0.25, 3
    lm = math.log2(m)
    llm = math.log2(lm)
    lllm = math.log2(llm)
    eps = min(llm / lm, 0.5)
    steps = max(2, math.ceil(lm / (llm - lllm)))
    return eps, steps


@dataclass
class ITSState:
    """Mutable per-run attacker state.

    ``info`` accumulates the density sums; a -inf entry means the candidate
    is out of the current step. ``eliminated`` marks candidates struck by a
    failed identity check; they stay struck across resets.
    ``prior_surprisal`` is the prior's own read-only ``VictimPrior.surprisal``.
    """

    info: np.ndarray
    prior_surprisal: np.ndarray
    group_cursor: int
    eliminated: np.ndarray

    def scores(self) -> np.ndarray:
        """Candidate scores: accumulated density minus prior surprisal."""
        out = self.info - self.prior_surprisal
        out[self.eliminated] = -np.inf
        return out


def init_state(prior: VictimPrior, config: ITSConfig) -> ITSState:
    """Fresh state: zero accumulators, surprisal log2(1/P(j)), cursor at group 1."""
    m = prior.m
    return ITSState(
        info=np.zeros(m),
        prior_surprisal=prior.surprisal,
        group_cursor=1,
        eliminated=np.zeros(m, dtype=bool),
    )


def gm_update(state: ITSState, column: np.ndarray, y: int, measures: InfoMeasures) -> ITSState:
    """Fold one group-membership response into every candidate's accumulator.

    This is the one-query form of the block scan in :func:`run_its`.
    ``column`` holds each candidate's expected bit for the queried group.
    Candidates whose expected bit makes ``y`` impossible pick up the -inf
    sentinel and thereby leave the current step. Struck candidates already
    sit at -inf relative to any threshold, so the blanket add is harmless.
    """
    state.info += measures.density[column, y]
    return state


def threshold_check(state: ITSState, epsilon: float) -> tuple[bool, np.ndarray]:
    """Stop decision: does any live candidate's score reach log2(1/epsilon)?

    Returns the decision plus the 1-based indices of all candidates at or
    above the threshold (the comparison is inclusive).
    """
    crossed = state.scores() >= math.log2(1.0 / epsilon)
    return bool(crossed.any()), np.flatnonzero(crossed) + 1


def select_candidate(state: ITSState) -> int:
    """The top-scoring live candidate, ties broken toward the lowest index."""
    return int(np.argmax(state.scores())) + 1


def _final_phase_order(state: ITSState, prior: VictimPrior, config: ITSConfig, order_seed) -> np.ndarray:
    """Order of fallback identity queries over the not-yet-struck users."""
    remaining = np.flatnonzero(~state.eliminated)
    if config.final_phase_order == "by_info_value_desc":
        keys = state.scores()[remaining]
    elif config.final_phase_order == "by_prior_desc":
        keys = prior.probs[remaining]
    else:
        rng = np.random.default_rng(order_seed)
        return remaining[rng.permutation(remaining.size)] + 1
    # Stable sort on the negated key: descending value, ascending index on ties.
    return remaining[np.argsort(-keys, kind="stable")] + 1


def run_its(
    pair: BigraphPair,
    inst: VictimInstance,
    prior: VictimPrior,
    measures: InfoMeasures,
    config: ITSConfig,
    order_seed=None,
) -> "AttackTranscript":
    """Run the full threshold attack until the victim is identified.

    ``measures`` must be derived from the same model parameters that
    generated ``pair`` and drive ``inst``; the attack consumes the scanned
    graph through blocks of group columns and the victim only through oracle
    responses. ``order_seed`` (an int seed or a ``numpy.random.Generator``)
    drives the "random" fallback order, which requires it; the other orders
    ignore it. ``steps_l = 1`` runs no threshold step: the attack is the
    identity scan over all users in the fallback order.

    Each threshold step scans from the group cursor to the end of the graph's
    materialization block (``pair.block_width`` aligned columns, so the scan
    never generates a column the one-query walk would not): one read of the
    block's scanned bits as a (w, m) grid of w groups by m candidates, one
    vector of w received answers, and the densities of the grid summed down
    its group axis, the first row seeded with the running sums. The first
    row where a live candidate's score reaches the threshold ends the step
    (the first crossing of the flattened grid, divided by m);
    struck candidates carry surprisal +inf, so their scores stay -inf. The
    adds and comparisons are those of one update per query, in the same
    order, so the transcript is identical to it bit for bit.
    """
    if inst.pair is not pair:
        raise ValueError("oracle instance is bound to a different graph pair")
    if prior.m != pair.m:
        raise ValueError("prior length disagrees with the pair's user count")
    if config.final_phase_order == "random" and order_seed is None:
        raise ValueError("the random fallback order needs an order_seed")
    n, m, block = pair.n, pair.m, pair.block_width
    density = measures.density.ravel()  # entry 2u + y is i(u; y)
    threshold = config.threshold_bits
    state = init_state(prior, config)
    queries: list[tuple[str, int, int]] = []
    tau_star_per_step: list[int] = []

    for step in range(1, config.steps_l):
        state.info[:] = 0.0
        stop = False
        surprisal = np.where(state.eliminated, np.inf, state.prior_surprisal)
        step_first = state.group_cursor
        while not stop and state.group_cursor <= n:
            first = state.group_cursor
            last = min((first - 1) // block * block + block, n)
            # Query k asks group k, so the block's first ordinal is its first group.
            ys = inst.noisy_gm_responses(first, last - first + 1, first)
            bits = pair.block_bits("scanned", first, last).T  # (w, m), contiguous
            sums = density.take(2 * bits + ys[:, None])
            sums[0] += state.info
            sums = np.cumsum(sums, axis=0)
            crossed = ((sums - surprisal) >= threshold).ravel()
            hit = int(crossed.argmax())
            stop = bool(crossed[hit])
            width = hit // m + 1 if stop else last - first + 1
            state.info[:] = sums[width - 1]
            queries.extend(zip(repeat("GM"), range(first, first + width), ys[:width].tolist()))
            state.group_cursor += width
        if not stop:
            break  # groups exhausted; fall through to exhaustive identity queries
        tau_star_per_step.append(state.group_cursor - step_first)
        guess = select_candidate(state)
        response = inst.uid_response(guess)
        queries.append(("UID", guess, response))
        if response == 1:
            return AttackTranscript(
                queries=queries,
                success=True,
                identified=guess,
                steps_used=step,
                tau_star_per_step=tau_star_per_step,
            )
        state.eliminated[guess - 1] = True

    for candidate in _final_phase_order(state, prior, config, order_seed).tolist():
        response = inst.uid_response(candidate)
        queries.append(("UID", candidate, response))
        if response == 1:
            return AttackTranscript(
                queries=queries,
                success=True,
                identified=candidate,
                steps_used=len(tau_star_per_step) + 1,
                tau_star_per_step=tau_star_per_step,
            )
    raise AssertionError("unreachable: exhaustive identity phase covers the victim")


@dataclass
class AttackTranscript:
    """Ordered record of one attack run.

    ``queries`` holds (kind, target, response) triples with kind "GM" or
    "UID"; ``tau_star_per_step`` the number of group queries in each
    completed threshold step. A successful transcript ends with the
    identifying ("UID", victim, 1) entry.
    """

    queries: list[tuple[str, int, int]]
    success: bool
    identified: int | None
    steps_used: int
    tau_star_per_step: list[int] = field(default_factory=list)

    @property
    def q_count(self) -> int:
        return len(self.queries)

    def uid_count(self) -> int:
        return sum(1 for kind, _, _ in self.queries if kind == "UID")

    def step_uid_responses(self) -> list[int]:
        """Responses of the per-step verification queries, in step order.

        The first ``len(tau_star_per_step)`` identity queries are the
        threshold-step verifications; later ones belong to the exhaustive
        fallback. Step k's verification directly follows its group queries,
        so it sits at index ``sum(tau_star_per_step[:k+1]) + k``.
        """
        ends = accumulate(tau + 1 for tau in self.tau_star_per_step)
        return [self.queries[end - 1][2] for end in ends]
