"""The information threshold attack, and with no threshold steps its identity scan.

The threshold attack keeps one running score per candidate user j:

    score(j) = sum of information densities i(u_t(j); y_t) over the group
               queries issued so far, minus the prior surprisal
               log2(1 / P(victim = j)),

where u_t(j) is candidate j's scanned-graph bit for the queried group, the
response the attacker expects if j is the victim (``expected_response_column``
gives one group's column of them), and y_t the received response. Group
queries walk a shared cursor through fresh groups; the walk stops as soon as
some candidate's score reaches the threshold log2(1/epsilon). The
top-scoring candidate is then verified with a single noiseless identity
query. On failure the candidate is struck from all later consideration,
scores reset, and the walk resumes on the next groups.
After ``steps_l - 1`` failed verifications (or if the graph runs out of
groups), the attack falls back to exhaustive identity queries over the users
not yet struck, so it always terminates with the victim found. With
``steps_l = 1`` there is no threshold step and the attack is that fallback
alone: asked in a random order, it is the naive identity-scan baseline.

The walk is computed a block of groups at a time rather than one query at a
time, in one loop, ``_block_scan``: the received answers to all of the
block's queries, each candidate's density per query looked up by its
scanned bit and the answer, every candidate's running sum after
each of them (a cumulative sum along the block), and the first query after
which some score reaches the threshold. The queries past that crossing are
dropped. This is exact, not an approximation: the running sum after query
k is ((info + d_1) + d_2) + ... + d_k, the same floating-point adds in the
same order as folding one answer at a time, and the stop test decides
exactly what its subtraction and comparison decide (see below), so the
transcript is bit-identical to the one-query walk. Dropped answers cost
nothing either: noise is indexed by query ordinal, and every group query
asks the next unused group, so a query's ordinal is its group index and the
next step reads the same answers again.

The scan takes its blocks from an iterator, in block order, each once:
a block comes with its density index, its answers and its densities
already looked up, which the scan sums in place. A step that starts
inside the block in hand looks the densities of the block's remaining
rows up again from the index, since the earlier step summed them.
Identity queries are answered through a callable, so the scan never reads
the victim index. Its blocks come from one reader,
``oracle._BlockReader``: for a campaign trial, block 0 from its batch's
one decoding pass and later blocks from the trial's own streams; in
``run_its``, the public one-trial API, every block from the streams of a
graph pair and a victim instance, whose three results ``run_its`` wraps
in an ``AttackTranscript``.

The cumulative sum runs in place down the block's (queries, candidates) grid
in one of three forms, chosen by the candidate count m, and each makes
exactly the adds above. Below ``_ROWWISE_FROM`` candidates with m even, each
row is read as m/2 complex numbers, one per pair of neighbouring candidates:
a complex add is the two candidates' double adds side by side, so no add
changes and the accumulate loop runs half as often. Below it with m odd, the
grid keeps the plain accumulate; padding it to an even width cost more than
the pairing saved. From ``_ROWWISE_FROM`` candidates up, a sum down the grid
would stride across a whole row for every candidate, so each query's row is
instead added to the previous one in one contiguous pass.

The stop test is one compare per candidate and query, ``sum >= limit``,
with no subtraction. Candidate j's limit is the smallest double L_j with
``L_j - surprisal_j >= threshold`` in float arithmetic
(``VictimPrior.crossing_limits``).
Rounded subtraction is monotone, so ``s >= L_j`` holds for exactly the
doubles s with ``s - surprisal_j >= threshold``: the compare decides what
the subtraction and comparison of the one-query walk decide. A candidate
struck by a failed verification gets a NaN limit, which no sum reaches.

A candidate whose expected bit makes the received response impossible
(density -inf) drops out of the running step but is revived by the next
reset; only failed identity checks eliminate permanently.

The scan returns what the walk cannot reproduce and nothing else, a
transcript's fields: its queries. Group query k always asks group k, so its
group queries are one ``bytes`` of answers, one byte per query, built from
each block's answers up to the crossing and joined once per attack; its
identity queries are a list of (target, response) pairs; and the group
queries of each completed step are counted. Everything else is derived
from these three on demand: the full (kind, target, response) list
(``AttackTranscript.queries``), the query counts the campaign reads, and
the outcome. The attack stops at the
identity query that answers 1, so success is the last identity answer, the
identified user its target, and the steps used the completed steps plus
one if the fallback ran.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .graph import BigraphPair, _block_width
from .oracle import VictimInstance, _BlockReader, _density_table
from .stochastics import InfoMeasures, VictimPrior

# Grids at least this many candidates wide are accumulated row by row, narrower
# even ones two candidates per add. Timed per 32-row block, the row-wise form
# is slower at 448 columns (22.4 against 19.3 us) and faster at 512 (24.1
# against 26.9 us).
_ROWWISE_FROM = 512


@dataclass(frozen=True)
class ITSConfig:
    """Tuning knobs of the information threshold attack.

    epsilon sets the stopping threshold log2(1/epsilon); steps_l caps the
    number of verify-and-retry rounds before the exhaustive fallback. Groups
    are always consumed in increasing index order.
    """

    epsilon: float
    steps_l: int

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly inside (0, 1)")
        if self.steps_l < 1:
            raise ValueError("steps_l must be at least 1")


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
    The state holds no group cursor: group query k asks group k, so the
    walk's position is its query count.
    """

    info: np.ndarray
    prior_surprisal: np.ndarray
    eliminated: np.ndarray

    def scores(self) -> np.ndarray:
        """Candidate scores: accumulated density minus prior surprisal."""
        return _scores(self.info, self.prior_surprisal, self.eliminated)


def _scores(info: np.ndarray, surprisal: np.ndarray, eliminated: np.ndarray) -> np.ndarray:
    """Accumulated density minus prior surprisal, -inf for the struck candidates."""
    out = info - surprisal
    out[eliminated] = -np.inf
    return out


def init_state(prior: VictimPrior, config: ITSConfig) -> ITSState:
    """Fresh state: zero accumulators, surprisal log2(1/P(j)), nobody struck.

    ``config`` is not read. The parameter stays only because the acceptance
    gate calls ``init_state(prior, config)``.
    """
    m = prior.m
    return ITSState(
        info=np.zeros(m),
        prior_surprisal=prior.surprisal,
        eliminated=np.zeros(m, dtype=bool),
    )


def expected_response_column(pair: BigraphPair, group: int) -> np.ndarray:
    """Scanned-graph bits of one group for every candidate (length m).

    Entry j-1 is the response the attacker would expect if candidate j were
    the victim, i.e. candidate j's scanned-graph membership bit. This is the
    one-group form of the block read in :func:`_block_scan`.
    """
    return pair.block_bits("scanned", group, group)[:, 0]


def gm_update(state: ITSState, column: np.ndarray, y: int, measures: InfoMeasures) -> ITSState:
    """Fold one group-membership response into every candidate's accumulator.

    This is the one-query form of :func:`_block_scan`.
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
    return int(state.scores().argmax()) + 1


def _fallback_order(info, surprisal, eliminated, order_seed) -> np.ndarray:
    """Order of fallback identity queries over the not-yet-struck users.

    By score, highest first and ties to the lower index; with an
    ``order_seed``, an int seed or a generator that the draw advances, in
    the permutation drawn from it instead.
    """
    remaining = np.flatnonzero(~eliminated)
    if order_seed is not None:
        rng = np.random.default_rng(order_seed)
        return remaining[rng.permutation(remaining.size)] + 1
    # Stable sort on the negated score: descending value, ascending index on ties.
    scores = _scores(info, surprisal, eliminated)
    return remaining[np.argsort(-scores[remaining], kind="stable")] + 1


def _accumulate(grid: np.ndarray) -> None:
    """Replace a C-contiguous (w, c) float64 grid by its running sums down the rows.

    Row k becomes ((grid[0] + grid[1]) + ...) + grid[k], entry by entry: the
    adds of ``np.cumsum(grid, axis=0)`` in the same order, so the result is
    the same to the bit whichever form the width c selects:

    - c at least ``_ROWWISE_FROM``: w - 1 row adds, each one contiguous pass
      over c doubles, where a cumsum would walk each column with a stride of
      c doubles;
    - c even and smaller: each row viewed as c/2 complex numbers, summed
      with one complex accumulate. A complex add is two independent IEEE
      double adds, one per candidate of the pair, so the accumulate loop
      runs half as often;
    - c odd and smaller: the plain accumulate.

    The accumulates call ``np.add.accumulate``, which ``np.cumsum`` wraps.
    """
    w, c = grid.shape
    if c >= _ROWWISE_FROM:
        for k in range(1, w):
            np.add(grid[k - 1], grid[k], out=grid[k])
    else:
        cells = grid.view(np.complex128) if c % 2 == 0 else grid
        np.add.accumulate(cells, axis=0, out=cells)


def _block_scan(blocks, n, width, density, limits, surprisal, steps_l, identify, order_seed=None):
    """Run the threshold attack on one graph and victim, a block of groups at a time.

    The attack's one loop. ``blocks`` yields block 0, 1, ... of the graph,
    groups k * ``width`` + 1 onward for block k, w = ``width`` except at
    group ``n``, as (index, ys, sums): ``ys`` holds the victim's w received
    answers to them as uint8, ``index`` is a (w, m) uint8 grid of entries of
    ``density``, each candidate's scanned bit s plus 2 times the answer y,
    and ``sums`` the writable (w, m) float64 grid of their densities, which
    the scan overwrites with its running sums. The scan takes the next
    block when its cursor passes the block in hand; a later step that
    starts inside that block looks its rows' densities up again from
    ``index``. ``density`` holds the information density i(s; y) at entry
    s + 2y (``oracle._density_table``), ``limits`` the prior's
    ``crossing_limits`` of the threshold, ``surprisal`` its surprisal, and
    ``identify(j)`` answers the identity query for candidate j. The blocks
    come from ``oracle._BlockReader``. Returns the three fields of an
    :class:`AttackTranscript`: (gm_answers, uid_queries, tau_star_per_step).
    """
    m = surprisal.size
    info = np.zeros(m)
    eliminated = np.zeros(m, dtype=bool)
    answers: list[bytes] = []
    uid_queries: list[tuple[int, int]] = []
    tau_star_per_step: list[int] = []
    cursor, k, end = 1, -1, 0  # groups up to ``end`` are in block k, in hand

    for _ in range(1, steps_l):
        info.fill(0.0)
        stop = False
        step_first = cursor
        while not stop and cursor <= n:
            if cursor > end:
                k += 1
                index, ys, sums = block = next(blocks)  # (w, m) contiguous, (w,), (w, m)
                end += len(ys)
            else:  # the rest of the block in hand, after a crossing inside it
                first = cursor - 1 - k * width
                index, ys, sums = block[0][first:], block[1][first:], block[2][first:]
                # Every index lies in [0, 4), so "clip" moves none.
                density.take(index, out=sums, mode="clip")
            sums[0] += info
            _accumulate(sums)
            crossed = (sums >= limits).ravel()
            hit = int(crossed.argmax())
            stop = bool(crossed[hit])
            rows = hit // m + 1 if stop else len(ys)
            info[:] = sums[rows - 1]
            answers.append(ys[:rows].tobytes())
            cursor += rows
        if not stop:
            break  # groups exhausted; fall through to exhaustive identity queries
        tau_star_per_step.append(cursor - step_first)
        guess = int(_scores(info, surprisal, eliminated).argmax()) + 1
        response = identify(guess)
        uid_queries.append((guess, response))
        if response == 1:
            return b"".join(answers), uid_queries, tau_star_per_step
        eliminated[guess - 1] = True
        limits = np.where(eliminated, np.nan, limits)

    for candidate in _fallback_order(info, surprisal, eliminated, order_seed).tolist():
        response = identify(candidate)
        uid_queries.append((candidate, response))
        if response == 1:
            return b"".join(answers), uid_queries, tau_star_per_step
    raise AssertionError("unreachable: exhaustive identity phase covers the victim")


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
    responses. The exhaustive fallback asks the users not yet struck by
    score, highest first, ties to the lower index. Given an ``order_seed``
    (an int seed or a ``numpy.random.Generator``, which is copied and never
    advanced, so two equal calls give equal transcripts), it asks them in
    the random permutation drawn from it instead. ``steps_l = 1`` runs no
    threshold step: the attack is the identity scan over all users in the
    fallback order.

    The attack is :func:`_block_scan` over blocks of ``_block_width(m)``
    group columns, read by ``oracle._BlockReader.blocks`` from the pair's
    generation stream and the instance's noise stream, each from its start,
    so the scan never draws a column past the block of its last query. Each
    block is drawn once, as a (w, m) grid of w groups by m candidates, and
    the victim's w answers come from the same draw; the reader looks the
    grid's densities up by scanned bit and answer into one buffer that
    every block reuses, and the scan sums them down its group axis in place
    (:func:`_accumulate`), the first row seeded with the running sums. The first row where a live candidate's sum reaches its
    crossing limit ends the step (the first crossing of the flattened grid,
    divided by m); struck candidates carry a NaN limit, so they never cross.
    The adds are those of one update per query, in the same order, and each
    compare decides what the score's threshold comparison decides, so the
    transcript is identical to the one-query walk bit for bit, whichever
    form :func:`_accumulate` takes for this m and whatever the block width.
    """
    if inst.pair is not pair:
        raise ValueError("oracle instance is bound to a different graph pair")
    if prior.m != pair.m:
        raise ValueError("prior length disagrees with the pair's user count")
    n, m = pair.n, pair.m
    width, density = _block_width(m), _density_table(measures.density)
    reader = _BlockReader(n, m, width, pair._cuts, inst._p_one, density)
    blocks = reader.blocks(pair._stream.seek(0), inst._noise.seek(0), inst.victim)
    limits = prior.crossing_limits(math.log2(1.0 / config.epsilon))
    # A campaign trial's order stream is its own; a caller's generator is copied.
    fields = _block_scan(
        blocks, n, width, density, limits, prior.surprisal, config.steps_l,
        inst.uid_response, copy.deepcopy(order_seed),
    )
    return AttackTranscript(*fields)


@dataclass
class AttackTranscript:
    """Ordered record of one attack run, stored compactly.

    Group query k asks group k, so the group queries are kept as their
    answers alone: byte k - 1 of ``gm_answers`` is the 0/1 answer to group
    query k. ``uid_queries`` holds the identity queries as (target, response)
    pairs in the order asked. ``tau_star_per_step`` is the number of group
    queries in each completed threshold step; each such step ends with one
    verification, the first ``len(tau_star_per_step)`` identity queries, and
    the rest are the exhaustive fallback. A successful transcript ends with
    the identifying (victim, 1) identity query; ``success``, ``identified``
    and ``steps_used`` are read off these three fields.
    """

    gm_answers: bytes
    uid_queries: list[tuple[int, int]]
    tau_star_per_step: list[int]

    @property
    def success(self) -> bool:
        """Whether the last identity query found the victim."""
        return bool(self.uid_queries) and self.uid_queries[-1][1] == 1

    @property
    def identified(self) -> int | None:
        """The user the attack identified, or None if it did not succeed."""
        return self.uid_queries[-1][0] if self.success else None

    @property
    def steps_used(self) -> int:
        """Threshold steps run, counting a final fallback phase as one more step."""
        steps = len(self.tau_star_per_step)
        return steps + (len(self.uid_queries) > steps)

    @property
    def queries(self) -> list[tuple[str, int, int]]:
        """Every query as a (kind, target, response) triple in the order asked.

        Kind "GM" targets a group, "UID" a user. Each completed step's group
        queries are followed by its verification; group queries of a step
        that ran out of groups come after those, and the fallback's identity
        queries last.
        """
        answers, out, asked = self.gm_answers, [], 0
        for tau, (target, response) in zip(self.tau_star_per_step, self.uid_queries):
            out.extend(("GM", k + 1, answers[k]) for k in range(asked, asked + tau))
            out.append(("UID", target, response))
            asked += tau
        out.extend(("GM", k + 1, answers[k]) for k in range(asked, len(answers)))
        fallback = self.uid_queries[len(self.tau_star_per_step) :]
        out.extend(("UID", target, response) for target, response in fallback)
        return out

    @property
    def q_count(self) -> int:
        return len(self.gm_answers) + len(self.uid_queries)

    def uid_count(self) -> int:
        return len(self.uid_queries)

    def step_uid_responses(self) -> list[int]:
        """Responses of the per-step verification queries, in step order."""
        return [response for _, response in self.uid_queries[: len(self.tau_star_per_step)]]
