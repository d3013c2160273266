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
scores reset, and the walk resumes on the next groups. A candidate whose
expected bit makes the received response impossible (density -inf) drops
out of the running step but is revived by the next reset.
After ``steps_l - 1`` failed verifications (or if the graph runs out of
groups), the attack falls back to exhaustive identity queries over the users
not yet struck, so it always terminates with the victim found. With
``steps_l = 1`` there is no threshold step and the attack is that fallback
alone: asked in a random order, it is the naive identity-scan baseline.

Scan exactness. The attack's one loop, ``_block_scan``, walks a block of
groups at a time (read by ``oracle._BlockReader``, as the ``oracle`` module
describes), and its transcript is bit-identical to the one-query walk of
``gm_update`` and ``threshold_check``:

- Sums. Every candidate's running sum after each query of a block is a
  cumulative sum down the block's (queries, candidates) grid of densities,
  its first row seeded with the sums so far: after query k it is
  ((info + d_1) + d_2) + ... + d_k, the same floating-point adds in the
  same order as one update per query. ``_accumulate`` makes them in one of
  three forms, chosen by the candidate count m. From ``_ROWWISE_FROM`` up,
  each query's row is added to the previous one in one contiguous pass,
  where a sum down the grid would stride across a whole row per candidate.
  Below it with m even, each row is read as m/2 complex numbers, one per
  pair of neighbouring candidates: a complex add is the two candidates'
  double adds side by side, so no add changes and the accumulate loop runs
  half as often. Below it with m odd, the plain accumulate; padding to an
  even width cost more than the pairing saved.
- Crossings. The stop test is one compare per candidate and query,
  ``sum >= limit``, with no subtraction. Candidate j's limit is the
  smallest double L_j with ``L_j - surprisal_j >= threshold`` in float
  arithmetic (``VictimPrior.crossing_limits``). Rounded subtraction is
  monotone, so ``s >= L_j`` holds for exactly the doubles s with
  ``s - surprisal_j >= threshold``. The limits come tiled once over a
  block's w * m positions (``_tiled_limits``), so one function,
  ``_first_crossings``, tests a flattened block, or each block of a
  stack, with one contiguous compare. A struck candidate gets a NaN limit
  at each of its positions, which no sum reaches. The first crossing of
  the flattened grid, divided by m, is the query that ends the step.
- Batch pass. A campaign that decodes block 0 of a batch of trials in one
  pass (``oracle`` module docstring) also sums, tests and guesses step 1 on
  that stack in one pass (``_first_steps``), with the same adds and the
  same compare. Each trial's scan starts from that outcome, and from the
  running sums left in its slot of the stack: the crossing row, or the
  whole block's last row as the carry. Later steps and blocks run in the
  scan as for one trial.
- Victim bound. The victim is never struck, so no crossing comes first
  after the victim's own first crossing in a block. From
  ``_VICTIM_BOUND_FROM`` candidates up, the scan finds that row first, on a
  copy of the victim's column summed with the grid's adds, and sums and
  tests only the rows up to it; a block in which the victim does not cross
  is summed whole. The rows not summed hold densities, never read. Too few
  rows would still be exact: a part of a block with no crossing carries
  its sums on, and the rest is scanned as a step that starts inside the
  block is.
- Dropped queries. The queries past a crossing are dropped, at no cost:
  noise is indexed by query ordinal and group query k asks group k, so the
  next step reads the same answers again. A step that starts inside the
  block in hand looks its remaining rows' densities up again from the
  block's density index, since the earlier step summed them in place. That
  lookup is ``oracle._look_up``, the one the reader makes: at an even m it
  gathers two neighbouring candidates' densities at a time from the pair
  table, and the rows from the step's start on are still whole rows, so
  every pair of neighbours stays together.

The one-query walk (``ITSState``, ``init_state``,
``expected_response_column``, ``gm_update``, ``threshold_check`` and
``select_candidate``) is the scan's reference: the acceptance gate and the
tests replay attacks with it, and the benchmark's tracer patches it. It is
not exported from the package, whose one way to run an attack is
:func:`run_its`.

The scan returns the three fields of an :class:`AttackTranscript`, whose
docstring says how they store the queries. Identity queries are answered
through a callable. The scan reads the victim's column for the victim bound
alone, which decides how many rows are summed but no query or answer.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .graph import BigraphPair, _block_width
from .oracle import VictimInstance, _BlockReader, _density_table, _look_up
from .stochastics import InfoMeasures, VictimPrior, _read_only

# Grids at least this many candidates wide are accumulated row by row, narrower
# even ones two candidates per add. Timed per 32-row block, the row-wise form
# is slower at 448 columns (22.4 against 19.3 us) and faster at 512 (24.1
# against 26.9 us).
_ROWWISE_FROM = 512
# Grids at least this many candidates wide find the victim's first crossing
# in a block before they sum it, and then sum only the rows up to it. Per
# trial, the bound ran 1.03x as fast at m = 192 and 1.06x at 256 on the
# sandwich model (flips 0.05, eps 0.1), but 0.98x and 1.00x on a low-
# information one (flips 0.15 and 0.25), whose blocks mostly hold no victim
# crossing, so that the bound's extra calls (about 1.8 us a block) are lost.
_VICTIM_BOUND_FROM = 256


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
        steps = self.steps_l
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
            raise ValueError(f"steps_l must be an integer of at least 1, got {steps!r}")


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
    """Mutable state of the one-query reference of :func:`_block_scan`.

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


def _scores(info: np.ndarray, surprisal: np.ndarray, eliminated) -> np.ndarray:
    """Accumulated density minus prior surprisal, -inf for the struck candidates.

    ``eliminated`` is a bool mask of the struck candidates, or None where
    none is struck.
    """
    out = info - surprisal
    if eliminated is not None:
        out[eliminated] = -np.inf
    return out


def init_state(prior: VictimPrior, config: ITSConfig) -> ITSState:
    """Fresh state of the one-query reference of :func:`_block_scan`.

    Zero accumulators, surprisal log2(1/P(j)), nobody struck.
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
    one-query reference's form of the block read in :func:`_block_scan`.
    """
    return pair.block_bits("scanned", group, group)[:, 0]


def gm_update(state: ITSState, column: np.ndarray, y: int, measures: InfoMeasures) -> ITSState:
    """Fold one group-membership response into every candidate's accumulator.

    This is the one-query reference's form of the sums in :func:`_block_scan`.
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
    above the threshold (the comparison is inclusive). This is the one-query
    reference's form of the crossing test in :func:`_block_scan`.
    """
    crossed = state.scores() >= math.log2(1.0 / epsilon)
    return bool(crossed.any()), np.flatnonzero(crossed) + 1


def select_candidate(state: ITSState) -> int:
    """The top-scoring live candidate, ties broken toward the lowest index.

    This is the one-query reference's form of the guess in :func:`_block_scan`.
    """
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


def _tiled_limits(prior: VictimPrior, epsilon: float, rows: int) -> np.ndarray:
    """The prior's crossing limits of log2(1/epsilon), tiled over ``rows`` rows, read-only.

    Entry k * m + j - 1 is candidate j's limit, so a block of up to ``rows``
    rows of running sums is tested with one contiguous compare.
    """
    return _read_only(np.tile(prior.crossing_limits(math.log2(1.0 / epsilon)), rows))


def _accumulate(grid: np.ndarray) -> None:
    """Replace a C-contiguous (w, c) float64 grid, or a (T, w, c) stack, by its running row sums.

    Row k becomes ((grid[0] + grid[1]) + ...) + grid[k], entry by entry: the
    adds of ``np.cumsum(grid, axis=-2)`` in the same order, so the result is
    the same to the bit in each of the three forms the width c selects
    (module docstring). Only batches of trials come as a stack, and they
    stop at m = 32, so a stack never takes the row-wise form.
    """
    c = grid.shape[-1]
    if c >= _ROWWISE_FROM:
        for k in range(1, len(grid)):
            np.add(grid[k - 1], grid[k], out=grid[k])
    else:
        cells = grid.view(np.complex128) if c % 2 == 0 else grid
        np.add.accumulate(cells, axis=-2, out=cells)


def _first_crossings(sums: np.ndarray, limits: np.ndarray):
    """The first crossing of a block of running sums, or of each block of a stack: (stopped, rows).

    The one crossing test of the attack. ``sums`` holds a block's (rows, m)
    running sums or a (T, rows, m) stack of them, and ``limits`` the
    crossing limits tiled over at least rows * m entries
    (:func:`_tiled_limits`). A sum crosses when it is at least its limit;
    the first crossing in row-major order ends the step, and ``rows`` counts
    the block's rows up to it, or all of them where none crosses. A block
    gives a bool and an int, a stack two arrays of T entries.
    """
    *stack, rows, m = sums.shape
    crossed = sums.reshape(*stack, rows * m) >= limits[: rows * m]
    hit = crossed.argmax(axis=-1)
    if stack:
        stopped = crossed[np.arange(len(hit)), hit]
        return stopped, np.where(stopped, hit // m + 1, rows)
    stop = bool(crossed[hit])
    return stop, int(hit) // m + 1 if stop else rows


def _sum_block(sums: np.ndarray, info, limits: np.ndarray, victim) -> tuple[bool, int]:
    """Sum a block of densities onto the carry ``info`` and test it: :func:`_first_crossings`.

    ``info`` is None in a step's first block, which starts from zero sums:
    adding 0.0 would change no density but -0.0, and none is -0.0. Given
    the victim's 0-based column, the victim's own first crossing is
    found first, on a copy of its column summed with the same adds, and
    only the rows up to it are summed and tested (module docstring). With
    None, the whole block is.
    """
    if info is not None:
        sums[0] += info
    if victim is not None:
        column = np.add.accumulate(sums[:, victim])
        crossed = column >= limits[victim]
        hit = int(crossed.argmax())
        if crossed[hit]:
            sums = sums[: hit + 1]
    _accumulate(sums)
    return _first_crossings(sums, limits)


def _first_steps(sums: np.ndarray, limits: np.ndarray, surprisal: np.ndarray) -> list:
    """Step 1 on block 0 of a batch of trials: each trial's (stopped, rows, guess), for its scan.

    ``sums`` is the (T, rows, m) stack of the trials' block-0 densities,
    which become their running sums, ``limits`` the tiled crossing limits
    and ``surprisal`` the prior's. Step 1 starts from zero sums, so no carry
    is added: adding 0.0 changes no density but -0.0, and none is -0.0.
    ``guess`` is the candidate with the top score in the row that ends the
    step, ties to the lower index; no candidate is struck in step 1, so it
    is the scan's own guess.
    """
    _accumulate(sums)
    stopped, rows = _first_crossings(sums, limits)
    scores = sums[np.arange(len(sums)), rows - 1]
    scores -= surprisal
    guesses = scores.argmax(axis=1) + 1
    return list(zip(stopped.tolist(), rows.tolist(), guesses.tolist()))


def _block_scan(
    blocks, n, width, density, limits, surprisal, steps_l, identify, order_seed, victim, summed
):
    """Run the threshold attack on one graph and victim, a block of groups at a time.

    ``blocks`` yields block 0, 1, ... of the graph, groups k * ``width`` + 1
    onward for block k, w = ``width`` except at group ``n``, as (index, ys,
    sums): ``ys`` holds the victim's w received answers as uint8, ``index``
    a (w, m) uint8 grid of density indexes, each candidate's scanned bit s
    plus 2 times the answer y, and ``sums`` the writable (w, m) float64
    grid of their densities, which the scan overwrites with its running
    sums. ``density`` is the scan's density table of i(s; y)
    (``oracle._density_table``), which ``oracle._look_up`` reads two
    neighbouring candidates per gather at an even m; the scan looks a
    block's rows up again from ``index`` when a step starts inside the
    block. ``limits`` holds the prior's crossing limits of the threshold
    tiled over a block (:func:`_tiled_limits`), ``surprisal`` its
    surprisal, and ``identify(j)`` answers the identity query for
    candidate j. ``order_seed`` is the fallback's, as for :func:`run_its`.
    ``victim``, the victim's 0-based column, is read only to bound the rows
    summed from ``_VICTIM_BOUND_FROM`` candidates up. ``summed`` is None,
    or for a trial whose block 0 a batch pass summed and tested
    (:func:`_first_steps`), that block's (stopped, rows, guess) in step 1,
    and block 0 then comes with its running sums. Returns the three fields
    of an :class:`AttackTranscript`: (gm_answers, uid_queries,
    tau_star_per_step).

    A trial builds no array of its own until it needs one: ``info``, the
    buffer that carries a step's sums into its next block, once a step runs
    past its block, and ``eliminated`` once a verification fails. So a
    trial whose step 1 the batch pass settled on its victim makes its one
    identity query and returns.
    """
    m = surprisal.size
    bound = victim if m >= _VICTIM_BOUND_FROM else None
    info = eliminated = None
    carry = None  # a step's running sums so far: a row of the block in hand, or ``info``
    answers: list[bytes] = []
    uid_queries: list[tuple[int, int]] = []
    tau_star_per_step: list[int] = []
    cursor, k, end = 1, -1, 0  # groups up to ``end`` are in block k, in hand

    for _ in range(1, steps_l):
        carry, stop, step_first = None, False, cursor
        while not stop and cursor <= n:
            if cursor > end:
                k += 1
                index, ys, sums = block = next(blocks)  # (w, m) contiguous, (w,), (w, m)
                end += len(ys)
            else:  # the rest of the block in hand, after a crossing inside it
                skip = cursor - 1 - k * width
                index, ys, sums = block[0][skip:], block[1][skip:], block[2][skip:]
                _look_up(density, index, sums)
            if summed:
                (stop, rows, guess), summed = summed, None
            else:
                stop, rows = _sum_block(sums, carry, limits, bound)
                guess = None
            carry = sums[rows - 1]
            answers.append(ys[:rows].tobytes())
            cursor += rows
            if not stop:  # the next block overwrites this one's rows
                if info is None:
                    info = np.empty(m)
                info[:] = carry
                carry = info
        if not stop:
            break  # groups exhausted; fall through to exhaustive identity queries
        tau_star_per_step.append(cursor - step_first)
        if guess is None:
            guess = int(_scores(carry, surprisal, eliminated).argmax()) + 1
        response = identify(guess)
        uid_queries.append((guess, response))
        if response == 1:
            return b"".join(answers), uid_queries, tau_star_per_step
        if eliminated is None:
            eliminated = np.zeros(m, dtype=bool)
        eliminated[guess - 1] = True
        limits = limits.copy()
        limits[guess - 1 :: m] = np.nan

    # The fallback ranks by the last step's sums: zero where no step ran or it read no group.
    final = np.zeros(m) if carry is None else carry
    struck = np.zeros(m, dtype=bool) if eliminated is None else eliminated
    for candidate in _fallback_order(final, surprisal, struck, order_seed).tolist():
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
    responses. ``inst`` must be bound to ``pair``, and ``prior`` must have
    the pair's user count; otherwise ``ValueError``. The exhaustive fallback
    asks the users not yet struck by score, highest first, ties to the lower
    index. Given an ``order_seed`` (an int seed or a
    ``numpy.random.Generator``, which is copied and never advanced, so two
    equal calls give equal transcripts), it asks them in the random
    permutation drawn from it instead. ``steps_l = 1`` runs no threshold
    step: the attack is the identity scan over all users in the fallback
    order. The scan and its exactness are described in the module
    docstring.
    """
    if inst.pair is not pair:
        raise ValueError("oracle instance is bound to a different graph pair")
    if prior.m != pair.m:
        raise ValueError("prior length disagrees with the pair's user count")
    n, m = pair.n, pair.m
    width, density = _block_width(m), _density_table(measures.density, m)
    reader = _BlockReader(n, m, width, pair._cuts, inst._p_one, density)
    blocks = reader.blocks(pair._stream.seek(0), inst._noise.seek(0), inst.victim)
    limits = _tiled_limits(prior, config.epsilon, reader.rows)
    # A campaign trial's order stream is its own; a caller's generator is copied.
    fields = _block_scan(
        blocks, n, width, density, limits, prior.surprisal, config.steps_l,
        inst.uid_response, copy.deepcopy(order_seed), inst.victim - 1, None,
    )
    return AttackTranscript(*fields)


@dataclass
class AttackTranscript:
    """Ordered record of one attack run, stored compactly.

    Group query k always asks group k, so the group queries are kept as
    their answers alone: byte k - 1 of ``gm_answers`` is the 0/1 answer to
    group query k. ``uid_queries`` holds the identity queries as (target,
    response) pairs in the order asked. ``tau_star_per_step`` is the number
    of group queries in each completed threshold step; each such step ends
    with one verification, the first ``len(tau_star_per_step)`` identity
    queries, and the rest are the exhaustive fallback. Nothing else is
    stored. The attack stops at the identity query that answers 1, so a
    successful transcript ends with (victim, 1), and everything else is
    read off the three fields on demand: ``queries`` rebuilds the full list
    of (kind, target, response) triples in the order asked, ``success`` is
    the last identity answer, ``identified`` its target, and ``steps_used``
    the completed steps plus one if the fallback ran.
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
