"""Victim-side query answering, and the attack's block reader.

The oracle answers the two query kinds the attacker may issue, each in one
place:

* group membership, noisy (``_channel``): the victim's true-graph bit for
  the group, passed through the channel;
* user identity, noiseless (``identity_answer``): exact equality with the
  victim index.

Channel noise is indexed by query ordinal, not by group, so re-asking a
group draws fresh noise (the channel is memoryless) and replaying an
ordinal reproduces its answer. Ordinal t takes uniform t of the noise
stream, the double of its raw output t - 1, as ``Generator.random`` draws
one output per double. ``VictimInstance`` binds one victim of a pair to the
channel for the public one-trial API; it keeps the start state of its noise
stream (``graph._Stream``) and answers a single query by seeking both
streams from their starts to it.

Block reader. The attack asks group k with ordinal k, so it reads the graph
and noise streams in order, a block of w = ``graph._block_width(m)`` groups
at a time, through one reader, ``_BlockReader``: block k holds groups
k*w + 1 onward, drawn from the graph stream (``graph._uniforms``) and
answered from the next w noise uniforms. One decoder, ``_answer``, turns a
block, or a stack of blocks one per trial, into what the scan reads: the
scanned bits and the victim's true bits (``graph._decode``), the channel's
answers, each candidate's density index (scanned bit + 2 * answer) and its
density. ``attacker.run_its`` reads every block from the streams of a pair
and an instance, from their starts. A campaign trial reads the same blocks
from its own streams, so its queries are those of ``run_its`` on a pair and
an instance built from them. Every trial reads its block 0, so a campaign
takes trials in batches of ``graph._batch_trials(w, m)``: each trial of a
batch draws its block 0 into the batch's buffers as its streams stand at
their starts (``_BlockReader.draw``), and one ``_answer`` decodes the stack
(``_BlockReader.answer``). Beyond the read, a batch decides step 1 on
block 0 for all its trials in one pass: the running sums, the first
crossing and the guess (``attacker._first_steps``). It decides nothing
that needs an identity answer or a later block. Each trial then scans in
turn from that outcome, and a later block it reaches comes from the
trial's own graph and noise generators, as its block-0 draw left them:
each slot of a batch has its own (``harness.TrialStreams``). A batch of one
reads every block from the trial's streams as they stand. No block width
and no batch size changes a bit.
"""

from __future__ import annotations

import numpy as np

from .graph import BigraphPair, _decode, _Stream, _uniforms, _words
from .stochastics import QueryChannel, _read_only


def _channel(p_one: np.ndarray, true, u):
    """Received answers, as uint8, to the group queries whose correct answers are ``true``.

    ``true`` holds the victim's true bit (0/1 or bool) in each queried
    group, ``p_one`` is the channel's ``QueryChannel.p_one_by_bit`` table
    and ``u`` holds the queries' noise uniforms, one per entry of ``true``.
    Scalars give a scalar answer.
    """
    return (u < p_one.take(true)).view(np.uint8)


def _answer(u, noise, at, cuts, p_one, offsets, density, sums):
    """Decode and answer blocks: (index, ys), and each entry's density in ``sums``.

    The one decoder of the attack's blocks, for one block of w groups or
    for a stack of T, one per trial. ``u`` holds their (w, m) or (T, w, m)
    writable 32-bit graph uniforms (``graph._words``), which decoding
    overwrites, ``noise`` the (w,) or (T, w) noise uniforms of their
    queries, and ``at`` the index of ``u`` that gives the uniforms of each
    block's victim, in the shape of ``noise``. ``ys`` holds the received
    answers as uint8 and ``index`` each candidate's scanned bit s plus 2
    times the answer y, its entry of the scan's density table ``density``
    (:func:`_density_table`), which is looked up into the float64 array
    ``sums`` of u's shape. ``offsets`` is a (2, m) uint8 array whose row y
    holds 2y in every column.
    """
    index, true = _decode(u, cuts, at)
    ys = _channel(p_one, true, noise)
    # A row gather and a contiguous add: 3.5 us at (8, 128, 16), where the
    # broadcast add of (ys << 1)[..., None] takes 12.6 us.
    index += offsets.take(ys, axis=0)
    # Every index lies in [0, 4), so "clip" moves none; with a uint8 index it
    # is the faster mode (2.9 against 5.1 us at (128, 16)).
    density.take(index, out=sums, mode="clip")
    return index, ys


class _BlockReader:
    """The attack's block reader for one graph shape and model: a campaign's trials or one attack.

    Block k of an n-group graph over m users, with the generation ``cuts``,
    comes as (index, ys, sums): ``index`` the writable (w, m) uint8 grid of
    entries of ``density``, ``ys`` the victim's w answers through the
    channel of ``p_one``, and ``sums`` their densities, which the scan may
    overwrite. ``draw`` and ``answer`` read block 0 of up to ``batch``
    trials into buffers that every batch reuses; ``blocks`` gives one
    trial's blocks, after its block 0 from the batch if handed one, from
    its streams, into slot t of the densities buffer. The module docstring
    describes the reading.
    """

    __slots__ = (
        "n", "m", "width", "cuts", "p_one", "density", "rows", "raw", "words", "noise", "sums",
        "offsets", "trials", "users",
    )

    def __init__(self, n: int, m: int, width: int, cuts, p_one, density, batch: int = 1):
        self.n, self.m, self.width = n, m, width
        self.cuts, self.p_one, self.density = cuts, p_one, density
        self.rows = rows = min(width, n)
        # Block 0's raw outputs of the graph stream, per trial.
        self.raw = np.empty((batch, rows * ((m + 1) // 2)), dtype="<u8")
        self.words = _words(self.raw, rows, m)
        self.noise = np.empty((batch, rows))
        self.sums = np.empty((batch, rows, m))
        # Row y adds 2y to m scanned bits (``_answer``).
        self.offsets = np.array([[0], [2]], dtype=np.uint8).repeat(m, axis=1)
        # Each trial's place in the batch and its victim's column: the index
        # of the victims' uniforms in the stack.
        self.trials, self.users = np.arange(batch), np.empty(batch, dtype=np.intp)

    def draw(self, t: int, graph, noise, victim: int) -> None:
        """Draw block 0 of the batch's trial t, victim ``victim``, from its streams' starts."""
        self.raw[t] = graph.bit_generator.random_raw(self.raw.shape[1])
        noise.random(out=self.noise[t])
        self.users[t] = victim - 1

    def answer(self, size: int):
        """Decode, answer and look up block 0 of the batch's first ``size`` trials: (index, ys)."""
        at = (self.trials[:size], slice(None), self.users[:size])
        return _answer(
            self.words[:size], self.noise[:size], at, self.cuts, self.p_one, self.offsets,
            self.density, self.sums[:size],
        )

    def blocks(self, graph, noise, victim: int, t: int = 0, first=None):
        """The blocks of slot t's trial, from its streams, into slot t of the densities buffer.

        Given ``first``, the (index, ys) of the trial's block 0 as ``answer``
        gave it, that block comes first and the streams stand at block 1.
        Each block is drawn when the next one is asked for; the two streams
        must be read by nothing else meanwhile.
        """
        n, m, width, sums, at = self.n, self.m, self.width, self.sums[t], (slice(None), victim - 1)
        if first is not None:
            yield (*first, sums)
        for start in range(0 if first is None else width, n, width):
            rows = min(width, n - start)
            out = sums[:rows]
            index, ys = _answer(
                _uniforms(graph, rows, m), noise.random(rows), at, self.cuts, self.p_one,
                self.offsets, self.density, out,
            )
            yield index, ys, out


def _density_table(density: np.ndarray) -> np.ndarray:
    """The scan's density table, read-only: i(s; y) at entry s + 2y.

    ``density`` is ``InfoMeasures.density``, i(u; y) at [u, y]; the entries
    are those ``_answer`` indexes.
    """
    return _read_only(density.T.ravel())


def identity_answer(victim: int, candidate: int) -> int:
    """Noiseless identity check: 1 exactly when ``candidate`` is the victim."""
    return int(candidate == victim)


class VictimInstance:
    """One victim realization plus its response noise stream.

    ``noise_seed`` is an int seed of the noise stream or a
    ``numpy.random.Generator`` over PCG64, whose state the instance copies:
    it never advances it. Another bit generator is refused with
    ``TypeError``.
    """

    def __init__(self, pair: BigraphPair, victim: int, gm_channel: QueryChannel, noise_seed):
        if not 1 <= victim <= pair.m:
            raise ValueError(f"victim index {victim} outside [1, {pair.m}]")
        self.pair = pair
        self.victim = victim
        self._p_one = gm_channel.p_one_by_bit
        self._noise = _Stream(noise_seed, "noise_seed")

    def noisy_gm_response(self, group: int, query_ordinal: int) -> int:
        """Received answer for the group-membership query with this ordinal.

        The correct answer is the victim's true-graph bit for the group,
        passed through the channel; replaying an ordinal reproduces its answer.
        """
        if query_ordinal < 1:
            raise ValueError("query ordinal must be at least 1")
        true = self.pair._true_bit(self.victim, group)
        return int(_channel(self._p_one, true, self._noise.seek(query_ordinal - 1).random()))

    def uid_response(self, candidate: int) -> int:
        """Noiseless identity check; never touches the noise stream."""
        if not 1 <= candidate <= self.pair.m:
            raise ValueError(f"candidate index {candidate} outside [1, {self.pair.m}]")
        return identity_answer(self.victim, candidate)
