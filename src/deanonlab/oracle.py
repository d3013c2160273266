"""Victim-side query answering.

The oracle answers the two query kinds the attacker may issue:

* group membership, noisy: the correct answer is the victim's true-graph bit
  for the group, passed through the channel;
* user identity, noiseless: exact equality with the victim index.

Each kind is answered in one place. ``_channel`` answers group queries from
the victim's true bits in the queried groups and one noise uniform per
query; ``identity_answer`` answers an identity query. The attack's blocks
come from one reader, ``_BlockReader``, which draws each block of groups
from a graph stream and answers it from a noise stream with one decoder,
``_answer``: the scanned bits and the victim's true bits
(``graph._decode``), the channel's answers, the scan's density index and
each entry's density, for one block or for a stack of blocks, one per
trial. A campaign reads block 0 of a batch of trials as one stack, from
each trial's streams at their starts, and every later block of a trial,
and every block of a one-trial batch, from the trial's own streams;
``attacker.run_its`` reads every block from the streams of a pair and of a
``VictimInstance``, which binds one victim of a pair to the channel for
the public one-trial API.

Channel noise is indexed by query ordinal, not by group, so re-asking the
same group later draws fresh noise (the channel is memoryless). Replaying an
ordinal reproduces the identical response bit. Query ordinal t takes
uniform t of the noise stream, the double of its raw output t - 1, as
``Generator.random`` draws one output per double: the attack asks group k
with ordinal k, so its blocks read both streams in order. An instance keeps
the start state of its noise stream (``graph._Stream``) and answers a
single query by positioning both streams at it, decoding only the victim's
true bit.
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

    Block k (from 0) holds groups k * ``width`` + 1 onward of an n-group
    graph over m users with the generation ``cuts``, and is read from a
    graph stream and a noise stream: its graph uniforms are decoded by
    :func:`_answer` and its queries answered from the next uniforms of the
    noise stream through the channel of ``p_one``. A block comes as (index,
    ys, sums), ``index`` the writable (w, m) uint8 grid of entries of
    ``density``, ``ys`` the victim's w answers and ``sums`` their
    densities, which the scan may overwrite.

    A campaign reads block 0 of a batch of up to ``batch`` trials at once
    (groups 1 to w, w = min(``width``, n)). ``draw`` draws a trial's block
    0 from its streams at their starts, its raw graph outputs into one
    (batch, w * ceil(m/2)) buffer and its noise uniforms into one (batch,
    w); ``answer`` decodes the whole stack with one :func:`_answer`, the
    densities into one (batch, w, m) buffer, and ``first(t)`` is then trial
    t's block 0. ``blocks`` reads a trial's blocks from any block on, their
    densities into slot t of that buffer: a one-trial batch and a single
    attack read every block that way, and copy nothing. The buffers are
    reused by every batch.
    """

    __slots__ = (
        "n", "m", "width", "cuts", "p_one", "density", "rows", "drawn", "raw", "words",
        "noise", "sums", "offsets", "trials", "users", "index", "ys",
    )

    def __init__(self, n: int, m: int, width: int, cuts, p_one, density, batch: int = 1):
        self.n, self.m, self.width = n, m, width
        self.cuts, self.p_one, self.density = cuts, p_one, density
        self.rows = rows = min(width, n)
        # The outputs block 0 takes from the graph stream and the noise stream.
        self.drawn = rows * ((m + 1) // 2), rows
        self.raw = np.empty((batch, self.drawn[0]), dtype="<u8")
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
        self.raw[t] = graph.bit_generator.random_raw(self.drawn[0])
        noise.random(out=self.noise[t])
        self.users[t] = victim - 1

    def answer(self, size: int) -> None:
        """Decode, answer and look up block 0 of the batch's first ``size`` trials."""
        at = (self.trials[:size], slice(None), self.users[:size])
        self.index, self.ys = _answer(
            self.words[:size], self.noise[:size], at, self.cuts, self.p_one, self.offsets,
            self.density, self.sums[:size],
        )

    def first(self, t: int):
        """Block 0 of the batch's trial t."""
        return self.index[t], self.ys[t], self.sums[t]

    def blocks(self, graph, noise, victim: int, t: int = 0, block: int = 0):
        """Blocks ``block``, ``block`` + 1, ... of slot t's trial, from its streams at that block.

        Each block is drawn when the next one is asked for; the two streams
        must be read by nothing else meanwhile.
        """
        n, m, width, sums, at = self.n, self.m, self.width, self.sums[t], (slice(None), victim - 1)
        for start in range(block * width, n, width):
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
        return int(_channel(self._p_one, true, self._noise.seek(query_ordinal - 1, 1).random()))

    def uid_response(self, candidate: int) -> int:
        """Noiseless identity check; never touches the noise stream."""
        if not 1 <= candidate <= self.pair.m:
            raise ValueError(f"candidate index {candidate} outside [1, {self.pair.m}]")
        return identity_answer(self.victim, candidate)
