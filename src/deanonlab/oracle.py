"""Victim-side query answering.

The oracle answers the two query kinds the attacker may issue:

* group membership, noisy: the correct answer is the victim's true-graph bit
  for the group, passed through the channel;
* user identity, noiseless: exact equality with the victim index.

Each kind is answered in one place. ``_channel`` answers group queries from
the victim's true bits in the queried groups and one noise uniform per
query; ``identity_answer`` answers an identity query. The attack's blocks
come from one reader, ``_answered_blocks``, which draws each block of
groups from a graph stream, decodes it (``graph._draw_scanned``) and
answers it from a noise stream. A campaign trial runs it on the trial's
own streams; ``attacker.run_its`` runs it on the streams of a pair and of
a ``VictimInstance``, which binds one victim of a pair to the channel for
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

from .graph import BigraphPair, _draw_scanned, _Stream
from .stochastics import QueryChannel, _read_only


def _channel(p_one: np.ndarray, true, u):
    """Received answers, as uint8, to the group queries whose correct answers are ``true``.

    ``true`` holds the victim's true bit (0/1 or bool) in each queried
    group, ``p_one`` is the channel's ``QueryChannel.p_one_by_bit`` table
    and ``u`` holds the queries' noise uniforms, one per entry of ``true``.
    Scalars give a scalar answer.
    """
    return (u < p_one.take(true)).view(np.uint8)


def _answered_blocks(graph, noise, n, m, width, cuts, p_one, victim):
    """The attack's block reader on a graph stream and a noise stream, both at their starts.

    Returns ``read``: ``read(k)`` draws block k (from 0) of an n-group graph
    with the generation ``cuts``, groups k * ``width`` + 1 onward, and
    answers its queries from the next uniforms of ``noise`` through the
    channel of ``p_one``. It gives (index, ys): ``ys`` holds the ``victim``'s
    received answers as uint8, and ``index`` is a writable (w, m) uint8 grid,
    each candidate's scanned bit s plus 2 times the answer y, its entry of
    the scan's density table (:func:`_density_table`). The blocks must be
    read in order, once each, as ``attacker._block_scan`` reads them, and
    the two streams read by nothing else meanwhile.
    """
    user = victim - 1

    def read(k: int):
        rows = min(width, n - k * width)
        index, true = _draw_scanned(graph, rows, m, cuts, user)
        ys = _channel(p_one, true, noise.random(rows))
        index += (ys << 1)[:, None]
        return index, ys

    return read


def _density_table(density: np.ndarray) -> np.ndarray:
    """The scan's density table, read-only: i(s; y) at entry s + 2y.

    ``density`` is ``InfoMeasures.density``, i(u; y) at [u, y]; the entries
    are those ``_answered_blocks`` indexes.
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
