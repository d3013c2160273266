"""Victim-side query answering.

A ``VictimInstance`` binds one trial together: the graph pair, the victim's
index, the group-membership noise channel, and a private noise stream. It
answers the two query kinds the attacker may issue:

* group membership, noisy: the correct answer is the victim's true-graph bit
  for the group, passed through the channel;
* user identity, noiseless: exact equality with the victim index.

Channel noise is indexed by query ordinal, not by group, so re-asking the
same group later draws fresh noise (the channel is memoryless). Replaying an
ordinal reproduces the identical response bit, so a block of consecutive
queries can be answered in one call and its unused tail asked again later.
The channel is applied in one place, a private method that answers a block
of queries from the graph codes its caller has already read: the threshold
attack reads each block's codes once and passes them in, and the block
reader ``noisy_gm_responses`` reads them for its caller. A single answer is
a block of one query.

Query ordinal t takes uniform t of the noise stream. The uniforms are kept
in the graph module's lazy store (``graph._LazyRows``), built once per
instance at the pair's ``block_width``: the attack asks group k with
ordinal k, so a scan aligned to the graph's blocks reads exactly one noise
block, as a view. The stream is drawn in ordinal order whatever the block
width, so the width changes no answer.
"""

from __future__ import annotations

import numpy as np

from .graph import BigraphPair, _LazyRows
from .stochastics import QueryChannel


class VictimInstance:
    """One victim realization plus its response noise stream.

    ``noise_seed`` is an int seed of the noise stream or a
    ``numpy.random.Generator``, which the instance then draws from.
    """

    def __init__(self, pair: BigraphPair, victim: int, gm_channel: QueryChannel, noise_seed):
        if not 1 <= victim <= pair.m:
            raise ValueError(f"victim index {victim} outside [1, {pair.m}]")
        self.pair = pair
        self.victim = victim
        self._p_one = gm_channel.p_one_by_code
        gen, width = np.random.default_rng(noise_seed), pair.block_width
        # A closure over the generator, so the store does not hold the instance.
        self._noise = _LazyRows(width, lambda k: gen.random(width))

    def noisy_gm_response(self, group: int, query_ordinal: int) -> int:
        """Received answer for the group-membership query with this ordinal."""
        return int(self.noisy_gm_responses(group, 1, query_ordinal)[0])

    def noisy_gm_responses(self, first_group: int, count: int, first_ordinal: int) -> np.ndarray:
        """Received answers for ``count`` consecutive group queries, as a 0/1 vector.

        Query k (from 0) asks group ``first_group + k`` with ordinal
        ``first_ordinal + k``. The correct answer is the victim's true-graph
        bit for the group, passed through the channel; replaying a query
        ordinal reproduces its answer, whatever blocks it was read in.
        """
        if first_ordinal < 1:
            raise ValueError("query ordinal must be at least 1")
        codes = self.pair.block_codes(first_group, first_group + count - 1)
        return self._answers(codes, first_ordinal)

    def _answers(self, codes: np.ndarray, first_ordinal: int) -> np.ndarray:
        """Received answers to w consecutive group queries, the first with ``first_ordinal``.

        ``codes`` is the (w, m) code grid of the queried groups. The channel
        acts here only, on the grid's victim column and the noise uniforms
        of the w ordinals.
        """
        u = self._noise.read(first_ordinal, first_ordinal + len(codes) - 1)
        return (u < self._p_one.take(codes[:, self.victim - 1])).view(np.uint8)

    def uid_response(self, candidate: int) -> int:
        """Noiseless identity check; never touches the noise stream."""
        if not 1 <= candidate <= self.pair.m:
            raise ValueError(f"candidate index {candidate} outside [1, {self.pair.m}]")
        return int(candidate == self.victim)


def expected_response_column(pair: BigraphPair, group: int) -> np.ndarray:
    """Scanned-graph bits of one group for every candidate (length m).

    Entry j-1 is the response the attacker would expect if candidate j were
    the victim, i.e. candidate j's scanned-graph membership bit.
    """
    return pair.block_bits("scanned", group, group)[:, 0]
