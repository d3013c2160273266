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
The block reader is the one place the channel is applied; a single answer is
a block of one query.
"""

from __future__ import annotations

import numpy as np

from .graph import BigraphPair
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
        self.gm_channel = gm_channel
        self._gen = np.random.default_rng(noise_seed)
        self._uniforms = np.empty(0, dtype=np.float64)

    def _uniforms_through(self, ordinal: int) -> np.ndarray:
        """The cached noise stream, drawn at least up to the ordinal-th uniform."""
        if ordinal < 1:
            raise ValueError("query ordinal must be at least 1")
        if ordinal > self._uniforms.size:
            # Grow geometrically so long transcripts stay linear overall.
            count = max(256, self._uniforms.size, ordinal - self._uniforms.size)
            self._uniforms = np.concatenate([self._uniforms, self._gen.random(count)])
        return self._uniforms

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
        z = self.pair.user_bits("true", self.victim, first_group, first_group + count - 1)
        stream = self._uniforms_through(first_ordinal + count - 1)
        u = stream[first_ordinal - 1 : first_ordinal - 1 + count]
        return (u < self.gm_channel.table[z, 1]).astype(np.uint8)

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
