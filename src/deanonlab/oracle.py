"""Victim-side query answering.

The oracle answers the two query kinds the attacker may issue:

* group membership, noisy: the correct answer is the victim's true-graph bit
  for the group, passed through the channel;
* user identity, noiseless: exact equality with the victim index.

Each kind is answered in one place. ``_channel`` answers a block of group
queries from the victim's column of the block's outcome codes and one noise
uniform per query; ``identity_answer`` answers an identity query. A
campaign trial calls both directly on the blocks it draws, and a
``VictimInstance`` binds one victim of a graph pair to them for the public
one-trial API (``attacker.run_its``).

Channel noise is indexed by query ordinal, not by group, so re-asking the
same group later draws fresh noise (the channel is memoryless). Replaying an
ordinal reproduces the identical response bit, so a block of consecutive
queries can be answered in one call and its unused tail asked again later.
Query ordinal t takes uniform t of the noise stream, drawn a block of the
pair's ``block_width`` uniforms at a time: the attack asks group k with
ordinal k, so graph block k is answered from noise block k. An instance
keeps its uniforms in the graph module's lazy store (``graph._LazyRows``).
The stream is drawn in ordinal order whatever the block width, so the width
changes no answer.
"""

from __future__ import annotations

import numpy as np

from .graph import BigraphPair, _LazyRows
from .stochastics import QueryChannel


def _channel(p_one: np.ndarray, column: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Received answers, as uint8, to the group queries whose victim codes are ``column``.

    ``p_one`` is the channel's ``QueryChannel.p_one_by_code`` table and
    ``u`` holds the queries' noise uniforms, one per entry of ``column``.
    """
    return (u < p_one.take(column)).view(np.uint8)


def identity_answer(victim: int, candidate: int) -> int:
    """Noiseless identity check: 1 exactly when ``candidate`` is the victim."""
    return int(candidate == victim)


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
        """Received answer for the group-membership query with this ordinal.

        The correct answer is the victim's true-graph bit for the group,
        passed through the channel; replaying an ordinal reproduces its answer.
        """
        if query_ordinal < 1:
            raise ValueError("query ordinal must be at least 1")
        return int(self._answers(self.pair.block_codes(group, group), query_ordinal)[0])

    def _answers(self, codes: np.ndarray, first_ordinal: int) -> np.ndarray:
        """Received answers to w consecutive group queries, the first with ``first_ordinal``.

        ``codes`` is the (w, m) code grid of the queried groups.
        """
        u = self._noise.read(first_ordinal, first_ordinal + len(codes) - 1)
        return _channel(self._p_one, codes[:, self.victim - 1], u)

    def uid_response(self, candidate: int) -> int:
        """Noiseless identity check; never touches the noise stream."""
        if not 1 <= candidate <= self.pair.m:
            raise ValueError(f"candidate index {candidate} outside [1, {self.pair.m}]")
        return identity_answer(self.victim, candidate)
