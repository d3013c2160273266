"""The seed of a campaign's generators, hashed once.

``numpy.random.PCG64(seq)`` hashes the seed sequence into four 64-bit state
words each time it is built, and a campaign builds one generator per
substream from the same sequence. ``SeedWords`` draws those words once and
seeds every generator from them. The module is
imported when the first campaign builds its streams, because its base class
loads ``numpy.random``, which importing deanonlab does not.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class SeedWords(ISeedSequence):
    """The state words ``PCG64`` draws from a seed sequence, drawn once."""

    __slots__ = ("words",)

    def __init__(self, seq: np.random.SeedSequence):
        self.words = seq.generate_state(4, np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only the four 64-bit words PCG64 asks for are kept")
        return self.words
