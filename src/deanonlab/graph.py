"""Correlated pairs of random bipartite membership graphs, read from their generation stream.

A pair holds two m x n binary membership matrices: the true graph and the
scanned (attacker-side) copy. Row i is user i's group signature.

Stream layout. Every position's (true, scanned) outcome is drawn i.i.d.
from an ``EdgeJointDistribution`` out of one PCG64 stream per pair (the
generator of ``numpy.random.default_rng(seed)``), one 32-bit uniform per
position, group by group. Group column g takes raw 64-bit outputs
[(g-1)h, gh) of the stream (``random_raw``), h = ceil(m/2): user 2i+1
reads the low 32 bits of the group's output i and user 2i+2 its high 32
bits, and for odd m the high half of the last output is unused. Each group
takes whole outputs, so group g starts at output (g-1)h however many groups
a draw takes, and a stream can be positioned there directly
(``PCG64.advance``). Rows are not individually re-derivable: row i's bits
are spread over the whole stream.

Decoding. A uniform u picks its outcome by inverse CDF over the outcomes in
the order (0,0), (0,1), (1,1), (1,0), cut at the law's integer cut points
C1 <= C2 <= C3 (``EdgeJointDistribution.generation_cuts``). In that order
the true bit is ``u >= C2`` and the scanned bit is 1 on [C1, C3), tested
by one wrapping subtract and one compare, ``(u - C1) mod 2**32 < C3 - C1``.
``_uniforms`` is the one draw and ``_decode`` the one decoder: it decodes
the scanned bits of every position it is given and the true bits of those
its index selects.

A pair stores no bits. It keeps the start state of its stream on a private
generator (:class:`_Stream`), as ``oracle.VictimInstance`` does for its
response noise; a generator passed as a seed is copied and never advanced.
Every read seeks from the stream's start: it sets the private generator
to the start state, advances it to the read's first output
(``_Stream.seek``) and decodes only what it returns: a block of groups
(``BigraphPair.block_bits``), one user's column (``row_bits``), or a single
true bit (``_true_bit``).
"""

from __future__ import annotations

import numpy as np

from .stochastics import EdgeJointDistribution, _read_only


def _block_width(m: int) -> int:
    """Group columns per block of the attack's scan over an m-user graph.

    At least 32 columns and about 2048 positions up to m = 512, so a
    small-m attack asking dozens of cheap queries reads one block; above it
    about 16384 positions, down to one column, so a wide graph whose attack
    reads a few dozen groups does not draw a block of columns it never
    reads. Any width gives the same bits.
    """
    return max(32, 2048 // m) if m <= 512 else max(1, 16384 // m)


def _batch_trials(width: int, m: int) -> int:
    """Trials whose first blocks of ``width`` columns of m users a campaign decodes in one pass.

    About 16384 positions of first blocks, where a block holds at least 64
    groups: 8 trials up to m = 32, one trial from m = 33 up. A batch pays
    where most trials end inside their first block and numpy's per-call
    cost outweighs the work per position. Narrower blocks send more trials
    to later blocks, which each trial reads alone, and wider grids cost
    about as much to copy into the batch as one pass saves: per trial, 8
    trials ran 1.27x as fast as one at m = 8, 1.05x at m = 32 and 0.98x at
    m = 64, and 2 trials 0.98x at m = 256. Any size gives the same bits.
    """
    return max(1, 16384 // (width * m)) if width >= 64 else 1


class _Stream:
    """A PCG64 stream that can be read from any output on, through a private generator.

    ``seed`` is an int seed of the stream or a ``numpy.random.Generator``
    over PCG64, whose state is copied: the caller's generator is never
    advanced. ``start`` is the state before the stream's first output.
    """

    __slots__ = ("gen", "start")

    def __init__(self, seed, name: str):
        bit_gen = np.random.default_rng(seed).bit_generator
        if type(bit_gen) is not np.random.PCG64:
            raise TypeError(
                f"{name} must be an int seed or a Generator over PCG64, "
                f"not one over {type(bit_gen).__name__}"
            )
        self.start = bit_gen.state
        # Any PCG64 will do: the first seek sets it to ``start``.
        self.gen = np.random.Generator(np.random.PCG64(0))

    def seek(self, output: int) -> np.random.Generator:
        """The private generator, set to ``start`` and advanced to read output ``output`` next."""
        bit_gen = self.gen.bit_generator
        bit_gen.state = self.start
        if output:
            bit_gen.advance(output)
        return self.gen


def _uniforms(gen: np.random.Generator, rows: int, m: int) -> np.ndarray:
    """The next ``rows`` group columns of m users' 32-bit uniforms, as a writable (rows, m) view."""
    return _words(gen.bit_generator.random_raw(rows * ((m + 1) // 2)), rows, m)


def _words(raw: np.ndarray, rows: int, m: int) -> np.ndarray:
    """The uniforms of ``rows`` group columns of m users in raw outputs, as a writable view.

    ``raw`` holds the columns' rows * ceil(m/2) raw outputs along its last
    axis, and the view has shape (..., rows, m). The outputs are read as
    little-endian 64-bit words so the split into halves does not depend on
    the byte order: position 2i (from 0) takes the low 32 bits of output
    i, position 2i + 1 its high 32 bits.
    """
    half = (m + 1) // 2
    u = raw.astype("<u8", copy=False).view("<u4")
    return u.reshape(*raw.shape[:-1], rows, 2 * half)[..., :m]


def _decode(u: np.ndarray, cuts, at):
    """Decode the 32-bit uniforms ``u`` in place: (their scanned bits, the true bits of ``u[at]``).

    The scanned bit is 1 on [C1, C3), tested by one wrapping subtract and
    one compare, ``(u - C1) mod 2**32 < C3 - C1``, and comes back as a
    writable uint8 array of u's shape; the true bit is ``u >= C2``, decoded
    only for ``u[at]``, as a bool array of that index's shape.
    """
    c1, c2, c3 = cuts
    true = u[at] >= c2
    # C1 = 2**32 subtracts as 0, and then C3 - C1 = 0 leaves the interval empty.
    np.subtract(u, c1 & 0xFFFFFFFF, out=u)
    return np.less(u, c3 - c1).view(np.uint8), true


def _check_which(which: str) -> None:
    if which not in ("true", "scanned"):
        raise ValueError(f"graph selector must be 'true' or 'scanned', got {which!r}")


class BigraphPair:
    """True and scanned membership graphs over m users and n groups.

    Construct through :func:`generate_cprb`. ``block_bits`` decodes a block
    of groups from the pair's stream; ``bit`` and ``sig1`` are slices of a
    ``block_bits`` read, and ``row_bits`` decodes one user's column of every
    group. Every read of the same position yields the same bit. A read
    positions the pair's private generator, so share a pair across threads
    only with a lock around its reads.
    """

    __slots__ = ("n", "m", "_cuts", "_stream")

    def __init__(self, n: int, m: int, stream: _Stream, cuts):
        self.n, self.m, self._cuts, self._stream = n, m, cuts, stream

    def block_bits(self, which: str, first: int, last: int) -> np.ndarray:
        """Groups first..last (1-based, inclusive) of every user, as a read-only m x w 0/1 matrix.

        ``bit`` and ``sig1`` read through it. ``.T`` gives the decoded
        contiguous (groups, users) grid without a copy.
        """
        if not 1 <= first <= last <= self.n:
            raise IndexError(f"need 1 <= first <= last <= {self.n}, got ({first}, {last})")
        _check_which(which)
        half, rows = (self.m + 1) // 2, last - first + 1
        gen = self._stream.seek((first - 1) * half)
        scanned, true = _decode(_uniforms(gen, rows, self.m), self._cuts, slice(None))
        return _read_only(scanned if which == "scanned" else true.view(np.uint8)).T

    def row_bits(self, which: str, user: int) -> np.ndarray:
        """All n signature bits of one user, as a read-only 0/1 vector.

        Every group is drawn, but only the user's column is decoded.
        """
        self._check_user(user)
        _check_which(which)
        column = _uniforms(self._stream.seek(0), self.n, self.m)[:, user - 1]
        scanned, true = _decode(column, self._cuts, slice(None))
        return _read_only(scanned if which == "scanned" else true.view(np.uint8))

    def bit(self, which: str, user: int, group: int) -> int:
        """Single membership bit at (user, group), both 1-based."""
        self._check_user(user)
        return int(self.block_bits(which, group, group)[user - 1, 0])

    def _true_bit(self, user: int, group: int) -> int:
        """The true bit at (user, group), both 1-based, decoded from that position's uniform alone.

        ``user`` is not checked: the victim instance asking checked it when
        it was built.
        """
        if not 1 <= group <= self.n:
            raise IndexError(f"group index {group} outside [1, {self.n}]")
        j = user - 1
        gen = self._stream.seek((group - 1) * ((self.m + 1) // 2) + j // 2)
        # The one output holding the user's uniform, as the two uniforms of a 2-user column.
        u = _words(gen.bit_generator.random_raw(1), 1, 2)
        return int(_decode(u, self._cuts, (0, j & 1))[1])

    def _check_user(self, user: int) -> None:
        # Checked before any read, so user 0 never wraps to the last row.
        if not 1 <= user <= self.m:
            raise IndexError(f"user index {user} outside [1, {self.m}]")

    @property
    def sig1(self) -> np.ndarray:
        """Scanned-graph signatures as an m x n 0/1 matrix (copy)."""
        return self.block_bits("scanned", 1, self.n).copy()


def generate_cprb(n: int, m: int, edge_joint: EdgeJointDistribution, seed) -> BigraphPair:
    """Draw a correlated pair of random bigraphs, deterministic given ``seed``.

    Parameters
    ----------
    n, m : int
        Group and user counts, both at least 1.
    edge_joint : EdgeJointDistribution
        Joint law of the (true, scanned) bit at every position.
    seed : int or numpy.random.Generator
        Seed of the generation stream, or a PCG64 generator whose state the
        pair copies: the pair never advances it. Another bit generator is
        refused with ``TypeError``.
    """
    if n < 1:
        raise ValueError("group count n must be at least 1")
    if m < 1:
        raise ValueError("user count m must be at least 1")
    if not isinstance(edge_joint, EdgeJointDistribution):
        raise TypeError("edge_joint must be an EdgeJointDistribution")
    return BigraphPair(n, m, _Stream(seed, "seed"), edge_joint.generation_cuts)
