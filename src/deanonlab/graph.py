"""Correlated pairs of random bipartite membership graphs, and the lazy block store behind them.

A pair holds two m x n binary membership matrices: the true graph and the
scanned (attacker-side) copy. Row i is user i's group signature. The pair
stores one uint8 outcome code per (user, group) position: code k is the k-th
of the outcomes (true bit, scanned bit) = (0,0), (0,1), (1,1), (1,0), and
``stochastics.CODE_BITS`` decodes it into either bit. Codes are stored group-major,
group g's row holding users 1..m, so the attack reads a block of groups as a
contiguous (groups, users) grid and the victim's answers as one column of it.
``BigraphPair.block_bits`` is the one decoder: a user's signature, a single
bit and the scanned matrix are each a slice of a block it decodes.

Generation draws the outcome of every position i.i.d. from an
``EdgeJointDistribution`` out of a single random stream per pair,
``numpy.random.default_rng(seed)``, consumed column-major, one uniform per
position. Group column g takes uniforms [m(g-1), mg) of that stream, one per
user 1..m; a uniform u picks the outcome by inverse CDF over the code
layout, ``code = (u >= c1) + (u >= c2) + (u >= c3)`` for the law's cut
points (``EdgeJointDistribution.generation_cuts``). Rows are not
individually re-derivable: row i's codes are spread over the whole stream.

Codes are drawn a block of group columns at a time, and ``_draw_codes`` is
the one code draw: a campaign trial calls it directly on its graph stream
as the attack's block scan asks for each block, and a pair's store calls it
to fill its blocks. The width of a block is ``_block_width(m)``, the one
place the rule lives. The width is not part of the layout: the codes are
identical whichever width or access pattern drew them.

A pair keeps its codes in a private store, :class:`_LazyRows`, as does
``oracle.VictimInstance`` its response noise. A store keeps its rows in
read-only blocks of a width fixed when it is built, block k starting at row
``k * width + 1``; blocks are drawn in order on demand and never copied.
``BigraphPair.block_width`` reads the pair's width back; the noise store of
a victim takes the same width, so the scan's block k of the graph is
answered from block k of the noise.
"""

from __future__ import annotations

import numpy as np

from .stochastics import CODE_BITS, EdgeJointDistribution, _read_only


def _block_width(m: int) -> int:
    """Group columns per materialization block of an m-user pair.

    At least 32 columns and about 2048 positions up to m = 512, so a
    small-m attack asking dozens of cheap queries reads one block; above it
    about 16384 positions, down to one column, so a wide graph whose attack
    reads a few dozen groups does not pay for a block of columns it never
    reads. Any width gives the same codes.
    """
    return max(32, 2048 // m) if m <= 512 else max(1, 16384 // m)


class _LazyRows:
    """A table drawn on demand in read-only blocks of ``width`` rows.

    Block k holds rows k * width + 1 onward; ``draw(k)`` makes it, and the
    blocks up to the one holding a read's last row are drawn in order.
    """

    __slots__ = ("width", "_draw", "blocks")

    def __init__(self, width: int, draw):
        self.width = width
        self._draw = draw
        self.blocks = []

    def read(self, first: int, last: int) -> np.ndarray:
        """Rows first..last (1-based, inclusive).

        A range inside one block is a view of it, a range across blocks a
        read-only concatenated copy.
        """
        width, blocks = self.width, self.blocks
        k, j = (first - 1) // width, (last - 1) // width
        while len(blocks) <= j:
            blocks.append(_read_only(self._draw(len(blocks))))
        start = k * width
        if k == j:
            return blocks[k][first - 1 - start : last - start]
        return _read_only(np.concatenate(blocks[k : j + 1])[first - 1 - start : last - start])


def _draw_codes(gen: np.random.Generator, rows: int, m: int, cuts) -> np.ndarray:
    """The next ``rows`` group columns of m users' codes from the generation stream, as (rows, m).

    The one code draw: one uniform per position, row by row, each picking
    its outcome by ``(u >= c1) + (u >= c2) + (u >= c3)`` for ``cuts`` =
    (c1, c2, c3).
    """
    c1, c2, c3 = cuts
    u = gen.random((rows, m))
    codes = np.greater_equal(u, c1).view(np.uint8)
    above = np.greater_equal(u, c2)
    codes += above.view(np.uint8)
    codes += np.greater_equal(u, c3, out=above).view(np.uint8)
    return codes


class BigraphPair:
    """True and scanned membership graphs over m users and n groups.

    Construct through :func:`generate_cprb`. ``block_codes`` reads the
    stored codes and ``block_bits`` decodes them; ``row_bits``, ``bit`` and
    ``sig1`` are slices of a ``block_bits`` read. The pair is logically
    immutable: every read of the same position yields the same code. Lazy
    generation appends blocks left to right, which is safe for the intended
    one-trial-per-instance usage; share an instance across threads only
    after it is fully materialized.
    """

    __slots__ = ("n", "m", "_codes")

    def __init__(self, n: int, m: int, gen: np.random.Generator, cuts):
        self.n = n
        self.m = m
        width = _block_width(m)
        # A closure, not a method: the store holds it, and a bound method
        # would tie pair and store into a cycle that only the collector frees.
        self._codes = _LazyRows(
            width, lambda k: _draw_codes(gen, min(width, n - k * width), m, cuts)
        )

    @property
    def block_width(self) -> int:
        """Group columns per materialization block; readers align their scans to it."""
        return self._codes.width

    # -- raw access ------------------------------------------------------

    def block_codes(self, first: int, last: int) -> np.ndarray:
        """Codes of groups first..last (1-based, inclusive), as a read-only (w, m) grid.

        A view of the stored rows within one block, a concatenated copy across blocks.
        """
        if not 1 <= first <= last <= self.n:
            raise IndexError(f"need 1 <= first <= last <= {self.n}, got ({first}, {last})")
        return self._codes.read(first, last)

    def block_bits(self, which: str, first: int, last: int) -> np.ndarray:
        """Groups first..last (1-based, inclusive) of every user, as a read-only m x w 0/1 matrix.

        The pair's one decoder: every bit reader goes through it. ``.T``
        gives the decoded contiguous (groups, users) grid without a copy.
        """
        codes = self.block_codes(first, last)
        if which not in CODE_BITS:
            raise ValueError(f"graph selector must be 'true' or 'scanned', got {which!r}")
        return _read_only(CODE_BITS[which].take(codes)).T

    def row_bits(self, which: str, user: int) -> np.ndarray:
        """All n signature bits of one user, as a read-only 0/1 vector."""
        self._check_user(user)
        return self.block_bits(which, 1, self.n)[user - 1]

    def bit(self, which: str, user: int, group: int) -> int:
        """Single membership bit at (user, group), both 1-based."""
        self._check_user(user)
        return int(self.block_bits(which, group, group)[user - 1, 0])

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
        Seed of the generation stream, or the stream itself, which the pair
        then draws from as its columns materialize.
    """
    if n < 1:
        raise ValueError("group count n must be at least 1")
    if m < 1:
        raise ValueError("user count m must be at least 1")
    if not isinstance(edge_joint, EdgeJointDistribution):
        raise TypeError("edge_joint must be an EdgeJointDistribution")
    return BigraphPair(n, m, np.random.default_rng(seed), edge_joint.generation_cuts)
