"""Correlated pairs of random bipartite membership graphs, and the lazy block store behind them.

A pair holds two m x n binary membership matrices: the true graph and the
scanned (attacker-side) copy. Row i is user i's group signature. The pair
stores one uint8 outcome code per (user, group) position: code k is the k-th
of the outcomes (true bit, scanned bit) = (0,0), (0,1), (1,1), (1,0), and
``stochastics.CODE_BITS`` decodes it into either bit. Codes are stored group-major,
group g's row holding users 1..m, so the attack reads a block of groups as a
contiguous (groups, users) grid and the victim's answers as one column of it.

Generation draws the outcome of every position i.i.d. from an
``EdgeJointDistribution`` out of a single random stream per pair,
``numpy.random.default_rng(seed)``, consumed column-major, one uniform per
position. Group column g takes uniforms [m(g-1), mg) of that stream, one per
user 1..m; a uniform u picks the outcome by inverse CDF over the code
layout, ``code = (u >= c1) + (u >= c2) + (u >= c3)`` for the law's cut
points (``EdgeJointDistribution.generation_cuts``). Rows are not
individually re-derivable: row i's codes are spread over the whole stream.

One reader, :func:`_read_rows`, keeps every lazily drawn table of a trial:
the pair's group rows here, and the victim's response noise in
``oracle.VictimInstance``, which draws it in blocks of the pair's width so
that a scan aligned to the graph's blocks reads one noise block too. Rows
live in read-only blocks of ``block_width`` rows, block k starting at row
``k * block_width + 1``; blocks are drawn in order on demand and never
copied. A block is ``max(32, 2048 // m)`` columns wide: a small-m attack
asking dozens of cheap queries reads one block, and one touching the first
few dozen groups of a wide graph never pays for the rest. The width is not
part of the layout, since materialized codes are identical whichever
access pattern triggered them, but block offsets are derived from it, so
``block_width`` may only be set before the first read.
"""

from __future__ import annotations

import numpy as np

from .stochastics import CODE_BITS, EdgeJointDistribution, _read_only

# A block of columns materialized per extension holds at least _BLOCK
# columns and about _BLOCK_POSITIONS positions; any width gives the same codes.
_BLOCK = 32
_BLOCK_POSITIONS = 2048


def _read_rows(blocks: list, width: int, first: int, last: int, draw) -> np.ndarray:
    """Rows first..last (1-based, inclusive) of a lazy store of blocks of ``width`` rows.

    Block k of ``blocks`` holds rows k * width + 1 onward; ``draw(k)`` makes
    it, and the blocks up to the one holding ``last`` are drawn in order and
    kept read-only. A range inside one block is a view of it, a range across
    blocks a read-only concatenated copy.
    """
    k, j = (first - 1) // width, (last - 1) // width
    while len(blocks) <= j:
        blocks.append(_read_only(draw(len(blocks))))
    start = k * width
    if k == j:
        return blocks[k][first - 1 - start : last - start]
    return _read_only(np.concatenate(blocks[k : j + 1])[first - 1 - start : last - start])


class BigraphPair:
    """True and scanned membership graphs over m users and n groups.

    Construct through :func:`generate_cprb` or :meth:`from_matrices`. The
    pair is logically immutable: every read of the same position yields the
    same code. Lazy generation appends blocks left to right, which is safe
    for the intended one-trial-per-instance usage; share an instance across
    threads only after it is fully materialized.
    """

    __slots__ = ("n", "m", "block_width", "_blocks", "_gen", "_c1", "_c2", "_c3")

    def __init__(self, n: int, m: int, gen=None, cuts=(0.0, 0.0, 0.0)):
        self.n = n
        self.m = m
        # Columns per materialization block; readers align their scans to it.
        self.block_width = max(_BLOCK, _BLOCK_POSITIONS // m)
        self._blocks = []
        self._gen = gen
        self._c1, self._c2, self._c3 = cuts

    @classmethod
    def from_matrices(cls, sig0, sig1) -> "BigraphPair":
        """Wrap two explicit m x n 0/1 matrices (fully materialized)."""
        a0, a1 = np.asarray(sig0), np.asarray(sig1)
        if a0.ndim != 2 or a0.shape != a1.shape:
            raise ValueError("sig0 and sig1 must be 2-D with identical shapes")
        m, n = a0.shape
        if m < 1 or n < 1:
            raise ValueError("user and group counts must be positive")
        for name, a in (("sig0", a0), ("sig1", a1)):
            if not np.isin(a, (0, 1)).all():
                raise ValueError(f"{name} entries must be 0 or 1")
        code_of = np.empty((2, 2), dtype=np.uint8)
        code_of[CODE_BITS["true"], CODE_BITS["scanned"]] = range(4)
        pair = cls(n, m)
        codes = _read_only(code_of[a0.astype(np.intp), a1.astype(np.intp)].T.copy())
        width = pair.block_width
        pair._blocks = [codes[start : start + width] for start in range(0, n, width)]
        return pair

    def _draw(self, k: int) -> np.ndarray:
        """Codes of the k-th block of group columns (from 0), drawn from the generation stream."""
        u = self._gen.random((min(self.block_width, self.n - k * self.block_width), self.m))
        codes = np.greater_equal(u, self._c1).view(np.uint8)
        above = np.greater_equal(u, self._c2)
        codes += above.view(np.uint8)
        codes += np.greater_equal(u, self._c3, out=above).view(np.uint8)
        return codes

    # -- raw access ------------------------------------------------------

    def block_codes(self, first: int, last: int) -> np.ndarray:
        """Codes of groups first..last (1-based, inclusive), as a read-only (w, m) grid.

        A view of the stored rows within one block, a concatenated copy across blocks.
        """
        if not 1 <= first <= last <= self.n:
            raise IndexError(f"need 1 <= first <= last <= {self.n}, got ({first}, {last})")
        return _read_rows(self._blocks, self.block_width, first, last, self._draw)

    def block_bits(self, which: str, first: int, last: int) -> np.ndarray:
        """Groups first..last (1-based, inclusive) of every user, as a read-only m x w 0/1 matrix.

        ``.T`` gives the decoded contiguous (groups, users) grid without a copy.
        """
        return self._decode(which, self.block_codes(first, last)).T

    def user_bits(self, which: str, user: int, first: int, last: int) -> np.ndarray:
        """Groups first..last (1-based, inclusive) of one user, as a read-only 0/1 vector."""
        if not 1 <= user <= self.m:
            raise IndexError(f"user index {user} outside [1, {self.m}]")
        return self._decode(which, self.block_codes(first, last)[:, user - 1])

    def row_bits(self, which: str, user: int, upto: int | None = None) -> np.ndarray:
        """The first ``upto`` signature bits of one user (defaults to all n)."""
        count = self.n if upto is None else upto
        if not 0 <= count <= self.n:
            raise IndexError(f"upto {count} outside [0, {self.n}]")
        return self.user_bits(which, user, 1, max(count, 1))[:count]

    def bit(self, which: str, user: int, group: int) -> int:
        """Single membership bit at (user, group), both 1-based."""
        return int(self.user_bits(which, user, group, group)[0])

    @staticmethod
    def _decode(which: str, codes: np.ndarray) -> np.ndarray:
        if which not in CODE_BITS:
            raise ValueError(f"graph selector must be 'true' or 'scanned', got {which!r}")
        return _read_only(CODE_BITS[which].take(codes))

    @property
    def sig0(self) -> np.ndarray:
        """True-graph signatures as an m x n 0/1 matrix (copy)."""
        return self.block_bits("true", 1, self.n).copy()

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
    return BigraphPair(n, m, gen=np.random.default_rng(seed), cuts=edge_joint.generation_cuts)
