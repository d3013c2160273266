"""Correlated pairs of random bipartite membership graphs.

A pair holds two m x n binary membership matrices: the true graph and the
scanned (attacker-side) copy. Row i is user i's group signature. Both graphs
live in one (2, columns, m) uint8 array of 0/1 values, one byte per position,
group-major within each graph: group g's row holds the bits of users 1..m.
The attack adds one information density to every candidate's score per group
query, so its hot loop reads a block of consecutive groups as a contiguous
(groups, users) grid, and the victim's answers come from one strided column.
The block and user readers hand out read-only views of the stored rows.

Generation draws the (true, scanned) bit pair of every position i.i.d. from
an ``EdgeJointDistribution`` out of a single random stream per pair,
``numpy.random.default_rng(seed)``, consumed column-major, one uniform per
position. Group column g takes uniforms [m(g-1), mg) of that stream, one per
user 1..m; a uniform u gives the pair by inverse CDF over the four outcomes
laid out in the order (0,0), (0,1), (1,1), (1,0), so that the true bit is
``u >= c2`` and the scanned bit ``c1 <= u < c3`` for the law's cut points
(``EdgeJointDistribution.generation_cuts``). The comparisons write through a
bool view of the stored rows: a bool is one 0/1 byte, so the stored bytes
are the same, and no cast pass to uint8 follows each compare. Columns are
materialized left to right on demand, one block of ``block_width`` columns
at a time, and the storage grows along the group axis with them. A block is
``max(32, 2048 // m)`` columns wide: about 2048 positions at small m (128
columns at m=16), so an attack that asks dozens of cheap queries reads one
block instead of several, and 32 columns from m=64 up, so an attack that
touches only the first few dozen groups of a wide graph never pays for the
rest of it. The block width is not part of the layout, and materialized bits
are identical whichever access pattern triggered them. Rows are not
individually re-derivable: row i's bits are spread over the whole stream.
"""

from __future__ import annotations

import numpy as np

from .stochastics import EdgeJointDistribution

# A block of columns materialized per extension holds at least _BLOCK
# columns and about _BLOCK_POSITIONS positions; any width gives the same bits.
_BLOCK = 32
_BLOCK_POSITIONS = 2048

_SELECTORS = {"true": 0, "scanned": 1}


class BigraphPair:
    """True and scanned membership graphs over m users and n groups.

    Construct through :func:`generate_cprb` or :meth:`from_matrices`. The
    pair is logically immutable: every read of the same position yields the
    same bit. Lazy generation fills the internal cache left to right, which
    is safe for the intended one-trial-per-instance usage; share an instance
    across threads only after it is fully materialized.
    """

    __slots__ = ("n", "m", "block_width", "_bits", "_ready", "_gen", "_c1", "_c2", "_c3")

    def __init__(self, n: int, m: int, bits: np.ndarray, ready: int, gen=None, cuts=(0.0, 0.0, 0.0)):
        self.n = n
        self.m = m
        # Columns per materialization block; readers align their scans to it.
        self.block_width = max(_BLOCK, _BLOCK_POSITIONS // m)
        self._bits = bits
        self._ready = ready
        self._gen = gen
        self._c1, self._c2, self._c3 = cuts

    @classmethod
    def from_matrices(cls, sig0, sig1) -> "BigraphPair":
        """Wrap two explicit m x n 0/1 matrices (fully materialized)."""
        a0 = np.asarray(sig0)
        a1 = np.asarray(sig1)
        if a0.ndim != 2 or a0.shape != a1.shape:
            raise ValueError("sig0 and sig1 must be 2-D with identical shapes")
        m, n = a0.shape
        if m < 1 or n < 1:
            raise ValueError("user and group counts must be positive")
        for name, a in (("sig0", a0), ("sig1", a1)):
            if not np.isin(a, (0, 1)).all():
                raise ValueError(f"{name} entries must be 0 or 1")
        return cls(n, m, np.stack((a0.T, a1.T)).astype(np.uint8), ready=n)

    # -- generation ------------------------------------------------------

    def _ensure_columns(self, upto: int):
        """Materialize group columns [1, upto]; no-op if already present."""
        upto = min(upto, self.n)
        if upto <= self._ready:
            return
        block = self.block_width
        stop = min(self._ready + -(-(upto - self._ready) // block) * block, self.n)
        have = self._bits.shape[1]
        if stop > have:
            # Grow geometrically, so reading a wide graph left to right copies
            # each row a bounded number of times, but never past the full width.
            size = min(max(stop, 2 * have), self.n)
            grown = np.empty((2, size, self.m), dtype=np.uint8)
            grown[:, : self._ready] = self._bits[:, : self._ready]
            self._bits = grown
        while self._ready < stop:
            width = min(block, stop - self._ready)
            u = self._gen.random((width, self.m))
            true, scanned = self._bits[:, self._ready : self._ready + width].view(bool)
            np.greater_equal(u, self._c2, out=true)
            np.greater_equal(u, self._c1, out=scanned)
            scanned &= u < self._c3
            self._ready += width

    # -- raw access ------------------------------------------------------

    def _columns(self, which: str, upto: int) -> np.ndarray:
        """Read-only group rows of the selected graph with columns [1, upto] materialized."""
        if which not in _SELECTORS:
            raise ValueError(f"graph selector must be 'true' or 'scanned', got {which!r}")
        self._ensure_columns(upto)
        rows = self._bits[_SELECTORS[which]]
        rows.flags.writeable = False
        return rows

    def block_bits(self, which: str, first: int, last: int) -> np.ndarray:
        """Groups first..last (1-based, inclusive) of every user, as an m x w 0/1 matrix.

        The matrix is a read-only transposed view of the groups' stored rows,
        so ``.T`` gives the contiguous (groups, users) grid without a copy.
        """
        if not 1 <= first <= last <= self.n:
            raise IndexError(f"need 1 <= first <= last <= {self.n}, got ({first}, {last})")
        return self._columns(which, last)[first - 1 : last].T

    def user_bits(self, which: str, user: int, first: int, last: int) -> np.ndarray:
        """Groups first..last (1-based, inclusive) of one user, as a 0/1 vector.

        The vector is a read-only view of the user's column of the stored
        rows, strided by m bytes.
        """
        if not 1 <= user <= self.m:
            raise IndexError(f"user index {user} outside [1, {self.m}]")
        if not 1 <= first <= last <= self.n:
            raise IndexError(f"need 1 <= first <= last <= {self.n}, got ({first}, {last})")
        return self._columns(which, last)[first - 1 : last, user - 1]

    def row_bits(self, which: str, user: int, upto: int | None = None) -> np.ndarray:
        """The first ``upto`` signature bits of one user (defaults to all n)."""
        count = self.n if upto is None else upto
        if not 0 <= count <= self.n:
            raise IndexError(f"upto {count} outside [0, {self.n}]")
        return self.user_bits(which, user, 1, max(count, 1))[:count]

    def bit(self, which: str, user: int, group: int) -> int:
        """Single membership bit at (user, group), both 1-based."""
        return int(self.user_bits(which, user, group, group)[0])

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
    return BigraphPair(
        n, m, np.zeros((2, 0, m), dtype=np.uint8), ready=0,
        gen=np.random.default_rng(seed), cuts=edge_joint.generation_cuts,
    )
