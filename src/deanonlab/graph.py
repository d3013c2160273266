"""Correlated pairs of random bipartite membership graphs.

A pair holds two m x n binary membership matrices: the true graph and the
scanned (attacker-side) copy. Row i is user i's group signature. Both graphs
live in one (2, m, bytes) array of packed bit words, user-major within each
graph (big-endian within a byte, so group 1 is the most significant bit of
the first byte), because the attack's hot loop reads a block of consecutive
group columns across all m candidates at a time.

Generation draws the (true, scanned) bit pair of every position i.i.d. from
an ``EdgeJointDistribution`` out of a single random stream per pair,
``numpy.random.default_rng(seed)``, consumed column-major. Group column g
takes uniforms [2m(g-1), 2mg) of that stream: the first m decide the true
bits of users 1..m against the true-edge marginal, the next m decide their
scanned bits against the conditional given the realized true bit. Columns are
materialized left to right on demand, a block at a time, and the packed
storage grows with them; an attack that touches only the first few dozen
groups never pays for the rest of a wide graph. The block width is not part
of the layout, and materialized bits are identical whichever access pattern
triggered them. Rows are not individually re-derivable: row i's bits are
spread over the whole stream.
"""

from __future__ import annotations

import numpy as np

from .stochastics import EdgeJointDistribution

# Columns materialized per extension; a multiple of 8 keeps packing aligned.
_BLOCK = 32

_SELECTORS = {"true": 0, "scanned": 1}


class BigraphPair:
    """True and scanned membership graphs over m users and n groups.

    Construct through :func:`generate_cprb` or :meth:`from_matrices`. The
    pair is logically immutable: every read of the same position yields the
    same bit. Lazy generation fills the internal cache left to right, which
    is safe for the intended one-trial-per-instance usage; share an instance
    across threads only after it is fully materialized.
    """

    __slots__ = ("n", "m", "_packed", "_ready", "_gen", "_t0", "_t10", "_t11")

    def __init__(self, n: int, m: int, packed: np.ndarray, ready: int, gen=None, thresholds=(0.0, 0.0, 0.0)):
        self.n = n
        self.m = m
        self._packed = packed
        self._ready = ready
        self._gen = gen
        self._t0, self._t10, self._t11 = thresholds

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
        packed = np.packbits(np.stack((a0, a1)).astype(np.uint8), axis=2)
        return cls(n, m, packed, ready=n)

    # -- generation ------------------------------------------------------

    def _ensure_columns(self, upto: int):
        """Materialize group columns [1, upto]; no-op if already present."""
        upto = min(upto, self.n)
        if upto <= self._ready:
            return
        stop = min(self._ready + -(-(upto - self._ready) // _BLOCK) * _BLOCK, self.n)
        need = (stop + 7) // 8
        have = self._packed.shape[2]
        if need > have:
            # Grow geometrically, so reading a wide graph left to right copies
            # each byte a bounded number of times, but never past the full width.
            size = min(max(need, 2 * have), (self.n + 7) // 8)
            grown = np.zeros((2, self.m, size), dtype=np.uint8)
            grown[:, :, :have] = self._packed
            self._packed = grown
        while self._ready < stop:
            width = min(_BLOCK, stop - self._ready)
            u = self._gen.random((width, 2, self.m))
            true = u[:, 0] < self._t0
            scanned = u[:, 1] < np.where(true, self._t11, self._t10)
            chunk = np.packbits(np.stack((true, scanned)).transpose(0, 2, 1), axis=2)
            byte0 = self._ready // 8
            self._packed[:, :, byte0 : byte0 + chunk.shape[2]] = chunk
            self._ready += width

    # -- raw access ------------------------------------------------------

    def _columns(self, which: str, upto: int) -> np.ndarray:
        """Packed rows of the selected graph with columns [1, upto] materialized."""
        if which not in _SELECTORS:
            raise ValueError(f"graph selector must be 'true' or 'scanned', got {which!r}")
        self._ensure_columns(upto)
        return self._packed[_SELECTORS[which]]

    def block_bits(self, which: str, first: int, last: int) -> np.ndarray:
        """Groups first..last (1-based, inclusive) of every user, as an m x w 0/1 matrix."""
        if not 1 <= first <= last <= self.n:
            raise IndexError(f"need 1 <= first <= last <= {self.n}, got ({first}, {last})")
        packed = self._columns(which, last)
        skip = (first - 1) & 7
        window = packed[:, (first - 1) >> 3 : (last + 7) >> 3]
        bits = np.unpackbits(window, axis=1, count=skip + last - first + 1)
        return bits[:, skip:]

    def column_bits(self, which: str, group: int) -> np.ndarray:
        """The length-m 0/1 column of one group (1-based group index)."""
        if not 1 <= group <= self.n:
            raise IndexError(f"group index {group} outside [1, {self.n}]")
        return self.block_bits(which, group, group)[:, 0]

    def row_bits(self, which: str, user: int, upto: int | None = None) -> np.ndarray:
        """The first ``upto`` signature bits of one user (defaults to all n)."""
        if not 1 <= user <= self.m:
            raise IndexError(f"user index {user} outside [1, {self.m}]")
        count = self.n if upto is None else upto
        packed = self._columns(which, count)
        return np.unpackbits(packed[user - 1], count=count)

    def bit(self, which: str, user: int, group: int) -> int:
        """Single membership bit at (user, group), both 1-based."""
        if not 1 <= user <= self.m:
            raise IndexError(f"user index {user} outside [1, {self.m}]")
        if not 1 <= group <= self.n:
            raise IndexError(f"group index {group} outside [1, {self.n}]")
        packed = self._columns(which, group)
        g0 = group - 1
        return int((packed[user - 1, g0 >> 3] >> (7 - (g0 & 7))) & 1)

    @property
    def sig0(self) -> np.ndarray:
        """True-graph signatures as an unpacked m x n 0/1 matrix (copy)."""
        return self.block_bits("true", 1, self.n)

    @property
    def sig1(self) -> np.ndarray:
        """Scanned-graph signatures as an unpacked m x n 0/1 matrix (copy)."""
        return self.block_bits("scanned", 1, self.n)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """Plain dict {n, m, sig0, sig1} with hex-encoded packed rows.

        The most significant bit of the first hex byte is group 1; unused
        low bits of the final byte are zero.
        """
        self._ensure_columns(self.n)
        return {
            "n": self.n,
            "m": self.m,
            "sig0": [bytes(row).hex() for row in self._packed[0]],
            "sig1": [bytes(row).hex() for row in self._packed[1]],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BigraphPair":
        n = int(obj["n"])
        m = int(obj["m"])
        if n < 1 or m < 1:
            raise ValueError("user and group counts must be positive")
        nbytes = (n + 7) // 8
        tail_mask = 0xFF if n % 8 == 0 else (0xFF << (8 - n % 8)) & 0xFF
        packed = np.empty((2, m, nbytes), dtype=np.uint8)
        for arr, key in zip(packed, ("sig0", "sig1")):
            rows = obj[key]
            if len(rows) != m:
                raise ValueError(f"{key} must have m={m} rows")
            for i, hexrow in enumerate(rows):
                raw = bytes.fromhex(hexrow)
                if len(raw) != nbytes:
                    raise ValueError(f"{key} row {i + 1} must encode {nbytes} bytes")
                arr[i] = np.frombuffer(raw, dtype=np.uint8)
        packed[:, :, -1] &= tail_mask
        return cls(n, m, packed, ready=n)


def generate_cprb(n: int, m: int, edge_joint: EdgeJointDistribution, seed) -> BigraphPair:
    """Draw a correlated pair of random bigraphs, deterministic given ``seed``.

    Parameters
    ----------
    n, m : int
        Group and user counts, both at least 1.
    edge_joint : EdgeJointDistribution
        Joint law of the (true, scanned) bit at every position.
    seed : int
        64-bit seed for the generation stream.
    """
    if n < 1:
        raise ValueError("group count n must be at least 1")
    if m < 1:
        raise ValueError("user count m must be at least 1")
    if not isinstance(edge_joint, EdgeJointDistribution):
        raise TypeError("edge_joint must be an EdgeJointDistribution")
    t = edge_joint.table
    p0 = edge_joint.p0
    # Conditional P(scanned=1 | true bit); a zero-mass true value never
    # realizes, so its branch threshold is arbitrary.
    marg = t.sum(axis=1)
    t10 = t[0, 1] / marg[0] if marg[0] > 0.0 else 0.0
    t11 = t[1, 1] / marg[1] if marg[1] > 0.0 else 0.0
    return BigraphPair(
        n, m, np.zeros((2, m, 0), dtype=np.uint8), ready=0,
        gen=np.random.default_rng(seed), thresholds=(p0, t10, t11),
    )


def members(pair: BigraphPair, which: str, group: int) -> set[int]:
    """Set of 1-based user indices belonging to the group."""
    col = pair.column_bits(which, group)
    return set((np.flatnonzero(col) + 1).tolist())
