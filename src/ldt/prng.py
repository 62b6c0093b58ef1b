"""Deterministic 64-bit PRNG used for sampling.

SplitMix64 with rejection sampling below a bound and a partial
Fisher-Yates shuffle for subset draws.  The whole state is a single
64-bit word, so runs are reproducible from the seed alone, independent
of interpreter version.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _outputs(state: int, k: int) -> np.ndarray:
    """The next k outputs of the stream at state, as uint64."""
    z = np.uint64(state) + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("bound must be positive")
        zone = _MASK64 - (_MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= zone:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), uniform without replacement.

        Partial Fisher-Yates: pick i swaps slot i of range(n) with slot
        i + below(n - i).  Only the moved slots are kept, in a dict, so
        the draw costs O(k) whatever n is.  The k offsets are read from
        one vectorised stretch of the stream; from the first output that
        below() would reject on, they are drawn one by one, so picks and
        final state are those of k scalar below() calls.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n}")
        u = _outputs(self._state, k)
        spans = np.uint64(n) - np.arange(k, dtype=np.uint64)
        # below(b) accepts u <= 2^64 - 1 - 2^64 mod b
        zone = np.uint64(_MASK64) - (np.uint64(_MASK64) % spans + np.uint64(1)) % spans
        rejected = np.flatnonzero(u > zone)
        r = int(rejected[0]) if rejected.size else k
        offsets = (np.arange(r, dtype=np.uint64) + u[:r] % spans[:r]).tolist()
        self._state = (self._state + r * _GAMMA) & _MASK64
        offsets.extend(i + self.below(n - i) for i in range(r, k))
        moved: dict[int, int] = {}
        picks = []
        for i, j in enumerate(offsets):
            picks.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return picks
