"""Counter-based pseudo-random numbers with a fixed, documented algorithm.

Every draw is a pure function of ``(seed, stream, counter)``, so generated
datasets and parameter initializations can be reproduced byte-for-byte from
integers alone, independent of library versions or global RNG state.

Algorithm
---------
All quantities are 64-bit unsigned integers (arithmetic modulo 2**64).

* ``mix(x)`` is the SplitMix64 finalizer:
  ``x ^= x >> 30; x *= 0xBF58476D1CE4E5B9; x ^= x >> 27;
  x *= 0x94D049BB133111EB; x ^= x >> 31``.
* A generator's key is ``mix(seed + GOLDEN * (stream + 1))`` with
  ``GOLDEN = 0x9E3779B97F4A7C15``.
* The i-th raw word (1-based) is ``mix(key + GOLDEN * i)``.
* ``child(k)`` derives an independent generator with key
  ``mix(key + GOLDEN * (k + 1))`` and a fresh counter.
* Uniform floats in [0, 1) are ``(word >> 11) * 2**-53``.
* Normal deviates come from Box-Muller pairs: with ``u1 = ((w1 >> 11) + 1)
  * 2**-53`` (in (0, 1]) and ``u2 = (w2 >> 11) * 2**-53``,
  ``z0 = sqrt(-2 ln u1) cos(2 pi u2)`` and ``z1 = sqrt(-2 ln u1) sin(2 pi u2)``.
* Bounded integers use ``word % n``; the modulo bias of at most n * 2**-64 is
  irrelevant at the sizes used here.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_INV_2_53 = 2.0 ** -53


def _mix(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def _mix_array(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
        return x ^ (x >> np.uint64(31))


class Prng:
    """Stateful view over the counter-based stream ``(seed, stream)``."""

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, stream: int = 0):
        self.key = _mix((seed + _GOLDEN * ((stream & _MASK) + 1)) & _MASK)
        self.counter = 0

    def child(self, k: int) -> "Prng":
        """Independent generator derived from this one; unaffected by and not
        affecting the parent's counter."""
        c = object.__new__(Prng)
        c.key = _mix((self.key + _GOLDEN * ((k & _MASK) + 1)) & _MASK)
        c.counter = 0
        return c

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return _mix_array(np.uint64(self.key) + np.uint64(_GOLDEN) * idx)

    def uniform(self, n: int) -> np.ndarray:
        """n floats uniform in [0, 1)."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normal(self, n: int) -> np.ndarray:
        """n standard normal deviates (Box-Muller)."""
        pairs = (n + 1) // 2
        w = self._raw(2 * pairs)
        u1 = ((w[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (w[pairs:] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def randint(self, lo: int, hi: int) -> int:
        """One integer uniform in [lo, hi)."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return lo + int(self._raw(1)[0]) % (hi - lo)

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates permutation of range(n)."""
        order = list(range(n))
        # word k (consecutive counters) picks the swap partner of i = n - 1 - k
        picks = (self._raw(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            order[i], order[j] = order[j], order[i]
        return order
