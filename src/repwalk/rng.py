"""Seedable 64-bit random number generation.

All samplers in this package draw from SplitMix64, a tiny reproducible
64-bit generator.  Parallel workers derive independent streams with
``derive_seed(seed, worker)``, so a (seed, worker-count) pair pins every
sampled byte.  Exact categorical sampling never touches floating point:
uniform integers below an arbitrary bound come from bit-rejection, and
lazily extended uniforms in [0,1) support comparisons against dyadic
interval thresholds.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
SLACK_BITS = 128  # bits of U past a threshold's scale before it counts as unresolved


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective scrambler."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, worker: int) -> int:
    """Per-worker stream seed: mix64(seed + (worker+1) * golden gamma)."""
    return mix64((seed + (worker + 1) * _GOLDEN) & _MASK)


class SplitMix64:
    """The SplitMix64 sequence generator (Steele, Lea, Flood 2014)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def randbits(self, k: int) -> int:
        """Uniform k-bit integer."""
        out = 0
        got = 0
        while got < k:
            out = (out << 64) | self.next_u64()
            got += 64
        return out >> (got - k)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), exact via bit rejection."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        k = n.bit_length()
        while True:
            v = self.randbits(k)
            if v < n:
                return v

    def choose_weighted(self, weights) -> int:
        """Index i with probability weights[i]/sum, weights exact integers."""
        total = sum(weights)
        t = self.randrange(total)
        acc = 0
        for i, w in enumerate(weights):
            acc += w
            if t < acc:
                return i
        raise AssertionError("weights exhausted")  # pragma: no cover


class LazyUniform:
    """A uniform U in [0,1) revealed 64 bits at a time, from a first word on.

    After b bits, U is only known to lie in [v/2^b, (v+1)/2^b).  Comparisons
    against a dyadic interval enclosing a threshold extend the bit stream
    until they resolve, so the decision U < t is exact.
    """

    __slots__ = ("_rng", "_value", "_bits")

    def __init__(self, rng: SplitMix64, word: int):
        self._rng = rng
        self._value = word
        self._bits = 64

    def _extend(self):
        self._value = (self._value << 64) | self._rng.next_u64()
        self._bits += 64

    def compare_scaled(self, lo_int: int, hi_int: int, scale_bits: int):
        """Decide U < t for t enclosed by [lo_int, hi_int] / 2^scale_bits.

        Pure integer comparisons.  Returns None once U has been resolved
        SLACK_BITS beyond the threshold scale without a decision, signalling
        that the enclosure itself must be tightened.
        """
        while True:
            b, v = self._bits, self._value
            if b <= scale_bits:
                shift = scale_bits - b
                if (v + 1) << shift <= lo_int:
                    return True
                if v << shift >= hi_int:
                    return False
            else:
                shift = b - scale_bits
                if v + 1 <= lo_int << shift:
                    return True
                if v >= hi_int << shift:
                    return False
            if b >= scale_bits + SLACK_BITS:
                return None
            self._extend()
