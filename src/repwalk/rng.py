"""Seedable 64-bit random number generation.

All samplers in this package draw from SplitMix64, a tiny reproducible
64-bit generator.  The T seed streams of ``--threads T``, which run one
after another, take stream i's seed from ``derive_seed(seed, i)``, so a
(seed, T) pair pins every sampled byte.  Exact categorical sampling never
touches floating point: uniform integers below an arbitrary bound come
from bit-rejection, and lazily extended uniforms in [0,1) support
comparisons against dyadic interval thresholds.

Word k of the stream seeded s is mix64(s + k * gamma) mod 2^64, so the
words need no sequential state and are computed ahead in numpy ``uint64``
blocks of ``BLOCK`` words, whose arithmetic wraps mod 2^64 like the scalar
``mix64``.  Making a word a Python int costs more than computing it, so a
block is handed out in chunks: a new stream's first is ``_FIRST_CHUNK``
words, so a short draw makes few, and each later chunk is twice the last,
up to a whole block.  The words and their order are those of the scalar
recurrence.
One ``SplitMix64`` is not to be shared between threads: each thread draws
from its own stream.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
SLACK_BITS = 128  # bits of U past a threshold's scale before it counts as unresolved
_FIRST_CHUNK = 64  # words a stream's first refill makes
BLOCK = 4096  # words computed at once, and the most one refill makes

# k * gamma mod 2^64 for k = 1..BLOCK: the state steps within a block
_STEPS = np.arange(1, BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective scrambler."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, worker: int) -> int:
    """Per-worker stream seed: mix64(seed + (worker+1) * golden gamma)."""
    return mix64((seed + (worker + 1) * _GOLDEN) & _MASK)


class SplitMix64:
    """The SplitMix64 sequence generator (Steele, Lea, Flood 2014).

    ``_words`` holds the words of the current chunk not yet handed out, last
    word first, so ``next_u64`` is one ``list.pop``; ``_end`` is the state
    after the chunk's last word.  ``_block`` holds the computed words after
    the chunk, in order, and ``_size`` the words the next refill makes.
    """

    __slots__ = ("_words", "_block", "_end", "_size")

    def __init__(self, seed: int):
        self._words: list[int] = []
        self._block = _STEPS[:0]
        self._end = seed & _MASK
        self._size = _FIRST_CHUNK

    @property
    def _state(self) -> int:
        """The state after the last word handed out (the seed before any)."""
        return (self._end - len(self._words) * _GOLDEN) & _MASK

    def _refill(self) -> None:
        if not len(self._block):
            z = _STEPS + np.uint64(self._end)
            z ^= z >> np.uint64(30)
            z *= np.uint64(_M1)
            z ^= z >> np.uint64(27)
            z *= np.uint64(_M2)
            z ^= z >> np.uint64(31)
            self._block = z
        size = self._size
        chunk, self._block = self._block[:size], self._block[size:]
        self._words = chunk[::-1].tolist()
        self._end = (self._end + len(chunk) * _GOLDEN) & _MASK
        self._size = min(2 * size, BLOCK)

    def next_u64(self) -> int:
        try:
            return self._words.pop()
        except IndexError:
            self._refill()
            return self._words.pop()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), exact via bit rejection.

        Each try reads ceil(k/64) words for k = n.bit_length(), joins them
        first word highest, and keeps the top k bits.
        """
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        k = n.bit_length()
        if k <= 64:
            shift = 64 - k
            while True:
                v = self.next_u64() >> shift
                if v < n:
                    return v
        words = -(-k // 64)
        shift = 64 * words - k
        while True:
            v = 0
            for _ in range(words):
                v = (v << 64) | self.next_u64()
            v >>= shift
            if v < n:
                return v


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
            # U < t if (v+1)/2^b <= lo/2^scale_bits, U >= t if v/2^b >= hi/2^scale_bits
            if (v + 1) << scale_bits <= lo_int << b:
                return True
            if v << scale_bits >= hi_int << b:
                return False
            if b >= scale_bits + SLACK_BITS:
                return None
            self._extend()
