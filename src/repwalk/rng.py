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
up to a whole block; ``next_u64`` hands them out one per call.  ``words``
hands out the next m words as one list instead, the current chunk's first
and then words taken from the blocks at most a block at a time, optionally
shifted right in numpy so that they become small Python ints; ``next_u64``
goes on after the m-th.  The S_n samplers read their words from such lists
by index, and redo a draw that runs past the end of its list from its own
first word once the list is extended.  The words and their order are
those of the scalar recurrence.
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
# mix64's shifts and multipliers as numpy scalars, formed once, not per block
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_UM1, _UM2 = np.uint64(_M1), np.uint64(_M2)


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

    def _take(self, size: int) -> np.ndarray:
        """The next at most size computed words, a block computed first when
        none is left; _end moves past them."""
        if not len(self._block):
            z = _STEPS + np.uint64(self._end)
            z ^= z >> _U30
            z *= _UM1
            z ^= z >> _U27
            z *= _UM2
            z ^= z >> _U31
            self._block = z
        chunk, self._block = self._block[:size], self._block[size:]
        self._end = (self._end + len(chunk) * _GOLDEN) & _MASK
        return chunk

    def _refill(self) -> None:
        size = self._size
        self._words = self._take(size)[::-1].tolist()
        self._size = min(2 * size, BLOCK)

    def words(self, m: int, shift: int = 0) -> list[int]:
        """The next m words, in order, each shifted right by shift < 64, as
        one list: what m calls next_u64() >> shift would return, after which
        next_u64 goes on.  The current chunk's words come first, then words
        made a block at a time and shifted before they become Python ints,
        which are small ones for a large shift."""
        pending = self._words
        cut = max(len(pending) - m, 0)
        out = [w >> shift for w in reversed(pending[cut:])]
        del pending[cut:]
        ushift = np.uint64(shift)
        while len(out) < m:
            out += (self._take(m - len(out)) >> ushift).tolist()
        return out

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
