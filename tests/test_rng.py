"""SplitMix64 made in numpy word blocks against the scalar recurrence.

The stream's words are computed ahead in blocks; every word, whether
``next_u64`` hands it out or it comes in a list from ``words``, every state
read back through ``_state`` and every ``randrange`` draw must be those of
the one-word-at-a-time generator in tests/oracles.py.  A LazyUniform's
comparison with a scaled threshold must be the Fraction comparison.
"""

from fractions import Fraction

import pytest

from repwalk import rng
from repwalk.rng import BLOCK, SLACK_BITS, LazyUniform, SplitMix64, mix64

from oracles import ScalarSplitMix64

MASK = (1 << 64) - 1


@pytest.mark.parametrize("seed", [0, MASK, (1 << 64) + 5])
def test_block_stream_is_the_scalar_stream(seed):
    # 10^5 words run across many block boundaries
    assert 10 * BLOCK < 10**5
    stream = SplitMix64(seed)
    state = seed & MASK
    assert stream._state == state
    for _ in range(10**5):
        word = stream.next_u64()
        state = (state + rng._GOLDEN) & MASK
        assert word == mix64(state)
        assert stream._state == state
    # lists from the words method, shifted or not, interleaved with
    # next_u64 and randrange: they start mid-chunk and cross chunk and block
    # edges, hold the scalar words, and leave the stream where as many
    # next_u64 calls would
    stream, scalar = SplitMix64(seed), ScalarSplitMix64(seed)
    sizes = [0, 1, 63, 64, 65, 200, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
    for i in range(2 * 3 * len(sizes)):
        m, shift = sizes[i % len(sizes)], (0, 7, 63)[i % 3]
        assert stream.words(m, shift) == [scalar.next_u64() >> shift for _ in range(m)]
        assert stream._state == scalar._state
        assert stream.next_u64() == scalar.next_u64()
        assert stream.randrange(10**25) == scalar.randrange(10**25)
        assert stream._state == scalar._state


def test_a_short_draw_makes_only_the_first_chunk():
    # a new stream hands out its first block in a small chunk, so a few
    # words make a few Python ints
    stream = SplitMix64(5)
    for _ in range(10):
        stream.next_u64()
    made = 10 + len(stream._words)
    assert made == rng._FIRST_CHUNK <= 64
    assert stream._end == (5 + made * rng._GOLDEN) & MASK
    assert made + len(stream._block) == BLOCK


@pytest.mark.parametrize("seed", [3, MASK])
def test_chunks_double_up_to_block_with_the_scalar_words(seed):
    # 3 * BLOCK words cross every chunk size from the first up to the rest
    # of the first block, then two whole blocks
    stream, state, sizes = SplitMix64(seed), seed & MASK, []
    for _ in range(3 * BLOCK):
        empty = not stream._words
        word = stream.next_u64()
        if empty:
            sizes.append(len(stream._words) + 1)
        state = (state + rng._GOLDEN) & MASK
        assert word == mix64(state)
        assert stream._state == state
    first = rng._FIRST_CHUNK
    doubling = [first << i for i in range((BLOCK // first).bit_length() - 1)]
    assert doubling[-1] == BLOCK // 2
    assert sizes == doubling + [BLOCK - sum(doubling), BLOCK, BLOCK]


@pytest.mark.parametrize("bound", [1, 2, 1 << 63, MASK, 1 << 64, (1 << 64) + 1, 10**40])
@pytest.mark.parametrize("seed", [0, 5, MASK])
def test_randrange_is_the_scalar_randrange(bound, seed):
    stream, scalar = SplitMix64(seed), ScalarSplitMix64(seed)
    for _ in range(300):
        v = stream.randrange(bound)
        assert v == scalar.randrange(bound) and 0 <= v < bound
        assert stream._state == scalar._state


def test_randrange_interleaved_with_words():
    # draws of one, two and three words per try share one block stream
    stream, scalar = SplitMix64(77), ScalarSplitMix64(77)
    bounds = [3, 10**15, 1 << 64, 10**25, 10**40]
    for i in range(3000):
        b = bounds[i % len(bounds)]
        assert stream.randrange(b) == scalar.randrange(b)
        assert stream.next_u64() == scalar.next_u64()
    assert stream._state == scalar._state


@pytest.mark.parametrize("bound", [0, -1])
def test_randrange_refuses_an_empty_range(bound):
    with pytest.raises(ValueError):
        SplitMix64(1).randrange(bound)


def _compare_by_fractions(words, lo, hi, scale_bits):
    """compare_scaled's answer and the bits it reads, in Fraction arithmetic:
    after b bits U lies in [v/2^b, (v+1)/2^b), and t in [lo, hi]/2^scale_bits."""
    v, b = 0, 0
    for word in words:
        v, b = (v << 64) | word, b + 64
        if Fraction(v + 1, 1 << b) <= Fraction(lo, 1 << scale_bits):
            return True, b
        if Fraction(v, 1 << b) >= Fraction(hi, 1 << scale_bits):
            return False, b
        if b >= scale_bits + SLACK_BITS:
            return None, b
    raise AssertionError("ran out of words")


@pytest.mark.parametrize("scale_bits", [40, 64, 100, 128, 192, 320])
def test_compare_scaled_is_the_fraction_comparison(scale_bits):
    # thresholds at offsets k * 2^j from p, the first scale_bits bits of U,
    # decided with b below, at or above scale_bits, or never (lo <= p < hi)
    words_read = -(-(scale_bits + SLACK_BITS) // 64)
    shifts = sorted({0, scale_bits // 2, max(scale_bits - 64, 0)})
    seen = set()
    for seed in range(6):
        stream = SplitMix64(seed)
        words = [stream.next_u64() for _ in range(words_read)]
        p = int("".join(f"{w:064b}" for w in words)[:scale_bits], 2)
        for j in shifts:
            for lo_off, hi_off in ((-2, -1), (-1, 0), (0, 0), (0, 1), (1, 1), (1, 3), (-3, 2)):
                lo, hi = p + (lo_off << j), p + (hi_off << j)
                rng = SplitMix64(seed)
                u = LazyUniform(rng, rng.next_u64())
                got = u.compare_scaled(lo, hi, scale_bits)
                want, bits = _compare_by_fractions(words, lo, hi, scale_bits)
                assert (got, u._bits) == (want, bits), (seed, j, lo_off, hi_off)
                seen.add((want, (bits > scale_bits) - (bits < scale_bits)))
    # U is read 64 bits at a time, so a decision past the scale comes with
    # the first b >= scale_bits: at it for a multiple of 64, above it else
    past = 0 if scale_bits % 64 == 0 else 1
    assert {(True, past), (False, past)} <= seen
    if scale_bits > 64:
        assert {(True, -1), (False, -1)} <= seen


@pytest.mark.parametrize("scale_bits", [40, 64, 320])
def test_compare_scaled_gives_up_at_the_slack(scale_bits):
    # t enclosed by [p, p + 1] / 2^scale_bits, with U inside: no number of
    # bits decides, and the answer is None once SLACK_BITS past the scale
    rng = SplitMix64(9)
    words = [rng.next_u64() for _ in range(-(-(scale_bits + SLACK_BITS) // 64))]
    p = int("".join(f"{w:064b}" for w in words)[:scale_bits], 2)
    rng = SplitMix64(9)
    u = LazyUniform(rng, rng.next_u64())
    assert u.compare_scaled(p, p + 1, scale_bits) is None
    assert scale_bits + SLACK_BITS <= u._bits < scale_bits + SLACK_BITS + 64
