"""SplitMix64 made in numpy word blocks against the scalar recurrence.

The stream's words are computed ahead in blocks; every word, every state
read back through ``_state`` and every ``randrange`` draw must be those of
the one-word-at-a-time generator in tests/oracles.py.
"""

import pytest

from repwalk import rng
from repwalk.rng import BLOCK, SplitMix64, mix64

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
