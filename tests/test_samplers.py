import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from repwalk.partitions import Partition, enumerate_partitions
from repwalk.rng import SplitMix64, derive_seed
from repwalk.snwalk import (
    plancherel_samples,
    plancherel_sn,
    rsk_samples,
    rsk_shape,
    walk_distribution,
    walk_samples,
)


def test_splitmix_reproducible():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    # known first output for seed 0 (reference value of splitmix64)
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_derive_seed_distinct():
    seeds = {derive_seed(42, i) for i in range(100)}
    assert len(seeds) == 100


def test_randrange_exact_support():
    rng = SplitMix64(7)
    seen = {rng.randrange(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}
    big = 10**25
    vals = [rng.randrange(big) for _ in range(50)]
    assert all(0 <= v < big for v in vals)


def test_sample_walk_r0_and_determinism():
    assert walk_samples(7, 0, 1, 99) == [Partition((7,))]
    assert walk_samples(6, 4, 1, 123) == walk_samples(6, 4, 1, 123)
    assert walk_samples(6, 3, 10, 5) == walk_samples(6, 3, 10, 5)


# one draw per (n, r, seed) or (n, seed), recorded from the single-sample
# functions each sampler once had beside its count-taking form; both read
# the same SplitMix64 stream, so count=1 must reproduce them
WALK_SINGLE = {(7, 0, 99): "7", (6, 4, 123): "3+1+1+1", (10, 15, 1): "5+3+1+1",
               (12, 20, 2024): "4+3+2+2+1", (20, 30, 7): "8+3+3+2+2+1+1"}
RSK_SINGLE = {(6, 0, 1): "6", (6, 3, 11): "5+1", (9, 12, 5): "3+3+2+1",
              (15, 25, 42): "7+4+2+1+1", (25, 40, 3): "9+6+3+3+2+1+1"}
PLANCHEREL_SINGLE = {(1, 0): "1", (5, 31): "2+1+1+1", (8, 2): "3+2+2+1",
                     (15, 9): "5+4+3+2+1", (30, 123): "9+6+4+4+2+2+2+1"}


@pytest.mark.parametrize("key", sorted(WALK_SINGLE))
def test_walk_samples_count_one_recorded(key):
    n, r, seed = key
    assert walk_samples(n, r, 1, seed) == [Partition.from_string(WALK_SINGLE[key])]


@pytest.mark.parametrize("key", sorted(RSK_SINGLE))
def test_rsk_samples_count_one_recorded(key):
    n, r, seed = key
    assert rsk_samples(n, r, 1, seed) == [Partition.from_string(RSK_SINGLE[key])]


@pytest.mark.parametrize("key", sorted(PLANCHEREL_SINGLE))
def test_plancherel_samples_count_one_recorded(key):
    n, seed = key
    assert plancherel_samples(n, 1, seed) == [Partition.from_string(PLANCHEREL_SINGLE[key])]


def test_plancherel_sampler_frequencies():
    n, count = 3, 100000
    samples = plancherel_samples(n, count, seed=2024)
    freq = Counter(samples)
    pi = plancherel_sn(n).masses
    for lam, p in pi.items():
        sigma = math.sqrt(float(p) * (1 - float(p)) / count)
        assert abs(freq[lam] / count - float(p)) <= 4 * sigma


def test_plancherel_single_sample_api():
    (lam,) = plancherel_samples(5, 1, 31)
    assert lam.size == 5
    assert plancherel_samples(0, 2, 1) == [Partition(())] * 2


def test_plancherel_samples_refuse_a_negative_size():
    with pytest.raises(ValueError, match="non-negative"):
        plancherel_samples(-3, 2, 1)


def test_walk_sampler_tv_to_exact():
    n, r, count = 6, 3, 100000
    samples = walk_samples(n, r, count, seed=77)
    freq = Counter(samples)
    exact = walk_distribution(n, r)
    tv = sum(
        abs(Fraction(freq.get(lam, 0), count) - exact.mass(lam))
        for lam in enumerate_partitions(n)
    ) / 2
    assert tv <= 0.01


def test_rsk_shape_known_words():
    assert rsk_shape([1, 2, 3, 4]) == Partition((4,))
    assert rsk_shape([4, 3, 2, 1]) == Partition((1, 1, 1, 1))
    assert rsk_shape([3, 1, 2]) == Partition((2, 1))
    assert rsk_shape([2, 4, 1, 3]) == Partition((2, 2))


def test_rsk_oracle_r0():
    assert rsk_samples(6, 0, 1, 1) == [Partition((6,))]


def test_rsk_matches_walk_by_path_enumeration():
    # every insertion-position sequence is equally likely, so the shuffle
    # distribution enumerates exactly; it must equal the walk distribution
    for n, r in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 2)):
        shapes = Counter()
        for positions in product(range(n), repeat=r):
            deck = list(range(1, n + 1))
            for pos in positions:
                card = deck.pop(0)
                deck.insert(pos, card)
            shapes[rsk_shape(deck)] += 1
        exact = walk_distribution(n, r)
        for lam in enumerate_partitions(n):
            assert Fraction(shapes.get(lam, 0), n**r) == exact.mass(lam)


def test_rsk_sampler_determinism():
    assert rsk_samples(6, 3, 20, 11) == rsk_samples(6, 3, 20, 11)
    assert rsk_samples(6, 3, 20, 11) != rsk_samples(6, 3, 20, 12)
