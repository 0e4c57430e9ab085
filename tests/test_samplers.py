import math
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from scipy.stats import chi2_contingency, chisquare

from oracles import (
    coupon_mixture_law,
    growth_law,
    prefix_sorted_samples_reference,
    walk_step_chain,
)
from repwalk import partitions, snwalk
from repwalk.partitions import Partition, enumerate_partitions
from repwalk.rng import BLOCK, SplitMix64, derive_seed
from repwalk.snwalk import (
    plancherel_samples,
    plancherel_sn,
    rsk_samples,
    rsk_shape,
    walk_distribution,
    walk_samples,
    walk_step,
)


def cutoff_steps(n):
    return math.ceil(0.5 * n * math.log(n))


def test_splitmix_reproducible():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    # known first output for seed 0 (reference value of splitmix64)
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_derive_seed_distinct():
    seeds = {derive_seed(seed) for seed in range(100)}
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
# the same SplitMix64 stream, so count=1 must reproduce them.  WALK_SINGLE
# and PLANCHEREL_SINGLE were re-recorded when walk_samples and
# plancherel_samples began to draw as the RSK shape of a shuffle whose
# first n - K entries are sorted, which reads the words differently; the
# keys that read no word or kept their value are (7, 0, 99), (6, 4, 123)
# and (1, 0).  RSK_SINGLE holds the top-to-random sampler's first values
WALK_SINGLE = {(7, 0, 99): "7", (6, 4, 123): "3+2+1", (10, 15, 1): "4+3+2+1",
               (12, 20, 2024): "5+4+3", (20, 30, 7): "8+5+3+2+1+1"}
RSK_SINGLE = {(6, 0, 1): "6", (6, 3, 11): "5+1", (9, 12, 5): "3+3+2+1",
              (15, 25, 42): "7+4+2+1+1", (25, 40, 3): "9+6+3+3+2+1+1"}
PLANCHEREL_SINGLE = {(1, 0): "1", (5, 31): "4+1", (8, 2): "4+2+1+1",
                     (15, 9): "6+4+3+1+1", (30, 123): "9+8+5+5+2+1"}


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


def test_coupon_mixture_is_the_walk_law():
    # P_r = sum_k P(K_r = k) Q_k, the law walk_samples draws from
    for n in range(2, 11):
        for r in range(3 * n):
            assert coupon_mixture_law(n, r) == walk_distribution(n, r).masses, (n, r)
    for n in (14, 18):
        r = cutoff_steps(n)
        assert coupon_mixture_law(n, r) == walk_distribution(n, r).masses, (n, r)


def test_prefix_sorted_shapes_have_the_growth_law():
    # RSK puts 1..n-k in the first row of the recording tableau exactly when
    # the first n - k letters increase, so the shapes of the n!/(n-k)! such
    # permutations, a sorted rest before each ordered k-tuple, have the
    # growth law Q_k: every (n, k) with n <= 8, 44 pairs.  walk_samples
    # hands rsk_shape the sorted rest as the tableau's first row and inserts
    # only the tail, which must give the whole permutation's shape
    pairs = 0
    for n in range(1, 9):
        for k in range(n + 1):
            shapes = Counter()
            for tail in permutations(range(n), k):
                rest = sorted(set(range(n)).difference(tail))
                shape = rsk_shape(rest + list(tail))
                assert rsk_shape(list(tail), rest) == shape, (rest, tail)
                shapes[shape] += 1
            law = {lam: Fraction(c, math.perm(n, k)) for lam, c in shapes.items()}
            assert law == growth_law(n, k), (n, k)
            pairs += 1
    assert pairs == 44


def test_walk_samples_read_the_coupon_count_then_shuffle():
    # r draws randrange(n) for K_r, a point new when one is >= k, then
    # randrange(i + 1) swaps for i = n - 1 down to n - K_r and the RSK shape:
    # the words plain randrange reads, three draws on one stream, at bounds
    # on both sides of a power of two; K_r = n at n = 1 and at most seeds
    # of (6, 30)
    for n, r in ((1, 3), (5, 4), (6, 30), (9, 12), (64, 40), (65, 40), (200, 530)):
        for seed in range(40):
            want = prefix_sorted_samples_reference(n, r, 3, seed)
            assert walk_samples(n, r, 3, seed) == want, (n, r, seed)
    # counts whose words fill several blocks, so draws run past the end of
    # their lists and are redone; at n = 2000 one draw at the cutoff reads
    # over twice a block, and its list grows until it holds the draw
    for n, r, count in ((1, 40, 400), (10, 12, 800), (64, 140, 90), (65, 140, 90),
                        (2000, cutoff_steps(2000), 2)):
        assert count * (r + n) > 4 * BLOCK
        for seed in range(3):
            want = prefix_sorted_samples_reference(n, r, count, seed)
            assert walk_samples(n, r, count, seed) == want, (n, r, count, seed)


@pytest.mark.parametrize("n", [*range(1, 15), 15, 64, 65, 300])
def test_plancherel_samples_read_the_shuffle_words(n):
    # three draws at every seed, and past n = 14 counts whose words fill
    # several blocks
    count, seeds = (3, 50) if n < 15 else (-(-5 * BLOCK // n), 3)
    for seed in range(seeds):
        want = prefix_sorted_samples_reference(n, 0, count, seed, full=True)
        assert plancherel_samples(n, count, seed) == want, seed


def test_rsk_samples_read_one_randrange_per_shuffle():
    # each shuffle moves the top card to position randrange(n); three decks
    # at every seed, then counts whose words fill several blocks
    for n, r, count, seeds in ((1, 3, 3, 20), (6, 3, 3, 20), (64, 70, 3, 20), (65, 70, 3, 20),
                               (1, 40, 600, 3), (33, 40, 500, 3), (64, 150, 150, 3),
                               (65, 150, 150, 3), (2000, 9000, 2, 2)):
        for seed in range(seeds):
            rng, want = SplitMix64(seed), []
            for _ in range(count):
                deck = list(range(1, n + 1))
                for _ in range(r):
                    card = deck.pop(0)
                    deck.insert(rng.randrange(n), card)
                want.append(rsk_shape(deck))
            assert rsk_samples(n, r, count, seed) == want, (n, r, count, seed)


def test_samplers_make_no_next_u64_call(monkeypatch):
    # the samplers read their words from lists the stream's words method
    # makes, not one next_u64 call per word
    want = (walk_samples(12, 20, 30, 4), plancherel_samples(12, 30, 4), rsk_samples(12, 20, 30, 4))

    def no_call(self):
        raise AssertionError("a sampler called next_u64")

    monkeypatch.setattr(SplitMix64, "next_u64", no_call)
    assert (walk_samples(12, 20, 30, 4), plancherel_samples(12, 30, 4),
            rsk_samples(12, 20, 30, 4)) == want


def test_samplers_read_no_dimension(monkeypatch):
    want = (walk_samples(8, 10, 5, 3), plancherel_samples(8, 5, 3), rsk_samples(8, 10, 5, 3))

    def no_lookup(lam):
        raise AssertionError(f"dimension of {lam} looked up")

    for module in (partitions, snwalk):
        monkeypatch.setattr(module, "dimension_sn", no_lookup)
    assert (walk_samples(8, 10, 5, 3), plancherel_samples(8, 5, 3),
            rsk_samples(8, 10, 5, 3)) == want


def test_walk_step_chain_draws_as_walk_step():
    # the chain's memoized rows give walk_step's draws, word for word
    for n, r, seed in ((1, 3, 1), (6, 8, 2), (10, 12, 2024)):
        rng, want = SplitMix64(seed), []
        for _ in range(20):
            lam = Partition((n,))
            for _ in range(r):
                lam = walk_step(rng, lam)
            want.append(lam)
        assert walk_step_chain(n, r, 20, seed) == want, (n, r, seed)


def _merged_bins(law, total):
    """The outcomes of law sorted by mass and merged, smallest first, until
    each bin expects at least 5 of total draws; a short last bin joins the
    one before.  Returns (outcomes, mass) per bin."""
    bins, outcomes, mass = [], [], 0
    for x, p in sorted(law.items(), key=lambda kv: kv[1]):
        outcomes.append(x)
        mass += p
        if mass * total >= 5:
            bins.append((outcomes, mass))
            outcomes, mass = [], 0
    if outcomes:
        last, m = bins.pop()
        bins.append((last + outcomes, m + mass))
    return bins


@pytest.mark.parametrize("n, r, seed", [(10, 12, 1012), (14, cutoff_steps(14), 1419),
                                        (18, cutoff_steps(18), 1827)])
def test_walk_samples_chi_square(n, r, seed):
    # the rule of criterion 6: p >= 0.001 against the exact law, 1e5 draws
    count = 100000
    freq = Counter(walk_samples(n, r, count, seed))
    law = walk_distribution(n, r).masses
    assert set(freq) <= set(law)
    bins = _merged_bins(law, count)
    assert len(bins) > 10
    observed = [sum(freq[x] for x in xs) for xs, _ in bins]
    expected = [float(m) * count for _, m in bins]
    assert chisquare(observed, expected).pvalue >= 0.001


def test_walk_samples_match_a_walk_step_chain():
    # two-sample homogeneity against the down-up chain, on the bins of the
    # exact law, 1e5 draws each
    n, r, count = 10, 12, 100000
    chain = walk_step_chain(n, r, count, 2024)
    bins = _merged_bins(walk_distribution(n, r).masses, count)
    table = [[sum(freq[x] for x in xs) for xs, _ in bins]
             for freq in (Counter(walk_samples(n, r, count, 2025)), Counter(chain))]
    assert sum(table[0]) == sum(table[1]) == count
    assert chi2_contingency(table)[1] >= 0.001


def test_rsk_shape_known_words():
    assert rsk_shape([1, 2, 3, 4]) == Partition((4,))
    assert rsk_shape([4, 3, 2, 1]) == Partition((1, 1, 1, 1))
    assert rsk_shape([3, 1, 2]) == Partition((2, 1))
    assert rsk_shape([2, 4, 1, 3]) == Partition((2, 2))
    # the last word from its increasing start as the first row, and a word
    # from an empty first row
    assert rsk_shape([1, 3], [2, 4]) == Partition((2, 2))
    assert rsk_shape([3, 1, 2], []) == Partition((2, 1))


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
