import gc
import math
import random
import types
import weakref
from collections import Counter
from itertools import combinations
from fractions import Fraction

import pytest
from scipy.stats import chi2_contingency, chisquare

from repwalk import glasymptotics
from repwalk.errors import CapacityError
from oracles import (
    acceptance_probability_direct,
    cycle_index_rhs_by_partitions,
    draw_indices_list,
    euler_product_enclosure,
    high_degree_empty_direct,
    suq_normalizer_pow_int,
    suq_normalizer_reference,
    suq_weight_per_hook,
)
from repwalk.glasymptotics import (
    DEFAULT_PREC,
    SAMPLE_N_LIMIT,
    GLPlancherelSampler,
    _plan,
    _rejection_u,
    acceptance_probability,
    cycle_index_lhs,
    cycle_index_rhs,
    gl_plancherel_samples,
    limit_marginal,
    suq_normalizer,
    suq_weight,
)
from repwalk.glirreps import plancherel_gl, unipotent_marginal, unipotent_tail_bound
from repwalk.partitions import EMPTY, Partition, enumerate_partitions
from repwalk.rng import SplitMix64
from repwalk.series import _exp_coefficients, euler_lhs, q_pochhammer


def test_suq_weight_examples():
    assert suq_weight(1, 2, EMPTY) == 1
    # single box: u / (q * (1 - 1/q)^2)
    assert suq_weight(1, 2, Partition((1,))) == 2
    assert suq_weight(Fraction(1, 2), 2, Partition((1,))) == 1


@pytest.mark.parametrize("u,q", [
    (1, 2), (Fraction(1, 2), 2), (Fraction(63, 64), 2), (Fraction(5, 6), 3),
    (Fraction(19, 20) ** 3, 27), (1, 9),
])
def test_normalizer_suffix_products_match_pow_int(u, q):
    z = suq_normalizer(u, q, prec=320)
    for ref_prec in (320, 400):
        ref = suq_normalizer_pow_int(u, q, ref_prec)
        assert z.lo <= ref.hi and ref.lo <= z.hi
    assert ref.width < Fraction(1, 2**380)  # nearly a point: z must hold Z itself
    assert z.width < Fraction(1, 2**300)


# the normalizers the default samplers read at n = 20: Z(u^d, q^d) for every
# degree, and Z(u/q, q) for the Euler product of the high-degree threshold
_U20 = _rejection_u(20)
_SAMPLER_NORMALIZERS = [(_U20**d, Fraction(q) ** d) for q in (2, 3) for d in range(1, 21)] \
    + [(_U20 / q, q) for q in (2, 3)]


@pytest.mark.parametrize("u,q", [
    (1, 2), (Fraction(1, 2), 2), (Fraction(63, 64), 2), (Fraction(5, 6), 3),
    (Fraction(19, 20) ** 3, 27), (1, 9), (Fraction(5, 6), Fraction(7, 2)),
] + _SAMPLER_NORMALIZERS)
def test_normalizer_matches_full_product_loop(u, q):
    # the suffix products stepped by s - ceil(s X/D) and s - floor(s X/D),
    # and the integer Weierstrass tail, give the enclosure of the full
    # products and the Fraction tail, at every precision a scan rebuilds at
    for prec in (DEFAULT_PREC, DEFAULT_PREC << 1, DEFAULT_PREC << 2):
        assert suq_normalizer(u, q, prec=prec) == suq_normalizer_reference(u, q, prec), prec


@pytest.mark.parametrize("u,q", [
    (1, 2), (Fraction(1, 2), 3), (Fraction(63, 64), 2), (Fraction(3, 7), Fraction(5, 2)),
    (Fraction(19, 20) ** 3, 27), (2, Fraction(9, 4)),
])
def test_suq_weight_integer_quotient(u, q):
    for m in range(9):
        for lam in enumerate_partitions(m):
            assert suq_weight(u, q, lam) == suq_weight_per_hook(u, q, lam)


def test_sampler_setup_shares_cached_enclosures():
    sampler = GLPlancherelSampler(7, 2, seed=1)
    sampler.sample()
    acceptance_probability(7, 2)
    normalizers = suq_normalizer.cache_info()
    # a second sampler with the same (n, q) builds no new enclosure
    again = GLPlancherelSampler(7, 2, seed=2)
    again.sample()
    acceptance_probability(7, 2)
    assert suq_normalizer.cache_info().misses == normalizers.misses
    assert suq_normalizer.cache_info().maxsize


def test_plan_cache_holds_every_default_sampler():
    # every (n, q) the sampler takes fits the plan cache:
    # a second pass over them builds no plan
    sizes = [(n, q) for q in (2, 3) for n in range(1, SAMPLE_N_LIMIT + 1)]
    _plan.cache_clear()
    for n, q in sizes:
        GLPlancherelSampler(n, q)
    misses = _plan.cache_info().misses
    for n, q in sizes:
        GLPlancherelSampler(n, q)
    info = _plan.cache_info()
    assert info.misses == misses
    assert info.currsize == 40 <= info.maxsize


def _reachable(root) -> list:
    """Every object reachable from root by gc referents, not going into the
    functions, classes, modules and code objects the package shares."""
    shared = (type, types.FunctionType, types.BuiltinFunctionType, types.ModuleType,
              types.CodeType)
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) not in seen and not isinstance(obj, shared):
            seen[id(obj)] = obj
            todo += gc.get_referents(obj)
    return list(seen.values())


def test_sampler_freed_by_reference_counting():
    # the cached plan, grown by a draw, holds no reference to the sampler or
    # its word stream, and nothing forms a cycle through the threshold
    # builders: a finished sampler goes at once, not at some later cyclic
    # collection, while its plan stays cached for the next one
    sampler = GLPlancherelSampler(4, 2, seed=1)
    sampler.sample()
    plans = _plan(4, 2, _rejection_u(4))
    assert plans is sampler.plans
    reached = _reachable(plans)
    assert not any(obj is sampler or obj is sampler.rng for obj in reached)
    ref = weakref.ref(sampler)
    gc.disable()
    try:
        del sampler
        assert ref() is None
    finally:
        gc.enable()


def test_normalizer_enclosure():
    z = suq_normalizer(Fraction(1, 2), 2)
    assert 0 < float(z.lo) <= float(z.hi) < 1
    assert z.width < Fraction(1, 2**250)
    # brute float product for comparison
    approx = 1.0
    for t in range(1, 200):
        approx *= (1 - 0.5 / 2**t) ** t
    assert z.lo <= Fraction(approx).limit_denominator(10**15) <= z.hi or abs(z.midpoint() - approx) < 1e-12


def test_suq_mass_empty_is_normalizer():
    z = suq_normalizer(1, 2)
    m = limit_marginal(2, 1, 0)[EMPTY]
    assert m.lo == z.lo and m.hi == z.hi


def test_suq_mass_requires_domain():
    with pytest.raises(ValueError):
        suq_normalizer(3, 2)


def test_suq_measure_normalization():
    masses = limit_marginal(2, 1, 12).values()
    lo_sum = sum(iv.lo for iv in masses)
    hi_sum = sum(iv.hi for iv in masses)
    assert lo_sum <= 1
    assert hi_sum + unipotent_tail_bound(2, 13) >= 1
    assert hi_sum <= 1 + Fraction(1, 2**200)


def test_limit_marginal_ratio():
    masses = limit_marginal(2, 1, 6)
    ratio_lo = masses[Partition((1,))].lo / masses[EMPTY].hi
    ratio_hi = masses[Partition((1,))].hi / masses[EMPTY].lo
    assert ratio_lo <= 2 <= ratio_hi
    assert masses[EMPTY].lo > 0


def test_cycle_index_identity():
    # the marked series, and so their values at t = 1 too
    for q, depth in ((2, 4), (3, 3)):
        lhs = cycle_index_lhs(depth, q)
        rhs = cycle_index_rhs(q, depth)
        assert lhs == rhs
        assert [sum(poly) for poly in lhs] == [sum(poly) for poly in rhs]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_cycle_index_rhs_closed_form(q):
    # at t = 1 every marker is 1 and the product is sum_m u^m/(1/q)_m (Euler)
    for m_max in range(9):
        marked = cycle_index_rhs(q, m_max)
        assert len(marked) == m_max + 1
        for m in range(m_max + 1):
            assert sum(marked[m]) == 1 / q_pochhammer(q, m)


def test_suq_weight_sums_are_the_exponential_of_their_logarithm():
    # sum_{lam |- s} w_{u,Q}(lam) = u^s f_s with f = exp(sum_k x^k c_k(Q)/k),
    # c_k(Q) = Q^k/(Q^k - 1)^2, that is 1/Z(x, Q): the closed form that
    # cycle_index_rhs reads its product off, for integer and rational Q
    order = 12
    for Q in (2, 3, Fraction(5, 2), 9, Fraction(7, 3)):
        Q = Fraction(Q)
        f = _exp_coefficients(order, [Q**k / (Q**k - 1) ** 2 for k in range(1, order + 1)])
        for u in (1, Fraction(1, 2), Fraction(3, 4)):
            for s in range(order + 1):
                assert sum(suq_weight(u, Q, lam) for lam in enumerate_partitions(s)) == u**s * f[s]


def test_cycle_index_rhs_matches_the_per_partition_product():
    for q in (2, 3, 4, 5, 7, 16):
        for order in range(13):
            assert cycle_index_rhs(q, order) == cycle_index_rhs_by_partitions(q, order), (q, order)


def test_cycle_index_sides_refuse_a_q_that_is_no_field_size():
    # cycle_index_rhs raised ArithmeticError at q = 5/2, which the CLI
    # reports as a failed self-check, and ZeroDivisionError at q = 1
    for q in (Fraction(5, 2), Fraction(3), 1, 0, 2.0):
        with pytest.raises(ValueError, match="q must be an integer >= 2"):
            cycle_index_rhs(q, 3)
    with pytest.raises(ValueError, match="an integer q >= 2"):
        cycle_index_lhs(3, Fraction(5, 2))


def test_cycle_index_reduces_to_euler_series():
    for q in (2, 3):
        lhs = cycle_index_lhs(3, q)
        euler = euler_lhs(q, 3)
        for k, poly in enumerate(lhs):
            assert sum(poly) == euler.coeffs[k]


def test_cycle_index_marker_examples():
    # coefficient of u^1 with the unipotent marker is 2t at q=2
    lhs = cycle_index_lhs(1, 2)
    assert lhs[1] == (Fraction(0), Fraction(2))
    # t^0 part of the u^2 coefficient: cuspidal mass scaled by 1/(1/q)_2
    lhs2 = cycle_index_lhs(2, 2)
    assert lhs2[2][0] == Fraction(1, 6) / q_pochhammer(2, 2)
    assert lhs2[2][0] == Fraction(4, 9)
    rhs2 = cycle_index_rhs(2, 2)
    assert rhs2[2][0] == Fraction(4, 9)


def test_default_rejection_u():
    assert _rejection_u(1) == _rejection_u(2) == Fraction(1, 2)
    assert _rejection_u(3) == Fraction(2, 3)
    assert _rejection_u(1000) == Fraction(63, 64)


def test_acceptance_times_high_degree_empty_is_the_total_degree_law(pin_u):
    # the paper's identity: the labels of degree <= n total n, and every
    # label of higher degree is empty, independently, exactly when the total
    # degree is n, of probability E(u,q) u^n/(1/q)_n
    for q, n in ((q, n) for q in (2, 3) for n in range(1, SAMPLE_N_LIMIT + 1)):
        for u in (_rejection_u(n), Fraction(1, 2)):
            pin_u(u)
            rate = acceptance_probability(n, q)
            assert rate.width < Fraction(1, 2**200)
            joint = rate * high_degree_empty_direct(n, q, u)
            total = euler_product_enclosure(u, q, DEFAULT_PREC) * (u**n / q_pochhammer(q, n))
            assert joint.lo <= total.hi and total.lo <= joint.hi, (q, n, u)


def test_acceptance_probability_reads_the_plan(monkeypatch):
    # the product of the first count entries the plan keeps equals the one
    # read afresh from _count_entries for every (n, q) the sampler takes;
    # once the plan is cached, no entry is computed again
    sizes = [(n, q) for q in (2, 3) for n in range(1, SAMPLE_N_LIMIT + 1)]
    for n, q in sizes:
        rate, direct = acceptance_probability(n, q), acceptance_probability_direct(n, q)
        assert (rate.lo, rate.hi) == (direct.lo, direct.hi), (n, q)

    def refused(*args):
        raise AssertionError("a count entry was computed again")

    monkeypatch.setattr(glasymptotics, "_count_entries", refused)
    for n, q in sizes:
        assert acceptance_probability(n, q).lo > 0


def test_acceptance_probability_refuses_what_the_sampler_refuses():
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be positive"):
            acceptance_probability(n, 2)
    for n, q in ((21, 2), (2, 4)):
        with pytest.raises(CapacityError, match="GL Plancherel sampler"):
            acceptance_probability(n, q)


def test_draw_indices_small_pool_uniform_over_subsets():
    # a partial Fisher-Yates shuffle, sorted; every count-subset equally
    # likely, by criterion 6's rule
    sampler = GLPlancherelSampler(2, 2, seed=23)
    for count, pool in ((1, 5), (2, 6), (3, 7), (2, 2048)):
        draws = Counter(tuple(sampler._draw_indices(count, pool)) for _ in range(20000))
        if pool > 7:  # too many subsets to bin: in range, distinct and sorted
            assert all(0 <= a < b < pool for a, b in draws)
            continue
        subsets = list(combinations(range(pool), count))
        assert set(draws) <= set(subsets)
        assert chisquare([draws[s] for s in subsets]).pvalue >= 0.001


def test_draw_indices_large_pool_uniform_marginals():
    # pools past 2048, the degree-9 and degree-10 label counts at q = 3: the
    # same shuffle, with distinct sorted indices spread uniformly
    sampler = GLPlancherelSampler(2, 2, seed=23)
    for count, pool in ((4, 2049), (20, 3000)):
        bins = Counter()
        ends = set()
        for _ in range(5000):
            idx = sampler._draw_indices(count, pool)
            assert len(idx) == count and idx == sorted(set(idx))
            assert 0 <= idx[0] and idx[-1] < pool
            bins.update(i * 50 // pool for i in idx)
            ends.update((idx[0], idx[-1]))
        # both ends of the range are reached (each missed with odds below 1e-4)
        assert {0, pool - 1} <= ends
        # bin b holds the indices i with i * 50 // pool == b
        widths = [sum(1 for i in range(pool) if i * 50 // pool == b) for b in range(50)]
        expected = [w * count * 5000 / pool for w in widths]
        assert chisquare([bins[b] for b in range(50)], expected).pvalue >= 0.001


def test_draw_indices_full_pool_reads_no_word():
    for pool in (5, 2048, 3000):
        sampler = GLPlancherelSampler(2, 2, seed=23)
        assert sampler._draw_indices(pool, pool) == list(range(pool))
        assert sampler.rng.next_u64() == SplitMix64(23).next_u64()


def test_draw_indices_small_pool_matches_full_list_shuffle():
    # the shuffle that stores only moved positions makes the full-list
    # shuffle's randrange calls and returns its subset, at every pool up to
    # 2048 and at larger ones (the (20, 3) sampler's 2184 and 5880 labels of
    # degrees 9 and 10 among them): count 1 and a drawn count up to 64, and
    # one drawn up to the pool at pools up to 128 and at every 128th, each
    # seed's two streams read in step
    sampler = GLPlancherelSampler(2, 2, seed=0)
    for seed in (0, 1, 2):
        pick = random.Random(seed)
        sampler.rng, ref = SplitMix64(seed), SplitMix64(seed)
        for pool in (*range(1, 2049), 2049, 2184, 5880, 1 << 16):
            counts = [1, pick.randint(1, min(pool, 64))]
            if pool <= 128 or pool % 128 == 0:
                counts.append(pick.randint(1, pool))
            for count in counts:
                assert sampler._draw_indices(count, pool) == draw_indices_list(ref, count, pool)
                assert sampler.rng._state == ref._state, (seed, pool, count)


def test_sampler_n1_unique_family():
    sampler = GLPlancherelSampler(1, 2, seed=5)
    for _ in range(30):
        assert sampler.sample().descriptor() == "1.0:1"


def test_sampler_determinism():
    a = gl_plancherel_samples(2, 2, 25, seed=9)
    b = gl_plancherel_samples(2, 2, 25, seed=9)
    assert a == b


def test_sampler_capacity():
    with pytest.raises(CapacityError):
        gl_plancherel_samples(25, 2, 1)
    with pytest.raises(CapacityError):
        gl_plancherel_samples(2, 5, 1)


# one family per (n, q, u, seed), recorded from the single-sample function
# that once stood beside gl_plancherel_samples; count=1 must reproduce it.
# A u other than None was passed when u was an argument, and is now pinned.
# Re-recorded (from LocateSampler too) when attempts stopped drawing the
# high-degree word; (2, 2, 1/2, 9) happens to keep its family
GL_SINGLE = {
    (3, 2, None, 1): "1.0:1;2.0:1",
    (2, 2, Fraction(1, 2), 9): "1.0:1+1",
    (4, 3, Fraction(1, 2), 5): "1.0:1;1.1:1+1+1",
    (6, 2, None, 17): "1.0:1+1+1;3.0:1",
    (10, 2, Fraction(1, 2), 3): "1.0:1+1;2.0:1;6.6:1",
}


@pytest.mark.parametrize("key", list(GL_SINGLE))
def test_gl_samples_count_one_recorded(key, pin_u):
    n, q, u, seed = key
    pin_u(u)
    (phi,) = gl_plancherel_samples(n, q, 1, seed=seed)
    assert phi.descriptor() == GL_SINGLE[key]


def test_sampler_matches_plancherel_22():
    count = 20000
    sampler = GLPlancherelSampler(2, 2, seed=314)  # at u = 1/2
    freq = Counter(s.descriptor() for s in (sampler.sample() for _ in range(count)))
    exact = {phi.descriptor(): float(m) for phi, m in plancherel_gl(2, 2).items()}
    for desc, p in exact.items():
        sigma = math.sqrt(p * (1 - p) / count)
        assert abs(freq.get(desc, 0) / count - p) <= 4 * sigma
    # acceptance rate within 4 sigma of the predicted probability
    rate = acceptance_probability(2, 2)
    p = rate.midpoint()
    sigma = math.sqrt(p * (1 - p) / sampler.attempts)
    assert abs(count / sampler.attempts - p) <= 4 * sigma + float(rate.width)


def test_sampler_rate_at_pinned_u(pin_u):
    # the rate formula also holds away from the rule's u
    count = 6000
    pin_u(Fraction(1, 2))
    sampler = GLPlancherelSampler(3, 2, seed=555)
    for _ in range(count):
        sampler.sample()
    rate = acceptance_probability(3, 2)
    p = rate.midpoint()
    sigma = math.sqrt(p * (1 - p) / sampler.attempts)
    assert abs(count / sampler.attempts - p) <= 4 * sigma + float(rate.width)


def test_sampler_rate_at_a_size_past_enumeration():
    # (12, 2) has no Plancherel table to compare with; its rate is the
    # product over degrees <= 12 alone, 0.0404 against the 0.0334 that
    # P(total degree = 12) would predict
    count = 3000
    sampler = GLPlancherelSampler(12, 2, seed=2024)
    for _ in range(count):
        sampler.sample()
    rate = acceptance_probability(12, 2)
    p = rate.midpoint()
    sigma = math.sqrt(p * (1 - p) / sampler.attempts)
    assert abs(count / sampler.attempts - p) <= 4 * sigma + float(rate.width)


def test_sampler_unipotent_marginal_32():
    count = 12000
    sampler = GLPlancherelSampler(3, 2, seed=2718)
    freq = Counter(s.unipotent_part for s in (sampler.sample() for _ in range(count)))
    marg = unipotent_marginal(3, 2)
    for lam, mass in marg.items():
        p = float(mass)
        sigma = math.sqrt(p * (1 - p) / count)
        assert abs(freq.get(lam, 0) / count - p) <= 4 * sigma


def test_component_independence_shadow():
    # two degree-3 cuspidal components at n=12, q=2: the finite-n remnant of
    # asymptotic independence should be invisible to a chi-square test
    count = 4000
    sampler = GLPlancherelSampler(12, 2, seed=112358)
    table = [[0, 0], [0, 0]]
    for _ in range(count):
        phi = sampler.sample()
        sizes = {label: lam.size for label, lam in phi.assignment}
        a = 1 if sizes.get(_label(3, 0), 0) else 0
        b = 1 if sizes.get(_label(3, 1), 0) else 0
        table[a][b] += 1
    stat, p_value, _, _ = chi2_contingency(table)
    assert p_value >= 0.001


def _label(d, i):
    from repwalk.glirreps import CuspidalLabel

    return CuspidalLabel(d, i)
