import gc
import math
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chi2_contingency

from repwalk.errors import CapacityError
from oracles import suq_normalizer_pow_int, suq_weight_per_hook
from repwalk.glasymptotics import (
    DEFAULT_PREC,
    GLPlancherelSampler,
    _high_degree_entries,
    acceptance_probability,
    cycle_index_lhs,
    cycle_index_rhs,
    default_rejection_u,
    gl_plancherel_samples,
    high_degree_empty_direct,
    limit_marginal,
    suq_normalizer,
    suq_weight,
)
from repwalk.glirreps import plancherel_gl, suq_size_tail_bound, unipotent_marginal
from repwalk.partitions import EMPTY, Partition, enumerate_partitions
from repwalk.series import euler_lhs, q_pochhammer


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
    acceptance_probability(7, 2, sampler.u)
    normalizers = suq_normalizer.cache_info()
    # a second sampler with the same (n, q, u) builds no new enclosure
    again = GLPlancherelSampler(7, 2, seed=2)
    again.sample()
    acceptance_probability(7, 2, again.u)
    assert suq_normalizer.cache_info().misses == normalizers.misses
    assert suq_normalizer.cache_info().maxsize


def test_sampler_freed_by_reference_counting():
    # no reference cycle through the threshold builders: a finished sampler and
    # its thresholds go at once, not at some later cyclic collection
    sampler = GLPlancherelSampler(4, 2, seed=1)
    sampler.sample()
    refs = [weakref.ref(sampler), weakref.ref(sampler.plans[0]),
            weakref.ref(sampler.high_degree_empty)]
    gc.disable()
    try:
        del sampler
        assert [r() for r in refs] == [None, None, None]
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
    assert hi_sum + suq_size_tail_bound(1, 2, 12) >= 1
    assert hi_sum <= 1 + Fraction(1, 2**200)


def test_suq_tail_bound_dominates_truncated_mass():
    u, q = Fraction(1, 2), 2
    z = suq_normalizer(u, q)
    hi_sum = sum((z * suq_weight(u, q, lam)).hi for m in range(9) for lam in enumerate_partitions(m))
    assert suq_size_tail_bound(u, q, 8) >= 1 - hi_sum
    assert suq_size_tail_bound(u, q, 30) < Fraction(1, 10**7)


def test_limit_marginal_ratio():
    masses = limit_marginal(2, 1, 6)
    ratio_lo = masses[Partition((1,))].lo / masses[EMPTY].hi
    ratio_hi = masses[Partition((1,))].hi / masses[EMPTY].lo
    assert ratio_lo <= 2 <= ratio_hi
    assert masses[EMPTY].lo > 0


def test_cycle_index_identity():
    for q, depth in ((2, 4), (3, 3)):
        for marker in ("none", "unipotent"):
            lhs = cycle_index_lhs(depth, q, marker)
            rhs = cycle_index_rhs(q, depth, marker)
            assert lhs == rhs


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_cycle_index_rhs_closed_form(q):
    # with every marker 1 the product is sum_m u^m/(1/q)_m (Euler); with the
    # unipotent marker, setting t = 1 must give the same coefficients
    for m_max in range(9):
        plain = cycle_index_rhs(q, m_max, "none")
        marked = cycle_index_rhs(q, m_max, "unipotent")
        assert len(plain) == len(marked) == m_max + 1
        for m in range(m_max + 1):
            assert plain[m] == (1 / q_pochhammer(q, m),)
            assert sum(marked[m]) == 1 / q_pochhammer(q, m)


def test_cycle_index_reduces_to_euler_series():
    for q in (2, 3):
        lhs = cycle_index_lhs(3, q, "none")
        euler = euler_lhs(q, 3)
        for k, poly in enumerate(lhs):
            assert poly == (euler.coeffs[k],) or (poly[0] == euler.coeffs[k] and len(poly) == 1)


def test_cycle_index_marker_examples():
    # coefficient of u^1 with the unipotent marker is 2t at q=2
    lhs = cycle_index_lhs(1, 2, "unipotent")
    assert lhs[1] == (Fraction(0), Fraction(2))
    # t^0 part of the u^2 coefficient: cuspidal mass scaled by 1/(1/q)_2
    lhs2 = cycle_index_lhs(2, 2, "unipotent")
    assert lhs2[2][0] == Fraction(1, 6) / q_pochhammer(2, 2)
    assert lhs2[2][0] == Fraction(4, 9)
    rhs2 = cycle_index_rhs(2, 2, "unipotent")
    assert rhs2[2][0] == Fraction(4, 9)


def test_default_rejection_u():
    assert default_rejection_u(2) == Fraction(1, 2)
    assert default_rejection_u(3) == Fraction(2, 3)
    assert default_rejection_u(1000) == Fraction(63, 64)


def test_high_degree_enclosures_agree():
    for n, q, u in ((2, 2, Fraction(1, 2)), (3, 2, Fraction(2, 3)), (2, 3, Fraction(1, 2))):
        ((_, identity),) = _high_degree_entries(n, q, u, DEFAULT_PREC)
        direct = high_degree_empty_direct(n, q, u)
        assert identity.lo <= direct.hi and direct.lo <= identity.hi
        assert identity.width < Fraction(1, 2**200)


def test_sampler_n1_unique_family():
    sampler = GLPlancherelSampler(1, 2, Fraction(1, 2), seed=5)
    for _ in range(30):
        assert sampler.sample().descriptor() == "1.0:1"


def test_sampler_determinism():
    a = gl_plancherel_samples(2, 2, 25, u=Fraction(1, 2), seed=9)
    b = gl_plancherel_samples(2, 2, 25, u=Fraction(1, 2), seed=9)
    assert a == b


def test_sampler_capacity():
    with pytest.raises(CapacityError):
        gl_plancherel_samples(25, 2, 1)
    with pytest.raises(CapacityError):
        gl_plancherel_samples(2, 5, 1)


# one family per (n, q, u, seed), recorded from the single-sample function
# that once stood beside gl_plancherel_samples; count=1 must reproduce it
GL_SINGLE = {
    (3, 2, None, 1): "1.0:1+1+1",
    (2, 2, Fraction(1, 2), 9): "1.0:1+1",
    (4, 3, Fraction(1, 2), 5): "1.0:1;3.1:1",
    (6, 2, None, 17): "1.0:3+1+1+1",
    (10, 2, Fraction(1, 2), 3): "3.0:1;7.1:1",
}


@pytest.mark.parametrize("key", list(GL_SINGLE))
def test_gl_samples_count_one_recorded(key):
    n, q, u, seed = key
    (phi,) = gl_plancherel_samples(n, q, 1, u=u, seed=seed)
    assert phi.descriptor() == GL_SINGLE[key]


def test_sampler_matches_plancherel_22():
    count = 20000
    sampler = GLPlancherelSampler(2, 2, Fraction(1, 2), seed=314)
    freq = Counter(s.descriptor() for s in (sampler.sample() for _ in range(count)))
    exact = {phi.descriptor(): float(m) for phi, m in plancherel_gl(2, 2).items()}
    for desc, p in exact.items():
        sigma = math.sqrt(p * (1 - p) / count)
        assert abs(freq.get(desc, 0) / count - p) <= 4 * sigma
    # acceptance rate within 4 sigma of the predicted probability
    rate = acceptance_probability(2, 2, Fraction(1, 2))
    p = rate.midpoint()
    sigma = math.sqrt(p * (1 - p) / sampler.attempts)
    assert abs(count / sampler.attempts - p) <= 4 * sigma + float(rate.width)


def test_sampler_rate_at_pinned_u():
    # the rate formula also holds away from the default u choice
    count = 6000
    sampler = GLPlancherelSampler(3, 2, Fraction(1, 2), seed=555)
    for _ in range(count):
        sampler.sample()
    rate = acceptance_probability(3, 2, Fraction(1, 2))
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
