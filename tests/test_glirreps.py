import math
import sys
from fractions import Fraction

import pytest

from repwalk import glirreps
from repwalk.errors import CapacityError
from repwalk.glirreps import (
    CuspidalLabel,
    GLIrrep,
    cuspidal_count,
    dimension_gl,
    enumerate_gl_irreps,
    fixed_space_counts,
    gl_lower_bound,
    gl_upper_bound,
    gl_upper_bound_squared,
    mobius,
    order_gl,
    plancherel_gl,
    suq_weight,
    unipotent_marginal,
    unipotent_tail_bound,
)
from repwalk.partitions import EMPTY, Partition

from oracles import dimension_gl_fraction, fixed_space_counts_brute, irreducible_monic_count_brute


def test_mobius():
    assert [mobius(k) for k in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_cuspidal_count_examples():
    assert cuspidal_count(1, 2) == 1
    assert cuspidal_count(2, 2) == 1
    assert cuspidal_count(3, 2) == 2
    assert cuspidal_count(1, 3) == 2


def test_cuspidal_count_indivisible_sum_raises(monkeypatch):
    # with every Moebius value forced to 1, d = 3 and q = 2 give the sum
    # (2 - 1) + (8 - 1) = 8, which 3 does not divide; unlike an assert, the
    # check also runs under python -O
    monkeypatch.setattr(glirreps, "mobius", lambda k: 1)
    with pytest.raises(ArithmeticError):
        cuspidal_count.__wrapped__(3, 2)


def test_cuspidal_count_refuses_a_q_that_is_no_field_size():
    # q = 5/2 raised ArithmeticError from the Moebius divisibility check,
    # which the CLI reports as a failed self-check; a q equal to a cached
    # integer q was read from the cache
    assert cuspidal_count(1, 3) == 2
    for q in (Fraction(5, 2), Fraction(3), 3.0, 1, 0, -2):
        with pytest.raises(ValueError, match="an integer q >= 2"):
            cuspidal_count(1, q)


def test_cuspidal_count_matches_irreducible_polynomials():
    for p in (2, 3):
        for d in (1, 2, 3, 4):
            assert cuspidal_count(d, p) == irreducible_monic_count_brute(d, p)


def test_family_enumeration_counts():
    assert len(enumerate_gl_irreps(1, 2)) == 1
    assert len(enumerate_gl_irreps(2, 2)) == 3
    assert len(enumerate_gl_irreps(2, 3)) == 8


def test_family_enumeration_unique_and_valid():
    for n, q in ((3, 2), (4, 2), (2, 3), (3, 3), (2, 4)):
        fams = enumerate_gl_irreps(n, q)
        assert len({f.descriptor() for f in fams}) == len(fams)
        for f in fams:
            assert sum(l.degree * lam.size for l, lam in f.assignment) == n


def test_family_enumeration_capacity():
    with pytest.raises(CapacityError):
        enumerate_gl_irreps(6, 2)
    with pytest.raises(CapacityError):
        enumerate_gl_irreps(2, 5)


def test_family_validation():
    with pytest.raises(ValueError):
        GLIrrep(2, 2, ((CuspidalLabel(1, 0), Partition((1,))),))
    with pytest.raises(ValueError):
        GLIrrep(2, 2, ((CuspidalLabel(1, 5), Partition((2,))),))


def test_descriptor_round_trip():
    for f in enumerate_gl_irreps(3, 2):
        assert GLIrrep.from_descriptor(3, 2, f.descriptor()) == f


def test_unipotent_part():
    fams = {f.descriptor(): f for f in enumerate_gl_irreps(2, 2)}
    assert fams["1.0:2"].unipotent_part == Partition((2,))
    assert fams["2.0:1"].unipotent_part == EMPTY


def test_order_gl():
    assert order_gl(2, 2) == 6
    assert order_gl(3, 2) == 168
    assert order_gl(2, 3) == 48
    assert order_gl(1, 3) == 2


def test_dimension_examples():
    fams = {f.descriptor(): f for f in enumerate_gl_irreps(2, 2)}
    assert dimension_gl(fams["1.0:2"]) == 1
    assert dimension_gl(fams["1.0:1+1"]) == 2
    assert dimension_gl(fams["2.0:1"]) == 1


def test_dimension_is_the_fraction_form():
    for n in range(1, glirreps.DEFAULT_ENUM_N + 1):
        for q in range(2, glirreps.DEFAULT_ENUM_Q + 1):
            for phi in enumerate_gl_irreps(n, q):
                assert dimension_gl(phi) == dimension_gl_fraction(phi)


def test_dimension_indivisible_quotient_raises(monkeypatch):
    # with |GL(2,2)| = 6 raised to 8, 1.0:1+1 is (8 / 2) * 2 over its hook
    # product (2^2 - 1)(2 - 1) = 3, which does not divide it
    phi = GLIrrep.from_descriptor(2, 2, "1.0:1+1")
    monkeypatch.setattr(glirreps, "order_gl", lambda n, q: order_gl(n, q) + 2)
    with pytest.raises(ArithmeticError, match="not a positive integer"):
        dimension_gl(phi)


def test_mobius_and_divisors_read_one_factorization():
    for m in range(1, 2001):
        factors = glirreps._factorize(m)
        primes = [p for p, _ in factors]
        assert math.prod(p**e for p, e in factors) == m
        assert primes == sorted(set(primes))
        assert all(all(p % k for k in range(2, math.isqrt(p) + 1)) for p in primes)
        # Moebius inversion: sum over d | m of mu(d) is 1 at m = 1, else 0
        divisors = [d for d, _ in glirreps._divisor_totients(m)]
        assert sum(mobius(d) for d in divisors) == (m == 1)


def test_dimension_square_sums():
    for n, q in ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)):
        total = sum(dimension_gl(f) ** 2 for f in enumerate_gl_irreps(n, q))
        assert total == order_gl(n, q)


def test_plancherel_gl():
    masses = plancherel_gl(2, 2)
    assert sorted(masses.values()) == [Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)]
    assert sum(masses.values()) == 1
    assert sorted(plancherel_gl(1, 3).values()) == [Fraction(1, 2), Fraction(1, 2)]


def test_fixed_space_counts_examples():
    assert fixed_space_counts(2, 2) == {2: 1, 1: 3, 0: 2}
    assert sum(fixed_space_counts(2, 3).values()) == 48
    for n, q in ((2, 2), (3, 2), (2, 3), (4, 3)):
        assert fixed_space_counts(n, q)[n] == 1


def test_fixed_space_counts_brute_force():
    for n, p in ((2, 2), (3, 2), (2, 3)):
        assert fixed_space_counts(n, p) == fixed_space_counts_brute(n, p)


def test_fixed_space_count_bound():
    for q in (2, 3, 4):
        for n in range(1, 9):
            counts = fixed_space_counts(n, q)
            for i, c in counts.items():
                assert c <= q ** (n * n - i * i)


def test_gl_upper_bound_example():
    assert gl_upper_bound_squared(2, 2, 3) == Fraction(97, 8192)
    assert gl_upper_bound(2, 2, 3) == pytest.approx(0.10881553341550093)
    assert gl_upper_bound(2, 2, 3) <= 0.25


def test_gl_upper_bound_headline():
    for q in (2, 3):
        for n in (2, 4, 6):
            for c in range(1, 6):
                sq = gl_upper_bound_squared(n, q, n + c)
                assert sq <= Fraction(1, 4 * q ** (2 * c))


def test_gl_upper_bound_past_the_double_range_is_inf():
    # math.sqrt of the exact square raised OverflowError, which gl-bound
    # reported as a failed check (exit 1)
    for n, q, r in ((40, 2, 1), (30, 3, 1), (35, 2, 2)):
        assert gl_upper_bound_squared(n, q, r) > sys.float_info.max
        assert gl_upper_bound(n, q, r) == math.inf
    assert math.isfinite(gl_upper_bound(33, 2, 1)) and gl_upper_bound(34, 2, 1) == math.inf


def test_gl_upper_bound_monotone_to_zero():
    values = [gl_upper_bound(3, 2, r) for r in range(1, 40)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-11


def test_unipotent_marginal_example():
    marg = unipotent_marginal(2, 2)
    assert marg == {
        Partition((2,)): Fraction(1, 6),
        Partition((1, 1)): Fraction(2, 3),
        EMPTY: Fraction(1, 6),
    }
    assert sum(marg.values()) == 1


def test_unipotent_marginal_bounded():
    for n, q in ((2, 2), (3, 2), (2, 3), (4, 2)):
        marg = unipotent_marginal(n, q)
        for lam, mass in marg.items():
            if lam:
                assert mass <= suq_weight(1, q, lam)


def test_one_row_bound_evaluates():
    for n in (2, 3, 4):
        lam = Partition((n,))
        bound = suq_weight(1, 2, lam)
        exact = unipotent_marginal(n, 2).get(lam, Fraction(0))
        assert exact <= bound


def test_tail_bound_dominates_exact_tail():
    for n, q in ((2, 2), (3, 2), (2, 3)):
        marg = unipotent_marginal(n, q)
        for c in range(1, n + 1):
            exact_tail = sum(m for lam, m in marg.items() if lam.size >= c)
            assert exact_tail <= unipotent_tail_bound(q, c)


def test_tail_bound_example():
    t = unipotent_tail_bound(2, 5)
    # 64 * sum_{m>=5} 1/(2^m - 1), just above 64 * 0.0629
    assert 4.0 < float(t) < 4.2
    assert float(unipotent_tail_bound(2, 40)) < 1e-9


def test_gl_lower_bound():
    assert gl_lower_bound(2, 2, 1) == Fraction(1, 6)
    # large instance falls back to the tail bound
    v = gl_lower_bound(30, 2, 25)
    assert 0.99 < float(v) <= 1
    assert gl_lower_bound(30, 2, 1) == 0


@pytest.mark.parametrize("n,q,c", [(3, 2, 5), (30, 2, 31), (0, 2, 1)])
def test_gl_lower_bound_refuses_c_past_n(n, q, c):
    # r = n - c steps: c > n returned a bound at a negative step count, from
    # the exact marginal at (3, 2) and from the tail bound at n = 30
    with pytest.raises(ValueError, match="c must be at most n"):
        gl_lower_bound(n, q, c)
    assert gl_lower_bound(c, q, c) <= 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 97])
def test_tail_denominator_log10_is_a_lower_bound(q):
    # the CLI refuses gl-lower from this bound before summing, so it must
    # never exceed the digits of either printed fraction's denominator
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for c in (1, 2, 3, 10, 51, 52, 53, 100, 264, 265, 400):
            tail = unipotent_tail_bound(q, c)
            bound = glirreps._tail_denominator_log10(q, c)
            assert bound <= math.log10(tail.denominator)
            if tail < 1:
                assert bound <= math.log10(gl_lower_bound(max(6, c), q, c).denominator)
            if c >= 100:  # and it grows with the sum, not with q^c alone
                assert bound > 0.6 * math.log10(tail.denominator)
    finally:
        sys.set_int_max_str_digits(limit)


def test_divisor_totients():
    for m in range(1, 200):
        pairs = glirreps._divisor_totients(m)
        assert sorted(d for d, _ in pairs) == [d for d in range(1, m + 1) if m % d == 0]
        assert sum(phi for _, phi in pairs) == m  # sum over d | m of phi(d) = m
        assert all(phi == sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1) for d, phi in pairs)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_unipotent_bounds_are_the_suq_weight_and_tail_at_u_one(q):
    # the tail bound is the S_{1,q} size tail (1-1/q)^(-6) sum_{m>=c} 1/(q^m - 1):
    # at least its first 200 terms, and within the relative tolerance of them
    prefactor = (1 - Fraction(1, q)) ** -6
    for c in range(1, 13):
        head = prefactor * sum(Fraction(1, q**m - 1) for m in range(c, c + 200))
        assert head <= unipotent_tail_bound(q, c) <= head * (1 + 2 * glirreps.TAIL_REL_TOL)
