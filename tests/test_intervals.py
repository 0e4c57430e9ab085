import math
import random
import sys
from fractions import Fraction
from itertools import islice

import pytest

from oracles import euler_product_enclosure, euler_product_exact, pow_int_fraction
from repwalk.glasymptotics import _normalizer_terms, _rejection_u
from repwalk.glirreps import gl_upper_bound, gl_upper_bound_squared
from repwalk.intervals import Interval, _sqrt_up
from repwalk.snwalk import _upper_bounds, sn_tv_curve, sn_upper_bound, sn_upper_bound_squared


def test_interval_basics():
    a = Interval(Fraction(1, 3), Fraction(1, 2))
    b = Interval(Fraction(2), Fraction(3))
    assert (a + b).lo == Fraction(7, 3)
    assert (a * b).hi == Fraction(3, 2)
    assert a.contains(Fraction(2, 5))
    assert not a.contains(Fraction(2, 3))
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_negative_interval_refused():
    # every enclosure is nonnegative, so products and quotients take their
    # endpoints in order; a negative end is refused where it is formed
    for lo, hi in ((-2, 3), (-3, -1)):
        with pytest.raises(ValueError, match="not a nonnegative interval"):
            Interval(Fraction(lo), Fraction(hi))
    with pytest.raises(ValueError):
        Interval.point(Fraction(1, 3)) * -1
    with pytest.raises(ValueError):
        Interval(Fraction(1, 2), Fraction(2)).one_minus()


def test_division():
    a = Interval(Fraction(1), Fraction(2))
    b = Interval(Fraction(1, 2), Fraction(1))
    q = a / b
    assert q.lo == 1 and q.hi == 4
    with pytest.raises(ZeroDivisionError):
        a / Interval(Fraction(0), Fraction(1))


def test_rounded_outward():
    x = Interval(Fraction(1, 3), Fraction(1, 3))
    r = x.rounded(8)
    assert r.lo <= Fraction(1, 3) <= r.hi
    assert r.width == Fraction(1, 256)
    assert r.lo.denominator <= 256


def test_pow_int_encloses_true_power():
    base = Interval(Fraction(1, 3), Fraction(1, 3))
    for k in (0, 1, 2, 7, 100):
        p = base.pow_int(k, prec=128)
        assert p.contains(Fraction(1, 3) ** k)
        assert p.width < Fraction(1, 2**100)


def _dyadic_interval(rnd: random.Random, prec: int) -> Interval:
    """[a, b] / 2^prec: anywhere in [0, 1], just below 1 (as the normalizers
    Z(u^d, q^d) of high degree are), a point, or reaching past 1."""
    one = 1 << prec
    kind = rnd.randrange(4)
    if kind == 0:
        a, b = sorted(rnd.randrange(one + 1) for _ in range(2))
    elif kind == 1:
        a = one - rnd.randrange(1, 1 << rnd.randrange(1, prec))
        b = min(one, a + rnd.randrange(3))
    elif kind == 2:
        a = b = rnd.randrange(one + 1)
    else:
        a, b = sorted(rnd.randrange(4 * one) for _ in range(2))
    return Interval(Fraction(a, one), Fraction(b, one))


@pytest.mark.parametrize("prec", [64, 320, 640])
def test_pow_int_matches_fraction_loop(prec):
    # on intervals dyadic at prec, as both callers pass, the squarings on
    # integer endpoints give exactly the outward-rounded Fraction products
    rnd = random.Random(prec)
    for _ in range(25):
        iv = _dyadic_interval(rnd, prec)
        ks = [0, 1, 2, 3, rnd.randrange(4, 70)]
        if iv.hi <= 1:
            ks += [rnd.randrange(70, 10**6), rnd.randrange(10**6, 10**9), 10**9]
        for k in ks:
            assert iv.pow_int(k, prec) == pow_int_fraction(iv, k, prec), (iv, k)


def test_euler_product_enclosure():
    # prod_{m>=0} (1 - u/2^m) at u = 1/2, converging from both sides
    wide_lo, wide_hi = euler_product_exact(Fraction(1, 2), Fraction(2), 10)
    tight = euler_product_enclosure(Fraction(1, 2), Fraction(2), prec=256)
    assert tight.lo >= wide_lo and tight.hi <= wide_hi
    assert tight.width < Fraction(1, 2**100)
    assert wide_lo > Fraction(1, 4) and wide_hi < Fraction(1, 3)


# five chosen points, then every u the sampler takes for n <= 20 at q = 2, 3
@pytest.mark.parametrize("u,q", [
    (Fraction(1, 2), 2), (Fraction(63, 64), 2), (Fraction(5, 6), 3),
    (Fraction(2, 3), Fraction(7, 2)), (Fraction(19, 20) ** 3, 27),
] + [(u, q) for q in (2, 3) for u in sorted({_rejection_u(n) for n in range(1, 21)})])
def test_euler_product_rounded_contains_exact(u, q):
    terms = _normalizer_terms(u, Fraction(q), Fraction(1, 2**320))
    exact_lo, exact_hi = euler_product_exact(u, q, terms)
    rounded = euler_product_enclosure(u, q, 320)
    assert rounded.lo <= exact_lo and exact_hi <= rounded.hi
    assert rounded.width < Fraction(1, 2**300)



def _bounds(bound: float, squared: Fraction) -> bool:
    return bound == math.inf or Fraction(bound) ** 2 >= squared


def test_printed_l2_bounds_lie_at_or_above_the_exact_bound():
    # rounded to the nearest double, about half of these fell an ulp below
    # the exact root (97 of 196, 78 of 160 and 503 of 1003)
    for n in range(2, 30):
        for r in range(8):
            assert _bounds(sn_upper_bound(n, r), sn_upper_bound_squared(n, r)), (n, r)
    for n in range(1, 9):
        for q in (2, 3, 4, 5):
            for r in range(1, 6):
                assert _bounds(gl_upper_bound(n, q, r), gl_upper_bound_squared(n, q, r)), (n, q, r)
    for n in range(2, 19):
        for r, _, bound in sn_tv_curve(n, 59):
            assert bound == sn_upper_bound(n, r)
            assert _bounds(bound, sn_upper_bound_squared(n, r)), (n, r)


def test_bounds_below_the_double_range_stay_positive():
    # the square of sn_upper_bound(3, 400) is about 1e-382, below every
    # double; its root is a normal double
    bound = sn_upper_bound(3, 400)
    assert 0 < bound < 1e-190 and _bounds(bound, sn_upper_bound_squared(3, 400))
    # the n = 18 curve column read 0.0 from r = 3179 on
    column = list(islice(_upper_bounds(18), 3400))
    for r in (3178, 3179, 3180, 3400):
        assert 0 < column[r - 1] == sn_upper_bound(18, r)
        assert _bounds(column[r - 1], sn_upper_bound_squared(18, r))
    # roots past the subnormal range round up to the least double
    assert _sqrt_up(1, 10**700) == math.nextafter(0.0, 1.0)
    assert _sqrt_up(1, 10**640) > 0 and _bounds(_sqrt_up(1, 10**640), Fraction(1, 10**640))
    assert _sqrt_up(0, 10**700) == 0.0


@pytest.mark.parametrize("n, first", [(2, 1), (3, 678), (21, 7458)])
def test_l2_column_repeats_the_least_double_once_reached(n, first):
    # from the first row whose root is the least positive double (0.0 at
    # n = 2) the column repeats it with no integer work; the rows on both
    # sides of that switch are the closed form's
    column = list(islice(_upper_bounds(n), first + 3))
    least = 0.0 if n == 2 else math.ulp(0.0)
    assert column[first - 1] == least and (first == 1 or column[first - 2] > least)
    for r in range(max(1, first - 2), first + 4):
        assert column[r - 1] == sn_upper_bound(n, r), (n, r)


def test_bounds_past_the_double_range_are_inf():
    largest = int(sys.float_info.max)
    assert _sqrt_up(largest + 1, 1) == math.inf
    assert _bounds(_sqrt_up(largest, 1), Fraction(largest)) and _sqrt_up(largest, 1) < math.inf
    # a denominator past the double range takes no float product
    assert _sqrt_up(10**1000, 10**600) == math.inf
    assert _bounds(_sqrt_up(10**900, 10**600), Fraction(10**300))
    assert sn_upper_bound(171, 0) == math.inf  # (171! - 1) / 4 > the largest double
    assert sn_upper_bound(170, 0) < math.inf
