import random
from fractions import Fraction

import pytest

from oracles import euler_product_exact, pow_int_fraction
from repwalk.glasymptotics import _normalizer_terms, default_rejection_u, euler_product_enclosure
from repwalk.intervals import Interval


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
] + [(u, q) for q in (2, 3) for u in sorted({default_rejection_u(n) for n in range(1, 21)})])
def test_euler_product_rounded_contains_exact(u, q):
    terms = _normalizer_terms(u, Fraction(q), Fraction(1, 2**320))
    exact_lo, exact_hi = euler_product_exact(u, q, terms)
    rounded = euler_product_enclosure(u, q, 320)
    assert rounded.lo <= exact_lo and exact_hi <= rounded.hi
    assert rounded.width < Fraction(1, 2**300)

