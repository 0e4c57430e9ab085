"""Exact rational interval arithmetic with dyadic outward rounding.

Nonnegative enclosures only: every quantity glasymptotics encloses (the
normalizer Z(u,q), the Euler product of the mixing weight, and the
binomial tail probabilities of the GL Plancherel sampler) is at least 0,
so an Interval is refused unless 0 <= lo <= hi, and products and
quotients work endpoint by endpoint, on certified rational endpoints (no
floating point).  Rounding endpoints outward to a fixed number of dyadic
bits keeps numerators small through repeated squaring while preserving
soundness.

Powers and long products run on integer endpoints at a fixed dyadic scale,
floor below and ceiling above, with no Fraction product formed.
pow_int(k, prec) rounds the base outward to prec bits once, then keeps
every product of its squarings at scale 2^prec; on a base already dyadic
at prec, as every caller passes, each step is exactly the outward prec-bit
rounding of the Fraction product, so the power is the one that Fraction
loop gives, bit for bit.  Long products at a wider scale take
guard_bits(k) extra bits to absorb the rounding of k products, and
enclosure_from_scaled turns such endpoints into an Interval.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction


def _sqrt_up(num: int, den: int) -> float:
    """A double at or above sqrt(num/den), num >= 0 and den > 0 integers: an
    L2 bound from its exact square, inf (still a bound) for a square past
    the double range.  It starts from the root of the correctly rounded
    quotient, taken on num * 4^k and scaled by 2^-k where the quotient lies
    below the normal range, so within an ulp or two, and steps up while
    p^2 den < num q^2 for the double p/q, compared in integers."""
    e = num.bit_length() - den.bit_length()  # 2^(e-1) < num/den < 2^(e+1)
    if e > 1022 and num > den * int(sys.float_info.max):
        return math.inf
    if e < -1000:
        k = (1 - e) // 2
        bound = math.ldexp(math.sqrt((num << 2 * k) / den), -k)
    else:
        bound = math.sqrt(num / den)
    p, q = bound.as_integer_ratio()  # q = 2^s: num q^2 is a shift
    while p * p * den < num << 2 * q.bit_length() - 2:
        bound = math.nextafter(bound, math.inf)
        p, q = bound.as_integer_ratio()
    return bound


def floor_scaled(x: Fraction, scale: int) -> int:
    """floor(x * 2^scale)."""
    return (x.numerator << scale) // x.denominator


def ceil_scaled(x: Fraction, scale: int) -> int:
    """ceil(x * 2^scale)."""
    return -((-x.numerator << scale) // x.denominator)


@dataclass(frozen=True)
class Interval:
    """[lo, hi] with 0 <= lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi:
            raise ValueError(f"not a nonnegative interval: [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "Interval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def midpoint(self) -> float:
        return float((self.lo + self.hi) / 2)

    def rounded(self, prec: int) -> "Interval":
        """Round endpoints outward to prec dyadic bits."""
        one = 1 << prec
        return Interval(Fraction(floor_scaled(self.lo, prec), one),
                        Fraction(ceil_scaled(self.hi, prec), one))

    def __add__(self, other) -> "Interval":
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other) -> "Interval":
        other = _as_interval(other)
        return Interval(self.lo * other.lo, self.hi * other.hi)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        other = _as_interval(other)
        if other.lo == 0:
            raise ZeroDivisionError("dividing by an interval containing 0")
        return Interval(self.lo / other.hi, self.hi / other.lo)

    def one_minus(self) -> "Interval":
        """[1 - hi, 1 - lo], for hi <= 1."""
        return Interval(1 - self.hi, 1 - self.lo)

    def pow_int(self, k: int, prec: int) -> "Interval":
        """Integer power by repeated squaring, on integer endpoints at scale
        2^prec.

        The base is rounded outward to prec bits once; each product then
        keeps floor(lo * lo' / 2^prec) below and the ceiling of
        hi * hi' / 2^prec above, exactly what rounding the Fraction product
        outward to prec bits gives, so bit sizes stay linear in prec rather
        than in k.
        """
        if k < 0:
            raise ValueError("negative powers unsupported")
        lo, hi = floor_scaled(self.lo, prec), ceil_scaled(self.hi, prec)
        out_lo = out_hi = one = 1 << prec
        while k:
            if k & 1:
                out_lo = out_lo * lo >> prec
                out_hi = -(-out_hi * hi >> prec)
            k >>= 1
            if k:
                lo = lo * lo >> prec
                hi = -(-hi * hi >> prec)
        return Interval(Fraction(out_lo, one), Fraction(out_hi, one))


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


def guard_bits(products: int) -> int:
    """Extra working bits that absorb the floor/ceil error of `products`
    outward-rounded products, so the final rounding to prec dominates."""
    return 2 * products.bit_length() + 2


def enclosure_from_scaled(lo: int, hi: int, scale: int, prec: int,
                          factor_num: int, factor_den: int) -> Interval:
    """[lo * factor_num / factor_den, hi] / 2^scale, rounded outward to
    prec <= scale bits; factor_num / factor_den >= 0 is an exact lower bound
    on a factor the head omits."""
    shift = scale - prec
    lo = lo * factor_num // (factor_den << shift)
    hi = -(-hi >> shift)
    return Interval(Fraction(lo, 1 << prec), Fraction(hi, 1 << prec))

