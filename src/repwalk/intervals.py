"""Exact rational interval arithmetic with dyadic outward rounding.

Used wherever an infinite product or a huge power must be enclosed with
certified rational endpoints (no floating point): normalizing constants of
partition measures, binomial tail probabilities inside the GL Plancherel
sampler, and acceptance-rate predictions.  Rounding endpoints outward to a
fixed number of dyadic bits keeps numerators small through repeated
squaring while preserving soundness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _floor_dyadic(x: Fraction, prec: int) -> Fraction:
    scaled = x.numerator * (1 << prec)
    return Fraction(scaled // x.denominator, 1 << prec)


def _ceil_dyadic(x: Fraction, prec: int) -> Fraction:
    scaled = x.numerator * (1 << prec)
    return Fraction(-((-scaled) // x.denominator), 1 << prec)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

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
        return Interval(_floor_dyadic(self.lo, prec), _ceil_dyadic(self.hi, prec))

    def __add__(self, other) -> "Interval":
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other) -> "Interval":
        other = _as_interval(other)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other) -> "Interval":
        other = _as_interval(other)
        if self.lo >= 0 and other.lo >= 0:
            return Interval(self.lo * other.lo, self.hi * other.hi)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        other = _as_interval(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("dividing by an interval containing 0")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(quotients), max(quotients))

    def one_minus(self) -> "Interval":
        return Interval(1 - self.hi, 1 - self.lo)

    def pow_int(self, k: int, prec: int | None = None) -> "Interval":
        """Nonnegative-base integer power by repeated squaring.

        With prec set, endpoints are rounded outward after each multiply,
        keeping bit sizes linear in prec rather than in k.
        """
        if self.lo < 0:
            raise ValueError("pow_int requires a nonnegative interval")
        if k < 0:
            raise ValueError("negative powers unsupported")
        out = Interval.point(1)
        base = self
        while k:
            if k & 1:
                out = out * base
                if prec is not None:
                    out = out.rounded(prec)
            base = base * base
            if prec is not None:
                base = base.rounded(prec)
            k >>= 1
        return out


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


def product_one_minus_geometric(u: Fraction, q: Fraction, count: int) -> Fraction:
    """prod_{m=0}^{count-1} (1 - u / q^m), exact."""
    out = Fraction(1)
    for m in range(count):
        out *= 1 - u * q**-m
    return out


def euler_product_enclosure(u: Fraction, q: Fraction, terms: int,
                            prec: int | None = None) -> Interval:
    """Enclosure of prod_{m=0}^inf (1 - u/q^m) for 0 < u < 1 < q.

    The omitted tail prod_{m>terms-1}(1 - u q^-m) lies in
    [1 - u q^(1-terms)/(q-1), 1] by the Weierstrass product inequality.
    """
    u, q = Fraction(u), Fraction(q)
    if not 0 < u < 1 or q <= 1:
        raise ValueError("need 0 < u < 1 < q")
    head = product_one_minus_geometric(u, q, terms)
    tail_lo = 1 - u * q ** (1 - terms) / (q - 1)
    if tail_lo < 0:
        tail_lo = Fraction(0)
    iv = Interval(head * tail_lo, head)
    return iv.rounded(prec) if prec is not None else iv
