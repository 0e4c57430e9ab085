"""Truncated formal power series over exact rationals, with q-series helpers.

A TruncSeries holds coefficients c_0..c_M; multiplication truncates at
order M.  The Euler identity sum_n u^n/(1/q)_n = prod_m (1 - u/q^m)^(-1)
is verified through a finite closed form: the coefficient of u^n in the
N-factor partial product is the Gaussian binomial [N+n-1, n] at 1/q, which
equals (1/(1/q)_n) prod_{j=0}^{n-1} (1 - q^(-(N+j))) exactly and converges
monotonically to 1/(1/q)_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError

DEFAULT_ORDER = 6
# the highest order the Euler identity and the cycle index are expanded to:
# the cycle index runs over every partition up to the order, about 10x the
# time per ten orders (gl-cycle-index --check at order 30, q = 2: about 1 s)
ORDER_LIMIT = 30
# the largest order * log2(q) they take, that is q^order <= 2^ORDER_BITS_LIMIT.
# The rationals grow with q as well: gl-cycle-index --order 30 took 1.6 s at
# q = 2, 3.2 s at q = 16 (the largest q this lets through at order 30), 3.9 s
# at q = 32 and 9.3 s at q = 1000, on a 2-core Xeon with Python 3.11
ORDER_BITS_LIMIT = 120
STABILIZATION_THRESHOLD = Fraction(1, 10**30)
STABLE_INCREMENTS = 3


@dataclass(frozen=True)
class TruncSeries:
    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need exactly order + 1 coefficients")

    @classmethod
    def from_coeffs(cls, order: int, coeffs) -> "TruncSeries":
        cs = [Fraction(c) for c in coeffs][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(order, tuple(cs))

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.from_coeffs(order, [1])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.order != other.order:
            raise ValueError("series orders must match")
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncSeries(self.order, tuple(out))

    def __pow__(self, k: int) -> "TruncSeries":
        if k < 0:
            raise ValueError(f"the power must be non-negative, got {k}")
        out = TruncSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


def geometric_factor(order: int, ratio: Fraction) -> TruncSeries:
    """(1 - ratio*u)^(-1) = sum_k ratio^k u^k, truncated."""
    ratio = Fraction(ratio)
    coeffs = [ratio**k for k in range(order + 1)]
    return TruncSeries(order, tuple(coeffs))


def q_pochhammer(q, r: int) -> Fraction:
    """(1/q)_r = (1 - 1/q)(1 - 1/q^2)...(1 - 1/q^r); empty product is 1.

    For q = c/e each factor is (c^k - e^k)/c^k, so the product is one
    integer product over c^(r(r+1)/2), reduced once."""
    if r < 0:
        raise ValueError("r must be non-negative")
    q = Fraction(q)
    if q <= 1:
        raise ValueError("q must exceed 1")
    c, e = q.numerator, q.denominator
    return Fraction(math.prod(c**k - e**k for k in range(1, r + 1)), c ** (r * (r + 1) // 2))


def _check_order(order: int, q) -> None:
    """Refuse a negative order, one past ORDER_LIMIT, and q^order past
    2^ORDER_BITS_LIMIT."""
    if order < 0:
        raise ValueError(f"the order must be non-negative, got {order}")
    if order > ORDER_LIMIT:
        raise CapacityError("series order", order, ORDER_LIMIT)
    bits = order * math.log2(q) if q > 1 else 0
    if bits > ORDER_BITS_LIMIT:
        raise CapacityError("series order * log2(q)", round(bits, 2), ORDER_BITS_LIMIT)


def euler_lhs(q, order: int) -> TruncSeries:
    """sum_{n>=0} u^n / (1/q)_n, truncated at the given order."""
    return TruncSeries(order, tuple(1 / q_pochhammer(q, n) for n in range(order + 1)))


def euler_partial_product(q, order: int, n_factors: int) -> TruncSeries:
    """prod_{m=0}^{n_factors-1} (1 - u/q^m)^(-1), truncated."""
    q = Fraction(q)
    out = TruncSeries.one(order)
    for m in range(n_factors):
        out = out * geometric_factor(order, q**-m)
    return out


def euler_lhs_rhs(q, order: int = DEFAULT_ORDER) -> tuple[TruncSeries, TruncSeries]:
    """The two sides of the Euler identity, the right side stabilized.

    The partial product is expanded with more and more factors until every
    coefficient changes by less than STABILIZATION_THRESHOLD for
    STABLE_INCREMENTS consecutive increments.  Each partial product is
    checked exactly against its closed form along the way: its coefficient
    of u^n must be the limit 1/(1/q)_n times prod_{j=0}^{n-1} (1 - q^(-(N+j))),
    a deviation that shrinks to 0.  That is the Gaussian binomial
    [N+n-1, n] at 1/q, so one equality checks both forms.
    """
    _check_order(order, q)
    q = Fraction(q)
    lhs = euler_lhs(q, order)
    n_factors = order + 1
    prev = euler_partial_product(q, order, n_factors)
    _check_partial_product_closed_form(q, lhs, prev, n_factors)
    stable = 0
    while stable < STABLE_INCREMENTS:
        n_factors += 1
        cur = prev * geometric_factor(order, q ** -(n_factors - 1))
        _check_partial_product_closed_form(q, lhs, cur, n_factors)
        delta = max(abs(a - b) for a, b in zip(cur.coeffs, prev.coeffs))
        stable = stable + 1 if delta < STABILIZATION_THRESHOLD else 0
        prev = cur
    return lhs, prev


def _check_partial_product_closed_form(q: Fraction, lhs: TruncSeries, series: TruncSeries,
                                       n_factors: int):
    """Raise unless coefficient n of the n_factors-factor partial product is
    lhs.coeffs[n] * prod_{j<n} (1 - q^(-(n_factors+j))) for every n."""
    correction = Fraction(1)
    for n, (c, limit) in enumerate(zip(series.coeffs, lhs.coeffs)):
        if c != limit * correction:
            raise ArithmeticError("partial product disagrees with its closed form")
        correction *= 1 - q ** -(n_factors + n)
