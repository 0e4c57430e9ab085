"""Truncated formal power series over exact rationals, with q-series helpers.

A TruncSeries holds coefficients c_0..c_M; multiplication truncates at
order M.  The infinite products here, the right side of the Euler identity
sum_n u^n/(1/q)_n = prod_{m>=0} (1 - u/q^m)^(-1) and the cycle index's, are
exponentials of series with closed-form coefficients: for F = exp(G),
G(0) = 0, s f_s = sum_{m=1..s} (m g_m) f_{s-m}, which _exp_coefficients
evaluates exactly from the list of m g_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError

DEFAULT_ORDER = 6
# the highest order the Euler identity and the cycle index are expanded to,
# each by order^2 exact products (gl-cycle-index --order 30: 0.01 s at q = 2,
# 0.03 s at q = 16, on a 2-core Xeon with Python 3.11)
ORDER_LIMIT = 30
# the largest order * log2(q) they take, that is q^order <= 2^ORDER_BITS_LIMIT
ORDER_BITS_LIMIT = 120


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


def _exp_coefficients(order: int, weighted_log: list) -> list[Fraction]:
    """f_0..f_order of F = exp(G), G(0) = 0, from weighted_log[m-1] = m g_m
    for m = 1..order: f_0 = 1 and s f_s = sum_{m=1..s} (m g_m) f_{s-m}."""
    f = [Fraction(1)]
    for s in range(1, order + 1):
        f.append(sum(w * c for w, c in zip(weighted_log, reversed(f))) / s)
    return f


def euler_lhs_rhs(q, order: int = DEFAULT_ORDER) -> tuple[TruncSeries, TruncSeries]:
    """The two sides of the Euler identity, each exact: euler_lhs, and
    prod_{m>=0} (1 - u/q^m)^(-1) read off its logarithm
    sum_{m>=0} sum_k (u/q^m)^k/k = sum_k (u^k/k)/(1 - q^-k)."""
    _check_order(order, q)
    lhs = euler_lhs(q, order)  # refuses q <= 1 before the right side divides by q^m - 1
    q = Fraction(q)
    rhs = _exp_coefficients(order, [q**m / (q**m - 1) for m in range(1, order + 1)])
    return lhs, TruncSeries(order, tuple(rhs))
