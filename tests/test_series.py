import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repwalk.series import (
    ORDER_LIMIT,
    TruncSeries,
    _exp_coefficients,
    euler_lhs,
    euler_lhs_rhs,
    q_pochhammer,
)

from oracles import (
    check_partial_product_closed_form,
    euler_partial_product,
    gaussian_binomial,
    q_pochhammer_reference,
)

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12
)


@st.composite
def series(draw, order=6):
    coeffs = draw(st.lists(rationals, min_size=order + 1, max_size=order + 1))
    return TruncSeries(order, tuple(coeffs))


def test_basic_arithmetic():
    one_plus_u = TruncSeries.from_coeffs(4, [1, 1])
    sq = one_plus_u * one_plus_u
    assert sq.coeffs == (1, 2, 1, 0, 0)
    one_minus_u = TruncSeries.from_coeffs(4, [1, -1])
    assert (one_minus_u * TruncSeries.from_coeffs(4, [1] * 5)).coeffs == (1, 0, 0, 0, 0)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncSeries.one(3) * TruncSeries.one(4)


@settings(deadline=None)
@given(series(), series(), series())
def test_ring_laws(a, b, c):
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert (a * TruncSeries.one(a.order)).coeffs == a.coeffs


def test_powers():
    g = TruncSeries.from_coeffs(5, [Fraction(1, 2**k) for k in range(6)])
    assert (g**0).coeffs == TruncSeries.one(5).coeffs
    assert (g**3).coeffs == (g * g * g).coeffs
    with pytest.raises(ValueError):
        g**-1


def test_q_pochhammer_values():
    assert q_pochhammer(2, 0) == 1
    assert q_pochhammer(2, 2) == Fraction(3, 8)
    assert q_pochhammer(2, 3) == Fraction(21, 64)
    assert q_pochhammer(Fraction(3, 2), 1) == Fraction(1, 3)
    with pytest.raises(ValueError):
        q_pochhammer(1, 2)


def test_q_pochhammer_matches_the_factor_product():
    # one numerator product over one power of c, for q = c/e, against the
    # product of the r Fraction factors 1 - q^-k
    for q in (2, 3, Fraction(5, 2), Fraction(9, 4), 7):
        for r in range(31):
            assert q_pochhammer(q, r) == q_pochhammer_reference(q, r)
    for q, r in ((2, -1), (Fraction(5, 2), -3), (1, 3), (Fraction(1, 2), 2), (0, 0), (-2, 4)):
        with pytest.raises(ValueError):
            q_pochhammer(q, r)


def test_euler_lhs_coefficients():
    lhs = euler_lhs(2, 4)
    assert lhs.coeffs[0] == 1
    assert lhs.coeffs[1] == 2
    assert lhs.coeffs[2] == Fraction(1) / Fraction(3, 8)


def test_partial_product_equals_gaussian_binomial():
    for q in (2, 3):
        for n_factors in (3, 6, 11):
            p = euler_partial_product(q, 5, n_factors)
            for n, c in enumerate(p.coeffs):
                assert c == gaussian_binomial(n_factors + n - 1, n, Fraction(1, q))


@pytest.mark.parametrize("q", [2, 3])
def test_closed_form_check_catches_a_perturbed_coefficient(q):
    # the check passes on every partial product, and fails once any one
    # coefficient of it is off by the smallest amount
    q, order = Fraction(q), 5
    lhs = euler_lhs(q, order)
    for n_factors in (1, 6, 11):
        p = euler_partial_product(q, order, n_factors)
        check_partial_product_closed_form(q, lhs, p, n_factors)
        for n in range(order + 1):
            coeffs = list(p.coeffs)
            coeffs[n] += Fraction(1, 10**40)
            with pytest.raises(ArithmeticError, match="closed form"):
                check_partial_product_closed_form(q, lhs, TruncSeries(order, tuple(coeffs)),
                                                  n_factors)


def test_euler_identity_is_exact():
    # the right side read off its logarithm equals the left side exactly,
    # for integer and rational q, at every order up to the cap
    for q in (2, 3, Fraction(5, 2), 7):
        for order in range(ORDER_LIMIT + 1):
            lhs, rhs = euler_lhs_rhs(q, order)
            assert lhs == rhs


@pytest.mark.parametrize("q", [2, 3])
def test_partial_products_close_on_the_right_side(q):
    # the N-factor partial product is rhs_n prod_{j<n} (1 - q^-(N+j)): this
    # ties the product to the right side, not to the left
    order = 6
    _, rhs = euler_lhs_rhs(q, order)
    for n_factors in (1, 6, 11, 40):
        check_partial_product_closed_form(Fraction(q), rhs,
                                          euler_partial_product(q, order, n_factors), n_factors)


def test_exp_coefficients():
    # exp(u) has f_s = 1/s!, exp(-log(1 - u)) = 1/(1 - u) has f_s = 1, and
    # exp(2 log(1 + u)) = (1 + u)^2 ends at u^2
    exp_u = _exp_coefficients(5, [1, 0, 0, 0, 0])
    assert exp_u == [Fraction(1, math.factorial(s)) for s in range(6)]
    assert _exp_coefficients(5, [1] * 5) == [1] * 6
    assert _exp_coefficients(5, [2 * (-1) ** (m + 1) for m in range(1, 6)]) == [1, 2, 1, 0, 0, 0]
    assert _exp_coefficients(0, []) == [1]


def test_euler_sides_refuse_q_at_most_one():
    for q in (1, 0, Fraction(1, 2)):
        with pytest.raises(ValueError, match="q must exceed 1"):
            euler_lhs_rhs(q, 3)


def test_partial_products_increase_to_limit():
    # each new factor only adds nonnegative mass at every order
    q = 2
    prev = euler_partial_product(q, 5, 6)
    limit = euler_lhs(q, 5)
    for k in range(7, 30):
        cur = euler_partial_product(q, 5, k)
        for a, b, c in zip(prev.coeffs, cur.coeffs, limit.coeffs):
            assert a <= b <= c
        prev = cur
