import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from algebraic_oracles import bisection_sign, cyclotomic_by_division, poly_eval
from cyclotomic_field import (
    RealCyclotomicField,
    cos_pi_over_minpoly,
    cyclotomic,
    poly_negate_variable,
    two_cos_minpoly,
)
from linalg_oracles import char_poly
from pbp.algebraic import _Ball, _pi, two_cos_pi_over


def test_cyclotomic_small():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(10) == (1, -1, 1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", range(3, 40))
def test_two_cos_minpoly_has_the_right_root(n):
    poly = two_cos_minpoly(n)
    x = 2 * math.cos(2 * math.pi / n)
    assert abs(poly_eval(poly, x)) < 1e-7
    # degree phi(n)/2
    phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert len(poly) - 1 == phi // 2


def test_cos_pi_over_5_minpoly():
    # numeric root isolation confirms 4x^2 - 2x - 1 vanishes at cos(pi/5)
    poly = cos_pi_over_minpoly(5)
    assert poly == (-1, -2, 4)
    assert abs(poly_eval(poly, math.cos(math.pi / 5))) < 1e-12
    neg = poly_negate_variable(poly)
    assert neg == (-1, 2, 4)
    assert abs(poly_eval(neg, -math.cos(math.pi / 5))) < 1e-12


def test_rational_special_values():
    assert cos_pi_over_minpoly(2) == (0, 1)  # cos(pi/2) = 0
    assert cos_pi_over_minpoly(3) == (-1, 2)  # cos(pi/3) = 1/2
    assert cos_pi_over_minpoly(1) == (1, 1)  # cos(pi) = -1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 12, 15, 30])
def test_field_arithmetic_matches_floats(n):
    rng = random.Random(n)
    field = RealCyclotomicField(n)
    theta_f = 2 * math.cos(math.pi / n)

    def rand_elem():
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)]
        return field.element(coeffs)

    def to_float(e):
        return float(e)

    for _ in range(25):
        a, b = rand_elem(), rand_elem()
        assert math.isclose(to_float(a + b), to_float(a) + to_float(b), abs_tol=1e-9)
        assert math.isclose(to_float(a * b), to_float(a) * to_float(b), abs_tol=1e-9)
        if not a.is_zero():
            assert math.isclose(to_float(a * a.inverse()), 1.0, abs_tol=1e-9)
        sgn = a.sign()
        val = to_float(a)
        if abs(val) > 1e-9:
            assert sgn == (1 if val > 0 else -1)
    assert math.isclose(float(field.theta()), theta_f, abs_tol=1e-9)


def test_two_cos_pi_over_divisors():
    field = RealCyclotomicField(30)
    for m in (2, 3, 5, 6, 10, 15, 30):
        elem = field.two_cos_pi_over(m)
        assert math.isclose(float(elem), 2 * math.cos(math.pi / m), abs_tol=1e-9)
    with pytest.raises(ValueError):
        field.two_cos_pi_over(7)


def test_exact_zero_detection():
    field = RealCyclotomicField(5)
    g = field.two_cos_pi_over(5)  # golden ratio, satisfies x^2 = x + 1
    assert (g * g - g - 1).is_zero()
    assert (g * g - g).sign() == 1


def test_sqrt2_times_itself():
    field = RealCyclotomicField(4)
    r = field.theta()  # sqrt(2)
    assert (r * r).as_rational() == 2
    assert (r - 1).sign() == 1
    assert (r - 2).sign() == -1


def test_cyclotomic_matches_division_oracle():
    for n in range(1, 401):
        assert cyclotomic(n) == cyclotomic_by_division(n), n


def test_fields_of_equal_index_are_shared():
    a, b = RealCyclotomicField(7), RealCyclotomicField(7)
    assert a is b
    assert (a.theta() - b.theta()).is_zero()
    assert (a.two_cos_pi_over(7) * b.rational(2)).sign() == 1


@st.composite
def field_elements(draw):
    field = RealCyclotomicField(draw(st.integers(3, 300)))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=12),
            max_size=min(field.degree, 12),
        )
    )
    # spread the terms over the whole degree range
    step = max(1, field.degree // max(1, len(coeffs)))
    full = [Fraction(0)] * field.degree
    for i, c in enumerate(coeffs):
        full[(i * step) % field.degree] += c
    return field.element(full)


@settings(max_examples=80)
@given(field_elements())
def test_ball_sign_matches_bisection(x):
    assert x.sign() == bisection_sign(x)
    lo, hi = x.interval(Fraction(1, 2**70))
    assert hi - lo <= Fraction(1, 2**70)
    assert math.isclose(float(x), float(lo), rel_tol=1e-15, abs_tol=1e-17)
    with mp.workdps(100):  # the enclosure holds the value, by a 330-bit evaluation
        theta = 2 * mp.cos(mp.pi / x.field.n)
        value = sum(mp.mpf(c) * theta**i for i, c in enumerate(x.num)) / x.den
        tol = mp.mpf(2) ** -250
        assert mp.mpf(lo.numerator) / lo.denominator - tol <= value <= mp.mpf(hi.numerator) / hi.denominator + tol


# the golden ratio g to 80 bits: G80 < g < G80 + 2**-80
G80 = Fraction((2**80 + math.isqrt(5 * 2**160)) // 2, 2**80)


@settings(max_examples=30)
@given(st.integers(1, 24), st.sampled_from([-1, 0, 1]), st.integers(1, 7))
def test_ball_sign_at_and_near_exact_zeros(k, shift, power):
    field = RealCyclotomicField(5 * k)
    g = field.two_cos_pi_over(5)  # golden ratio, a polynomial of degree k in theta
    zero = g * g - g - 1
    assert zero.is_zero() and zero.sign() == 0
    tiny = (g - G80) * _power(field.theta(), power)  # 0 < tiny < 2**(power - 80)
    x = zero * field.theta() + tiny * shift
    assert x.is_zero() == (shift == 0)
    assert x.sign() == shift == bisection_sign(x)
    assert (zero + Fraction(shift, 2**80)).sign() == shift


def _power(x, k):
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


@settings(max_examples=60)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_berkowitz_matches_sympy_charpoly(rows):
    x = sympy.Symbol("x")
    expected = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]).charpoly(x)
    assert char_poly(rows) == tuple(Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs()))


# --- the integer-ball enclosures that pbp.coxeter uses ------------------------


@pytest.mark.parametrize("prec", [0, 1, 46, 47, 48, 64, 1000, 65_536])
def test_pi_enclosure_holds_the_value(prec):
    # the reference carries 64 bits beyond the ball's precision
    with mp.workprec(prec + 64):
        ball = _pi(prec)
        assert ball.prec == prec and ball.rad == 3
        value = mp.pi * mp.mpf(2) ** prec
        assert ball.mid - ball.rad + mp.mpf(2) ** -32 <= value <= ball.mid + ball.rad - mp.mpf(2) ** -32


@pytest.mark.parametrize("prec", [64, 128, 1024])
def test_two_cos_enclosure_holds_the_value(prec):
    # the reference carries 400 bits beyond the ball's precision, so its own
    # error is far below one unit of the ball
    with mp.workprec(prec + 400):
        tol = mp.mpf(2) ** -300
        for m in range(4, 251):
            ball = two_cos_pi_over(m, prec)
            assert ball.prec == prec and ball.rad <= 4, m
            value = 2 * mp.cos(mp.pi / m) * mp.mpf(2) ** prec
            assert ball.mid - ball.rad - tol <= value <= ball.mid + ball.rad + tol, m


def _points(ball):
    """Exact reals of the ball, as multiples of 2**-prec: both ends, the midpoint and two inside."""
    lo, hi = ball.mid - ball.rad, ball.mid + ball.rad
    return [Fraction(v) for v in (lo, hi, ball.mid)] + [lo + Fraction(k, 3) * (hi - lo) for k in (1, 2)]


def _encloses(ball, scaled):
    return ball.mid - ball.rad <= scaled <= ball.mid + ball.rad


def _balls(min_mid=-(1 << 80)):
    return st.builds(lambda mid, rad, prec: _Ball(mid, rad, prec),
                     st.integers(min_mid, 1 << 80), st.integers(0, 1 << 20), st.integers(0, 96))


@settings(max_examples=300)
@given(_balls(), _balls(), st.integers(-(1 << 40), 1 << 40))
def test_ball_division_encloses_every_exact_quotient(x, y, d):
    # x / y and y's precision made equal; the quotient of any two points of
    # the operands lies in the result, to the last unit
    y = _Ball(y.mid, y.rad, x.prec)
    if abs(y.mid) > y.rad:
        q = x / y
        assert q.prec == x.prec
        for a in _points(x):
            for b in _points(y):
                assert _encloses(q, a / b * 2**x.prec), (a, b)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if d:
        q = x / d
        assert all(_encloses(q, a / d) for a in _points(x))


@given(_balls(), st.integers(-(1 << 40), 1 << 40))
def test_integer_minus_ball_encloses_every_difference(x, k):
    diff = k - x
    assert diff.prec == x.prec
    assert all(_encloses(diff, (k << x.prec) - a) for a in _points(x))
    assert all(_encloses(x - k, a - (k << x.prec)) for a in _points(x))
