"""Factorization over Q against sympy's factor_list, which is the oracle, and
the integer exact division against the Fraction long division of
``poly_oracles``."""

from fractions import Fraction
from math import gcd, lcm, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pbp.poly import _div_exact_z, _primitive, factor_over_q, poly_mul, poly_trim, squarefree_part
from poly_oracles import poly_divmod


def order_key(factor):
    """The order ``factor_over_q`` documents: degree, then the primitive
    integer coefficients of the factor read from the top."""
    den = lcm(*(c.denominator for c in factor))
    ints = [int(c * den) for c in factor]
    g = gcd(*ints)
    return len(factor), tuple(c // g for c in reversed(ints))


def sympy_factors(coeffs):
    """sympy's distinct monic irreducible factors, in the documented order."""
    x = sympy.Symbol("x")
    expr = sympy.Add(*[sympy.Rational(Fraction(c)) * x**i for i, c in enumerate(coeffs)])
    _, factors = sympy.factor_list(sympy.Poly(expr, x, domain="QQ"))
    out = []
    for poly, _mult in factors:
        cs = [Fraction(sympy.Rational(c)) for c in reversed(poly.all_coeffs())]
        out.append(tuple(c / cs[-1] for c in cs))
    return sorted(out, key=order_key)


def monic(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(c / cs[-1] for c in cs)


def rebuilt(factors):
    out = (Fraction(1),)
    for f in factors:
        out = poly_mul(out, f)
    return out


rationals = st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**9)


@st.composite
def products(draw):
    """Products of small random factors, some repeated, of degree <= 12."""
    coeffs = (Fraction(draw(rationals)) or Fraction(1),)
    while True:
        deg = draw(st.integers(1, 4))
        factor = tuple(draw(st.lists(st.integers(-30, 30), min_size=deg, max_size=deg))) + (
            draw(st.integers(1, 9)),
        )
        mult = draw(st.integers(1, 3))
        if len(coeffs) - 1 + deg * mult > 12:
            return coeffs
        for _ in range(mult):
            coeffs = poly_mul(coeffs, factor)
        if draw(st.booleans()):
            return coeffs


@settings(max_examples=150)
@given(st.one_of(products(), st.lists(rationals, min_size=1, max_size=13)))
def test_factor_over_q_matches_sympy(coeffs):
    got = factor_over_q(coeffs)
    assert got == sympy_factors(coeffs)
    if len(poly_trim(coeffs)) > 1:
        assert rebuilt(got) == monic(squarefree_part(coeffs))


def power(q, k):
    out = (1,)
    for _ in range(k):
        out = poly_mul(out, q)
    return out


@st.composite
def repeated_products(draw):
    """(p q^k, p q): a product with a factor q repeated k = 2 or 3 times, and
    the same product with q once."""
    q = tuple(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))) + (draw(st.integers(1, 5)),)
    once = poly_mul(draw(products()), q)
    return poly_mul(once, power(q, draw(st.integers(1, 2)))), once


@settings(max_examples=80, deadline=None)
@given(repeated_products())
def test_factor_over_q_drops_multiplicities(case):
    """A repeated factor is returned once, in the documented order: the
    factors of p q^k are sympy's distinct ones and those of p q."""
    repeated, once = case
    got = factor_over_q(repeated)
    assert got == sympy_factors(repeated) == factor_over_q(once)


@settings(max_examples=60)
@given(products())
def test_squarefree_part_is_the_product_of_distinct_factors(coeffs):
    if len(coeffs) > 1:
        part = squarefree_part(coeffs)
        assert all(type(c) is int for c in part)
        assert monic(part) == rebuilt(sympy_factors(coeffs))


SWINNERTON_DYER_2_3 = (1, 0, -10, 0, 1)  # irreducible over Q, splits modulo every prime


@pytest.mark.parametrize(
    "coeffs",
    [
        (7,),
        (Fraction(3, 4), Fraction(-2, 5)),
        (0, 0, 0, 0, 0, 1),
        poly_mul(poly_mul((1, 0, 1), poly_mul((1, 0, 1), (1, 0, 1))), (-2, 1)),
        (1, 0, -1, 0, 1),  # the 12th cyclotomic polynomial
        poly_mul((2, 1), (1, 2)),  # (x + 2)(2x + 1): ties on degree
        SWINNERTON_DYER_2_3,
        poly_mul(SWINNERTON_DYER_2_3, (1, 0, -2)),
        poly_mul((1, 0, -5, 0, 1), poly_mul(SWINNERTON_DYER_2_3, (3, 0, 0, 1))),
        tuple(prod(range(1, k + 1)) * (-1) ** k for k in range(13)),
    ],
)
def test_factor_over_q_fixed_cases(coeffs):
    got = factor_over_q(coeffs)
    assert got == sympy_factors(coeffs)
    assert rebuilt(got) == (monic(squarefree_part(coeffs)) if len(coeffs) > 1 else (1,))


def test_recombination_keeps_swinnerton_dyer_whole():
    assert factor_over_q(SWINNERTON_DYER_2_3) == [tuple(map(Fraction, SWINNERTON_DYER_2_3))]


# --- exact division in Z[x] -----------------------------------------------------

int_polys = st.lists(st.integers(-40, 40), min_size=1, max_size=7).map(poly_trim).filter(bool)


def div_exact_oracle(f, g):
    """f / g by Fraction long division, when the quotient is integral and exact."""
    q, r = poly_divmod(f, g)
    if r or any(c.denominator != 1 for c in q):
        return None
    return tuple(int(c) for c in q)


@settings(max_examples=300)
@given(int_polys, int_polys, st.sampled_from(["pair", "product", "primitive product"]))
def test_div_exact_z_matches_fraction_division(f, g, kind):
    """On random pairs, which rarely divide, on products g h, which do, and on
    primitive parts of products, whose quotient may not be integral."""
    h = f
    if kind == "product":
        f = poly_mul(g, h)
    elif kind == "primitive product":
        f = _primitive(poly_mul(g, h))
    got = _div_exact_z(f, g)
    assert got == div_exact_oracle(f, g)
    if kind == "product":
        assert got == h
