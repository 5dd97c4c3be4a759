"""Factorization over Q against sympy's factor_list, which is the oracle."""

from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pbp.poly import factor_over_q, poly_mul, squarefree_part


def sympy_factors(coeffs):
    """Monic factors and multiplicities in sympy's factor_list order."""
    x = sympy.Symbol("x")
    expr = sympy.Add(*[sympy.Rational(Fraction(c)) * x**i for i, c in enumerate(coeffs)])
    _, factors = sympy.factor_list(sympy.Poly(expr, x, domain="QQ"))
    out = []
    for poly, mult in factors:
        cs = [Fraction(sympy.Rational(c)) for c in reversed(poly.all_coeffs())]
        out.append((tuple(c / cs[-1] for c in cs), int(mult)))
    return out


def monic(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(c / cs[-1] for c in cs)


def rebuilt(factors):
    out = (Fraction(1),)
    for f, mult in factors:
        for _ in range(mult):
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
    expected = sympy_factors(coeffs)
    got = factor_over_q(coeffs)
    assert got == expected
    if any(coeffs):
        assert rebuilt(got) == monic(coeffs)


@settings(max_examples=60)
@given(products())
def test_squarefree_part_is_the_product_of_distinct_factors(coeffs):
    if len(coeffs) > 1:
        part = squarefree_part(coeffs)
        assert all(type(c) is int for c in part)
        assert monic(part) == rebuilt((f, 1) for f, _mult in sympy_factors(coeffs))


SWINNERTON_DYER_2_3 = (1, 0, -10, 0, 1)  # irreducible over Q, splits modulo every prime


@pytest.mark.parametrize(
    "coeffs",
    [
        (7,),
        (Fraction(3, 4), Fraction(-2, 5)),
        (0, 0, 0, 0, 0, 1),
        poly_mul(poly_mul((1, 0, 1), poly_mul((1, 0, 1), (1, 0, 1))), (-2, 1)),
        (1, 0, -1, 0, 1),  # the 12th cyclotomic polynomial
        poly_mul((2, 1), (1, 2)),  # (x + 2)(2x + 1): ties on degree and multiplicity
        SWINNERTON_DYER_2_3,
        poly_mul(SWINNERTON_DYER_2_3, (1, 0, -2)),
        poly_mul((1, 0, -5, 0, 1), poly_mul(SWINNERTON_DYER_2_3, (3, 0, 0, 1))),
        tuple(prod(range(1, k + 1)) * (-1) ** k for k in range(13)),
    ],
)
def test_factor_over_q_fixed_cases(coeffs):
    got = factor_over_q(coeffs)
    assert got == sympy_factors(coeffs)
    assert rebuilt(got) == monic(coeffs)


def test_recombination_keeps_swinnerton_dyer_whole():
    assert factor_over_q(SWINNERTON_DYER_2_3) == [(tuple(map(Fraction, SWINNERTON_DYER_2_3)), 1)]
