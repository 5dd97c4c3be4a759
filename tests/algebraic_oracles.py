"""Slow reference implementations that the tests compare the Z[theta] oracle
(``cyclotomic_field``) against.

``cyclotomic_by_division`` divides x^n - 1 by every proper cyclotomic factor;
``bisection_sign`` isolates theta = 2 cos(pi/N) in an interval with Fraction
endpoints, certified by an exact sign change of the minimal polynomial, and
bisects it until interval evaluation of the element excludes zero;
``poly_eval`` is Horner's rule.
"""

import math
from fractions import Fraction
from functools import lru_cache

from poly_oracles import poly_divmod_monic

_SEED_WIDTH = Fraction(1, 10**12)
_MAX_BISECTIONS = 400


@lru_cache(maxsize=None)
def cyclotomic_by_division(n):
    if n == 1:
        return (-1, 1)
    poly = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = poly_divmod_monic(poly, cyclotomic_by_division(d))
            assert not rem
    return tuple(int(c) for c in poly)


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _imul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def interval_eval(coeffs, lo, hi):
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        acc = _imul(acc, (lo, hi))
        acc = (acc[0] + c, acc[1] + c)
    return acc


def bisection_sign(x):
    """Sign of a CycloNumber by interval bisection on theta."""
    field = x.field
    coeffs = [Fraction(c, x.den) for c in x.num]
    if len(coeffs) <= 1:
        return (coeffs[0] > 0) - (coeffs[0] < 0) if coeffs else 0
    modulus = field.modulus
    approx = Fraction(2 * math.cos(math.pi / field.n)).limit_denominator(10**15)
    lo, hi = approx - _SEED_WIDTH, approx + _SEED_WIDTH
    sign_lo = 1 if poly_eval(modulus, lo) > 0 else -1
    assert poly_eval(modulus, hi) * sign_lo < 0, "seed does not isolate theta"
    for _ in range(_MAX_BISECTIONS):
        vlo, vhi = interval_eval(coeffs, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        mid = (lo + hi) / 2
        if (1 if poly_eval(modulus, mid) > 0 else -1) == sign_lo:
            lo = mid
        else:
            hi = mid
    raise AssertionError("bisection did not resolve the sign")
