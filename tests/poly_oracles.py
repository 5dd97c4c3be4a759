"""Polynomial helpers for the test references: long division over Q and
the extended Euclidean algorithm, which the Z[theta] field of
``cyclotomic_field``, the cyclotomic polynomials of ``algebraic_oracles`` and
the CRT idempotents of ``lie_oracles`` use.  ``poly_divmod`` is also the
Fraction reference for the integer exact division of ``pbp.poly``."""

from fractions import Fraction
from typing import Sequence

from pbp.poly import poly_mul, poly_sub, poly_trim


def poly_divmod_monic(p: Sequence, d: Sequence) -> tuple[tuple, tuple]:
    """Divide by a monic divisor; exact over the coefficient ring."""
    assert d and d[-1] == 1
    rem = list(p)
    deg_d = len(d) - 1
    low = d[:-1]
    quot = [0] * max(len(p) - deg_d, 0)
    for i in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[i]
        if c:
            k = i - deg_d
            quot[k] = c
            rem[k:i] = [r - c * b for r, b in zip(rem[k:i], low)]
    return poly_trim(quot), poly_trim(rem[:deg_d])


def poly_divmod(p: Sequence, d: Sequence) -> tuple[tuple, tuple]:
    """Quotient and remainder over Q, as Fractions."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    lead = Fraction(d[-1])
    monic = [Fraction(c) / lead for c in d]
    quot, rem = poly_divmod_monic([Fraction(c) for c in p], monic)
    return tuple(c / lead for c in quot), rem


def poly_gcdext(a: Sequence, b: Sequence) -> tuple[tuple, tuple, tuple]:
    """(g, u, v) with u a + v b = g, g the monic gcd over Q."""
    r0, r1 = poly_trim(a), poly_trim(b)
    u0, u1, v0, v1 = (Fraction(1),), (), (), (Fraction(1),)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1))
    if r0:
        lead = Fraction(r0[-1])
        r0, u0, v0 = (tuple(c / lead for c in p) for p in (r0, u0, v0))
    return r0, u0, v0
