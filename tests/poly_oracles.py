"""Polynomial helpers for the test references: the extended Euclidean
algorithm over Q, which the Z[theta] field of ``cyclotomic_field`` and the
CRT idempotents of ``lie_oracles`` use."""

from fractions import Fraction
from typing import Sequence

from pbp.poly import poly_divmod, poly_mul, poly_sub, poly_trim


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
