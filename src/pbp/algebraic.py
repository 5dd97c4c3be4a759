"""Certified integer-ball enclosures of 2 cos(pi/m).

A ball at precision p is a pair of integers (mid, rad) with rad >= 0; it
stands for every real within rad / 2**p of mid / 2**p.  Ring operations on
balls round the midpoint down and widen the radius by the rounding error, so
the result always contains the exact result of the operation on any points
of the operands (Johansson, "Arb", IEEE Trans. Comput. 66, 2017).  Integers
combine with balls exactly.

pi comes from Machin's formula and 2 cos(pi/m) from a Taylor series with an
explicit remainder, after halving the argument and before doubling it back
(Brent, J. ACM 23, 1976).  No floating point is involved.
"""

from __future__ import annotations

import math
from functools import lru_cache


class _Ball:
    """The reals within rad / 2**prec of mid / 2**prec."""

    __slots__ = ("mid", "rad", "prec")

    def __init__(self, mid: int, rad: int, prec: int):
        self.mid, self.rad, self.prec = mid, rad, prec

    def __add__(self, other):
        if isinstance(other, int):
            return _Ball(self.mid + (other << self.prec), self.rad, self.prec)
        return _Ball(self.mid + other.mid, self.rad + other.rad, self.prec)

    __radd__ = __add__

    def __neg__(self):
        return _Ball(-self.mid, self.rad, self.prec)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            return _Ball(self.mid * other, self.rad * abs(other), self.prec)
        err = abs(self.mid) * other.rad + abs(other.mid) * self.rad + self.rad * other.rad
        # flooring the midpoint costs under one unit, the radius's ceiling one more
        return _Ball(self.mid * other.mid >> self.prec, (err >> self.prec) + 2, self.prec)

    __rmul__ = __mul__

    def __truediv__(self, d: int):
        """The ball around x / d, for an integer d > 0."""
        return _Ball(self.mid // d, -(-self.rad // d) + 1, self.prec)

    def rounded(self, prec: int) -> "_Ball":
        """The same enclosure at a precision prec <= self.prec."""
        shift = self.prec - prec
        return _Ball(self.mid >> shift, (self.rad >> shift) + 2, prec)

    def sign(self) -> int:
        """1 or -1 when the ball excludes 0, else 0."""
        if self.mid > self.rad:
            return 1
        return -1 if -self.mid > self.rad else 0

    def below(self, base: int, exponent: int) -> bool:
        """Whether every x in the ball has x**2 < base**-exponent, for integers
        base >= 1 and exponent >= 0."""
        top = abs(self.mid) + self.rad
        # top**2 * base**exponent >= 2**bits; when that settles the answer the
        # power, which can be far larger than the ball, is never formed
        bits = 2 * (top.bit_length() - 1) + (base.bit_length() - 1) * exponent
        return not top or (bits < 2 * self.prec and top * top * base**exponent < 1 << 2 * self.prec)


def _atan_inverse(q: int, prec: int) -> _Ball:
    """atan(1/q) for an integer q >= 2, by its alternating Taylor series.

    ``power`` is exactly floor(2**prec / q**(2k+1)) and each term its floor
    over 2k+1, so each of the k terms errs by under one unit, and the series
    stops once the next term is below one unit.
    """
    power, total, k = (1 << prec) // q, 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= q * q
        k += 1
    return _Ball(total, k + 1, prec)


@lru_cache(maxsize=16)
def _pi(prec: int) -> _Ball:
    """pi by Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239)."""
    return 16 * _atan_inverse(5, prec) - 4 * _atan_inverse(239, prec)


@lru_cache(maxsize=256)
def two_cos_pi_over(m: int, prec: int) -> _Ball:
    """A ball at precision ``prec`` around 2 cos(pi/m), for an integer m >= 1.

    cos y is summed for y = pi / (m 2**s) up to the first term whose ball
    holds 0; that term bounds the alternating remainder, as y < 1.  Then
    s steps of cos 2y = 2 cos(y)**2 - 1 double the argument back.  Each step
    may lose two bits, which the working precision sets aside.
    """
    s = 2 + math.isqrt(prec) // 2
    work = prec + 2 * s + 16
    y2 = _pi(work) / (m << s)
    y2 = y2 * y2
    term = _Ball(1 << work, 0, work)
    total, k = term, 0
    while term.sign():
        k += 2
        term = -(term * y2) / (k * (k - 1))
        total = total + term
    total = _Ball(total.mid, total.rad + abs(term.mid) + term.rad, work)
    for _ in range(s):
        total = 2 * (total * total) - 1
    return (2 * total).rounded(prec)
