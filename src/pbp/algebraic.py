"""Certified integer-ball enclosures of 2 cos(pi/m).

A ball at precision p is a pair of integers (mid, rad) with rad >= 0; it
stands for every real within rad / 2**p of mid / 2**p.  Ring operations on
balls round the midpoint down and widen the radius by the rounding error, so
the result always contains the exact result of the operation on any points
of the operands (Johansson, "Arb", IEEE Trans. Comput. 66, 2017).  Integers
combine with balls exactly.  Division rounds outward too: by a nonzero
integer, or by a ball that excludes 0.

pi comes from the Chudnovsky series summed by binary splitting (Haible
and Papanikolaou, 1998) and 2 cos(pi/m) from a Taylor series with an
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
        if isinstance(other, int):
            return _Ball(self.mid - (other << self.prec), self.rad, self.prec)
        return _Ball(self.mid - other.mid, self.rad + other.rad, self.prec)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _Ball(self.mid * other, self.rad * abs(other), self.prec)
        err = abs(self.mid) * other.rad + abs(other.mid) * self.rad + self.rad * other.rad
        # flooring the midpoint costs under one unit, the radius's ceiling one more
        return _Ball(self.mid * other.mid >> self.prec, (err >> self.prec) + 2, self.prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The ball around x / y, for an integer y != 0 or a ball y that excludes 0."""
        if isinstance(other, int):
            return _Ball(self.mid // other, -(-self.rad // abs(other)) + 1, self.prec)
        m = abs(other.mid)
        if m <= other.rad:
            raise ZeroDivisionError("division by a ball that holds 0")
        # |x/y - mx/my| <= (rx |my| + ry |mx|) / ((|my| - ry) |my|) for every x
        # and y in the balls; flooring the midpoint costs under one unit more
        err = (self.rad * m + other.rad * abs(self.mid)) << self.prec
        return _Ball((self.mid << self.prec) // other.mid, -(-err // ((m - other.rad) * m)) + 1, self.prec)

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


_C3_OVER_24 = 640320**3 // 24


def _chudnovsky(a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) for terms a..b-1 of the Chudnovsky series, by binary splitting.

    Term k is t_k = (-1)^k L(k) prod_{j=1..k} p(j) / q(j), with L(k) =
    13591409 + 545140134 k, p(j) = (6j-5)(2j-1)(6j-1), q(j) = j^3 C^3 / 24
    and C = 640320.  P and Q are the products of p(j) and q(j) over
    a <= j < b, taking p(0) = q(0) = 1, and T / Q is the sum over a <= k < b
    of (-1)^k L(k) prod_{j=a..k} p(j) / q(j): the sum of those t_k for a = 0.
    """
    if b - a == 1:
        p, q = ((6 * a - 5) * (2 * a - 1) * (6 * a - 1), a**3 * _C3_OVER_24) if a else (1, 1)
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a % 2 else t
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, m)
    p2, q2, t2 = _chudnovsky(m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


@lru_cache(maxsize=16)
def _pi(prec: int) -> _Ball:
    """pi = 426880 sqrt(10005) / S, S the sum of the Chudnovsky series.

    p(j) / q(j) < 1728 / C^3 < 2^-47 and L(k + 1) / L(k) < 42, so every
    |t_(k+1) / t_k| is below 2^-41 and |t_k| < L(k) 2^(-47 k) <
    2^30 (k + 1) 2^(-47 k).  The first N terms thus miss S by under 2 |t_N|;
    as S > 2^23 and pi < 4, that moves pi by under 2^10 (N + 1) 2^(-47 N),
    at most one unit once 47 N >= prec + 10 + log2(N + 1), as for the N
    below.  Flooring sqrt(10005) costs under 426880 / S < 0.06 units and
    the final floor under one more.
    """
    n = (prec + 10 + prec.bit_length()) // 47 + 1
    _, q, t = _chudnovsky(0, n)
    root = math.isqrt(10005 << 2 * prec)
    return _Ball(426880 * root * q // t, 3, prec)


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
