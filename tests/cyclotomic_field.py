"""The exact real cyclotomic field Q(theta), theta = 2 cos(pi/N): the test oracle
for Coxeter signatures.

Arithmetic happens in Q(theta).  An element is an integer polynomial in
theta, reduced modulo the monic integer minimal polynomial of theta, over one
positive denominator: products are integer convolutions, and equality with
zero is a syntactic check on the reduced polynomial.  Signs are certified by
ball evaluation over a cached fixed-point enclosure of the powers of theta.
Newton's method refines the enclosure of theta, and an outward-rounded sign
change of the minimal polynomial inside a seed interval that isolates theta
certifies it.  Floating point only places the seed, which is certified by a
sign change as well.  ``zeta_signature`` reads the signature of a Coxeter
matrix's form from a Berkowitz characteristic polynomial over Z[theta];
``berkowitz_signature`` reads it from the same polynomial over the integer
balls of ``pbp.algebraic``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from pbp.algebraic import two_cos_pi_over
from pbp.coxeter import _degree_bound, _NegCos
from linalg_oracles import char_poly
from pbp.poly import poly_mul, poly_scale, poly_trim
from poly_oracles import poly_divmod_monic, poly_gcdext

MAX_FIELD_INDEX = 10_000  # root gaps of the minimal polynomial stay >> seed width
_SEED_BITS = 40  # the seed interval is theta's float value +- 2**-40


class PrecisionExhausted(Exception):
    """Sign certification failed to converge; indicates a bug upstream."""


# ---------------------------------------------------------------------------
# minimal polynomials


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial.

    Phi_n(x) is the product over d | n of (x^d - 1)^mu(n/d): multiply by the
    binomials with mu = +1, then divide exactly by those with mu = -1.
    """
    primes = _prime_factors(n)
    up, down = [], []
    for mask in range(1 << len(primes)):
        e = math.prod(p for k, p in enumerate(primes) if mask >> k & 1)
        (down if bin(mask).count("1") % 2 else up).append(n // e)
    poly = [1]
    for d in up:  # times x^d - 1
        out = [-c for c in poly] + [0] * d
        for i, c in enumerate(poly):
            out[i + d] += c
        poly = out
    for d in down:  # over x^d - 1: poly[j] = quot[j - d] - quot[j]
        quot: list[int] = []
        for j in range(len(poly) - d):
            quot.append((quot[j - d] if j >= d else 0) - poly[j])
        assert all(poly[j] == quot[j - d] for j in range(len(quot), len(poly)))
        poly = quot
    return tuple(poly)


def two_cos_minpoly(n: int) -> tuple[int, ...]:
    """Minimal polynomial of 2 cos(2 pi / n), monic with integer coefficients.

    For n >= 3 the n-th cyclotomic polynomial is palindromic of even degree
    2m and factors as x^m * f(x + 1/x); peeling leading terms recovers f.
    Only the upper half of the coefficients is ever read, so only it is
    updated, with binomials carried along each row.
    """
    if n == 1:
        return (-2, 1)
    if n == 2:
        return (2, 1)
    phi = list(cyclotomic(n))
    m = (len(phi) - 1) // 2
    coeffs = [0] * (m + 1)
    for k in range(m, -1, -1):
        a = phi[m + k]
        coeffs[k] = a
        if a:
            binom = 1  # C(k, j)
            for j in range(k // 2 + 1):
                phi[m + k - 2 * j] -= a * binom
                binom = binom * (k - j) // (j + 1)
    assert not any(phi[m:]), "palindromic transform must terminate exactly"
    return tuple(coeffs)


def cos_pi_over_minpoly(m: int) -> tuple[int, ...]:
    """Primitive integer minimal polynomial of cos(pi/m), m >= 1."""
    psi = two_cos_minpoly(2 * m)
    scaled = poly_trim([c * 2**i for i, c in enumerate(psi)])  # psi(2x)
    g = math.gcd(*(abs(c) for c in scaled))
    out = tuple(c // g for c in scaled)
    return out if out[-1] > 0 else tuple(-c for c in out)


def poly_negate_variable(p: Sequence) -> tuple:
    """p(-x), sign-normalized to a positive leading coefficient."""
    out = tuple(c if i % 2 == 0 else -c for i, c in enumerate(p))
    return out if out[-1] > 0 else tuple(-c for c in out)


# ---------------------------------------------------------------------------
# fixed-point evaluation


def _horner_box(poly: Sequence[int], x: int, bits: int, work: int) -> tuple[int, int]:
    """Integers lo <= hi enclosing 2**work * poly(x / 2**bits), for x >= 0.

    Horner's rule with each product rounded outward to a multiple of
    2**-work; with x >= 0 the products preserve order, so the enclosure holds.
    """
    lo = hi = poly[-1] << work
    for c in reversed(poly[:-1]):
        lo = (lo * x >> bits) + (c << work)
        hi = -(-hi * x >> bits) + (c << work)
    return lo, hi


def _fixed_sign(poly: Sequence[int], x: int, bits: int) -> int:
    """Certified sign of poly(x / 2**bits) for x >= 0; 0 if it did not settle."""
    # x < 2 here, so each Horner step at most doubles the rounding error so far
    extra = len(poly) + 64
    for _ in range(8):
        lo, hi = _horner_box(poly, x, bits, bits + extra)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        extra *= 2
    return 0


# ---------------------------------------------------------------------------
# the working field Q(2 cos(pi / N))


class _OnePerIndex(type):
    """``RealCyclotomicField(n)`` returns one shared field per index.

    Elements made from two calls with the same index then combine, and each
    minimal polynomial and enclosure of theta is computed once per process;
    the cache is bounded.
    """

    @lru_cache(maxsize=64)
    def __call__(cls, n):
        return super().__call__(n)


class RealCyclotomicField(metaclass=_OnePerIndex):
    """Q(theta) for theta = 2 cos(pi/N), with a certified enclosure of theta."""

    def __init__(self, n: int):
        if not (1 <= n <= MAX_FIELD_INDEX):
            raise ValueError(f"field index must be in 1..{MAX_FIELD_INDEX}")
        self.n = n
        self.modulus = two_cos_minpoly(2 * n)
        self.degree = len(self.modulus) - 1
        # (prec, lows, highs): lows[i] <= 2**prec * theta**i <= highs[i]
        self._powers_box: tuple[int, list[int], list[int]] = (0, [], [])
        # for n <= 3 theta is rational and every element reduces to a
        # rational; otherwise theta >= sqrt(2) > 0, which the fixed-point
        # evaluation relies on
        if self.degree > 1:
            self._seed = self._certified_seed()

    def _certified_seed(self) -> tuple[int, int]:
        """Integers lo < hi such that theta is the only root of the modulus in
        (lo, hi) / 2**_SEED_BITS.

        Distinct roots of the modulus lie more than 2**-21 apart for every
        allowed index, so an interval of width 2**-39 holds at most one of
        them, and a sign change across it shows it holds theta.
        """
        mid = round(2 * math.cos(math.pi / self.n) * 2**_SEED_BITS)
        lo, hi = mid - 1, mid + 1
        if _fixed_sign(self.modulus, lo, _SEED_BITS) * _fixed_sign(self.modulus, hi, _SEED_BITS) != -1:
            raise PrecisionExhausted(f"could not isolate 2 cos(pi/{self.n})")
        return lo, hi

    def _newton(self, bits: int) -> int:
        """An integer within a few units of 2**bits * theta, by Newton's method
        in fixed point from the seed (not itself certified)."""
        f = self.modulus
        df = [i * c for i, c in enumerate(f)][1:]
        # the modulus has coefficients up to ~2**degree and theta**i up to
        # 2**i, so its value near theta cancels about 2 * degree bits
        work = bits + 2 * self.degree + 64
        x = (self._seed[0] + 1) << (work - _SEED_BITS)
        for _ in range(64):
            step = (_horner_box(f, x, work, work)[0] << work) // _horner_box(df, x, work, work)[0]
            x -= step
            if abs(step) >> (work - bits) == 0:
                return x >> (work - bits)
        raise PrecisionExhausted(f"Newton's method did not converge for 2 cos(pi/{self.n})")

    def _theta_box(self, bits: int) -> tuple[int, int]:
        """Integers lo < hi with lo < 2**bits * theta < hi, certified."""
        x = self._newton(bits)
        lo, hi = x - 4, x + 4
        shift = bits - _SEED_BITS
        inside = self._seed[0] << shift < lo and hi < self._seed[1] << shift
        if not inside or _fixed_sign(self.modulus, lo, bits) * _fixed_sign(self.modulus, hi, bits) != -1:
            raise PrecisionExhausted(f"could not certify 2 cos(pi/{self.n}) to {bits} bits")
        return lo, hi

    def _powers(self, bits: int) -> tuple[int, list[int], list[int]]:
        """(prec, lows, highs) with prec >= bits and lows[i] <= 2**prec * theta**i <= highs[i]."""
        box = self._powers_box
        if box[0] < bits:
            prec = max(bits, 2 * box[0])
            t_lo, t_hi = self._theta_box(prec)
            lows, highs = [1 << prec], [1 << prec]
            for _ in range(1, self.degree):
                lows.append(lows[-1] * t_lo >> prec)
                highs.append(-(-highs[-1] * t_hi >> prec))
            box = self._powers_box = (prec, lows, highs)
        return box

    def _ball(self, num: tuple, done: Callable[[int, int, int], bool]) -> tuple[int, int, int]:
        """(lo, hi, prec) with lo <= 2**prec * sum(num[i] theta**i) <= hi and
        ``done(lo, hi, prec)`` true.

        The precision starts from the size of the coefficients and doubles
        while ``done`` is false.  A nonzero element's norm is a nonzero
        integer, so its value exceeds 2**-((degree - 1) * (size + degree));
        past that precision every sign is settled.
        """
        d = self.degree
        size = max(abs(c) for c in num).bit_length()
        bits = size + d + 2 * d.bit_length() + 64
        cap = d * (size + d + 2 * d.bit_length() + 8)
        while True:
            prec, lows, highs = self._powers(bits)
            lo = sum(c * (l if c > 0 else h) for c, l, h in zip(num, lows, highs))
            hi = sum(c * (h if c > 0 else l) for c, l, h in zip(num, lows, highs))
            if done(lo, hi, prec):
                return lo, hi, prec
            if prec > cap:
                raise PrecisionExhausted(f"enclosure in Q(2 cos(pi/{self.n})) did not settle")
            bits = 2 * prec

    def element(self, coeffs: Sequence[Fraction]) -> "CycloNumber":
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        return CycloNumber(self, [c.numerator * (den // c.denominator) for c in fracs], den)

    def rational(self, value) -> "CycloNumber":
        v = Fraction(value)
        return CycloNumber(self, (v.numerator,), v.denominator)

    def theta(self) -> "CycloNumber":
        return CycloNumber(self, (0, 1))

    def two_cos_pi_over(self, m: int) -> "CycloNumber":
        """2 cos(pi/m) as a field element; m must divide N."""
        if self.n % m:
            raise ValueError(f"{m} does not divide the field index {self.n}")
        # Dickson recurrence on integer polynomials, reduced once at the end:
        # D_0 = 2, D_1 = x, D_{j+1} = x D_j - D_{j-1}, with D_j(2 cos a) = 2 cos(j a)
        prev, cur = [2], [0, 1]
        for _ in range(self.n // m - 1):
            nxt = [0] + cur
            for i, c in enumerate(prev):
                nxt[i] -= c
            prev, cur = cur, nxt
        return CycloNumber(self, cur)

    def _reduce(self, coeffs: Sequence[int]) -> tuple:
        if len(coeffs) <= self.degree:
            return poly_trim(coeffs)
        return poly_divmod_monic(coeffs, self.modulus)[1]

    def __repr__(self):
        return f"RealCyclotomicField(2 cos(pi/{self.n}))"


def _combine(p: Sequence[int], s: int, q: Sequence[int], t: int) -> list[int]:
    """s * p + t * q, coefficientwise."""
    if len(p) < len(q):
        p, s, q, t = q, t, p, s
    return [s * a + t * b for a, b in zip(p, q)] + [s * a for a in p[len(q) :]]


class CycloNumber:
    """Element (sum num[i] theta**i) / den of a RealCyclotomicField.

    ``num`` is reduced modulo the minimal polynomial and trimmed, ``den`` is
    positive and the two are in lowest terms, so equal elements are equal
    tuples.  Supports exact ring and sign operations.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: RealCyclotomicField, num: Sequence[int], den: int = 1):
        num = field._reduce(num)
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
        self.field, self.num, self.den = field, num, den

    def _coerce(self, other) -> "CycloNumber":
        if isinstance(other, CycloNumber):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.rational(other)

    def _plus(self, o: "CycloNumber", sign: int) -> "CycloNumber":
        if self.den == o.den:
            return CycloNumber(self.field, _combine(self.num, 1, o.num, sign), self.den)
        num = _combine(self.num, o.den, o.num, sign * self.den)
        return CycloNumber(self.field, num, self.den * o.den)

    def __add__(self, other):
        return self._plus(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.field, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other):
        return self._coerce(other)._plus(self, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        return CycloNumber(self.field, poly_mul(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if not o.is_rational():
            return self * o.inverse()
        if not o.num:
            raise ZeroDivisionError("division by zero field element")
        # dividing by a / b scales: multiply by b, divide by a
        a = o.num[0]
        scale = o.den if a > 0 else -o.den
        return CycloNumber(self.field, [c * scale for c in self.num], self.den * abs(a))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self) -> "CycloNumber":
        if not self.num:
            raise ZeroDivisionError("inverse of zero field element")
        gcd, u, _ = poly_gcdext(self.num, self.field.modulus)
        assert gcd == (1,), "modulus must be irreducible"
        return self.field.element(poly_scale(u, self.den))

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return len(self.num) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    def sign(self) -> int:
        if self.is_rational():
            return (self.num[0] > 0) - (self.num[0] < 0) if self.num else 0
        lo, _, _ = self.field._ball(self.num, lambda lo, hi, prec: lo > 0 or hi < 0)
        return 1 if lo > 0 else -1

    def interval(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """A certified enclosure of this element, at most ``width`` wide."""
        width = Fraction(width)
        if self.is_rational():
            v = self.as_rational()
            return (v - width / 2, v + width / 2)
        lo, hi, prec = self.field._ball(
            self.num, lambda lo, hi, prec: Fraction(hi - lo, self.den << prec) < width
        )
        return (Fraction(lo, self.den << prec), Fraction(hi, self.den << prec))

    def __float__(self):
        if self.is_rational():
            return float(self.as_rational())
        lo, hi = self.interval(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((id(self.field), self.num, self.den))

    def __repr__(self):
        return f"CycloNumber({self.num!r} / {self.den} @ pi/{self.field.n})"


# ---------------------------------------------------------------------------
# the signature of a Coxeter matrix's form, computed in Z[theta]


def zeta_signature(matrix) -> tuple[int, int, int]:
    """(p, q, r) of the form -cos(pi/m[i][j]) of a ``pbp.coxeter.CoxeterMatrix``.

    The entries are elements of one field Q(2 cos(pi/N)), N the lcm of the
    irrational labels; chi(x) = det(xI - sB), s the lcm of the entry
    denominators, has coefficients in Z[theta], and Descartes' rule reads
    the signature off their exact signs.
    """
    n = matrix.n
    values = {1: Fraction(1), 2: Fraction(0), 3: Fraction(-1, 2), math.inf: Fraction(-1)}
    labels = {int(m) for row in matrix.entries for m in row if m not in values}
    if labels:
        field = RealCyclotomicField(math.lcm(*labels))
        values = {m: field.rational(v) for m, v in values.items()}
        values.update({m: -field.two_cos_pi_over(m) / 2 for m in labels})
    rows = [[values[1 if i == j else matrix.m(i, j)] for j in range(n)] for i in range(n)]
    scale = math.lcm(*(v.den if isinstance(v, CycloNumber) else v.denominator for row in rows for v in row))
    chi = char_poly([[v * scale if isinstance(v, CycloNumber) else int(v * scale) for v in row] for row in rows])
    signs = [c.sign() if isinstance(c, CycloNumber) else (c > 0) - (c < 0) for c in chi]

    def changes(seq):
        nonzero = [s for s in seq if s]
        return sum(a != b for a, b in zip(nonzero, nonzero[1:]))

    r = next(k for k, s in enumerate(signs) if s)
    return changes(signs), changes([s if k % 2 == 0 else -s for k, s in enumerate(signs)]), r


# ---------------------------------------------------------------------------
# the signature of a form from its characteristic polynomial on integer balls


def _sign_changes(signs: list[int]) -> int:
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def berkowitz_signature(form) -> tuple[int, int, int]:
    """(p, q, r) of a ``pbp.coxeter.SymmetricForm``, by Descartes' rule.

    chi(x) = det(xI - sB), s the scale of ``char_poly_signs``, is
    real-rooted, so the count is exact: r is the number of vanishing
    low-order coefficients, p the sign changes of the rest and q those of
    chi(-x).  The form is taken as one block.
    """
    signs = char_poly_signs(form.rows)
    r = next(k for k, s in enumerate(signs) if s)
    return _sign_changes(signs), _sign_changes([s if k % 2 == 0 else -s for k, s in enumerate(signs)]), r


def char_poly_signs(rows) -> list[int]:
    """Certified signs of the coefficients of det(xI - sB), low to high.

    Rational entries are scaled to integers by the lcm s of their
    denominators.  With entries -cos(pi/m), s is also even, so sB has
    algebraic-integer entries s/2 * (-2 cos(pi/m)), and Berkowitz's
    recurrence runs on integer balls at a precision that doubles from 64
    bits until each coefficient's ball excludes 0 or proves it is 0.

    The proof: every coefficient c_k lies in K = Q(cos(pi/m) : m a label),
    of degree at most D (``pbp.coxeter._degree_bound``).  Each Galois
    conjugate of c_k is a sum of C(n, j) principal j-minors, j = n - k, of a
    real symmetric matrix with entries in [-s, s], so its absolute value is
    at most H = C(n, j) (s sqrt(j))**j.  A nonzero c_k thus has
    |c_k| >= H**-(D - 1).
    """
    labels = frozenset(v.m for row in rows for v in row if isinstance(v, _NegCos))
    rational = [Fraction(v).denominator for row in rows for v in row if not isinstance(v, _NegCos)]
    scale = math.lcm(2 if labels else 1, *rational)
    if not labels:
        return [(c > 0) - (c < 0) for c in char_poly([[int(v * scale) for v in row] for row in rows])]
    n, half = len(rows), scale // 2

    def proved_zero(k: int, c) -> bool:
        j = n - k  # H**2 = C(n, j)**2 s**(2j) j**j is an integer
        return c.below(math.comb(n, j) ** 2 * scale ** (2 * j) * j**j, _degree_bound(labels) - 1)

    prec = 64
    while True:
        chi = char_poly([[-half * two_cos_pi_over(v.m, prec) if isinstance(v, _NegCos) else int(v * scale)
                          for v in row] for row in rows])
        signs = [(c > 0) - (c < 0) if isinstance(c, int) else c.sign() for c in chi]
        if all(s or isinstance(c, int) or proved_zero(k, c) for k, (c, s) in enumerate(zip(chi, signs))):
            return signs
        prec *= 2
