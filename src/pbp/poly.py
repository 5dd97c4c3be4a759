"""Dense univariate polynomials, coefficients low-to-high, and factorization
over Q.

The ring helpers work over Z or Q (any exact coefficients); the ``_mod``
helpers work over Z/m with coefficients in [0, m).  Everything that feeds a
factorization stays in integers: ``squarefree_part`` is f / gcd(f, f') for
the primitive f, one pseudo-remainder gcd and one exact division, and exact
division in Z[x] is long division that gives up at the first quotient
coefficient that is not an integer.
``factor_over_q`` returns the distinct irreducible factors of the square-free
part, with no multiplicities: a quadratic from its discriminant, anything
of higher degree by Zassenhaus' algorithm (von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 14-15): Cantor-Zassenhaus splitting
modulo a small odd prime that keeps the degree and the square-free property,
quadratic Hensel lifting past twice the Mignotte bound, and recombination of
the lifted factors by exhaustive subsets and trial division.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import combinations

_PRIMES_TRIED = 2  # good primes whose modular factor counts are compared


def poly_trim(coeffs: Sequence) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(p: Sequence, q: Sequence) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    if not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    n = len(p)
    for j, b in enumerate(q):
        if b:
            out[j : j + n] = [o + a * b for o, a in zip(out[j : j + n], p)]
    return poly_trim(out)


def poly_add(p: Sequence, q: Sequence) -> tuple:
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return poly_trim(out)


def poly_sub(p: Sequence, q: Sequence) -> tuple:
    return poly_add(p, [-b for b in q])


def poly_scale(p: Sequence, c) -> tuple:
    return poly_trim([a * c for a in p])


def poly_derivative(p: Sequence) -> tuple:
    return poly_trim([i * c for i, c in enumerate(p)][1:])


# ---------------------------------------------------------------------------
# Z[x] and Z/m[x]


def _primitive(coeffs: Sequence) -> tuple[int, ...]:
    """The primitive integer polynomial with positive lead that is a rational
    multiple of ``coeffs``; () for zero."""
    coeffs = poly_trim(coeffs)
    if not coeffs:
        return ()
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return tuple(c // g for c in ints)


def _gcd_z(a: tuple, b: tuple) -> tuple[int, ...]:
    """Primitive gcd of integer polynomials (primitive pseudo-remainder sequence)."""
    while b:
        r = list(a)
        while len(r) >= len(b):  # r <- lc(b) r - lc(r) x^k b lowers the degree
            k, c = len(r) - len(b), r[-1]
            r = list(poly_trim([x * b[-1] - (c * b[i - k] if i >= k else 0)
                                for i, x in enumerate(r)]))
        a, b = b, _primitive(r)
    return _primitive(a)


def _div_exact_z(f: Sequence, g: Sequence) -> tuple[int, ...] | None:
    """f / g if g divides f in Z[x], else None: long division in integers
    that stops at the first quotient coefficient the lead of g does not
    divide."""
    rem = list(f)
    deg_g, lead = len(g) - 1, g[-1]
    quot = [0] * max(len(f) - deg_g, 0)
    for i in range(len(rem) - 1, deg_g - 1, -1):
        c, r = divmod(rem[i], lead)
        if r:
            return None
        if c:
            k = i - deg_g
            quot[k] = c
            rem[k:i] = [x - c * b for x, b in zip(rem[k:i], g)]
    return None if any(rem[:deg_g]) else poly_trim(quot)


def _mod(p: Sequence, m: int) -> tuple[int, ...]:
    return poly_trim([c % m for c in p])


def _divmod_mod(p: Sequence, d: Sequence, m: int) -> tuple[tuple, tuple]:
    """Quotient and remainder modulo m; the lead of d must be a unit mod m."""
    inv = pow(d[-1], -1, m)
    rem = [c % m for c in p]
    deg_d = len(d) - 1
    quot = [0] * max(len(p) - deg_d, 0)
    for i in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[i] * inv % m
        if c:
            k = i - deg_d
            quot[k] = c
            rem[k:i] = [(r - c * b) % m for r, b in zip(rem[k:i], d)]
    return poly_trim(quot), poly_trim(rem[:deg_d])


def _monic_mod(p: Sequence, m: int) -> tuple[int, ...]:
    return _mod(poly_scale(p, pow(p[-1], -1, m)), m)


def _gcd_mod(a: Sequence, b: Sequence, p: int) -> tuple[int, ...]:
    """Monic gcd modulo a prime; a is nonzero."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _gcdext_mod(a: Sequence, b: Sequence, p: int) -> tuple[tuple, tuple]:
    """(s, t) with s a + t b = 1 modulo a prime, deg s < deg b, deg t < deg a;
    a and b coprime modulo p."""
    r0, r1, s0, s1, t0, t1 = tuple(a), tuple(b), (1,), (), (), (1,)
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(poly_sub(s0, poly_mul(q, s1)), p)
        t0, t1 = t1, _mod(poly_sub(t0, poly_mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return _mod(poly_scale(s0, inv), p), _mod(poly_scale(t0, inv), p)


def _powmod(a: Sequence, e: int, f: Sequence, p: int) -> tuple[int, ...]:
    """a**e modulo f and p."""
    out, a = (1,), _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(poly_mul(out, a), f, p)[1]
        a = _divmod_mod(poly_mul(a, a), f, p)[1]
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# factorization


def _odd_primes() -> Iterator[int]:
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _split_mod(f: tuple, p: int, rng: random.Random) -> list[tuple]:
    """Monic irreducible factors of a monic square-free f modulo an odd prime:
    distinct-degree, then Cantor-Zassenhaus equal-degree splitting."""
    out: list[tuple] = []
    h, d = (0, 1), 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)  # x**(p**d) mod f
        g = _gcd_mod(f, _mod(poly_sub(h, (0, 1)), p), p)
        if len(g) > 1:
            out += _equal_degree(g, d, p, rng)
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    return out + [f] if len(f) > 1 else out


def _equal_degree(f: tuple, d: int, p: int, rng: random.Random) -> list[tuple]:
    """Split a monic product of distinct irreducibles of degree d modulo p."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = _mod([rng.randrange(p) for _ in range(len(f) - 1)], p)
        b = _powmod(a, (p**d - 1) // 2, f, p)
        g = _gcd_mod(f, _mod(poly_sub(b, (1,)), p), p)
        if 1 < len(g) < len(f):
            rest = _divmod_mod(f, g, p)[0]
            return _equal_degree(g, d, p, rng) + _equal_degree(rest, d, p, rng)


def _hensel_lift(f: tuple, g: tuple, h: tuple, p: int, bound: int) -> tuple[tuple, tuple, int]:
    """(g*, h*, m) with f = g* h* mod m, g* = g and h* = h mod p, h* monic and
    m a power of p above ``bound``.  Needs f = g h mod p, h monic and coprime
    to g mod p, and p not dividing the lead of f (quadratic lifting,
    von zur Gathen & Gerhard, Algorithm 15.10)."""
    s, t = _gcdext_mod(g, h, p)
    m = p
    while m <= bound:
        m *= m
        e = _mod(poly_sub(f, poly_mul(g, h)), m)
        q, r = _divmod_mod(poly_mul(s, e), h, m)
        g = _mod(poly_add(g, poly_add(poly_mul(t, e), poly_mul(q, g))), m)
        h = _mod(poly_add(h, r), m)
        b = _mod(poly_sub(poly_add(poly_mul(s, g), poly_mul(t, h)), (1,)), m)
        c, d = _divmod_mod(poly_mul(s, b), h, m)
        s = _mod(poly_sub(s, d), m)
        t = _mod(poly_sub(t, poly_add(poly_mul(t, b), poly_mul(c, g))), m)
    return g, h, m


def _factor_squarefree(f: tuple) -> list[tuple]:
    """Irreducible factors in Z[x] of a primitive square-free f with positive lead."""
    n, lead = len(f) - 1, f[-1]
    if n <= 1:
        return [f]
    if n == 2:
        # ax^2 + bx + c has rational roots exactly when b^2 - 4ac is a square
        # s^2; the roots (-b +- s) / 2a give the factors 2a x + b -+ s
        c, b, a = f
        disc = b * b - 4 * a * c
        s = math.isqrt(max(disc, 0))
        if s * s != disc:
            return [f]
        return [_primitive((b - s, 2 * a)), _primitive((b + s, 2 * a))]
    rng = random.Random(n)
    choices = []
    for p in _odd_primes():
        fp = _monic_mod(f, p) if lead % p else ()
        if len(fp) - 1 == n and len(_gcd_mod(fp, _mod(poly_derivative(fp), p), p)) == 1:
            modular = _split_mod(fp, p, rng)
            choices.append((len(modular), p, modular))
            if len(modular) == 1 or len(choices) == _PRIMES_TRIED:
                break
    count, p, modular = min(choices)
    if count == 1:
        return [f]
    # a factor of f scaled to lead ``lead`` has coefficients below
    # 2**n |f|_2 (Mignotte), so below ``bound`` / 2
    bound = 2 * lead * 2**n * (math.isqrt(sum(c * c for c in f)) + 1)
    # peel one factor at a time: lift f = rest * h, then lift rest likewise
    lifted, rest = [], f
    for i, h in enumerate(modular[:-1]):
        cofactor = (lead,)
        for other in modular[i + 1 :]:
            cofactor = _mod(poly_mul(cofactor, other), p)
        rest, h, m = _hensel_lift(rest, cofactor, h, p, bound)
        lifted.append(h)
    lifted.append(_monic_mod(rest, m))
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            cand = (f[-1],)
            for i in subset:
                cand = _mod(poly_mul(cand, lifted[i]), m)
            cand = _primitive([c - m if 2 * c > m else c for c in cand])
            quot = _div_exact_z(f, cand)
            if quot is not None:
                out.append(cand)
                f = quot
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def squarefree_part(coeffs: Sequence) -> tuple[int, ...]:
    """The product of the distinct irreducible factors of a nonconstant
    rational polynomial, as a primitive integer polynomial."""
    f = _primitive(coeffs)
    g = _gcd_z(f, _primitive(poly_derivative(f)))
    return f if len(g) == 1 else _div_exact_z(f, g)


def factor_over_q(coeffs: Sequence) -> list[tuple[Fraction, ...]]:
    """The distinct irreducible factors over Q of a rational polynomial.

    They are the factors of ``squarefree_part(coeffs)``, each monic with
    Fraction coefficients, sorted by degree, then by the primitive integer
    coefficients of the factor read from the top.  A constant or zero
    polynomial has none.
    """
    f = _primitive(coeffs)
    if len(f) < 2:
        return []
    found = sorted(_factor_squarefree(squarefree_part(f)), key=lambda g: (len(g), g[::-1]))
    return [tuple(Fraction(c, g[-1]) for c in g) for g in found]
