"""Exact arithmetic in the group of matrices [[1, x, z], [0, u, y], [0, 0, 1]]
with x, y, z in Z[1/p] and u a unit +-p^k, and the machine check that the
image of the diagonal subgroup is acentral in the quotient by the central
copy of Z (where the centre is {u = 1, x = y = 0} with z free).  Classes
commute there iff their lifts' products ab and ba agree but for an integer
in z (``gamma_commutes``), so the check multiplies and never inverts.

Entries of Z[1/p] are kept as integer numerators over one power of p, so
products align exponents by powers of p and need no gcd; the Fraction
values are derived only for display.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from .verdict import Record

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Baillie-PSW: trial division, a strong probable-prime test to base 2 and
    a strong Lucas test with Selfridge's parameters (Baillie & Wagstaff,
    Math. Comp. 35, 1980).  Exact below 2**64; above it no composite that
    passes is known."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if math.isqrt(n) ** 2 == n:
        return False  # no D below has (D/n) = -1 when n is a square
    disc = 5
    while _jacobi(disc, n) != -1:
        disc = -disc - 2 if disc > 0 else -disc + 2
    return _strong_lucas(n, disc, (1 - disc) // 4)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int, disc: int, q: int) -> bool:
    """Strong Lucas probable-prime test for the sequences with P = 1, Q = q,
    D = disc: with n + 1 = d 2**s, d odd, is U_d = 0 or V_(d 2**r) = 0 for
    some r < s, modulo n?"""
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def half(v: int) -> int:
        v %= n
        return (v + n if v & 1 else v) // 2

    u, v, qk = 1, 1, q % n  # U_1, V_1, Q**1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(disc * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _p_exponent(den: int, p: int) -> int | None:
    """k with den == p^k, or None if den is not a power of p."""
    k = 0
    while den % p == 0:
        den, k = den // p, k + 1
    return k if den == 1 else None


def _check_group(p: int, u_sign: int, u_exp: int) -> None:
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if u_sign not in (1, -1) or not isinstance(u_exp, int):
        raise ValueError(f"the unit must be +-p^k with k an integer, got {u_sign} * {p}^{u_exp}")


class A3Matrix(Record):
    """The matrix [[1, x, z], [0, u, y], [0, 0, 1]] with x, y, z in Z[1/p] and
    u = +-p^k, stored in integers: x = X / p^e, y = Y / p^e, z = Z / p^e with
    e >= 0 the least such exponent, and u = u_sign * p^u_exp.  The form is
    canonical, so two matrices are equal iff their fields are.

    Only ``make`` and ``from_numerators`` check their arguments.  Z[1/p] is a
    ring and u is a unit in it, so ``a3_mul`` of checked matrices stays in the
    group without a check."""

    __slots__ = ("p", "e", "X", "Y", "Z", "u_sign", "u_exp")

    def __init__(self, p: int, e: int, X: int, Y: int, Z: int, u_sign: int, u_exp: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "u_sign", u_sign)
        object.__setattr__(self, "u_exp", u_exp)

    @staticmethod
    def make(p: int, x, y, z, u_sign: int = 1, u_exp: int = 0) -> "A3Matrix":
        """The matrix with the rational entries x, y, z, checked."""
        _check_group(p, u_sign, u_exp)
        entries = [Fraction(v) for v in (x, y, z)]
        e = 0
        for value in entries:
            k = _p_exponent(value.denominator, p)
            if k is None:
                raise ValueError(f"{value} is not in Z[1/{p}]")
            e = max(e, k)
        q = p**e
        return _reduced(p, e, *(v.numerator * (q // v.denominator) for v in entries), u_sign, u_exp)

    @staticmethod
    def from_numerators(p: int, e: int, X: int, Y: int, Z: int, u_sign: int = 1,
                        u_exp: int = 0) -> "A3Matrix":
        """The matrix with x, y, z = X, Y, Z over p^e, checked and brought to
        the least exponent."""
        _check_group(p, u_sign, u_exp)
        if not all(type(v) is int for v in (e, X, Y, Z)) or e < 0:
            raise ValueError(f"numerators and exponent must be integers with e >= 0, "
                             f"got {X}, {Y}, {Z} over {p}^{e}")
        return _reduced(p, e, X, Y, Z, u_sign, u_exp)

    @property
    def x(self) -> Fraction:
        return Fraction(self.X, self.p**self.e)

    @property
    def y(self) -> Fraction:
        return Fraction(self.Y, self.p**self.e)

    @property
    def z(self) -> Fraction:
        return Fraction(self.Z, self.p**self.e)

    @property
    def u(self) -> Fraction:
        k = self.u_exp
        return Fraction(self.u_sign * self.p**k) if k >= 0 else Fraction(self.u_sign, self.p**-k)


def _reduced(p: int, e: int, X: int, Y: int, Z: int, u_sign: int, u_exp: int) -> A3Matrix:
    """The canonical matrix with numerators X, Y, Z over p^e, unchecked."""
    while e and not (X % p or Y % p or Z % p):
        X, Y, Z, e = X // p, Y // p, Z // p, e - 1
    return A3Matrix(p, e, X, Y, Z, u_sign, u_exp)


def a3_mul(a: A3Matrix, b: A3Matrix) -> A3Matrix:
    p = a.p
    if p != b.p:
        raise ValueError("mixed primes")
    # [[1,x1,z1],[0,u1,y1],[0,0,1]] * [[1,x2,z2],[0,u2,y2],[0,0,1]] has
    # x = x2 + x1 u2, y = y1 + u1 y2, z = z2 + x1 y2 + z1 and u = u1 u2; every
    # term is an integer over p^e for this e
    e1, e2, k1, k2 = a.e, b.e, a.u_exp, b.u_exp
    e = max(e1 + e2, e1 - k2, e2 - k1)
    return _reduced(
        p,
        e,
        b.X * p ** (e - e2) + b.u_sign * a.X * p ** (e - e1 + k2),
        a.Y * p ** (e - e1) + a.u_sign * b.Y * p ** (e - e2 + k1),
        b.Z * p ** (e - e2) + a.X * b.Y * p ** (e - e1 - e2) + a.Z * p ** (e - e1),
        a.u_sign * b.u_sign,
        k1 + k2,
    )


# ---------------------------------------------------------------------------
# the quotient by the central copy of Z


class GammaElement(Record):
    """A3 matrix with z taken modulo 1 (the central Z is divided out).

    Z mod p^e is Z mod p when e > 0, so the matrix stays canonical."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: A3Matrix):
        p, e = matrix.p, matrix.e
        reduced = A3Matrix(p, e, matrix.X, matrix.Y, matrix.Z % p**e, matrix.u_sign, matrix.u_exp)
        object.__setattr__(self, "matrix", reduced)


def gamma_commutes(g: GammaElement, h: GammaElement) -> bool:
    """Do the classes commute in the quotient?  Checked on lifts a, b: ab and
    ba must agree in x, y and u and differ in z by an integer.  Exact:
    [a, b] = ab (ba)^-1 lies in the central Z iff ab = c ba for some
    c = (0, 0, c_z, 1) with c_z in Z, and c M is M with c_z added to its z.
    Both products are brought to one denominator p^e to compare.  Their u
    always agrees: ``a3_mul`` gives both the unit u1 u2, and the units +-p^k
    form a commutative group, so only x, y and z are compared."""
    a, b = g.matrix, h.matrix
    ab, ba = a3_mul(a, b), a3_mul(b, a)
    p, e = a.p, max(ab.e, ba.e)
    s, t = p ** (e - ab.e), p ** (e - ba.e)
    return ab.X * s == ba.X * t and ab.Y * s == ba.Y * t and (ab.Z * s - ba.Z * t) % p**e == 0


def diagonal_element(p: int, exponent: int, sign: int = 1) -> GammaElement:
    if exponent == 0 and sign == 1:
        raise ValueError("the diagonal witness must have u != 1")
    return GammaElement(A3Matrix.make(p, 0, 0, 0, sign, exponent))


def random_gamma_element(p: int, rng: random.Random) -> GammaElement:
    """x, y, z uniform over {a / p^k : |a| <= 10 p^k, k <= 4}, u = +-p^j, |j| <= 3."""
    draws = []
    for _ in range(3):
        k = rng.randint(0, 4)
        bound = 10 * p**k
        draws.append((k, rng.randint(-bound, bound)))
    e = max(k for k, _ in draws)
    nums = [a * p ** (e - k) for k, a in draws]
    return GammaElement(A3Matrix.from_numerators(p, e, *nums, rng.choice((1, -1)), rng.randint(-3, 3)))


# ---------------------------------------------------------------------------
# acentrality of the diagonal image


# Laurent polynomials in x, y, z, u, u0 over Z: a dict from exponent tuples
# (the exponents of u and u0 may be negative) to nonzero coefficients.


def _monomial(coeff: int = 1, x: int = 0, y: int = 0, z: int = 0, u: int = 0, u0: int = 0) -> dict:
    return {(x, y, z, u, u0): coeff}


def _laurent_add(*terms: dict) -> dict:
    out: dict = {}
    for term in terms:
        for exps, c in term.items():
            out[exps] = out.get(exps, 0) + c
    return {exps: c for exps, c in out.items() if c}


def _laurent_mul(a: dict, b: dict) -> dict:
    return _laurent_add(
        *({tuple(i + j for i, j in zip(ea, eb)): ca * cb} for ea, ca in a.items() for eb, cb in b.items())
    )


def _laurent_matmul(a: list, b: list) -> list:
    return [[_laurent_add(*(_laurent_mul(a[i][k], b[k][j]) for k in range(3))) for j in range(3)]
            for i in range(3)]


# entries of [g, m] = g m g^-1 m^-1 for g = diag(1, u0, 1) and a generic m
_COMMUTATOR_ENTRIES = {
    (0, 1): _laurent_add(_monomial(1, x=1, u=-1, u0=-1), _monomial(-1, x=1, u=-1)),  # (x/u)(1/u0 - 1)
    (1, 1): _monomial(),
    (1, 2): _laurent_add(_monomial(1, y=1, u0=1), _monomial(-1, y=1)),  # y (u0 - 1)
}


def _commutator_matches(closed_forms: dict) -> bool:
    """Compute [g, m] exactly over Z[x, y, z, u^+-1, u0^+-1], after checking the
    hand-written inverses, and compare the given entries with it."""
    one, zero = _monomial(), {}
    identity = [[one if i == j else zero for j in range(3)] for i in range(3)]
    m = [[one, _monomial(x=1), _monomial(z=1)], [zero, _monomial(u=1), _monomial(y=1)], [zero, zero, one]]
    m_inv = [
        [one, _monomial(-1, x=1, u=-1), _laurent_add(_monomial(1, x=1, y=1, u=-1), _monomial(-1, z=1))],
        [zero, _monomial(u=-1), _monomial(-1, y=1, u=-1)],
        [zero, zero, one],
    ]
    g = [[one, zero, zero], [zero, _monomial(u0=1), zero], [zero, zero, one]]
    g_inv = [[one, zero, zero], [zero, _monomial(u0=-1), zero], [zero, zero, one]]
    if _laurent_matmul(m, m_inv) != identity or _laurent_matmul(g, g_inv) != identity:
        return False
    comm = _laurent_matmul(_laurent_matmul(_laurent_matmul(g, m), g_inv), m_inv)
    return all(comm[i][j] == form for (i, j), form in closed_forms.items())


@lru_cache(maxsize=None)
def symbolic_commutator_identities() -> bool:
    """Exact form of the commutator of a diagonal lift with a generic lift:
    the off-diagonal entries are (x/u)(1/u0 - 1) and y (u0 - 1) and the middle
    entry is 1, so commuting modulo the centre forces x = y = 0.  It takes no
    input, so it is derived once per process."""
    return _commutator_matches(_COMMUTATOR_ENTRIES)


class AcentralReport(Record):
    __slots__ = ("prime", "symbolic_ok", "trials", "commuting_cases", "counterexamples")

    def __init__(self, prime: int, symbolic_ok: bool, trials: int, commuting_cases: int,
                 counterexamples: tuple[str, ...]):
        self._set(prime, symbolic_ok, trials, commuting_cases, counterexamples)

    @property
    def passed(self) -> bool:
        return self.symbolic_ok and not self.counterexamples

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "symbolic": "pass" if self.symbolic_ok else "fail",
            "randomized": "pass" if not self.counterexamples else "fail",
            "trials": self.trials,
            "commuting_cases": self.commuting_cases,
            "counterexamples": list(self.counterexamples),
        }


def acentral_check(
    p: int,
    trials: int = 10_000,
    exponent: int = 1,
    sign: int = 1,
    seed: int = 0x5EED,
) -> AcentralReport:
    """Verify that anything commuting with the diagonal class has x = y = 0.

    Combines the exact symbolic commutator identities with randomized
    sampling; any counterexample would indicate an arithmetic bug.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    symbolic_ok = symbolic_commutator_identities()
    g = diagonal_element(p, exponent, sign)
    rng = random.Random(seed)
    counterexamples = []
    commuting = 0
    for _ in range(trials):
        h = random_gamma_element(p, rng)
        if gamma_commutes(g, h):
            commuting += 1
            hm = h.matrix
            if hm.X or hm.Y:
                counterexamples.append(f"x={hm.x} y={hm.y} u={hm.u} z={hm.z}")
    # positive controls: x = y = 0 classes must land in the centralizer,
    # otherwise the implication above would hold vacuously
    for _ in range(max(1, trials // 10)):
        sample = random_gamma_element(p, rng).matrix
        control = GammaElement(
            A3Matrix.from_numerators(p, sample.e, 0, 0, sample.Z, sample.u_sign, sample.u_exp)
        )
        if gamma_commutes(g, control):
            commuting += 1
        else:
            counterexamples.append(
                f"diagonal class u={control.matrix.u} z={control.matrix.z} "
                "failed to commute"
            )
    return AcentralReport(p, symbolic_ok, trials, commuting, tuple(counterexamples))
