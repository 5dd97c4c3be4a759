"""Exact linear algebra over the rationals.

Entries are Python ints or Fractions; mixed arithmetic is exact either way,
and keeping ints where possible is markedly faster.  Elimination runs on an
integer echelon: a span's reduced row echelon form is kept as integer rows
over one common denominator, with cached pivot columns, and a new vector is
scaled to a primitive integer row and reduced in integers against them.  A
vector that grows the span enters by one fraction-free Gauss-Jordan step
(Bareiss, Math. Comp. 22, 1968).  No Fraction is built until the canonical
rref, with pivots 1, is asked for; matrix products likewise run in integers
over a common denominator.  Everything here is desk-scale (dimensions in the
low tens).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple
Matrix = list

ONE = Fraction(1)
ZERO = Fraction(0)


def vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (0,) * n


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(a: Vec, c) -> Vec:
    return tuple(x * c for x in a)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


# ---------------------------------------------------------------------------
# the integer echelon kernel


def _int_matrix(a: Sequence[Sequence]) -> tuple[Sequence, int]:
    """(ints, den) with a == ints / den and den the least common denominator."""
    dens = [x.denominator for row in a for x in row if type(x) is not int]
    if not dens:
        return a, 1
    den = lcm(*dens)
    return [
        [x * den if type(x) is int else x.numerator * (den // x.denominator) for x in row]
        for row in a
    ], den


def _int_row(v: Sequence) -> Sequence:
    """A primitive integer row spanning the same line as the rational v."""
    (row,), _ = _int_matrix((v,))
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class _Echelon:
    """The reduced row echelon form of a span, as integer rows over one denominator.

    Row i holds ``den`` at its cached pivot column ``pivots[i]`` and every
    other row holds 0 there, so ``rows[i] / den`` is a row of the canonical
    rref.  ``den`` is kept the least common denominator of that rref, so the
    entries are no larger than the rref's own numerators.  Rows stay in
    insertion order.
    """

    def __init__(self):
        self.pivots: list[int] = []
        self.rows: list[list[int]] = []
        self.den = 1

    def residue(self, v: Sequence) -> list | None:
        """A positive multiple of v minus its projection on the span; None if v is in it."""
        if len(self.rows) == len(v):
            return None
        u = _int_row(v)
        w = [self.den * x for x in u]
        for p, r in zip(self.pivots, self.rows):
            c = u[p]
            if c:
                w = [a - c * b for a, b in zip(w, r)]
        return w if any(w) else None

    def insert(self, v: Sequence) -> bool:
        """Add v to the span by one fraction-free Gauss-Jordan step; True if it grew."""
        w = self.residue(v)
        if w is None:
            return False
        p = next(i for i, x in enumerate(w) if x)
        g = gcd(*w) if w[p] > 0 else -gcd(*w)
        if g != 1:
            w = [x // g for x in w]
        e, den, rows = w[p], self.den, self.rows
        # rows are replaced one at a time, so at most one old row is alive
        for i, r in enumerate(rows):
            c = r[p]
            if c:
                rows[i] = [e * a - c * b for a, b in zip(r, w)]
            elif e != 1:
                rows[i] = [e * a for a in r]
        rows.append([den * x for x in w])
        self.pivots.append(p)
        den *= e
        g = den
        for r in rows:
            if g == 1:
                break
            g = gcd(g, *r)
        if g > 1:
            for i, r in enumerate(rows):
                rows[i] = [x // g for x in r]
            den //= g
        self.den = den
        return True

    def canonical(self) -> tuple[Vec, ...]:
        """The rref rows, pivots 1 and Fraction entries, sorted by pivot."""
        den = self.den
        order = sorted(range(len(self.rows)), key=self.pivots.__getitem__)
        return tuple(tuple(Fraction(x, den) if x else ZERO for x in self.rows[i]) for i in order)


def rref(rows: Iterable[Sequence]) -> tuple[Vec, ...]:
    """Reduced row echelon form; zero rows dropped, pivots normalized to 1."""
    echelon = _Echelon()
    for row in rows:
        echelon.insert(row)
    return echelon.canonical()


def reduce_vector(basis: Sequence[Vec], v: Vec) -> Vec:
    """Canonical representative of v modulo the row space of an rref basis."""
    out = v
    for b, p in zip(basis, pivots(basis)):
        c = out[p]
        if c:
            out = [x - c * y for x, y in zip(out, b)]
    return tuple(out)


def pivots(basis: Sequence[Vec]) -> list[int]:
    return [next(i for i, v in enumerate(row) if v) for row in basis]


def express(basis: Sequence[Vec], v: Vec) -> list | None:
    """Coefficients of v in an rref basis, or None if v is outside the span."""
    coeffs = [v[p] for p in pivots(basis)]
    rem = v
    for c, row in zip(coeffs, basis):
        if c:
            rem = vec_sub(rem, vec_scale(row, c))
    return coeffs if is_zero_vec(rem) else None


class SpanBuilder:
    """Incrementally maintained basis of a growing span."""

    def __init__(self, ncols: int, vectors: Iterable[Vec] = ()):
        self.ncols = ncols
        self.echelon = _Echelon()
        for v in vectors:
            self.add(v)

    def add(self, v: Sequence) -> bool:
        """Add a vector; True if the span grew."""
        return self.echelon.insert(v)

    def contains(self, v: Sequence) -> bool:
        return self.echelon.residue(v) is None

    @property
    def dim(self) -> int:
        return len(self.echelon.rows)

    def basis(self) -> tuple[Vec, ...]:
        return self.echelon.canonical()


def mat_vec(m: Sequence[Sequence], v: Sequence) -> Vec:
    return tuple(sum(a * x for a, x in zip(row, v) if a and x) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    """Product of rational matrices, taken in integers over one denominator."""
    (a, da), (b, db) = _int_matrix(a), _int_matrix(b)
    bt = list(zip(*b))
    prod = [[sum(map(mul, row, col)) for col in bt] for row in a]
    den = da * db
    if den == 1:
        return prod
    return [[Fraction(x, den) if x else ZERO for x in row] for row in prod]


def mat_add(a, b) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_sub(a, b) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(n: int, m: int | None = None) -> Matrix:
    return [[0] * (m if m is not None else n) for _ in range(n)]


def transpose(a: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*a)]


def flatten(a: Sequence[Sequence]) -> Vec:
    return tuple(x for row in a for x in row)


def unflatten(v: Sequence, n: int, m: int) -> Matrix:
    it = iter(v)
    return [[next(it) for _ in range(m)] for _ in range(n)]


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[Vec]:
    """Basis of {x : A x = 0} for the matrix with the given rows."""
    basis = rref(rows)
    piv = set(pivots(basis))
    free = [j for j in range(ncols) if j not in piv]
    out = []
    for j in free:
        x = [0] * ncols
        x[j] = 1
        for row in basis:
            p = next(i for i, v in enumerate(row) if v)
            x[p] = -row[j]
        out.append(tuple(x))
    return out


def column_space(mat: Sequence[Sequence]) -> tuple[Vec, ...]:
    return rref(transpose(mat))


def char_poly(m: Sequence[Sequence]) -> tuple:
    """Characteristic polynomial det(xI - M), coefficients low to high, monic.

    Berkowitz's division-free recurrence (Inf. Process. Lett. 18, 1984) over
    the leading principal blocks M_k, so it is exact over any commutative
    ring: ints, Fractions, or elements of a number field.
    """
    chi = [1]  # det(xI - M_k), highest degree first
    for k in range(len(m)):
        row, v = m[k][:k], [m[i][k] for i in range(k)]
        # Toeplitz column (1, -m_kk, -R C, -R M_k C, ..., -R M_k^(k-1) C)
        t = [1, -m[k][k]]
        for step in range(k):
            t.append(-sum(r * x for r, x in zip(row, v)))
            if step < k - 1:
                v = [sum(a * x for a, x in zip(m[i][:k], v)) for i in range(k)]
        chi = [sum(t[i - j] * chi[j] for j in range(max(0, i - k - 1), min(i, k) + 1)) for i in range(k + 2)]
    return tuple(reversed(chi))


def min_poly_of_matrix(m: Sequence[Sequence], modulo: Sequence[Vec] = ()) -> tuple:
    """Monic minimal polynomial via the first linear dependence among powers,
    taken modulo the span of ``modulo``, rref rows of flattened matrices."""
    n = len(m)
    power = identity_matrix(n)
    builder = SpanBuilder(n * n)
    stack: list[Vec] = []
    while True:
        v = reduce_vector(modulo, flatten(power))
        if not builder.add(v):
            coeffs = dependence(stack, v)
            return tuple(coeffs + [ONE])
        stack.append(v)
        power = mat_mul(power, m)


def dependence(stack: list[Vec], v: Vec) -> list:
    """Coefficients c with sum_i c_i stack[i] + v = 0 (the stack is independent)."""
    aug = rref([list(s) for s in zip(*([list(s) for s in stack] + [list(v)]))])
    ncols = len(stack) + 1
    sol = [0] * len(stack)
    for row in aug:
        p = next(i for i, x in enumerate(row) if x)
        if p == ncols - 1:
            raise ValueError("vector not in span")
        sol[p] = row[ncols - 1]
    return [-c for c in sol]


def poly_eval_matrix(coeffs: Sequence, m: Sequence[Sequence]) -> Matrix:
    n = len(m)
    acc = zero_matrix(n)
    for c in reversed(list(coeffs)):
        acc = mat_add(mat_mul(acc, m), mat_scale(identity_matrix(n), c))
    return acc


def solve_commutant(mats: Sequence[Sequence[Sequence]], n: int) -> list[Matrix]:
    """Basis of {X in M_n(Q) : X M = M X for every M in mats}."""
    rows = []
    for m in mats:
        # (XM - MX)[i][j] = sum_k X[i][k] M[k][j] - M[i][k] X[k][j]
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    if m[k][j]:
                        row[i * n + k] += m[k][j]
                    if m[i][k]:
                        row[k * n + j] -= m[i][k]
                if any(row):
                    rows.append(row)
    if not rows:
        rows = [[0] * (n * n)]
    return [unflatten(x, n, n) for x in nullspace(rows, n * n)]
