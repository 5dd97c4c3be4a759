"""Fraction Gauss-Jordan elimination that the tests compare pbp.linalg against.

Every row is kept in reduced echelon form with Fraction entries: a new
vector is reduced against each stored row by the row's pivot, normalized to
pivot 1, and then eliminated from the stored rows.  Slow, but obviously
right.

``min_poly_oracle`` is the Krylov search that ``pbp.linalg`` used before it
read minimal polynomials off one echelon: it finds the first power of M in
the span of the lower ones, then solves for the dependence by a second
elimination (``dependence``).

``char_poly`` is Berkowitz's characteristic polynomial, which the Coxeter
and acceptance oracles use and against which the square-free part of
``pbp.linalg.min_poly_of_matrix`` is checked.
"""

from fractions import Fraction
from typing import Sequence

ONE = Fraction(1)


def _pivot(row):
    return next(i for i, v in enumerate(row) if v)


def _reduce_row(basis, row):
    for b in basis:
        piv = _pivot(b)
        if row[piv]:
            c = row[piv]
            for k in range(len(row)):
                if b[k]:
                    row[k] -= c * b[k]
    return row


class SpanOracle:
    """Reduced echelon basis of a growing span, updated on every add."""

    def __init__(self):
        self.rows = []

    def add(self, v):
        row = _reduce_row(self.rows, list(v))
        if not any(row):
            return False
        inv = 1 / Fraction(row[_pivot(row)])
        row = [x * inv for x in row]
        piv = _pivot(row)
        for prev in self.rows:
            if prev[piv]:
                c = prev[piv]
                for k in range(len(row)):
                    if row[k]:
                        prev[k] -= c * row[k]
        self.rows.append(row)
        return True

    def contains(self, v):
        return not any(_reduce_row(self.rows, list(v)))

    def basis(self):
        return tuple(tuple(r) for r in sorted(self.rows, key=_pivot))


def rref_oracle(rows):
    span = SpanOracle()
    for row in rows:
        span.add(row)
    return span.basis()


def reduce_vector_oracle(basis, v):
    return tuple(_reduce_row([list(b) for b in basis], list(v)))


def nullspace_oracle(rows, ncols):
    basis = rref_oracle(rows)
    piv = [_pivot(r) for r in basis]
    out = []
    for j in (j for j in range(ncols) if j not in piv):
        x = [0] * ncols
        x[j] = 1
        for p, row in zip(piv, basis):
            x[p] = -row[j]
        out.append(tuple(x))
    return out


def hom_oracle(gens_v, gens_w, n, p):
    """Basis of {X (p x n) : X g = h X for each pair}: the n p-unknown system, row by row.

    Row (i, j) of the block of a pair is (X g - h X)[i][j] = sum_k X[i][k] g[k][j]
    - sum_k h[i][k] X[k][j], in the entries X[i][k] flattened row by row;
    the basis is that system's canonical null-space basis, unflattened.
    """
    rows = []
    for g, h in zip(gens_v, gens_w):
        for i in range(p):
            for j in range(n):
                row = [0] * (p * n)
                for k in range(n):
                    if g[k][j]:
                        row[i * n + k] += g[k][j]
                for k in range(p):
                    if h[i][k]:
                        row[k * n + j] -= h[i][k]
                if any(row):
                    rows.append(row)
    return [[list(x[i * n : i * n + n]) for i in range(p)] for x in nullspace_oracle(rows, p * n)]


def solve_commutant_oracle(mats, n):
    """Basis of the commutant of ``mats`` in M_n(Q), as ``hom_oracle`` orders it."""
    return hom_oracle(mats, mats, n, n)


def dependence(stack, v):
    """Coefficients c with sum_i c_i stack[i] + v = 0 (the stack is independent)."""
    aug = rref_oracle([list(s) for s in zip(*([list(s) for s in stack] + [list(v)]))])
    ncols = len(stack) + 1
    sol = [0] * len(stack)
    for row in aug:
        p = _pivot(row)
        if p == ncols - 1:
            raise ValueError("vector not in span")
        sol[p] = row[ncols - 1]
    return [-c for c in sol]


def min_poly_oracle(m):
    """Monic minimal polynomial via the first linear dependence among powers."""
    n = len(m)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    span = SpanOracle()
    stack = []
    while True:
        v = tuple(x for row in power for x in row)
        if not span.add(v):
            coeffs = dependence(stack, v)
            return tuple(coeffs + [ONE])
        stack.append(v)
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in power]


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
