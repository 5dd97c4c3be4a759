"""Exact linear algebra over the rationals.

Entries are Python ints or Fractions; mixed arithmetic is exact either way,
and keeping ints where possible is markedly faster.  Everything here is
desk-scale (dimensions in the low tens), so plain Gaussian elimination is
the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple
Matrix = list

ONE = Fraction(1)


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


def _reduce_row(basis: list[list], row: list) -> list:
    for b in basis:
        piv = next(i for i, v in enumerate(b) if v)
        if row[piv]:
            c = row[piv]
            for k in range(len(row)):
                if b[k]:
                    row[k] -= c * b[k]
    return row


def rref(rows: Iterable[Sequence]) -> tuple[Vec, ...]:
    """Reduced row echelon form; zero rows dropped, pivots normalized to 1."""
    out: list[list] = []
    for row in rows:
        row = _reduce_row(out, list(row))
        if any(row):
            piv = next(i for i, v in enumerate(row) if v)
            inv = ONE / row[piv]
            row = [v * inv for v in row]
            for prev in out:
                if prev[piv]:
                    c = prev[piv]
                    for k in range(len(row)):
                        if row[k]:
                            prev[k] -= c * row[k]
            out.append(row)
    out.sort(key=lambda r: next(i for i, v in enumerate(r) if v))
    return tuple(tuple(r) for r in out)


def reduce_vector(basis: Sequence[Vec], v: Vec) -> Vec:
    """Canonical representative of v modulo the row space of an rref basis."""
    return tuple(_reduce_row([list(b) for b in basis], list(v)))


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
    """Incrementally maintained rref basis of a growing span."""

    def __init__(self, ncols: int, vectors: Iterable[Vec] = ()):
        self.ncols = ncols
        self.rows: list[list] = []
        for v in vectors:
            self.add(v)

    def add(self, v: Sequence) -> bool:
        """Add a vector; True if the span grew."""
        row = _reduce_row(self.rows, list(v))
        if not any(row):
            return False
        piv = next(i for i, x in enumerate(row) if x)
        inv = ONE / row[piv]
        row = [x * inv for x in row]
        for prev in self.rows:
            if prev[piv]:
                c = prev[piv]
                for k in range(self.ncols):
                    if row[k]:
                        prev[k] -= c * row[k]
        self.rows.append(row)
        return True

    def contains(self, v: Sequence) -> bool:
        return not any(_reduce_row(self.rows, list(v)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> tuple[Vec, ...]:
        ordered = sorted(self.rows, key=lambda r: next(i for i, v in enumerate(r) if v))
        return tuple(tuple(r) for r in ordered)


def mat_vec(m: Sequence[Sequence], v: Sequence) -> Vec:
    return tuple(sum(a * x for a, x in zip(row, v) if a and x) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in bt] for row in a]


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


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


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


def min_poly_of_matrix(m: Sequence[Sequence]) -> tuple:
    """Monic minimal polynomial via the first linear dependence among powers."""
    n = len(m)
    power = identity_matrix(n)
    builder = SpanBuilder(n * n)
    stack: list[Vec] = []
    while True:
        v = flatten(power)
        if not builder.add(v):
            coeffs = dependence(stack, v)
            return tuple(coeffs + [ONE])
        stack.append(v)
        power = mat_mul(power, m)


def dependence(stack: list[Vec], v: Vec) -> list:
    """Coefficients c with sum_i c_i stack[i] = v (the stack is independent)."""
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
