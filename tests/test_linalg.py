"""The integer echelon and spin kernels against Fraction Gauss-Jordan and sympy."""

import ast
from fractions import Fraction
from pathlib import Path

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linalg_oracles import (
    SpanOracle,
    char_poly,
    dependence,
    min_poly_oracle,
    nullspace_oracle,
    reduce_vector_oracle,
    rref_oracle,
    solve_commutant_oracle,
)
from pbp.linalg import (
    SpanBuilder,
    express,
    mat_mul,
    min_poly_of_matrix,
    nullspace,
    pivots,
    poly_eval_matrix,
    reduce_vector,
    rref,
    solve_commutant,
)
from pbp.poly import squarefree_part

RATIONAL = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**9)),
)
SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


def combine(a, b, x, y):
    return [x * u + y * v for u, v in zip(a, b)]


@st.composite
def rows_of(draw, ncols, max_rows=12):
    """Random rational rows with zero, repeated, rescaled and dependent rows."""
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat", "combo"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append([draw(SMALL) * x for x in draw(st.sampled_from(rows))])
        elif kind == "combo" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(combine(a, b, draw(SMALL), draw(SMALL)))
        else:
            rows.append(draw(st.lists(RATIONAL, min_size=ncols, max_size=ncols)))
    return rows


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 14))
    return ncols, draw(rows_of(ncols))


@st.composite
def matrices_with_probes(draw):
    """A matrix plus probe vectors: some in its row space, some random."""
    ncols, rows = draw(matrices())
    probes = [draw(st.lists(RATIONAL, min_size=ncols, max_size=ncols)) for _ in range(2)]
    if rows:
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        probes.append(combine(a, b, draw(SMALL), draw(SMALL)))
    return ncols, rows, probes


def _sympy_rref(rows):
    reduced, pivot_cols = sympy.Matrix(rows).rref()
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in reduced.row(i)) for i in range(len(pivot_cols))
    )


def _assert_int_or_proper_fraction(values):
    """Integral entries are ints; the others are Fractions with denominator > 1."""
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)


def _assert_canonical(basis):
    piv = pivots(basis)
    assert piv == sorted(set(piv))
    for p, row in zip(piv, basis):
        _assert_int_or_proper_fraction(row)
        assert row[p] == 1
        assert all(other[p] == 0 for other in basis if other is not row)


@st.composite
def integer_or_half_integer_pair(draw):
    """Two n x n matrices, each of integers or each of halves of integers, as
    Fractions, so integral inputs are Fractions too."""
    n = draw(st.integers(1, 6))

    def square():
        den = draw(st.sampled_from([1, 2]))
        return [[Fraction(draw(st.integers(-4, 4)), den) for _ in range(n)] for _ in range(n)]

    return square(), square()


@given(integer_or_half_integer_pair())
def test_outputs_are_ints_where_integral(pair):
    a, b = pair
    n = len(a)
    _assert_int_or_proper_fraction(x for row in SpanBuilder(a).basis() for x in row)
    _assert_int_or_proper_fraction(x for row in mat_mul(a, b) for x in row)
    _assert_int_or_proper_fraction(x for v in nullspace(a, n) for x in v)
    _assert_int_or_proper_fraction(min_poly_of_matrix(a))


@settings(max_examples=60)
@given(matrices())
def test_rref_matches_oracle_and_sympy(case):
    ncols, rows = case
    got = rref(rows)
    assert got == rref_oracle(rows)
    _assert_canonical(got)
    if rows:
        assert got == _sympy_rref(rows)


@given(matrices_with_probes())
def test_span_builder_matches_oracle(case):
    ncols, rows, probes = case
    builder, oracle = SpanBuilder(), SpanOracle()
    assert [builder.add(r) for r in rows] == [oracle.add(r) for r in rows]
    assert builder.dim == len(oracle.rows)
    assert builder.basis() == oracle.basis() == rref(rows)
    assert SpanBuilder(rows).basis() == builder.basis()
    _assert_canonical(builder.basis())
    for v in probes + rows:
        assert builder.contains(v) == oracle.contains(v)


@given(matrices())
def test_nullspace_matches_oracle(case):
    ncols, rows = case
    kernel = nullspace(rows, ncols)
    assert kernel == nullspace_oracle(rows, ncols)
    assert len(kernel) == ncols - len(rref(rows))
    for x in kernel:
        assert all(sum(a * b for a, b in zip(r, x)) == 0 for r in rows)


@given(matrices_with_probes())
def test_reduce_vector_and_express(case):
    ncols, rows, probes = case
    basis = rref(rows)
    oracle = SpanOracle()
    for r in rows:
        oracle.add(r)
    for v in probes:
        red = reduce_vector(basis, tuple(v))
        assert red == reduce_vector_oracle(basis, v)
        assert all(red[p] == 0 for p in pivots(basis))
        assert oracle.contains([x - y for x, y in zip(v, red)])
        coeffs = express(basis, tuple(v))
        if oracle.contains(v):
            assert coeffs is not None
            total = [0] * ncols
            for c, b in zip(coeffs, basis):
                total = combine(total, b, 1, c)
            assert total == list(v)
        else:
            assert coeffs is None


@given(matrices_with_probes())
def test_dependence_solves_for_the_new_vector(case):
    """The oracle behind ``min_poly_oracle`` solves for a vector in the span."""
    ncols, rows, probes = case
    builder = SpanBuilder()
    stack = [tuple(r) for r in rows if builder.add(r)]
    if not stack:
        return
    for v in probes:
        if builder.contains(v):
            coeffs = dependence(stack, tuple(v))
            total = list(v)
            for c, s in zip(coeffs, stack):
                total = combine(total, s, 1, c)
            assert not any(total)  # sum_i c_i stack[i] + v = 0
        else:
            try:
                dependence(stack, tuple(v))
            except ValueError:
                continue
            raise AssertionError("dependence accepted a vector outside the span")


def test_solve_commutant_of_a_jordan_block():
    # the commutant of a single nilpotent Jordan block is Q[N]: a I + b N + c N^2
    n = 3
    jordan = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    basis = solve_commutant([jordan], n)
    assert len(basis) == 3
    for x in basis:
        xm = [[sum(x[i][k] * jordan[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        mx = [[sum(jordan[i][k] * x[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert xm == mx


# --- the spin kernel for module maps ------------------------------------------------

ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))


def square(n):
    return st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return out


def unimodular(draw, n):
    """A random integer matrix of determinant 1, and its inverse."""
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)), max_size=2 * n))
    p, q = [[int(i == j) for j in range(n)] for i in range(n)], [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        if i != j:
            # p <- (I + c E_ij) p, q <- q (I - c E_ij)
            p[i] = [a + c * b for a, b in zip(p[i], p[j])]
            for row in q:
                row[j] -= c * row[i]
    return p, q


def conjugate(m, p, q):
    return [[sum(p[i][k] * m[k][l] * q[l][j] for k in range(len(m)) for l in range(len(m)))
             for j in range(len(m))] for i in range(len(m))]


@st.composite
def matrix_sets(draw):
    """1-4 matrices of size 1-7: random and mostly sparse, some replaced by scalar
    ones (zero included), or block-diagonal repeats of one module (not cyclic,
    so the spin needs several seeds)."""
    kind = draw(st.sampled_from(["random", "scalars", "blocks", "blocks"]))
    k = draw(st.integers(1, 4))
    if kind == "blocks":
        b = draw(st.integers(1, 3))
        copies = draw(st.integers(2, 7 // b))
        mats = [draw(square(b)) for _ in range(k)]
        extra = draw(st.integers(0, 7 - b * copies))
        tails = [draw(square(extra)) for _ in range(k)]
        mats = [block_diagonal([m] * copies + ([t] if extra else [])) for m, t in zip(mats, tails)]
        n = len(mats[0])
        if draw(st.booleans()):
            p, q = unimodular(draw, n)
            mats = [conjugate(m, p, q) for m in mats]
        return n, mats
    n = draw(st.integers(1, 7))
    mats = [draw(square(n)) for _ in range(k)]
    if kind == "scalars":
        cs = [draw(st.sampled_from([None, 0, 0, 1, -2, Fraction(1, 2)])) for _ in mats]
        mats = [m if c is None else [[c * (i == j) for j in range(n)] for i in range(n)] for m, c in zip(mats, cs)]
    return n, mats


@settings(max_examples=100, deadline=None)
@given(matrix_sets())
@example((0, []))
@example((0, [[], []]))
def test_solve_commutant_matches_the_oracle_basis_for_basis(case):
    """The basis equals the oracle's and spans the identity, which commutes
    with every generator: so the spin's kernels are never zero.  n = 0 takes
    the general path to the empty basis."""
    n, mats = case
    basis = solve_commutant(mats, n)
    assert basis == solve_commutant_oracle(mats, n)
    identity = [int(i == j) for i in range(n) for j in range(n)]
    assert len(rref_oracle([[x for row in m for x in row] for m in basis] + [identity])) == len(basis)


@settings(max_examples=100, deadline=None)
@given(matrix_sets())
def test_min_poly_matches_the_krylov_oracle(case):
    """The minimal polynomial read off one echelon equals the one the Krylov
    search and a second elimination find, is monic, and vanishes at M."""
    _n, mats = case
    m = mats[0]
    mu = min_poly_of_matrix(m)
    assert mu == min_poly_oracle(m)
    assert mu[-1] == 1
    assert not any(x for row in poly_eval_matrix(mu, m) for x in row)


@st.composite
def integer_matrices(draw):
    """Integer matrices of size 1-6: random, nilpotent (strictly upper
    triangular), or triangular with repeated diagonal entries, the last two
    conjugated by a random unimodular matrix."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "nilpotent", "repeated"]))
    m = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(n)]
    if kind == "random":
        return m
    diag = [0] * n if kind == "nilpotent" else draw(st.lists(st.sampled_from([-1, 0, 2]), min_size=n, max_size=n))
    m = [[m[i][j] if j > i else diag[i] if j == i else 0 for j in range(n)] for i in range(n)]
    p, q = unimodular(draw, n)
    return conjugate(m, p, q)


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_min_poly_has_the_irreducible_factors_of_the_char_poly(m):
    """The Lie decider reads square-free parts off minimal polynomials only:
    they equal those of the characteristic polynomial."""
    assert squarefree_part(min_poly_of_matrix(m)) == squarefree_part(char_poly(m))


def test_only_tagged_echelons_step_span_builder_by_hand():
    """Outside SpanBuilder, only the two echelons that carry tag columns beside
    their vectors, min_poly_of_matrix and _spin_tree, call _reduce or _push;
    every other echelon is filled by SpanBuilder itself."""
    src = Path(__file__).resolve().parents[1] / "src" / "pbp"
    callers = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "SpanBuilder"
                  for node in ast.walk(cls)}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and id(fn) not in inside:
                callers |= {(path.stem, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("_reduce", "_push")}
    assert callers == {("linalg", "min_poly_of_matrix"), ("linalg", "_spin_tree")}
