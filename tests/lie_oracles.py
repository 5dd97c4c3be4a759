"""From-scratch references for ``pbp.lie``.

``lattice_recursion_oracle`` enumerates the ideal lattice by recursing into
the quotient by every minimal ideal and lifting each ideal of the quotient
back one level at a time.  A quotient reached along several orders of
removal is split once per order.  ``pbp.lie.ideal_lattice`` splits each
ideal of L once, in a worklist over L itself, and must find the same ideals,
the same completeness and, when it flags an infinite family, a witness pair
of the same dimensions.

``decomposability_oracle`` splits the centroid as ``pbp.lie`` did before it
read primary components as kernels: it reduces powers of a generating
element modulo the rows of the trace radical, builds the CRT idempotent of
each factor of the minimal polynomial mod the radical, lifts it by Newton's
iteration e <- 3e^2 - 2e^3 and takes its column space.
``pbp.lie._decomposability`` must return the same split and the same
reason.

``intersect`` is the meet of two subspaces, which the lattice tests check
the ideal lattice against.  ``ideal_closure`` is the least ideal containing
a subspace, for the subspace tests.

``quotient_constants_oracle`` builds the structure constants of L / J from
the dense bracket of two lifted unit vectors, as ``pbp.lie`` did before
``quotient_algebra`` read them off the constants of L.
"""

from itertools import combinations
from typing import Sequence

from linalg_oracles import ONE, dependence
from pbp.lie import (
    Completeness,
    IdealLattice,
    LieAlgebra,
    Subspace,
    _combine,
    _minimal_ideals,
    _ordered,
    _spin,
    _trace_gram,
    centroid,
    quotient_algebra,
)
from pbp.linalg import (
    SpanBuilder,
    Vec,
    flatten,
    identity_matrix,
    mat_mul,
    mat_sub,
    nullspace,
    poly_eval_matrix,
    reduce_vector,
    rref,
    transpose,
)
from pbp.poly import factor_over_q, poly_mul
from pbp.verdict import InternalVerificationError
from poly_oracles import poly_divmod, poly_gcdext


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a meet b: v = x A = y B for the kernel vectors (x, y) of [A^T | -B^T]."""
    if a.is_zero() or b.is_zero():
        return Subspace.zero(a.ambient)
    rows = [[r[coord] for r in a.rows] + [-r[coord] for r in b.rows] for coord in range(a.ambient)]
    sols = nullspace(rows, a.dim + b.dim)
    return Subspace.from_vectors(a.ambient, [[sum(x * r[k] for x, r in zip(sol, a.rows)) for k in range(a.ambient)]
                                             for sol in sols])


def ideal_closure(algebra: LieAlgebra, seed: Subspace) -> Subspace:
    """Least ideal containing the seed: its spin under ad e_i, [e_i, v] = ad(e_i) v."""
    n = algebra.dim
    span = SpanBuilder()
    _spin(span, list(seed.rows), [algebra.ad_basis(i) for i in range(n)])
    return Subspace(n, span.basis())


def quotient_constants_oracle(algebra: LieAlgebra, ideal: Subspace) -> tuple:
    """project([lift(u_i), lift(u_j)]) for the unit vectors u of L / ideal,
    with the section and projection of ``quotient_algebra``."""
    quot, lift, project = quotient_algebra(algebra, ideal)
    units = [tuple(int(i == j) for j in range(quot.dim)) for i in range(quot.dim)]
    return tuple(tuple(project(algebra.bracket(lift(u), lift(v))) for v in units) for u in units)


def lattice_recursion_oracle(algebra: LieAlgebra) -> IdealLattice:
    n = algebra.dim
    atoms, status, witness = _minimal_ideals(algebra)
    if status is not Completeness.COMPLETE:
        return IdealLattice((), status, witness)
    if sum(atom.dim for atom in atoms) == n:
        # the algebra is the direct sum of its atoms, pairwise non-isomorphic
        # simple modules, so its ideals are the sums of subsets of them
        ideals = [
            Subspace(n, rref([r for atom in subset for r in atom.rows]))
            for k in range(len(atoms) + 1)
            for subset in combinations(atoms, k)
        ]
        return IdealLattice(_ordered(ideals), Completeness.COMPLETE, None)
    found = {(): Subspace.zero(n)}
    for atom in atoms:
        quot, lift, _project = quotient_algebra(algebra, atom)
        sub = lattice_recursion_oracle(quot)
        if sub.completeness is not Completeness.COMPLETE:
            lifted = None
            if sub.witness is not None:
                lifted = tuple(
                    Subspace(n, rref(list(atom.rows) + [lift(r) for r in w.rows]))
                    for w in sub.witness
                )
            return IdealLattice((), sub.completeness, lifted)
        for ideal in sub.ideals:
            rows = rref(list(atom.rows) + [lift(r) for r in ideal.rows])
            found.setdefault(rows, Subspace(n, rows))
    return IdealLattice(_ordered(found.values()), Completeness.COMPLETE, None)


def decomposability_oracle(algebra: LieAlgebra):
    n = algebra.dim
    cen = centroid(algebra)
    if len(cen) == 1:
        return ("indecomposable", "the centroid is Q, hence local")
    radical = rref(flatten(m) for m in _trace_radical(cen, n))
    idempotents = _primitive_idempotents(cen, n, radical)
    if len(idempotents) == 1:
        d = len(cen) - len(radical)
        field = "Q" if d == 1 else f"of degree {d}"
        return ("indecomposable", f"the centroid is local with residue field {field}")
    u, *rest = _ordered(Subspace(n, _column_space(e)) for e in idempotents)
    return ("decomposable", (u, Subspace(n, rref(r for part in rest for r in part.rows))))


def _trace_radical(alg_basis: list, n: int) -> list:
    """Radical of the algebra spanned by ``alg_basis``: the trace-form kernel.

    Valid in characteristic zero for an algebra given by matrices acting
    faithfully, which is the case here by construction.
    """
    kernel = nullspace(_trace_gram(alg_basis), len(alg_basis))
    return [_combine(sol, alg_basis, n) for sol in kernel]


def _generating_element(basis: list, n: int, radical: Sequence[Vec]) -> tuple[list, tuple]:
    """(z, mu): an element z generating A / rad A, for the commutative algebra A
    spanned by ``basis``, and its minimal polynomial mu mod rad A.

    ``radical`` holds the rref rows of rad A, as flattened matrices.  A/rad A
    is a product of number fields of total degree d, and z = sum_i c^i b_i
    generates it unless two of its d embeddings agree on z.  For each pair
    that happens only at the roots of a nonzero polynomial in c of degree
    < k = len(basis), so one of c = 1, ..., (k-1) d(d-1)/2 + 1 generates it;
    when none does, A is not commutative.
    """
    k, d = len(basis), len(basis) - len(radical)
    for c in range(1, (k - 1) * d * (d - 1) // 2 + 2):
        z = _combine([c**i for i in range(k)], basis, n)
        mu = _min_poly_of_matrix(z, radical)
        if len(mu) - 1 == d:
            return z, mu
    raise InternalVerificationError("no element generates A / rad A: A is not commutative")


def _primitive_idempotents(basis: list, n: int, radical: Sequence[Vec]) -> list:
    """The primitive idempotents of the commutative algebra A spanned by ``basis``.

    The CRT idempotents of the factors of the minimal polynomial mod rad A of
    a generating element (``_generating_element``) lift to A by
    e <- 3e^2 - 2e^3, which ends because rad A is nilpotent.
    """
    z, mu = _generating_element(basis, n, radical)
    idempotents = []
    for f in factor_over_q(mu):
        e = poly_eval_matrix(_crt_idempotent_poly(mu, f), z)
        square = mat_mul(e, e)
        while not _mat_eq(square, e):
            e = mat_sub(mat_scale(square, 3), mat_scale(mat_mul(square, e), 2))
            square = mat_mul(e, e)
        idempotents.append(e)
    return idempotents


def _crt_idempotent_poly(mu: Sequence, factor: Sequence) -> tuple:
    """h with h = 1 mod factor and h = 0 mod mu/factor (mu squarefree)."""
    g = poly_divmod(mu, factor)[0]
    gcd, u, _ = poly_gcdext(g, factor)
    if len(gcd) != 1:
        raise InternalVerificationError("factor must be coprime to the cofactor")
    return poly_divmod(poly_mul(u, g), mu)[1]


def _min_poly_of_matrix(m: Sequence[Sequence], modulo: Sequence[Vec] = ()) -> tuple:
    """Monic minimal polynomial via the first linear dependence among powers,
    taken modulo the span of ``modulo``, rref rows of flattened matrices."""
    n = len(m)
    power = identity_matrix(n)
    builder = SpanBuilder()
    stack: list[Vec] = []
    while True:
        v = reduce_vector(modulo, flatten(power))
        if not builder.add(v):
            coeffs = dependence(stack, v)
            return tuple(coeffs + [ONE])
        stack.append(v)
        power = mat_mul(power, m)


def mat_scale(a, c) -> list:
    return [[x * c for x in row] for row in a]


def _mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _column_space(mat: Sequence[Sequence]) -> tuple[Vec, ...]:
    return rref(transpose(mat))
