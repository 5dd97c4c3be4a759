"""Finite-dimensional Lie algebras over Q via structure constants.

Provides ideals, centralizers, complete ideal-lattice enumeration where the
lattice is finite, and the decision whether the algebra splits as a sum of
two commuting nonzero subalgebras.  The enumeration walks the ideals J of
the algebra L once each, splitting L / J by its minimal ideals, and draws
no random numbers.  It is certified: each isotypic component S^k of the
socle is decided from its commutant M_k(D), and is simple when that is
commutative, which needs k = 1.  Otherwise a unit vector or a null vector
of a generator may spin to a proper submodule; a simple w1 is found inside
it, and a commutant map moves w1 to a second minimal ideal w2 = phi(w1),
an infinite family.  The lattice is Unknown only when no seed spins to a
proper submodule: in a basis of vr(3,1,2) where none lies in one copy of
S, or when k = 1 and D is not commutative.
Every lattice that is not Complete is decided by the centroid instead: a
centreless algebra splits exactly when its centroid, which is then
commutative, has an idempotent other than 0 and 1.  The centroid and the
centre of the socle's endomorphism ring are split by one reader: the images
of a commutative algebra's primitive idempotents are the primary components
of one element that generates it modulo its radical.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations

from .linalg import (
    SpanBuilder,
    Vec,
    _int_row,
    express,
    flatten,
    is_zero_vec,
    mat_mul,
    mat_sub,
    mat_vec,
    min_poly_of_matrix,
    nullspace,
    pivots,
    poly_eval_matrix,
    reduce_vector,
    rref,
    solve_commutant,
    transpose,
    vec_add,
)
from .poly import factor_over_q, squarefree_part
from .verdict import Answer, InternalVerificationError, Record, json_int


class InvalidAlgebra(ValueError):
    """The structure constants violate antisymmetry or the Jacobi identity."""


class UnsupportedParams(ValueError):
    """Unknown catalogue name or parameters."""


# ---------------------------------------------------------------------------
# algebras and subspaces


class LieAlgebra(Record):
    """Structure constants c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k."""

    __slots__ = ("dim", "constants", "labels")

    def __init__(self, dim: int, constants: tuple, labels: tuple[str, ...]):
        if dim < 1:
            raise ValueError("algebras here have dimension >= 1")
        # integral Fractions are stored as ints: equal values, faster arithmetic
        c = tuple(tuple(tuple(_integral(x) for x in row) for row in plane) for plane in constants)
        if len(labels) != dim:
            raise ValueError("one label per basis vector")
        self._set(dim, c, labels)

    def bracket(self, u: Sequence, v: Sequence) -> Vec:
        out = [0] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k, c in enumerate(self.constants[i][j]):
                    if c:
                        out[k] += a * b * c
        return tuple(out)

    def ad_basis(self, i: int) -> list:
        """Matrix of ad(e_i): columns are [e_i, e_j]."""
        cols = [self.constants[i][j] for j in range(self.dim)]
        return [list(row) for row in zip(*cols)]

    def ad(self, v: Sequence) -> list:
        used = [i for i, a in enumerate(v) if a]
        return _combine([v[i] for i in used], [self.ad_basis(i) for i in used], self.dim)


def validate(algebra: LieAlgebra) -> str | None:
    """None if the Lie axioms hold, else a message naming the first violation."""
    n = algebra.dim
    c = algebra.constants
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return f"antisymmetry fails at ({i}, {j}, {k})"
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                lhs = vec_add(
                    vec_add(
                        algebra.bracket(algebra.constants[i][j], _unit(n, k)),
                        algebra.bracket(algebra.constants[j][k], _unit(n, i)),
                    ),
                    algebra.bracket(algebra.constants[k][i], _unit(n, j)),
                )
                if not is_zero_vec(lhs):
                    return f"Jacobi identity fails at ({i}, {j}, {k})"
    return None


def _integral(x):
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _unit(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


class Subspace(Record):
    """Subspace of Q^ambient in reduced echelon form (canonical)."""

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, rows: tuple[Vec, ...]):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def from_vectors(ambient: int, vectors: Sequence[Sequence]) -> "Subspace":
        return Subspace(ambient, rref(list(vectors)))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, ())

    @staticmethod
    def whole(ambient: int) -> "Subspace":
        return Subspace(ambient, tuple(_unit(ambient, i) for i in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def contains(self, v: Sequence) -> bool:
        return is_zero_vec(reduce_vector(self.rows, tuple(v)))

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(self.ambient, rref(list(self.rows) + list(other.rows)))


def bracket_subspace(algebra: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    # the result is a span, so each row may be scaled to primitive integers
    ints = [_int_row(y) for y in b.rows]
    vecs = [algebra.bracket(_int_row(x), y) for x in a.rows for y in ints]
    return Subspace.from_vectors(algebra.dim, vecs)


def is_subalgebra(algebra: LieAlgebra, s: Subspace) -> bool:
    return s.contains_space(bracket_subspace(algebra, s, s))


def is_ideal(algebra: LieAlgebra, s: Subspace) -> bool:
    return s.contains_space(bracket_subspace(algebra, Subspace.whole(algebra.dim), s))


def centralizer(algebra: LieAlgebra, a: Subspace) -> Subspace:
    """{Y : [Y, X] = 0 for all X in a}, as the kernel of stacked ad matrices."""
    if a.is_zero():
        return Subspace.whole(algebra.dim)
    rows = []
    for x in a.rows:
        rows.extend(algebra.ad(x))  # [x, Y] = ad(x) Y; zero iff [Y, x] = 0
    return Subspace.from_vectors(algebra.dim, nullspace(rows, algebra.dim))


def centre(algebra: LieAlgebra) -> Subspace:
    return centralizer(algebra, Subspace.whole(algebra.dim))


# ---------------------------------------------------------------------------
# product certificates


class LieCertificate(Record):
    __slots__ = ("g1", "g2")

    def __init__(self, g1: Subspace, g2: Subspace):
        self._set(g1, g2)

    def to_json(self) -> dict:
        return {
            "g1": [[str(x) for x in row] for row in self.g1.rows],
            "g2": [[str(x) for x in row] for row in self.g2.rows],
        }


def verify_product_certificate(
    algebra: LieAlgebra, cert: LieCertificate
) -> tuple[bool, str | None]:
    """Accept iff both parts are nonzero commuting subalgebras spanning the algebra."""
    n = algebra.dim
    for name, part in (("g1", cert.g1), ("g2", cert.g2)):
        if part.ambient != n:
            return False, f"{name} lives in the wrong ambient dimension"
        if part.is_zero():
            return False, f"{name} is the zero subspace"
        if not is_subalgebra(algebra, part):
            return False, f"{name} is not a subalgebra"
    if not bracket_subspace(algebra, cert.g1, cert.g2).is_zero():
        return False, "the two parts do not commute"
    total = cert.g1.add(cert.g2)
    if total.dim != n:
        return False, f"sum has dimension {total.dim} < {n}"
    # commuting parts that span are automatically ideals; re-check anyway
    for name, part in (("g1", cert.g1), ("g2", cert.g2)):
        if not is_ideal(algebra, part):
            raise InternalVerificationError(f"accepted {name} is not an ideal")
    return True, None


# ---------------------------------------------------------------------------
# quotients


def quotient_algebra(
    algebra: LieAlgebra, ideal: Subspace
) -> tuple[LieAlgebra, Callable[[Vec], Vec], Callable[[Vec], Vec]]:
    """Quotient by an ideal, with a linear section lift and projection."""
    n = algebra.dim
    piv = set(pivots(ideal.rows))
    free = [j for j in range(n) if j not in piv]

    def project(v: Sequence) -> Vec:
        w = reduce_vector(ideal.rows, tuple(v))
        return tuple(w[j] for j in free)

    def lift(u: Sequence) -> Vec:
        out = [0] * n
        for val, j in zip(u, free):
            out[j] = val
        return tuple(out)

    c = algebra.constants
    constants = [[project(c[a][b]) for b in free] for a in free]
    labels = tuple(algebra.labels[j] for j in free)
    return LieAlgebra(len(free), constants, labels), lift, project


# ---------------------------------------------------------------------------
# module machinery for the adjoint representation


def _trace_gram(mats: list) -> list:
    """Gram matrix of the trace form (A, B) -> tr(AB) on ``mats``."""
    k = len(mats)
    # tr(AB) is the dot product of A and B^T flattened; the Gram is symmetric
    flat = [flatten(b) for b in mats]
    flat_t = [flatten(transpose(b)) for b in mats]
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        a = flat[i]
        for j in range(i, k):
            gram[i][j] = gram[j][i] = sum([x * y for x, y in zip(a, flat_t[j]) if x and y])
    return gram


def _combine(coeffs: Sequence, mats: list, n: int) -> list:
    """The n x n matrix sum_i coeffs[i] * mats[i]."""
    out = [[0] * n for _ in range(n)]
    for c, m in zip(coeffs, mats):
        if c:
            for i in range(n):
                for j in range(n):
                    if m[i][j]:
                        out[i][j] += c * m[i][j]
    return out


def _restrict(mat, rows: tuple[Vec, ...]) -> list:
    """Matrix of an invariant operator in the coordinates of an rref basis."""
    cols = []
    for b in rows:
        img = mat_vec(mat, b)
        coeffs = express(rows, img)
        if coeffs is None:
            raise InternalVerificationError("operator does not preserve the subspace")
        cols.append(coeffs)
    return [list(r) for r in zip(*cols)]


def _compose_rows(outer: tuple[Vec, ...], inner: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """Map rows given in outer-coordinates back to ambient coordinates."""
    return rref(mat_vec(transpose(outer), r) for r in inner)


def _spin(vectors: list, gens: list, n: int) -> tuple[Vec, ...]:
    """Smallest gens-invariant subspace containing the vectors (rref rows)."""
    builder = SpanBuilder()
    queue = []
    for v in vectors:
        if builder.add(v):
            queue.append(v)
    while queue:
        v = queue.pop()
        for g in gens:
            w = mat_vec(g, v)
            if builder.add(w):
                queue.append(w)
    return builder.basis()


# ---------------------------------------------------------------------------
# minimal ideals, certified


class Completeness(Enum):
    COMPLETE = "Complete"
    INFINITE_FAMILY = "InfiniteFamilyDetected"
    UNKNOWN = "Unknown"


class IdealLattice(Record):
    """All ideals when completeness is Complete; otherwise a partial view.

    The witness pair consists of two distinct ideals exhibiting an infinite
    family (at socle level these are isomorphic minimal ideals with equal
    centralizers; a family detected in a quotient L / J is lifted once, to
    its preimages in L).
    """

    __slots__ = ("ideals", "completeness", "witness")

    def __init__(self, ideals: tuple[Subspace, ...], completeness: Completeness,
                 witness: tuple[Subspace, Subspace] | None = None):
        self._set(ideals, completeness, witness)


def _simplicity(gens: list, endo: list):
    """'simple' | ('proper', rows) | None, for a semisimple isotypic module
    Q^dim with commutant basis ``endo``.

    Such a module is S^k for a simple S, and its commutant E is M_k(D), D =
    End(S) a division ring (Schur and Wedderburn; Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, ch. 7).  M_k(D) is not
    commutative once k >= 2, so a commutative E certifies k = 1.  Otherwise
    the spin of a unit vector, then of one null vector of each singular
    generator, may be a proper submodule.  None means that no seed gave one:
    in a basis where no such vector lies in a single copy of S, or when k = 1
    and D is not commutative.
    """
    dim = len(endo[0])
    if all(mat_mul(a, b) == mat_mul(b, a) for a, b in combinations(endo, 2)):
        return "simple"
    units = (_unit(dim, i) for i in range(dim))
    kernels = (ker[0] for g in gens if (ker := nullspace(g, dim)))
    for v in chain(units, kernels):
        w = _spin([v], gens, dim)
        if len(w) < dim:
            return ("proper", w)
    return None


def _find_simple_inside(rows: tuple[Vec, ...], gens: list):
    """A certified-simple submodule inside span(rows), in ambient rows; or None."""
    cur_rows = rows
    cur_gens = [_restrict(g, rows) for g in gens]
    while True:
        res = _simplicity(cur_gens, solve_commutant(cur_gens, len(cur_rows)))
        if res == "simple":
            return cur_rows
        if res is None:
            return None
        _, inner = res
        cur_rows = _compose_rows(cur_rows, inner)
        cur_gens = [_restrict(g, cur_rows) for g in gens]


def _minimal_ideals(algebra: LieAlgebra):
    """(atoms, Completeness, witness): all minimal ideals, certified.

    The minimal ideals are the simple submodules of the adjoint module.  They
    span its socle, and each lies in one isotypic component S^k of it: when
    k = 1 the component is a minimal ideal, and otherwise the minimal ideals
    inside it form an infinite family.  ``_simplicity`` tells the two apart
    from the component's commutant.
    """
    n = algebra.dim
    ad_mats = [algebra.ad_basis(i) for i in range(n)]
    radical, soc_rows = _adjoint_socle(algebra, ad_mats)
    # a subspace invariant under ad a and ad b is invariant under ad [a, b],
    # and a map commuting with both commutes with it, so the ad of a
    # generating set has the invariant subspaces and commutants of all of ad L
    ad_gens = [ad_mats[i] for i in _generators(algebra)]
    ad_soc = [_restrict(m, soc_rows) for m in ad_gens] if radical else ad_gens
    soc_endo = solve_commutant(ad_soc, len(soc_rows))
    components = _isotypic_components(soc_endo, len(soc_rows))
    if not radical:
        # a semisimple algebra is the direct sum of its simple ideals; each
        # acts nontrivially only on itself, so no two are isomorphic modules
        # and every isotypic component is one simple ideal
        atoms = [Subspace(n, c) for c in components]
        for atom in atoms:
            if not is_ideal(algebra, atom):
                raise InternalVerificationError("a semisimple component is not an ideal")
            if bracket_subspace(algebra, atom, atom) != atom:
                raise InternalVerificationError("a semisimple component is not perfect")
        if sum(atom.dim for atom in atoms) != n:
            raise InternalVerificationError("the semisimple components do not span the algebra")
        return atoms, Completeness.COMPLETE, None

    atoms = []
    for comp in components:
        comp_ambient = _compose_rows(soc_rows, comp)
        gens_c = [_restrict(m, comp_ambient) for m in ad_gens]
        # one component is the whole socle, in rref rows the identity, so
        # the socle's commutant is the component's in the same coordinates
        endo = soc_endo if len(components) == 1 else solve_commutant(gens_c, len(comp_ambient))
        res = _simplicity(gens_c, endo)
        if res == "simple":
            atoms.append(Subspace(n, comp_ambient))
            continue
        if res is None:
            return [], Completeness.UNKNOWN, None
        # a proper submodule inside one isotypic component: the component has
        # multiplicity >= 2, so its minimal submodules form an infinite family
        _, inner = res
        wit = _witness_pair(algebra, comp_ambient, _compose_rows(comp_ambient, inner), ad_gens, endo)
        if wit is None:
            return [], Completeness.UNKNOWN, None
        return [], Completeness.INFINITE_FAMILY, wit
    return atoms, Completeness.COMPLETE, None


def _adjoint_socle(algebra: LieAlgebra, ad_mats: list) -> tuple[list, tuple[Vec, ...]]:
    """(radical, socle): a basis of the solvable radical R, and the rref rows
    of the socle of the adjoint module.

    R is the Killing-orthogonal of [L, L], and R = 0 when the Killing form is
    nondegenerate (Cartan's criterion); then the socle is L.  Otherwise [L, R]
    acts as zero on every simple module, so the socle lies in the centralizer
    M of [L, R].  On M each ad z, z in R, commutes with ad L, so it acts on a
    simple submodule by an element of a division ring and the socle is the
    part of M on which every ad z is semisimple (Bourbaki, Lie Groups and Lie
    Algebras I, 5.3, 5.5 and 6.5).  That part is the kernel in M of f(ad z),
    f the square-free part of the minimal polynomial of ad z.
    """
    n = algebra.dim
    gram = _trace_gram(ad_mats)
    if not nullspace(gram, n):
        return [], Subspace.whole(n).rows
    derived = rref(row for i, plane in enumerate(algebra.constants) for row in plane[i + 1 :])
    radical = nullspace([mat_vec(gram, y) for y in derived], n)
    ideal = rref(mat_vec(m, z) for m in ad_mats for z in radical)  # [L, R]
    rows = [row for y in ideal for row in algebra.ad(y)]
    # ad z vanishes on M for z in [L, R], so z running over R / [L, R] will do
    span = SpanBuilder(ideal)
    for z in radical:
        if span.add(z):
            ad_z = algebra.ad(z)
            mu = min_poly_of_matrix(ad_z)
            f = squarefree_part(mu)
            if len(f) < len(mu):  # otherwise f is a multiple of mu: f(ad z) = 0
                rows.extend(poly_eval_matrix(f, ad_z))
    return radical, rref(nullspace(rows, n))


def _isotypic_components(endo: list, d: int) -> list:
    """Split the socle into isotypic components, rref rows each.

    ``endo`` is a basis of the socle's endomorphism ring, the commutant of
    ad L on it.  The components are the images of the primitive idempotents
    of its centre C.  The socle is a semisimple module, so C is a product of
    number fields: it has no radical.
    """
    if len(endo) == 1:
        return [Subspace.whole(d).rows]
    zcent = _centre_of_span(endo, d)
    return _primary_components(zcent, d, len(zcent))


def _primary_components(basis: list, n: int, d: int) -> list:
    """The images in Q^n of the primitive idempotents of the commutative
    algebra A spanned by ``basis``, rref rows each; d = dim A / rad A.

    A / rad A is a product of number fields of total degree d, and z = sum_i
    c^i b_i generates it unless two of its d embeddings agree on z.  For each
    pair that happens only at the roots of a nonzero polynomial in c of degree
    < k = len(basis), so one of c = 1, ..., (k-1) d(d-1)/2 + 1 generates it;
    when none does, A is not commutative.  rad A is the set of nilpotents of
    A, so the minimal polynomial of z mod rad A is the square-free part mu of
    z's own.  The idempotent e of the field of a factor f of mu is a
    polynomial in z, and f(z) is nilpotent on eQ^n and invertible on
    (1 - e)Q^n, so ker f(z)^j lies in eQ^n and fills it once j >= n (Hoffman
    and Kunze, Linear Algebra, 6.8).  The kernels are therefore the images as
    soon as their dimensions add up to n.  When rad A = 0, z is semisimple and
    j = 1 will do.
    """
    k = len(basis)
    for c in range(1, (k - 1) * d * (d - 1) // 2 + 2):
        z = _combine([c**i for i in range(k)], basis, n)
        mu = squarefree_part(min_poly_of_matrix(z))
        if len(mu) - 1 == d:
            break
    else:
        raise InternalVerificationError("no element generates A / rad A: A is not commutative")
    powers, j = [poly_eval_matrix(f, z) for f in factor_over_q(mu)], 1
    while True:
        parts = [rref(nullspace(p, n)) for p in powers]
        if sum(len(part) for part in parts) == n:
            return parts
        if j >= n:
            raise InternalVerificationError("the primary components do not span Q^n")
        powers, j = [mat_mul(p, p) for p in powers], 2 * j


def _centre_of_span(mats: list, n: int) -> list:
    """{z in span(mats) : z m = m z for all m}, as matrices."""
    k = len(mats)
    rows = []
    for m in mats:
        comms = [flatten(mat_sub(mat_mul(b, m), mat_mul(m, b))) for b in mats]
        rows.extend(list(row) for row in zip(*comms) if any(row))
    if not rows:
        return mats
    return [_combine(sol, mats, n) for sol in nullspace(rows, k)]


def _witness_pair(
    algebra: LieAlgebra, comp_ambient: tuple[Vec, ...], proper: tuple[Vec, ...], ad_gens: list, endo: list
):
    """Two distinct isomorphic minimal ideals with equal centralizers, or None.

    The isotypic component S^k holds the proper submodule ``proper``, so
    k >= 2.  w1 is a simple submodule of ``proper``, and w2 = phi(w1) for
    the first basis map phi of the component's commutant M_k(D) (``endo``,
    in the coordinates of ``comp_ambient``) with phi(w1) not inside w1.
    Such a phi exists, because M_k(D) fixes no proper submodule of S^k.
    phi is 0 or injective on the simple w1, so w2 is isomorphic to w1.  The
    two then have one annihilator in L, which is the centralizer of each.
    """
    n = algebra.dim
    w1 = _find_simple_inside(proper, ad_gens)
    if w1 is None:
        return None
    s1 = Subspace(n, w1)
    local = [express(comp_ambient, r) for r in w1]
    for phi in endo:
        s2 = Subspace(n, _compose_rows(comp_ambient, [mat_vec(phi, v) for v in local]))
        if not s1.contains_space(s2):
            if centralizer(algebra, s1) != centralizer(algebra, s2):
                raise InternalVerificationError("isomorphic minimal ideals with different centralizers")
            return (s1, s2)
    raise InternalVerificationError("the commutant of a non-simple component fixes a simple submodule")


# ---------------------------------------------------------------------------
# the ideal lattice


def ideal_lattice(algebra: LieAlgebra) -> IdealLattice:
    """Enumerate all ideals, flag an infinite family, or give up explicitly.

    Every ideal K above an ideal J contains J + m for a minimal ideal m / J
    of L / J, so the ideals are reached from 0 by such covers.  A depth-first
    worklist splits each ideal J once, by the minimal ideals of L / J, and
    lifts each cover and witness to L once.  The enumeration is complete
    whenever every split certifies completeness.
    """
    n = algebra.dim
    found: dict = {}
    stack = [Subspace.zero(n)]
    while stack:
        ideal = stack.pop()
        if ideal.rows in found:
            continue
        found[ideal.rows] = ideal
        quot, lift = algebra, tuple
        if not ideal.is_zero():
            quot, lift, _project = quotient_algebra(algebra, ideal)

        def preimage(rows):
            return Subspace(n, rref(list(ideal.rows) + [lift(r) for r in rows]))

        atoms, status, witness = _minimal_ideals(quot)
        if status is not Completeness.COMPLETE:
            lifted = None if witness is None else tuple(preimage(w.rows) for w in witness)
            return IdealLattice((), status, lifted)
        if sum(atom.dim for atom in atoms) == quot.dim:
            # L / J is the direct sum of its atoms, pairwise non-isomorphic
            # simple modules, so the ideals above J are the subset sums
            for k in range(len(atoms) + 1):
                for subset in combinations(atoms, k):
                    sub = preimage([r for atom in subset for r in atom.rows])
                    found.setdefault(sub.rows, sub)
        else:
            # marked when popped and pushed in reverse, so the ideals are
            # split in depth-first preorder, the first cover's first
            stack.extend(reversed([preimage(atom.rows) for atom in atoms]))
    return IdealLattice(_ordered(found.values()), Completeness.COMPLETE, None)


def _ordered(ideals) -> tuple[Subspace, ...]:
    return tuple(sorted(ideals, key=lambda s: (s.dim, s.rows)))


# ---------------------------------------------------------------------------
# decomposability via the commuting-projection ring


def _generators(algebra: LieAlgebra) -> list[int]:
    """The indices i, in order, of each e_i outside the subalgebra that the
    earlier picks generate; together they generate the algebra.

    Every Lie monomial in a set S is a combination of right-normed ones
    [s_1, [s_2, ..., s_k]], so the subalgebra S generates is the span of S
    and its images under iterated ad s, s in S: a spin.  Its vectors grow by
    one ad matrix per step, where nested brackets of spun vectors add up
    their sizes, which in a dense basis doubles them at every step.
    """
    n = algebra.dim
    span, elements, picks, ads = SpanBuilder(), [], [], []
    for i in range(n):
        e = _unit(n, i)
        if span.contains(e):
            continue
        picks.append(i)
        ads.append(algebra.ad_basis(i))
        queue = [mat_vec(ads[-1], v) for v in elements] + [e]
        while queue:
            v = queue.pop()
            if span.add(v):
                elements.append(v)
                queue.extend(mat_vec(a, v) for a in ads)
    return picks


def centroid(algebra: LieAlgebra) -> list:
    """Basis of {X : X ad(v) = ad(v) X for all v} = End of the adjoint module.

    X commutes with ad [a, b] = [ad a, ad b] once it commutes with ad a and
    ad b, so the commutant of the ad of a generating set is the same space.
    """
    return solve_commutant([algebra.ad_basis(i) for i in _generators(algebra)], algebra.dim)


def _decomposability(algebra: LieAlgebra):
    """('decomposable', (U, W)) | ('indecomposable', reason), for Z(L) = 0.

    A centreless algebra is a sum of two commuting nonzero ideals iff its
    centroid, which is then commutative (Jacobson, Lie Algebras, ch. X, sec. 1),
    has a nontrivial idempotent, that is, iff the centroid is not local.
    U is the least (dim, rows) image eL of a primitive idempotent e, and W
    = (1 - e)L is the sum of the other images.
    """
    n = algebra.dim
    cen = centroid(algebra)
    if len(cen) == 1:
        return ("indecomposable", "the centroid is Q, hence local")
    # the radical of a faithful matrix algebra in characteristic 0 is the
    # kernel of its trace form
    d = len(cen) - len(nullspace(_trace_gram(cen), len(cen)))
    parts = _primary_components(cen, n, d)
    if len(parts) == 1:
        field = "Q" if d == 1 else f"of degree {d}"
        return ("indecomposable", f"the centroid is local with residue field {field}")
    u, *rest = _ordered(Subspace(n, part) for part in parts)
    return ("decomposable", (u, Subspace(n, rref(r for part in rest for r in part.rows))))


# ---------------------------------------------------------------------------
# the presentability decision


class IdealTrace(Record):
    __slots__ = ("ideal", "centralizer", "sum_dim")

    def __init__(self, ideal: Subspace, centralizer: Subspace, sum_dim: int):
        self._set(ideal, centralizer, sum_dim)


class LieResult(Record):
    __slots__ = ("answer", "certificate", "trace", "lattice", "note")

    def __init__(self, answer: Answer, certificate: LieCertificate | None,
                 trace: tuple[IdealTrace, ...], lattice: IdealLattice | None, note: str = ""):
        self._set(answer, certificate, trace, lattice, note)

    def to_json(self) -> dict:
        return {
            "answer": self.answer.value,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "note": self.note,
            "ideal_trace": [
                {
                    "ideal_dim": t.ideal.dim,
                    "centralizer_dim": t.centralizer.dim,
                    "span_dim": t.sum_dim,
                }
                for t in self.trace
            ],
            "lattice_completeness": self.lattice.completeness.value if self.lattice else None,
        }


def _accept_or_die(algebra: LieAlgebra, cert: LieCertificate) -> LieCertificate:
    ok, reason = verify_product_certificate(algebra, cert)
    if not ok:
        raise InternalVerificationError(f"produced certificate failed its re-check: {reason}")
    return cert


def lie_presentable(algebra: LieAlgebra) -> LieResult:
    """Decide whether two commuting nonzero subalgebras sum onto the algebra.

    YES answers carry a certificate that has been re-verified; NO answers
    carry the per-ideal trace (finite lattice) or a locality argument for
    the centroid (any other lattice, whose trace is cut short).
    """
    problem = validate(algebra)
    if problem is not None:
        raise InvalidAlgebra(problem)
    n = algebra.dim
    whole = Subspace.whole(n)

    z = centre(algebra)
    if z.dim > 0:
        cert = _accept_or_die(algebra, LieCertificate(z, whole))
        return LieResult(Answer.YES, cert, (), None, "the centre is nonzero")

    lattice = ideal_lattice(algebra)
    if lattice.completeness is Completeness.COMPLETE:
        entries = []
        for ideal in lattice.ideals:
            if ideal.is_zero():
                continue
            cent = centralizer(algebra, ideal)
            sum_dim = ideal.add(cent).dim
            entries.append(IdealTrace(ideal, cent, sum_dim))
            if cent.dim > 0 and sum_dim == n:
                cert = _accept_or_die(algebra, LieCertificate(ideal, cent))
                return LieResult(
                    Answer.YES, cert, tuple(entries), lattice,
                    "an ideal and its centralizer span the algebra",
                )
        return LieResult(
            Answer.NO, None, tuple(entries), lattice,
            "every nonzero ideal fails: its centralizer does not complement it",
        )

    infinite = lattice.completeness is Completeness.INFINITE_FAMILY
    outcome = _decomposability(algebra)
    if outcome[0] == "decomposable":
        cert = _accept_or_die(algebra, LieCertificate(*outcome[1]))
        note = "a centroid idempotent splits the algebra into two commuting ideals"
        if not infinite:
            note = "the ideal enumeration did not finish; " + note
        return LieResult(Answer.YES, cert, (), lattice, note)
    entries = []
    for wit in lattice.witness or ():
        cent = centralizer(algebra, wit)
        entries.append(IdealTrace(wit, cent, wit.add(cent).dim))
    lead = "infinitely many ideals" if infinite else "the ideal enumeration did not finish"
    return LieResult(
        Answer.NO, None, tuple(entries), lattice,
        lead + ", but the centre is zero and " + outcome[1]
        + "; no pair of commuting complementary ideals exists",
    )


# ---------------------------------------------------------------------------
# catalogue


def _from_brackets(labels: Sequence[str], brackets: dict) -> LieAlgebra:
    """The algebra with [e_i, e_j] = sum_k v e_k = -[e_j, e_i] for each
    (i, j): {k: v} in ``brackets``; omitted brackets are zero."""
    n = len(labels)
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), value in brackets.items():
        for k, v in value.items():
            c[i][j][k], c[j][i][k] = v, -v
    return LieAlgebra(n, c, tuple(labels))


def _brackets(algebra: LieAlgebra, shift: int = 0) -> dict:
    """The nonzero [e_i, e_j], i < j, in the table form of ``_from_brackets``,
    every index raised by ``shift``."""
    table = {}
    for i, plane in enumerate(algebra.constants):
        for j in range(i + 1, algebra.dim):
            value = {k + shift: v for k, v in enumerate(plane[j]) if v}
            if value:
                table[(i + shift, j + shift)] = value
    return table


def af() -> LieAlgebra:
    """Two-dimensional nonabelian algebra: [g, e] = e."""
    return _from_brackets(("e", "g"), {(1, 0): {0: 1}})


def sol() -> LieAlgebra:
    """[g, e] = e, [g, f] = -f, [e, f] = 0."""
    return _from_brackets(("e", "f", "g"), {(2, 0): {0: 1}, (2, 1): {1: -1}})


def sl2() -> LieAlgebra:
    """[h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    return _from_brackets(("e", "f", "h"), {(2, 0): {0: 2}, (2, 1): {1: -2}, (0, 1): {2: 1}})


def heisenberg() -> LieAlgebra:
    """[x, y] = z, z central."""
    return _from_brackets(("x", "y", "z"), {(0, 1): {2: 1}})


def abelian(n: int) -> LieAlgebra:
    if n < 1:
        raise UnsupportedParams("abelian algebra needs dimension >= 1")
    return _from_brackets([f"a{i}" for i in range(n)], {})


def _so_basis_matrices(p: int, q: int) -> list:
    n = p + q
    eps = [1] * p + [-1] * q
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = [[0] * n for _ in range(n)]
            m[i][j] = eps[i]
            m[j][i] = -eps[j]
            mats.append(((i, j), m))
    return mats


def so(p: int, q: int = 0) -> LieAlgebra:
    """Matrices X with X^T G + G X = 0 for G = diag(1^p, -1^q), standard basis."""
    n = p + q
    if min(p, q) < 0 or n < 2:
        raise UnsupportedParams("so(p, q) needs p, q >= 0 and p + q >= 2")
    eps = [1] * p + [-1] * q
    basis = _so_basis_matrices(p, q)
    mats = [m for _, m in basis]
    table = {}
    for a, b in combinations(range(len(basis)), 2):
        y = mat_sub(mat_mul(mats[a], mats[b]), mat_mul(mats[b], mats[a]))
        table[(a, b)] = {k: y[i][j] * eps[i] for k, ((i, j), _) in enumerate(basis) if y[i][j]}
    return _from_brackets([f"M{i}{j}" for (i, j), _ in basis], table)


def vr_semidirect(p: int, q: int, r: int) -> LieAlgebra:
    """(Q^(p+q))^r x| so(p, q): r commuting copies of the standard module."""
    n0 = p + q
    if min(p, q, r) < 0 or n0 < 1:
        raise UnsupportedParams("need p, q, r >= 0 and p + q >= 1")
    if n0 < 2:
        if r < 1:
            raise UnsupportedParams("so(1) is trivial; need r >= 1")
        return abelian(r)
    base = so(p, q)
    table = _brackets(base)
    # [X, v] = Xv for X in so(p, q) and v in each copy of the standard module
    for a, (_, mat) in enumerate(_so_basis_matrices(p, q)):
        for start in range(base.dim, base.dim + n0 * r, n0):
            for alpha in range(n0):
                table[(a, start + alpha)] = {start + beta: mat[beta][alpha] for beta in range(n0)
                                             if mat[beta][alpha]}
    labels = base.labels + tuple(f"v{copy}_{alpha}" for copy in range(r) for alpha in range(n0))
    return _from_brackets(labels, table)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    labels = tuple(f"L.{s}" for s in a.labels) + tuple(f"R.{s}" for s in b.labels)
    return _from_brackets(labels, _brackets(a) | _brackets(b, a.dim))


def catalogue(name: str) -> LieAlgebra:
    """Named algebras: af, sol, sl2, heisenberg, abelian(n), so(p,q),
    vr_semidirect(p,q,r); 'A+B' builds a direct sum."""
    name = name.strip()
    if "+" in name:
        left, _, right = name.partition("+")
        return direct_sum(catalogue(left), catalogue(right))
    simple = {"af": af, "sol": sol, "sl2": sl2, "heisenberg": heisenberg}
    if name in simple:
        return simple[name]()
    if name.endswith(")") and "(" in name:
        head, _, argtext = name[:-1].partition("(")
        try:
            args = [int(x) for x in argtext.split(",")] if argtext.strip() else []
        except ValueError:
            raise UnsupportedParams(f"bad parameters in {name!r}") from None
        if head == "abelian" and len(args) == 1:
            return abelian(args[0])
        if head == "so" and len(args) in (1, 2):
            return so(*args)
        if head in ("vr", "vr_semidirect") and len(args) == 3:
            return vr_semidirect(*args)
    raise UnsupportedParams(f"unknown catalogue name {name!r}")


# ---------------------------------------------------------------------------
# JSON interface


def algebra_from_json(obj: dict) -> LieAlgebra:
    """Parse ``{"dim", "basis", "brackets": [{"x","y","value": {label: "p/q"}}]}``.

    Omitted brackets are zero; the antisymmetric completion is applied, and
    conflicting duplicate entries are rejected.  A value is a rational
    number, so a bool, a zero denominator or an infinite float is refused.
    """
    try:
        dim = json_int(obj["dim"], "dim")
        labels = obj["basis"]
        entries = list(obj.get("brackets", []))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad algebra object: {exc}") from exc
    if not isinstance(labels, list) or any(not isinstance(lab, str) for lab in labels):
        raise ValueError("basis must be a list of labels")
    labels = tuple(labels)
    if len(labels) != dim or len(set(labels)) != dim:
        raise ValueError("basis must list dim distinct labels")
    index = {lab: i for i, lab in enumerate(labels)}
    table = {}
    for entry in entries:
        if not isinstance(entry, dict) or not isinstance(entry.get("value"), dict):
            raise ValueError(f"bad bracket {entry!r}")
        try:
            i, j = index[entry["x"]], index[entry["y"]]
            value = {index[lab]: _json_rational(text) for lab, text in entry["value"].items()}
        except KeyError as exc:
            raise ValueError(f"unknown basis label {exc}") from exc
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"bad bracket {entry!r}: {exc}") from exc
        if (i, j) in table or (j, i) in table:
            raise ValueError(f"duplicate bracket for ({entry['x']}, {entry['y']})")
        if i == j and any(value.values()):
            raise ValueError("[x, x] must be zero")
        table[(i, j)] = value
    return _from_brackets(labels, table)


def _json_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a rational number")
    return Fraction(value)


def algebra_to_json(algebra: LieAlgebra) -> dict:
    lab = algebra.labels
    brackets = [
        {"x": lab[i], "y": lab[j], "value": {lab[k]: str(Fraction(v)) for k, v in value.items()}}
        for (i, j), value in _brackets(algebra).items()
    ]
    return {"dim": algebra.dim, "basis": list(lab), "brackets": brackets}
