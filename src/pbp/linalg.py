"""Exact linear algebra over the rationals.

Entries are Python ints or Fractions; mixed arithmetic is exact either way,
and keeping ints where possible is markedly faster.  Every rational this
module returns is an int when it is integral and a Fraction otherwise
(``_ratio``).  One integer echelon, ``SpanBuilder``, serves spans, null
spaces, module maps and minimal polynomials: a span's reduced row echelon
form is kept as integer rows over one common denominator, with cached pivot
columns, and a new vector is scaled to a primitive integer row and reduced
in integers against them.  A vector that grows the span enters by one
fraction-free Gauss-Jordan step (Bareiss, Math. Comp. 22, 1968).  Null
vectors are read off the same rows, and a dependence among vectors is found
by carrying their coordinates in extra columns.  No Fraction is built until
the canonical rref, with pivots 1, is asked for, and then only for its
non-integral entries; matrix products likewise run in integers over a
common denominator.  The minimal polynomial is the one polynomial of a
matrix kept here: it has the irreducible factors of the characteristic
polynomial, so its square-free part is all the Lie decider needs.

Module maps serve only commutants, and come from spinning, as in the MeatAxe
(Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
ch. 7): a map of Q^n that commutes with the generators is fixed by its
values on the seeds of a spanning tree of the module, so the commutant is
solved in r n unknowns, r the number of seeds, instead of n^2.  Everything
here is desk-scale (dimensions in the low tens).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vec = tuple
Matrix = list


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def _ratio(x: int, den: int):
    """x / den for den > 0: an int when it is integral, else a Fraction."""
    return x // den if x % den == 0 else Fraction(x, den)


# ---------------------------------------------------------------------------
# the integer echelon


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


class SpanBuilder:
    """A growing span, kept as its reduced row echelon form in integer rows
    over one denominator.

    Row i holds ``den`` at its cached pivot column ``pivots[i]`` and every
    other row holds 0 there, so ``rows[i] / den`` is a row of the canonical
    rref.  ``den`` is kept the least common denominator of that rref, so the
    entries are no larger than the rref's own numerators.  Rows stay in
    insertion order.
    """

    def __init__(self, vectors: Iterable[Sequence] = ()):
        self.pivots: list[int] = []
        self.rows: list[list[int]] = []
        self.den = 1
        for v in vectors:
            self.add(v)

    def add(self, v: Sequence) -> bool:
        """Add v to the span by one fraction-free Gauss-Jordan step; True if it grew."""
        w = self._residue(v)
        if w is None:
            return False
        self._push(w)
        return True

    def contains(self, v: Sequence) -> bool:
        return self._residue(v) is None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> tuple[Vec, ...]:
        """The rref rows, pivots 1, sorted by pivot; integral entries are ints."""
        den = self.den
        order = sorted(range(len(self.rows)), key=self.pivots.__getitem__)
        if den == 1:
            return tuple(tuple(self.rows[i]) for i in order)
        return tuple(tuple(_ratio(x, den) for x in self.rows[i]) for i in order)

    def _reduce(self, v: Sequence) -> list:
        """den v minus the combination of rows that clears v at every pivot, for
        an integer v; a new list."""
        w = [self.den * x for x in v]
        for p, r in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                w = [a - c * b for a, b in zip(w, r)]
        return w

    def _residue(self, v: Sequence) -> list | None:
        """A positive multiple of v minus its projection on the span; None if v is in it."""
        if len(self.rows) == len(v):
            return None
        w = self._reduce(_int_row(v))
        return w if any(w) else None

    def _push(self, w: list) -> None:
        """Add a nonzero residue w, pivoting on its first nonzero entry."""
        for p, e in enumerate(w):
            if e:
                break
        g = gcd(*w) if e > 0 else -gcd(*w)
        if g != 1:
            w = [x // g for x in w]
            e //= g
        den, rows = self.den, self.rows
        # rows are replaced one at a time, so at most one old row is alive
        for i, r in enumerate(rows):
            c = r[p]
            if c:
                rows[i] = [e * a - c * b for a, b in zip(r, w)]
            elif e != 1:
                rows[i] = [e * a for a in r]
        rows.append([den * x for x in w] if den != 1 else w)
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

    def _kernel(self, ncols: int) -> list[list[int]]:
        """den times the canonical null vectors of the rows: one per free column
        f, with den at f and -rows[i][f] at pivot i."""
        free = set(range(ncols)).difference(self.pivots)
        out = []
        for f in sorted(free):
            x = [0] * ncols
            x[f] = self.den
            for p, r in zip(self.pivots, self.rows):
                x[p] = -r[f]
            out.append(x)
        return out


def rref(rows: Iterable[Sequence]) -> tuple[Vec, ...]:
    """Reduced row echelon form; zero rows dropped, pivots normalized to 1."""
    return SpanBuilder(rows).basis()


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
    return [v[p] for p in pivots(basis)] if is_zero_vec(reduce_vector(basis, v)) else None


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
    return [[_ratio(x, den) for x in row] for row in prod]


def mat_sub(a, b) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*a)]


def flatten(a: Sequence[Sequence]) -> Vec:
    return tuple(x for row in a for x in row)


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[Vec]:
    """Basis of {x : A x = 0} for the matrix with the given rows: one vector
    per free column, with 1 there and 0 at the other free columns.  Entries
    are ints where integral and Fractions otherwise."""
    span = SpanBuilder(rows)
    den = span.den
    return [tuple(_ratio(a, den) for a in x) for x in span._kernel(ncols)]


def min_poly_of_matrix(m: Sequence[Sequence]) -> tuple:
    """Monic minimal polynomial, from the first power of m that depends on the lower ones.

    Power k enters one echelon as the row [flatten(m^k) | e_k], scaled to
    integers.  Every echelon row [r | a] then has r = sum_t a_t flatten(m^t),
    so the first power whose row reduces to 0 on the left leaves on the right
    the coefficients a_t of a vanishing polynomial of degree k, a_k > 0.
    """
    n = len(m)
    span = SpanBuilder()
    power = identity_matrix(n)
    for k in range(n + 1):
        tail = [0] * (n + 1)
        tail[k] = 1
        w = span._reduce(_int_row([*flatten(power), *tail]))
        if not any(w[: n * n]):
            a = w[n * n : n * n + k + 1]
            return tuple(_ratio(c, a[k]) for c in a)
        span._push(w)
        power = mat_mul(power, m)
    raise AssertionError("Cayley-Hamilton bounds the degree by n")


def poly_eval_matrix(coeffs: Sequence, m: Sequence[Sequence]) -> Matrix:
    """sum_i coeffs[i] m^i, by Horner's rule."""
    n = len(m)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = mat_mul(acc, m)
        for i in range(n):
            acc[i][i] += c
    return acc


# ---------------------------------------------------------------------------
# module maps by spinning


def _is_scalar(m: Sequence[Sequence]) -> bool:
    """Is m a multiple of the identity?  The 0 x 0 matrix is."""
    for i, row in enumerate(m):
        if row[i] != m[0][0] or any(row[:i]) or any(row[i + 1 :]):
            return False
    return True


def _spin_tree(gens: list, n: int) -> tuple[list, list, SpanBuilder]:
    """Spin Q^n from unit vectors, breadth first, under integer matrices.

    Returns (parents, edges, echelon).  The spun basis vector b_t is a seed,
    the first unit vector outside the span so far (parents[t] None), or the
    product gens[j] b_i of a tree edge (parents[t] = (i, j)).  Every other
    product is a non-tree edge (last, i, j, d, coords): d gens[j] b_i is the
    sum of c b_t over (t, c) in coords, and last is the largest t the edge
    uses.  The echelon rows are [r | a] with r = sum_t a_t b_t, so after the
    spin the row [den e_k | a] gives e_k = sum_t (a_t / den) b_t: its tail is
    column k of the inverse of the spun basis, scaled by den.
    """
    echelon = SpanBuilder()
    basis: list = []
    parents: list = []
    edges: list = []
    pad = [0] * n
    for s in range(n):
        if len(basis) == n:
            break
        unit = [0] * n
        unit[s] = 1
        w = echelon._reduce(unit + pad)
        if not any(w[:n]):
            continue
        head = len(basis)
        w[n + head] += echelon.den
        echelon._push(w)
        basis.append(unit)
        parents.append(None)
        while head < len(basis):
            b = basis[head]
            for j, g in enumerate(gens):
                y = [sum(map(mul, row, b)) for row in g]
                w = echelon._reduce(y + pad)
                if any(w[:n]):
                    w[n + len(basis)] += echelon.den
                    echelon._push(w)
                    basis.append(y)
                    parents.append((head, j))
                else:
                    coords = [(t, -x) for t, x in enumerate(w[n:]) if x]
                    last = max(head, coords[-1][0]) if coords else head
                    edges.append((last, head, j, echelon.den, coords))
            head += 1
    return parents, edges, echelon


def _kernel_combinations(states: list, images: list) -> list:
    """A basis of the combinations of ``states`` whose ``images`` sum to zero.

    The coefficients of each are a null vector of the matrix with columns
    ``images``, read off its integer echelon (``SpanBuilder._kernel``), and
    the combination is divided by the gcd of its entries.  It is never
    empty: the state of the identity map meets every constraint.
    """
    out = []
    for coeffs in SpanBuilder(zip(*images))._kernel(len(states)):
        x = [0] * len(states[0])
        for c, s in zip(coeffs, states):
            if c:
                x = [a + c * b for a, b in zip(x, s)]
        g = gcd(*x)
        out.append([v // g for v in x] if g > 1 else x)
    return out


def _module_maps(gens: Sequence, n: int) -> tuple[list, SpanBuilder]:
    """A basis of End_A(V) = {X : X g = g X for each g in ``gens``}, by spinning V.

    V = Q^n is a module over the algebra A that ``gens`` generate.  Spin V
    from unit vectors under the g (``_spin_tree``), so that every spun basis
    vector b_t is a seed or some g_j b_i.  Returns (states, echelon): a state
    lists X(b_0), ..., X(b_(n-1)) of one map X of the basis, scaled to
    integers, and the spin's echelon maps them back to X.

    A module map X satisfies X(g_j b_i) = g_j X(b_i) on every edge, so it is
    fixed by its values on the r seeds, and it meets the constraint
    sum_t c_t X(b_t) = d g_j X(b_i) of each non-tree edge.  Conversely, take
    any values on the seeds, define X on the spun basis along the tree edges
    and extend it linearly.  If the non-tree constraints hold, then
    X g_j b_i = g_j X b_i for every basis vector b_i and every j: on a tree
    edge by construction, on a non-tree edge by its constraint.  So
    X g_j = g_j X on all of V.  End is therefore the solution space of the
    non-tree constraints in the r n unknown seed values.

    That space is cut down edge by edge.  The states start as the n unit
    values of each seed once the spin order reaches it, images along tree
    edges are appended as it reaches them, and each non-tree edge keeps the
    combinations of states that meet its constraint.  Edges are taken in
    order of the last basis vector they use, so the space shrinks before
    most images are formed.  Entries stay integers: X g = g X iff
    X (den g) = (den g) X, and the spin carries the integer inverse of its
    basis.  States exist from the first edge on (b_0 is a seed), and the
    identity map keeps one at every edge; with n = 0 only the sentinel edge
    is read.
    """
    # a scalar g constrains nothing
    gs = [_int_matrix(g)[0] for g in gens if not _is_scalar(g)]
    parents, edges, echelon = _spin_tree(gs, n)
    edges.sort()
    edges.append((n - 1, None, None, None, None))  # reach the last basis vector
    states: list = []
    done = 0
    for last, i, j, d, coords in edges:
        while done <= last:
            # append the image of b_done to every state, or add its seed's n states
            if parents[done] is None:
                zeros = [0] * n
                for x in states:
                    x.extend(zeros)
                for a in range(done * n, done * n + n):
                    x = [0] * (done * n + n)
                    x[a] = 1
                    states.append(x)
            else:
                src, g = parents[done]
                h = gs[g]
                for x in states:
                    xs = x[src * n : src * n + n]
                    x.extend([sum(map(mul, row, xs)) for row in h])
            done += 1
        if i is None:
            continue
        h = gs[j]
        images = []
        for x in states:
            xi = x[i * n : i * n + n]
            q = [-d * sum(map(mul, row, xi)) for row in h]
            for t, c in coords:
                q = [u + c * v for u, v in zip(q, x[t * n : t * n + n])]
            images.append(q)
        if any(map(any, images)):
            states = _kernel_combinations(states, images)
    return states, echelon


def solve_commutant(mats: Sequence[Sequence[Sequence]], n: int) -> list[Matrix]:
    """Basis of {X in M_n(Q) : X M = M X for every M in mats}.

    The maps come from ``_module_maps``.  The basis returned is
    the canonical null-space basis of the n^2 equations (XM - MX)_ij = 0 in
    the entries of X, flattened row by row: one X per free column j, with
    1 at j and 0 at the other free columns.  It depends only on the space:
    each such X has its last nonzero entry at its own j, so read from the
    last entry to the first the basis is the space's reduced row echelon
    form, and an rref of the reversed maps recomputes it.
    """
    states, spun = _module_maps(mats, n)
    # X = Y B^-1 with Y the columns X(b_t); column k of den B^-1 is the tail
    # of the spun row with pivot k, and X is taken times den
    cols = [r[n:] for _k, r in sorted(zip(spun.pivots, spun.rows), reverse=True)]
    echelon = SpanBuilder(
        [sum(map(mul, x[i::n], col)) for i in range(n - 1, -1, -1) for col in cols] for x in states
    )
    den = echelon.den
    out = []
    for _k, row in sorted(zip(echelon.pivots, echelon.rows), reverse=True):
        flat = row[::-1] if den == 1 else [_ratio(x, den) for x in reversed(row)]
        out.append([flat[i : i + n] for i in range(0, n * n, n)])
    return out
