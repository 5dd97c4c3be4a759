"""Coxeter systems: exact bilinear form, signature, classification, verdicts.

The form attached to a Coxeter matrix has entries -cos(pi/m[i][j]).  Twice
the form has algebraic-integer entries, and so has every minor of it.  The
signature comes from a fraction-free symmetric elimination whose pivots and
trailing entries are such minors: their signs come from certified integer
balls, and a norm bound proves the zero ones.  Floats never influence a
classification.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache

from .algebraic import two_cos_pi_over
from .verdict import Answer, InternalVerificationError, Record, TraceEntry, Verdict, json_int

INF = math.inf

CITE_FINITE_OUT_OF_SCOPE = (
    "Only infinite groups are in scope for presentability by a product; "
    "this Coxeter group is finite (positive definite form)."
)
CITE_SPLIT_PRODUCT = (
    "The infinite irreducible factors generate commuting infinite subgroups "
    "whose product has finite index, so the group is presentable by a product."
)
CITE_AFFINE = (
    "An irreducible affine Coxeter group on l generators contains a free "
    "abelian subgroup of rank l-1 and finite index (Bourbaki, Lie IV-VI), "
    "hence is presentable by a product."
)
CITE_INDEFINITE = (
    "An irreducible Coxeter group that is neither finite nor affine maps, via "
    "its geometric representation, onto a Zariski-dense subgroup of the "
    "isometry group of its form (Benoist-de la Harpe 2004); that group's Lie "
    "algebra (R^(p+q))^r x| so(p,q) admits no pair of commuting complementary "
    "ideals, so the Coxeter group is not presentable by a product."
)
CITE_FINITE_INDEX = (
    "Presentability by a product is invariant under passage to finite-index "
    "subgroups, so the finite factors do not affect the verdict."
)


class CoxeterMatrix(Record):
    """Symmetric matrix with 1 on the diagonal and entries in {2,3,...} U {inf}."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[float]]):
        rows = tuple(tuple(v) for v in entries)
        n = len(rows)
        if n == 0:
            raise ValueError("empty Coxeter matrix")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("Coxeter matrix must be square")
            for j, v in enumerate(row):
                if i == j:
                    if v != 1:
                        raise ValueError("diagonal entries must be 1")
                elif v != rows[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                elif v != INF and (not float(v).is_integer() or v < 2):
                    raise ValueError(f"off-diagonal entry {v!r} must be an integer >= 2 or inf")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def m(self, i: int, j: int) -> float:
        return self.entries[i][j]


def coxeter_from_json(obj: dict) -> CoxeterMatrix:
    """Parse ``{"n": 3, "m": [[1,3,2],...]}``; the string "inf" marks infinity."""
    try:
        n = json_int(obj["n"], "n")
        raw = obj["m"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad Coxeter matrix object: {exc}") from exc
    if not isinstance(raw, list) or len(raw) != n:
        raise ValueError("m must be a list of n rows")
    rows = []
    for row in raw:
        if not isinstance(row, list) or len(row) != n:
            raise ValueError("each row of m must be a list of n labels")
        rows.append(tuple(INF if v == "inf" else json_int(v, "a Coxeter label") for v in row))
    return CoxeterMatrix(tuple(rows))


def components(matrix: CoxeterMatrix) -> list[list[int]]:
    """Connected components of the graph with an edge where m[i][j] >= 3."""
    return _connected(matrix.n, lambda i, j: matrix.m(i, j) >= 3)


def _connected(n: int, joined: Callable[[int, int], bool]) -> list[list[int]]:
    """Connected components of the graph on range(n) with the edges ``joined``."""
    seen: set[int] = set()
    out: list[list[int]] = []
    for start in range(n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if j not in seen and joined(i, j):
                    seen.add(j)
                    comp.append(j)
                    queue.append(j)
        out.append(sorted(comp))
    return out


# ---------------------------------------------------------------------------
# the bilinear form


class Signature(Record):
    __slots__ = ("p", "q", "r")

    def __init__(self, p: int, q: int, r: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    def __iter__(self):
        return iter((self.p, self.q, self.r))


class SymmetricForm:
    """Exact symmetric form with unit diagonal and off-diagonal entries in [-1, 0].

    An entry is a rational number, or ``_NegCos(m)``, the irrational value
    -cos(pi/m) of a label m >= 4 in a Tits form.
    """

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        for i in range(self.n):
            if len(self.rows[i]) != self.n:
                raise ValueError("form must be square")
            if self.rows[i][i] != 1:
                raise ValueError("diagonal entries must be exactly 1")
            for j in range(i + 1, self.n):
                v = self.rows[i][j]
                if v != self.rows[j][i]:
                    raise ValueError("form must be symmetric")
                if not isinstance(v, _NegCos) and not -1 <= v <= 0:
                    raise ValueError("off-diagonal entries must lie in [-1, 0]")


class _NegCos(Record):
    """-cos(pi/m) for an integer m >= 4."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        object.__setattr__(self, "m", m)


# -cos(pi/m) for the labels where it is rational
_RATIONAL_ENTRIES = {1: Fraction(1), 2: Fraction(0), 3: Fraction(-1, 2), INF: Fraction(-1)}


def _tits_entry(m):
    """-cos(pi/m) for a Coxeter label m (1 on the diagonal, -1 at m = inf)."""
    return _RATIONAL_ENTRIES[m] if m in _RATIONAL_ENTRIES else _NegCos(int(m))


def tits_form(matrix: CoxeterMatrix) -> SymmetricForm:
    """The form with entries -cos(pi/m[i][j]) (value -1 at m = inf)."""
    return SymmetricForm([[_tits_entry(m) for m in row] for row in matrix.entries])


def signature(form: SymmetricForm) -> Signature:
    """Exact (p, q, r), summed over the blocks of the form.

    A block is a connected set of indices under the nonzero off-diagonal
    entries; the form is the direct sum of its blocks, and ``_inertia``
    counts each one.
    """
    p = q = r = 0
    for block in _connected(form.n, lambda i, j: form.rows[i][j] != 0):
        sig = _inertia([[form.rows[i][j] for j in block] for i in block])
        p, q, r = p + sig.p, q + sig.q, r + sig.r
    return Signature(p, q, r)


def _inertia(rows) -> Signature:
    """Signature (p, q, r) of one block B, by symmetric fraction-free elimination of sB.

    Rational entries are scaled to integers by the lcm s of their
    denominators.  With entries -cos(pi/m), s is also even, so sB has
    algebraic-integer entries s/2 * (-2 cos(pi/m)): integer balls at a
    precision that doubles from 64 + n bits until ``_eliminate`` certifies
    the sign of every pivot it takes and proves the rest of the block 0.

    The proof: after k pivots every entry of the trailing block is a
    j-minor of sB, j = k + 1 (Sylvester's identity), so it lies in
    K = Q(cos(pi/m) : m a label), of degree at most D = min(prod phi(2m)/2,
    phi(2N)/2) with N the lcm of the labels.  Each Galois conjugate of it is
    a j-minor of a real symmetric matrix with entries in [-s, s], so by
    Hadamard's bound its absolute value is at most H = (s sqrt(j))**j.  The
    norm of a nonzero algebraic integer is at least 1 in absolute value, so
    a nonzero entry has |c| >= H**-(D - 1), and a ball inside that bound
    holds only 0.
    """
    labels = frozenset(v.m for row in rows for v in row if isinstance(v, _NegCos))
    scale = math.lcm(2 if labels else 1, *{v.denominator for row in rows for v in row if not isinstance(v, _NegCos)})
    half = scale // 2
    # D >= phi(2m)/2 >= sqrt(m)/2 for each label: that cheaper exponent rules
    # most balls out before the factorizations behind D are needed
    low = max((math.isqrt(m) for m in labels), default=0) // 2

    def proved_zero(j: int, c) -> bool:
        if isinstance(c, int):
            return c == 0
        h2 = _hadamard_sq(scale, j)
        return c.below(h2, low - 1) and c.below(h2, _degree_bound(labels) - 1)

    # a block of integers is exact at any precision; random forms of rank n
    # up to 100 need fewer than 64 + n bits
    prec = 64 + len(rows)
    while not (counts := _eliminate([[-half * two_cos_pi_over(v.m, prec) if isinstance(v, _NegCos)
                                      else v.numerator * scale // v.denominator for v in row] for row in rows],
                                    proved_zero, prec)):
        prec *= 2
    p, q, r = counts
    if p + q + r != len(rows):
        raise InternalVerificationError(f"inertia (p, q, r) = ({p}, {q}, {r}) does not add up to {len(rows)}")
    return Signature(p, q, r)


def _hadamard_sq(scale: int, j: int) -> int:
    """H**2 for H = (scale sqrt(j))**j, Hadamard's bound on a j-minor with entries in [-scale, scale]."""
    return scale ** (2 * j) * j**j


def _sign(c) -> int:
    if isinstance(c, int):
        return (c > 0) - (c < 0)
    return c.sign()


def _eliminate(s: list[list], proved_zero: Callable, prec: int) -> tuple[int, int, int] | None:
    """(p, q, r) of the symmetric matrix ``s`` of ints and balls at ``prec``,
    or None when a sign is neither certified nor proved 0.

    Bareiss's fraction-free elimination with symmetric pivoting: after k
    pivots, prev is the leading principal k-minor in pivot order and the
    trailing block holds the bordered (k + 1)-minors, so every division is
    exact.  By Jacobi's rule on those leading minors (Gantmacher, Theory of
    Matrices I, X.3) a pivot adds to p when its sign is that of prev and
    to q otherwise.  When the trailing diagonal is 0 and an entry b is not,
    one step on the pair [[0, b], [b, 0]] adds one to each and prev becomes
    -b**2 / prev; a trailing block of zeros adds its size to r.  ``s`` is
    overwritten; ``proved_zero(j, c)`` says whether the j-minor c is 0.
    """
    n = len(s)
    rest = list(range(n))
    prev, prev_sign, p, q = 1, 1, 0, 0

    def size(c):
        return abs(c) << prec if isinstance(c, int) else abs(c.mid)

    def div(a, b):
        return a // b if isinstance(a, int) and isinstance(b, int) else a / b

    while rest:
        j = n - len(rest) + 1
        signed = [i for i in rest if _sign(s[i][i])]
        if signed:
            t = max(signed, key=lambda i: size(s[i][i]))
            rest.remove(t)
            piv, top = s[t][t], s[t]
            for at, i in enumerate(rest):
                row, left = s[i], s[i][t]
                for k in rest[at:]:
                    row[k] = s[k][i] = div(piv * row[k] - left * top[k], prev)
            sign = _sign(piv)
            p, q = (p + 1, q) if sign == prev_sign else (p, q + 1)
            prev, prev_sign = piv, sign
            continue
        if not all(proved_zero(j, s[i][i]) for i in rest):
            return None
        pairs = [(i, k) for at, i in enumerate(rest) for k in rest[at + 1:] if _sign(s[i][k])]
        if not pairs:
            zero = all(proved_zero(j, s[i][k]) for at, i in enumerate(rest) for k in rest[at + 1:])
            return (p, q, len(rest)) if zero else None
        u, v = max(pairs, key=lambda ik: size(s[ik[0]][ik[1]]))
        b, prev2 = s[u][v], prev * prev
        if not _sign(prev2):
            return None
        rest.remove(u)
        rest.remove(v)
        # each new entry times prev**2 is det [[0, b, S_uk], [b, 0, S_vk], [S_iu, S_iv, S_ik]]
        for at, i in enumerate(rest):
            row, su, sv = s[i], s[i][u], s[i][v]
            for k in rest[at:]:
                row[k] = s[k][i] = div(b * (s[v][k] * su + s[u][k] * sv - b * row[k]), prev2)
        prev, prev_sign = div(-(b * b), prev), -prev_sign
        if _sign(prev) != prev_sign:  # a ball that holds 0
            return None
        p, q = p + 1, q + 1
    return p, q, 0


@lru_cache(maxsize=256)
def _degree_bound(labels: frozenset[int]) -> int:
    """An upper bound on the degree of Q(cos(pi/m) : m in labels)."""
    product = math.prod(_totient(2 * m) // 2 for m in labels)
    return min(product, _totient(2 * math.lcm(*labels)) // 2)


def _totient(n: int) -> int:
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    return out - out // n if n > 1 else out


# ---------------------------------------------------------------------------
# classification and verdict


FINITE, AFFINE, INDEFINITE = "Finite", "Affine", "Indefinite"


def classify(matrix: CoxeterMatrix) -> list[tuple[list[int], str, Signature]]:
    """Per irreducible component: (vertex set, label, signature of its form)."""
    out, rows = [], matrix.entries
    for comp in components(matrix):
        sig = _inertia([[_tits_entry(rows[i][j]) for j in comp] for i in comp])
        if sig.q == 0 and sig.r == 0:
            label = FINITE
        elif sig.q == 0:
            label = AFFINE
            if sig.r != 1:
                raise InternalVerificationError(
                    f"irreducible affine component {comp} has kernel rank {sig.r} != 1"
                )
        else:
            label = INDEFINITE
        out.append((comp, label, sig))
    return out


def _verdict(matrix: CoxeterMatrix, parts: list[tuple[list[int], str, Signature]]) -> Verdict:
    """The verdict for ``matrix`` from its classified components."""
    infinite = [(comp, label, sig) for comp, label, sig in parts if label != FINITE]

    if not infinite:
        return Verdict(
            Answer.NOT_APPLICABLE,
            trace=(TraceEntry("coxeter/finite", CITE_FINITE_OUT_OF_SCOPE),),
        )
    if len(infinite) >= 2:
        factors = [comp for comp, _, _ in infinite[:2]]
        if any(matrix.m(i, j) != 2 for i in factors[0] for j in factors[1]):
            raise InternalVerificationError(
                f"components {factors[0]} and {factors[1]} do not commute: a label between them is not 2"
            )
        return Verdict(
            Answer.YES,
            certificate={"kind": "direct-product-of-infinite-factors", "factors": factors},
            trace=(
                TraceEntry("coxeter/split", CITE_SPLIT_PRODUCT),
                TraceEntry("finite-index", CITE_FINITE_INDEX),
            ),
        )
    comp, label, sig = infinite[0]
    finite_rest = len(infinite) < len(parts)
    extra = (TraceEntry("finite-index", CITE_FINITE_INDEX),) if finite_rest else ()
    if label == AFFINE:
        if not _is_affine_diagram(matrix, comp):
            raise InternalVerificationError(f"component {comp} is not a connected affine diagram")
        return Verdict(
            Answer.YES,
            certificate={
                "kind": "virtually-free-abelian",
                "rank": len(comp) - 1,
                "component": comp,
            },
            trace=(TraceEntry("coxeter/affine", CITE_AFFINE),) + extra,
        )
    return Verdict(
        Answer.NO,
        trace=(TraceEntry("coxeter/indefinite", CITE_INDEFINITE),) + extra,
    )


def _is_affine_diagram(matrix: CoxeterMatrix, comp: list[int]) -> bool:
    """Whether the connected diagram on ``comp`` is on the classical list of
    affine diagrams A~n, B~n, C~n, D~n, E~6-8, F~4, G~2 (Humphreys 1990,
    2.5-2.7), judged by its shape and labels alone."""
    n = len(comp)
    adj = {i: [j for j in comp if j != i and matrix.m(i, j) >= 3] for i in comp}
    labels = [matrix.m(i, j) for i in comp for j in adj[i] if i < j]
    if n <= 2:
        return labels == [INF]
    if not set(labels) <= {3, 4, 6}:
        return False
    if len(labels) == n:  # A~(n-1): a cycle of 3s
        return set(labels) == {3} and all(len(adj[i]) == 2 for i in comp)
    if len(labels) != n - 1:
        return False

    def arm(prev: int, cur: int) -> list:
        """The labels along the path from ``prev`` through ``cur`` to a vertex of degree other than 2."""
        out = [matrix.m(prev, cur)]
        while len(adj[cur]) == 2:
            prev, cur = cur, next(j for j in adj[cur] if j != prev)
            out.append(matrix.m(prev, cur))
        return out

    branches = [i for i in comp if len(adj[i]) >= 3]
    if not branches:  # C~n, F~4, G~2
        end = next(i for i in comp if len(adj[i]) == 1)
        path = arm(end, adj[end][0])
        shapes = ([4] + [3] * (n - 3) + [4], [3, 3, 4, 3], [6, 3])
        return any(path in (shape, shape[::-1]) for shape in shapes)
    if len(branches) == 1:
        arms = sorted((len(a), a) for a in (arm(branches[0], j) for j in adj[branches[0]]))
        if set(labels) == {3}:  # D~4, E~6, E~7, E~8
            return tuple(length for length, _ in arms) in ((1, 1, 1, 1), (2, 2, 2), (1, 3, 3), (1, 2, 5))
        # B~n: two arms of one edge and a 4 at the end of the third
        long = arms[-1][1]
        return len(arms) == 3 and arms[0][1] == arms[1][1] == [3] and long == [3] * (len(long) - 1) + [4]
    # D~n: two forks, each with two leaves
    return (len(branches) == 2 and set(labels) == {3}
            and all(len(adj[b]) == 3 and sum(len(adj[j]) == 1 for j in adj[b]) == 2 for b in branches))


def coxeter_presentable(matrix: CoxeterMatrix) -> Verdict:
    """Presentability verdict for the Coxeter group of ``matrix``."""
    return _verdict(matrix, classify(matrix))


def coxeter_report(matrix: CoxeterMatrix) -> dict:
    """Full JSON-ready report: components, signatures, labels, verdict."""
    parts = classify(matrix)
    return {
        "components": [
            {"vertices": comp, "label": label, "signature": [sig.p, sig.q, sig.r]}
            for comp, label, sig in parts
        ],
        **_verdict(matrix, parts).to_json(),
    }


# ---------------------------------------------------------------------------
# standard diagrams


def _from_edges(n: int, edges: dict[tuple[int, int], float]) -> CoxeterMatrix:
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for (i, j), m in edges.items():
        rows[i][j] = rows[j][i] = m
    return CoxeterMatrix(tuple(tuple(row) for row in rows))


def _path(labels: Sequence[float]) -> CoxeterMatrix:
    n = len(labels) + 1
    return _from_edges(n, {(i, i + 1): m for i, m in enumerate(labels)})


def standard_diagram(name: str) -> CoxeterMatrix:
    """Coxeter matrices of the classical finite and affine diagrams.

    Finite: A1..A8, B2..B8, D4..D8, E6, E7, E8, F4, H3, H4, I2(m).
    Affine: A~1, A~2, C~2, G~2, F~4, E~8.
    """
    name = name.strip()
    if name.startswith("I2(") and name.endswith(")"):
        m = int(name[3:-1])
        if m < 3:
            raise ValueError("I2(m) needs m >= 3")
        return _path([m])
    family, _, rank_text = name.partition("~")
    if _ == "~":  # affine names: letter ~ rank
        key = family + "~" + rank_text
        if key == "A~1":
            return _path([INF])
        if key == "A~2":
            return _from_edges(3, {(0, 1): 3, (1, 2): 3, (0, 2): 3})
        if key == "C~2":
            return _path([4, 4])
        if key == "G~2":
            return _path([6, 3])
        if key == "F~4":
            return _path([3, 3, 4, 3])
        if key == "E~8":
            edges = {(i, i + 1): 3 for i in range(7)}
            edges[(2, 8)] = 3
            return _from_edges(9, edges)
        raise ValueError(f"unknown affine diagram {name!r}")
    family, rank = name[0], int(name[1:]) if name[1:] else 0
    if family == "A" and rank >= 1:
        return _path([3] * (rank - 1)) if rank > 1 else CoxeterMatrix(((1,),))
    if family == "B" and rank >= 2:
        return _path([4] + [3] * (rank - 2))
    if family == "D" and rank >= 4:
        edges = {(0, 2): 3, (1, 2): 3}
        edges.update({(i, i + 1): 3 for i in range(2, rank - 1)})
        return _from_edges(rank, edges)
    if name == "E6":
        return _from_edges(6, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (2, 5): 3})
    if name == "E7":
        edges = {(i, i + 1): 3 for i in range(5)}
        edges[(2, 6)] = 3
        return _from_edges(7, edges)
    if name == "E8":
        edges = {(i, i + 1): 3 for i in range(6)}
        edges[(2, 7)] = 3
        return _from_edges(8, edges)
    if name == "F4":
        return _path([3, 4, 3])
    if name == "H3":
        return _path([5, 3])
    if name == "H4":
        return _path([5, 3, 3])
    raise ValueError(f"unknown diagram {name!r}")
