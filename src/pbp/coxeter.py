"""Coxeter systems: exact bilinear form, signature, classification, verdicts.

The form attached to a Coxeter matrix has entries -cos(pi/m[i][j]); all of
them live in one real cyclotomic field, so the characteristic polynomial and
its signs are exact.  Floats never influence a classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Sequence

from .algebraic import (
    AlgebraicReal,
    CycloNumber,
    RealCyclotomicField,
    cos_pi_over_minpoly,
    poly_negate_variable,
)
from .linalg import char_poly
from .verdict import Answer, InternalVerificationError, TraceEntry, Verdict

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


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix with 1 on the diagonal and entries in {2,3,...} U {inf}."""

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(v) for v in self.entries)
        object.__setattr__(self, "entries", rows)
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

    @property
    def n(self) -> int:
        return len(self.entries)

    def m(self, i: int, j: int) -> float:
        return self.entries[i][j]

    def submatrix(self, idx: Sequence[int]) -> "CoxeterMatrix":
        return CoxeterMatrix(tuple(tuple(self.entries[i][j] for j in idx) for i in idx))


def coxeter_from_json(obj: dict) -> CoxeterMatrix:
    """Parse ``{"n": 3, "m": [[1,3,2],...]}``; the string "inf" marks infinity."""
    try:
        n = int(obj["n"])
        raw = obj["m"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad Coxeter matrix object: {exc}") from exc
    if len(raw) != n:
        raise ValueError("matrix size disagrees with n")
    rows = []
    for row in raw:
        if len(row) != n:
            raise ValueError("matrix size disagrees with n")
        rows.append(tuple(INF if v == "inf" else int(v) for v in row))
    return CoxeterMatrix(tuple(rows))


def components(matrix: CoxeterMatrix) -> list[list[int]]:
    """Connected components of the graph with an edge where m[i][j] >= 3."""
    n = matrix.n
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
                if j not in seen and i != j and matrix.m(i, j) >= 3:
                    seen.add(j)
                    comp.append(j)
                    queue.append(j)
        out.append(sorted(comp))
    return out


# ---------------------------------------------------------------------------
# the bilinear form


@dataclass(frozen=True)
class Signature:
    p: int
    q: int
    r: int

    def __iter__(self):
        return iter((self.p, self.q, self.r))


class SymmetricForm:
    """Exact symmetric form with unit diagonal and off-diagonal entries in [-1, 0].

    ``views(i, j)`` builds the AlgebraicReal view of an entry; ``entry``
    calls it on demand, so the views cost nothing unless asked for.
    """

    def __init__(self, rows, views: Callable[[int, int], AlgebraicReal]):
        self.rows = tuple(tuple(r) for r in rows)
        self._views = views
        self.n = len(self.rows)
        for i in range(self.n):
            if _sign(self.rows[i][i] - 1) != 0:
                raise ValueError("diagonal entries must be exactly 1")
            for j in range(self.n):
                if i != j:
                    if _sign(self.rows[i][j] - self.rows[j][i]) != 0:
                        raise ValueError("form must be symmetric")
                    if _sign(self.rows[i][j]) > 0 or _sign(self.rows[i][j] + 1) < 0:
                        raise ValueError("off-diagonal entries must lie in [-1, 0]")

    @staticmethod
    def from_rational_matrix(rows: Sequence[Sequence]) -> "SymmetricForm":
        rat = [[Fraction(v) for v in row] for row in rows]
        return SymmetricForm(rat, lambda i, j: AlgebraicReal.from_rational(rat[i][j]))

    def entry(self, i: int, j: int) -> AlgebraicReal:
        return self._views(i, j)

    def float_matrix(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self.rows]


def _sign(x) -> int:
    if isinstance(x, CycloNumber):
        return x.sign()
    return -1 if x < 0 else (1 if x > 0 else 0)


# -cos(pi/m) for the labels where it is rational
_RATIONAL_ENTRIES = {1: Fraction(1), 2: Fraction(0), 3: Fraction(-1, 2), INF: Fraction(-1)}


def _tits_view(matrix: CoxeterMatrix, i: int, j: int) -> AlgebraicReal:
    """The AlgebraicReal view of the entry -cos(pi/m[i][j])."""
    m = 1 if i == j else matrix.m(i, j)
    if m in _RATIONAL_ENTRIES:
        return AlgebraicReal.from_rational(_RATIONAL_ENTRIES[m])
    poly = poly_negate_variable(cos_pi_over_minpoly(int(m)))
    return AlgebraicReal.from_poly_near(poly, -math.cos(math.pi / m))


def tits_form(matrix: CoxeterMatrix) -> SymmetricForm:
    """The form with entries -cos(pi/m[i][j]) (value -1 at m = inf)."""
    n = matrix.n
    irrational_ms = {
        int(matrix.m(i, j))
        for i in range(n)
        for j in range(n)
        if i != j and matrix.m(i, j) not in _RATIONAL_ENTRIES
    }
    values = dict(_RATIONAL_ENTRIES)
    if irrational_ms:
        field = RealCyclotomicField(reduce(math.lcm, irrational_ms, 1))
        values = {m: field.rational(v) for m, v in values.items()}
        # dividing by the rational 2 scales the coefficients
        values.update({m: -field.two_cos_pi_over(m) / 2 for m in irrational_ms})
    rows = [[values[1 if i == j else matrix.m(i, j)] for j in range(n)] for i in range(n)]
    return SymmetricForm(rows, lambda i, j: _tits_view(matrix, i, j))


def _denominator(x) -> int:
    return x.den if isinstance(x, CycloNumber) else Fraction(x).denominator


def _sign_changes(signs: list[int]) -> int:
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def signature(form: SymmetricForm) -> Signature:
    """Exact (p, q, r) from the characteristic polynomial of a scaled form.

    With s the lcm of the entry denominators, chi(x) = det(xI - sB) has
    coefficients in Z or Z[theta] and comes from Berkowitz's division-free
    recurrence.  chi is real-rooted, so Descartes' rule is exact: r is the
    number of vanishing low-order coefficients (a syntactic test), p the
    sign changes of the rest and q those of chi(-x).
    """
    n = form.n
    scale = math.lcm(*(_denominator(v) for row in form.rows for v in row))
    # integral entries: Z[theta] elements, or plain ints for rational forms
    chi = char_poly([[v * scale if isinstance(v, CycloNumber) else int(v * scale) for v in row] for row in form.rows])
    signs = [_sign(c) for c in chi]
    r = next(k for k, s in enumerate(signs) if s)
    p = _sign_changes(signs)
    q = _sign_changes([s if k % 2 == 0 else -s for k, s in enumerate(signs)])
    if p + q + r != n:
        raise InternalVerificationError(f"Descartes counts (p, q, r) = ({p}, {q}, {r}) do not add up to {n}")
    return Signature(p, q, r)


# ---------------------------------------------------------------------------
# classification and verdict


FINITE, AFFINE, INDEFINITE = "Finite", "Affine", "Indefinite"


def classify(matrix: CoxeterMatrix) -> list[tuple[list[int], str, Signature]]:
    """Per irreducible component: (vertex set, label, signature of its form)."""
    out = []
    for comp in components(matrix):
        sig = signature(tits_form(matrix.submatrix(comp)))
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


def of_algebra(sig: Signature):
    """Lie algebra (Q^(p+q))^r x| so(p,q) of the isometries fixing the kernel."""
    from . import lie

    if sig.p + sig.q < 1:
        raise ValueError("need p + q >= 1")
    return lie.vr_semidirect(sig.p, sig.q, sig.r)


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
