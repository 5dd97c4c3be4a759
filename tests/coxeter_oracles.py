"""Floating-point views for the numpy oracles of the Coxeter tests, forms
from rational entries, principal submatrices, and the Lie algebra attached
to a signature.

No verdict of ``pbp.coxeter`` depends on floating point; the tests compare
its exact signatures against numpy eigenvalues of ``float_matrix(form)``.
``from_rational_matrix`` builds a form from exact rational entries, and
``submatrix`` the checked Coxeter matrix on some of the vertices, in their
order; ``pbp.coxeter.classify`` reads each component's labels in place.
``of_algebra`` gives the algebra whose verdict the coupling tests compare
with the Coxeter classification.
"""

import math
from fractions import Fraction

from pbp import lie
from pbp.coxeter import CoxeterMatrix, Signature, SymmetricForm, _NegCos


def from_rational_matrix(rows) -> SymmetricForm:
    """The form whose entries are ``rows``, each read as a ``Fraction``."""
    return SymmetricForm([[Fraction(v) for v in row] for row in rows])


def submatrix(matrix: CoxeterMatrix, idx) -> CoxeterMatrix:
    """The Coxeter matrix on the vertices ``idx`` of ``matrix``, in that order."""
    return CoxeterMatrix(tuple(tuple(matrix.entries[i][j] for j in idx) for i in idx))


def float_matrix(form: SymmetricForm) -> list[list[float]]:
    """The entries of the form's Gram matrix as floats; an irrational entry
    -cos(pi/m) is computed here from its label m."""
    return [[-math.cos(math.pi / v.m) if isinstance(v, _NegCos) else float(v) for v in row] for row in form.rows]


def of_algebra(sig: Signature) -> lie.LieAlgebra:
    """Lie algebra (Q^(p+q))^r x| so(p,q) of the isometries fixing the kernel;
    ValueError when p + q = 0."""
    return lie.vr_semidirect(sig.p, sig.q, sig.r)
