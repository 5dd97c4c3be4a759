"""Floating-point views for the numpy oracles of the Coxeter tests, forms
from rational entries, and the Lie algebra attached to a signature.

No verdict of ``pbp.coxeter`` depends on floating point; the tests compare
its exact signatures against numpy eigenvalues of ``float_matrix(form)``.
``from_rational_matrix`` builds a form from exact rational entries.
``of_algebra`` gives the algebra whose verdict the coupling tests compare
with the Coxeter classification.
"""

import math
from fractions import Fraction

from pbp import lie
from pbp.coxeter import Signature, SymmetricForm, _NegCos


def from_rational_matrix(rows) -> SymmetricForm:
    """The form whose entries are ``rows``, each read as a ``Fraction``."""
    return SymmetricForm([[Fraction(v) for v in row] for row in rows])


def float_matrix(form: SymmetricForm) -> list[list[float]]:
    """The entries of the form's Gram matrix as floats; an irrational entry
    -cos(pi/m) is computed here from its label m."""
    return [[-math.cos(math.pi / v.m) if isinstance(v, _NegCos) else float(v) for v in row] for row in form.rows]


def of_algebra(sig: Signature) -> lie.LieAlgebra:
    """Lie algebra (Q^(p+q))^r x| so(p,q) of the isometries fixing the kernel;
    ValueError when p + q = 0."""
    return lie.vr_semidirect(sig.p, sig.q, sig.r)
