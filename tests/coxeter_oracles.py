"""Floating-point views for the numpy oracles of the Coxeter tests.

No verdict of ``pbp.coxeter`` depends on floating point; the tests compare
its exact signatures against numpy eigenvalues of ``float_matrix(form)``.
"""

import math

from pbp.coxeter import SymmetricForm, _NegCos


def float_matrix(form: SymmetricForm) -> list[list[float]]:
    """The entries of the form's Gram matrix as floats; an irrational entry
    -cos(pi/m) is computed here from its label m."""
    return [[-math.cos(math.pi / v.m) if isinstance(v, _NegCos) else float(v) for v in row] for row in form.rows]
