"""Floating-point views for the numpy oracles of the Coxeter tests.

No verdict of ``pbp.coxeter`` depends on floating point; the tests compare
its exact signatures against numpy eigenvalues of ``float_matrix(form)``.
"""

from pbp.coxeter import SymmetricForm


def float_matrix(form: SymmetricForm) -> list[list[float]]:
    """The entries of the form's Gram matrix as floats."""
    return [[float(v) for v in row] for row in form.rows]
