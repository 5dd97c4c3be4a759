"""Cross-module checks: the Coxeter form's isometry algebra and its verdict."""

import pytest

from coxeter_oracles import of_algebra
from pbp import lie
from pbp.coxeter import (
    INDEFINITE,
    CoxeterMatrix,
    Signature,
    classify,
)
from pbp.verdict import Answer


def triangle(a, b, c):
    return CoxeterMatrix(((1, a, b), (a, 1, c), (b, c, 1)))


def test_of_algebra_dimensions():
    assert of_algebra(Signature(2, 1, 0)).dim == 3
    assert of_algebra(Signature(3, 0, 0)).dim == 3
    assert of_algebra(Signature(2, 1, 1)).dim == 6
    for p, q, r in [(2, 1, 0), (3, 1, 0), (2, 2, 1), (4, 0, 2)]:
        n = p + q
        assert of_algebra(Signature(p, q, r)).dim == n * (n - 1) // 2 + n * r


def test_of_algebra_validates():
    for sig in [Signature(2, 1, 0), Signature(3, 0, 1), Signature(2, 2, 0), Signature(1, 0, 2)]:
        assert lie.validate(of_algebra(sig)) is None


def test_of_algebra_degenerate_cases():
    assert of_algebra(Signature(1, 0, 2)).dim == 2  # abelian: so(1) is trivial
    with pytest.raises(ValueError):
        of_algebra(Signature(0, 0, 3))


@pytest.mark.parametrize(
    "matrix",
    [triangle(3, 3, 7), triangle(3, 4, 4), triangle(4, 4, 4)],
)
def test_indefinite_components_have_unpresentable_algebras(matrix):
    comp, label, sig = classify(matrix)[0]
    assert label == INDEFINITE
    algebra = of_algebra(sig)
    assert sig.p + sig.q >= 3 and (sig.p, sig.q) not in {(4, 0), (2, 2), (0, 4)}
    assert lie.lie_presentable(algebra).answer == Answer.NO


def test_four_generator_indefinite_diagram():
    # path with a heavy edge: irreducible, indefinite, p >= 3 by the
    # admissible-matrix bound, so the attached algebra is V^r x| so(3,1)-type
    matrix = CoxeterMatrix(
        ((1, 3, 2, 2), (3, 1, 7, 2), (2, 7, 1, 3), (2, 2, 3, 1))
    )
    comp, label, sig = classify(matrix)[0]
    assert label == INDEFINITE
    assert sig.p >= 3
    algebra = of_algebra(sig)
    if (sig.p, sig.q) not in {(4, 0), (2, 2), (0, 4)}:
        assert lie.lie_presentable(algebra).answer == Answer.NO
