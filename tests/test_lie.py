import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lie_oracles import (
    decomposability_oracle,
    ideal_closure,
    intersect,
    lattice_recursion_oracle,
    quotient_constants_oracle,
)
from linalg_oracles import SpanOracle, hom_oracle, nullspace_oracle, rref_oracle
from pbp import lie
from pbp.lie import (
    Completeness,
    InvalidAlgebra,
    LieAlgebra,
    LieCertificate,
    Subspace,
    UnsupportedParams,
    abelian,
    af,
    algebra_from_json,
    algebra_to_json,
    bracket_subspace,
    catalogue,
    centralizer,
    centre,
    direct_sum,
    heisenberg,
    ideal_lattice,
    is_ideal,
    lie_presentable,
    quotient_algebra,
    sl2,
    so,
    sol,
    validate,
    verify_product_certificate,
    vr_semidirect,
)
from pbp.linalg import SpanBuilder, identity_matrix, solve_commutant
from pbp.verdict import Answer, InternalVerificationError


def span(algebra, *vectors):
    return Subspace.from_vectors(algebra.dim, [tuple(map(Fraction, v)) for v in vectors])


def unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


# --- validation ---------------------------------------------------------------


def test_validate_catalogue():
    for name in ["af", "sol", "sl2", "heisenberg", "abelian(4)", "so(2,1)",
                 "so(3)", "so(3,1)", "vr(2,1,1)", "vr(2,1,2)", "sl2+sl2"]:
        assert validate(catalogue(name)) is None, name


def test_validate_antisymmetry_violation():
    n = 3
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    c[1][2][1] = 1
    c[2][1][1] = 1  # should be -1
    bad = LieAlgebra(3, tuple(tuple(tuple(r) for r in p) for p in c), ("a", "b", "c"))
    assert validate(bad) == "antisymmetry fails at (1, 2, 1)"


def test_validate_jacobi_violation():
    # [x,y] = x, [y,z] = y, [z,x] = z: the cyclic sum is -(x + y + z) != 0
    n = 3
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    c[0][1][0], c[1][0][0] = 1, -1
    c[1][2][1], c[2][1][1] = 1, -1
    c[2][0][2], c[0][2][2] = 1, -1
    bad = LieAlgebra(3, tuple(tuple(tuple(r) for r in p) for p in c), ("x", "y", "z"))
    assert validate(bad) is not None and "Jacobi" in validate(bad)


# --- catalogue ----------------------------------------------------------------


def test_af_constants():
    a = af()
    assert a.dim == 2
    assert a.bracket(unit(2, 1), unit(2, 0)) == (1, 0)  # [g, e] = e


def test_sol_constants():
    s = sol()
    assert s.dim == 3
    assert s.bracket(unit(3, 2), unit(3, 0)) == (1, 0, 0)   # [g, e] = e
    assert s.bracket(unit(3, 2), unit(3, 1)) == (0, -1, 0)  # [g, f] = -f
    assert s.bracket(unit(3, 0), unit(3, 1)) == (0, 0, 0)   # [e, f] = 0


def test_so21_is_simple_by_spinning_oracle():
    algebra = so(2, 1)
    rng = random.Random(7)
    mats = [algebra.ad_basis(i) for i in range(3)]
    for _ in range(20):
        v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        if all(x == 0 for x in v):
            continue
        from pbp.lie import _spin

        assert len(_spin(SpanBuilder(), [v], mats)) == 3
    lat = ideal_lattice(algebra)
    assert lat.completeness is Completeness.COMPLETE
    assert sorted(s.dim for s in lat.ideals) == [0, 3]


def test_vr_dimension_formula():
    for (p, q, r) in [(2, 1, 0), (3, 0, 0), (2, 1, 1), (3, 1, 1), (2, 1, 2)]:
        n0 = p + q
        expected = n0 * (n0 - 1) // 2 + n0 * r
        assert vr_semidirect(p, q, r).dim == expected


def test_catalogue_rejects_unknown():
    with pytest.raises(UnsupportedParams):
        catalogue("e8")
    with pytest.raises(UnsupportedParams):
        catalogue("so(1)")
    with pytest.raises(UnsupportedParams):
        catalogue("vr(1,2)")
    for name in ["so(-1,3)", "so(3,-1)", "vr(-1,3,1)", "vr(-1,2,1)"]:
        with pytest.raises(UnsupportedParams):
            catalogue(name)


# --- subspace operations ------------------------------------------------------


def test_ideal_closure_examples():
    a = af()
    assert ideal_closure(a, span(a, (1, 0))) == span(a, (1, 0))  # ke is an ideal
    # the closure of kg must swallow e since [e, g] = -e
    assert ideal_closure(a, span(a, (0, 1))).dim == 2
    ab = abelian(3)
    s = span(ab, (1, 2, 0))
    assert ideal_closure(ab, s) == s


def test_centralizer_examples():
    a = af()
    assert centralizer(a, span(a, (1, 0))) == span(a, (1, 0))
    s = sol()
    derived = bracket_subspace(s, Subspace.whole(3), Subspace.whole(3))
    assert derived == span(s, (1, 0, 0), (0, 1, 0))
    assert centralizer(s, derived) == derived
    assert centralizer(s, Subspace.zero(3)) == Subspace.whole(3)


def test_centre_examples():
    assert centre(heisenberg()) == span(heisenberg(), (0, 0, 1))
    assert centre(sl2()).is_zero()
    assert centre(abelian(2)).dim == 2


def test_centralizer_duality_on_corpus():
    rng = random.Random(42)
    for name in ["af", "sol", "sl2", "heisenberg", "vr(2,1,1)"]:
        algebra = catalogue(name)
        n = algebra.dim
        for _ in range(10):
            a = span(algebra, *[[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)])
            b = span(algebra, *[[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)])
            commute = bracket_subspace(algebra, a, b).is_zero()
            assert commute == centralizer(algebra, a).contains_space(b)
            assert commute == centralizer(algebra, b).contains_space(a)


def test_centralizer_of_ideal_is_ideal():
    for name in ["af", "sol", "sl2+sl2", "vr(2,1,1)"]:
        algebra = catalogue(name)
        lat = ideal_lattice(algebra)
        assert lat.completeness is Completeness.COMPLETE
        for ideal in lat.ideals:
            cent = centralizer(algebra, ideal)
            assert is_ideal(algebra, cent)
            assert bracket_subspace(algebra, ideal, cent).is_zero()


# --- certificates -------------------------------------------------------------


def test_certificate_abelian_plane():
    ab = abelian(2)
    ok, reason = verify_product_certificate(
        ab, LieCertificate(span(ab, (1, 0)), span(ab, (0, 1)))
    )
    assert ok, reason


def test_certificate_direct_sum_of_sl2():
    both = direct_sum(sl2(), sl2())
    left = span(both, *[unit(6, i) for i in range(3)])
    right = span(both, *[unit(6, i) for i in range(3, 6)])
    ok, reason = verify_product_certificate(both, LieCertificate(left, right))
    assert ok, reason


def test_certificate_rejects_small_sum():
    a = af()
    ke = span(a, (1, 0))
    ok, reason = verify_product_certificate(a, LieCertificate(ke, ke))
    assert not ok
    assert "dimension 1 < 2" in reason


@pytest.mark.parametrize("parts, reason", [
    ((Subspace.whole(2), Subspace.whole(3)), "g1 lives in the wrong ambient dimension"),
    ((Subspace.whole(3), Subspace.zero(3)), "g2 is the zero subspace"),
    ((Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)]), Subspace.whole(3)), "g1 is not a subalgebra"),
], ids=["ambient", "zero", "subalgebra"])
def test_certificate_refuses_a_malformed_part(parts, reason):
    assert verify_product_certificate(sl2(), LieCertificate(*parts)) == (False, reason)


def test_certificate_rejects_noncommuting():
    s = sl2()
    e_line = span(s, (1, 0, 0))
    rest = span(s, (0, 1, 0), (0, 0, 1))
    ok, reason = verify_product_certificate(s, LieCertificate(e_line, rest))
    assert not ok


# --- ideal lattices -----------------------------------------------------------


def test_sol_lattice_exactly_four_nonzero():
    s = sol()
    lat = ideal_lattice(s)
    assert lat.completeness is Completeness.COMPLETE
    nonzero = [i for i in lat.ideals if not i.is_zero()]
    assert len(nonzero) == 4
    expected = {
        span(s, (1, 0, 0)).rows,
        span(s, (0, 1, 0)).rows,
        span(s, (1, 0, 0), (0, 1, 0)).rows,
        Subspace.whole(3).rows,
    }
    assert {i.rows for i in nonzero} == expected


def test_af_lattice():
    a = af()
    lat = ideal_lattice(a)
    assert lat.completeness is Completeness.COMPLETE
    assert {i.rows for i in lat.ideals if not i.is_zero()} == {
        span(a, (1, 0)).rows,
        Subspace.whole(2).rows,
    }


def test_lattice_closure_properties():
    for name in ["af", "sol", "sl2+sl2", "vr(2,1,1)", "so(2,2)"]:
        algebra = catalogue(name)
        lat = ideal_lattice(algebra)
        assert lat.completeness is Completeness.COMPLETE
        members = {i.rows for i in lat.ideals}
        for x in lat.ideals:
            assert is_ideal(algebra, x)
            for y in lat.ideals:
                assert x.add(y).rows in members
                assert intersect(x, y).rows in members


def test_lattice_infinite_families():
    lat = ideal_lattice(abelian(2))
    assert lat.completeness is Completeness.INFINITE_FAMILY
    w1, w2 = lat.witness
    assert w1 != w2 and w1.dim == w2.dim == 1

    lat = ideal_lattice(heisenberg())
    assert lat.completeness is Completeness.INFINITE_FAMILY
    w1, w2 = lat.witness
    assert w1 != w2 and w1.dim == w2.dim == 2

    lat = ideal_lattice(vr_semidirect(2, 1, 2))
    assert lat.completeness is Completeness.INFINITE_FAMILY
    w1, w2 = lat.witness
    assert w1.dim == w2.dim == 3
    assert centralizer(vr_semidirect(2, 1, 2), w1) == centralizer(
        vr_semidirect(2, 1, 2), w2
    )


# --- quotients ----------------------------------------------------------------


def test_quotient_of_sol_by_ke_is_af_like():
    s = sol()
    quot, lift, project = quotient_algebra(s, span(s, (1, 0, 0)))
    assert quot.dim == 2
    assert validate(quot) is None
    # the class of g acts on the class of f by -1
    gbar = project(unit(3, 2))
    fbar = project(unit(3, 1))
    assert quot.bracket(gbar, fbar) == tuple(-x for x in fbar)


@pytest.mark.parametrize("name", ["vr(2,1,2)", "sol+sl2", "sl2+sl2", "dense so(4)"])
def test_quotient_constants_match_the_bracket_oracle(name, monkeypatch):
    """Every ideal the lattice walk splits, lists or returns as a witness, and
    the sum of any two of them."""
    algebra = pinned_dense("so(4)", 4) if name == "dense so(4)" else catalogue(name)
    split = []

    def spy(alg, ideal):
        split.append(ideal)
        return quotient_algebra(alg, ideal)

    monkeypatch.setattr(lie, "quotient_algebra", spy)
    lattice = ideal_lattice(algebra)
    monkeypatch.undo()
    found = [*split, *lattice.ideals, *(lattice.witness or ())]
    found += [a.add(b) for a, b in combinations(found, 2)]
    ideals = {s.rows: s for s in found if 0 < s.dim < algebra.dim}
    assert len(ideals) >= 2
    for ideal in ideals.values():
        quot, _, _ = quotient_algebra(algebra, ideal)
        assert quot.constants == quotient_constants_oracle(algebra, ideal)
        assert validate(quot) is None


# --- presentability verdicts --------------------------------------------------


def expect(name, answer):
    algebra = catalogue(name) if isinstance(name, str) else name
    res = lie_presentable(algebra)
    assert res.answer == answer, f"{name}: got {res.answer}, note: {res.note}"
    if answer == Answer.YES:
        ok, reason = verify_product_certificate(algebra, res.certificate)
        assert ok, reason
    return res


def test_no_verdicts():
    res = expect("af", Answer.NO)
    assert len(res.trace) == 2  # ke and af itself
    res = expect("sol", Answer.NO)
    assert len(res.trace) == 4
    expect("sl2", Answer.NO)
    expect("so(2,1)", Answer.NO)
    expect("so(3)", Answer.NO)
    expect("so(3,1)", Answer.NO)
    expect("vr(2,1,1)", Answer.NO)
    expect("vr(3,0,1)", Answer.NO)
    expect("vr(3,1,1)", Answer.NO)
    expect("vr(2,1,2)", Answer.NO)


def test_yes_verdicts():
    expect("abelian(2)", Answer.YES)
    expect("heisenberg", Answer.YES)
    expect("sl2+sl2", Answer.YES)
    expect("so(2,2)", Answer.YES)  # splits as two commuting copies of sl2
    expect("so(4)+so(4)", Answer.YES)  # dimension 12


def test_direct_sums_are_presentable():
    for left, right in [("af", "af"), ("sol", "sl2"), ("af", "so(2,1)")]:
        both = direct_sum(catalogue(left), catalogue(right))
        res = expect(both, Answer.YES)


def test_decomposable_with_infinite_lattice():
    # socle carries an infinite minimal-ideal family, yet the algebra splits;
    # the centroid idempotent must find the decomposition
    both = direct_sum(sol(), vr_semidirect(2, 1, 2))
    res = expect(both, Answer.YES)
    assert res.lattice.completeness is Completeness.INFINITE_FAMILY


def test_infinite_family_no_keeps_witness_trace():
    res = expect("vr(2,1,2)", Answer.NO)
    assert res.lattice.completeness is Completeness.INFINITE_FAMILY
    assert len(res.trace) == 2  # the witness pair with its centralizers
    for entry in res.trace:
        assert entry.sum_dim < catalogue("vr(2,1,2)").dim


def test_unfinished_enumeration_is_decided_by_the_centroid(monkeypatch):
    # no simplicity test certifies anything, so every socle with a radical is left Unknown
    monkeypatch.setattr(lie, "_simplicity", lambda *args: None)
    for algebra, answer in [(catalogue("vr(2,1,2)"), Answer.NO),
                            (direct_sum(sol(), vr_semidirect(2, 1, 2)), Answer.YES)]:
        res = expect(algebra, answer)
        assert res.lattice.completeness is Completeness.UNKNOWN
        assert res.note.startswith("the ideal enumeration did not finish")
        assert res.trace == ()


def test_presentable_requires_valid_algebra():
    n = 2
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    c[0][1][0] = 1  # antisymmetry violated: c[1][0][0] = 0
    bad = LieAlgebra(2, tuple(tuple(tuple(r) for r in p) for p in c), ("x", "y"))
    with pytest.raises(InvalidAlgebra):
        lie_presentable(bad)


# --- JSON ---------------------------------------------------------------------


# one name for each builder: abelian, so(p, q), vr_semidirect with so(1) and
# with its module action, direct sums, and the bracket tables of af, sl2 and
# heisenberg
BUILDER_NAMES = ["abelian(1)", "so(2)", "so(0,3)", "vr(1,0,2)", "vr(4,0,2)", "so(4)+so(4)",
                 "af+sl2+heisenberg"]
# sha256 of the repr of each name's constants, labels, JSON and round trip,
# so the int and Fraction types of every entry are pinned too; taken from
# the dense builders that the bracket table replaced
BUILDER_DIGEST = "4959afab1769c9215e89c7774f9102d900ba2a7c37e5516575e28bcf2ac06119"


def test_catalogue_constants_are_pinned():
    blob = []
    for name in BUILDER_NAMES:
        algebra = catalogue(name)
        obj = algebra_to_json(algebra)
        back = algebra_from_json(obj)
        blob.append((algebra.constants, algebra.labels, obj, back.constants, back.labels))
    assert hashlib.sha256(repr(blob).encode()).hexdigest() == BUILDER_DIGEST


def flat(algebra):
    return [x for plane in algebra.constants for row in plane for x in row]


@pytest.mark.parametrize("name", ["af", "sol", "sl2", "heisenberg", *BUILDER_NAMES])
def test_json_roundtrip(name):
    algebra = catalogue(name)
    back = algebra_from_json(algebra_to_json(algebra))
    assert back.constants == algebra.constants
    assert back.labels == algebra.labels
    assert [type(x) for x in flat(back)] == [type(x) for x in flat(algebra)]


def test_json_accepts_fraction_strings():
    obj = {
        "dim": 2,
        "basis": ["e", "g"],
        "brackets": [{"x": "g", "y": "e", "value": {"e": "1/2"}}],
    }
    algebra = algebra_from_json(obj)
    assert algebra.bracket(unit(2, 1), unit(2, 0)) == (Fraction(1, 2), 0)
    assert validate(algebra) is None


def test_json_rejects_conflicts():
    with pytest.raises(ValueError):
        algebra_from_json(
            {
                "dim": 2,
                "basis": ["e", "g"],
                "brackets": [
                    {"x": "g", "y": "e", "value": {"e": "1"}},
                    {"x": "e", "y": "g", "value": {"e": "1"}},
                ],
            }
        )
    with pytest.raises(ValueError):
        algebra_from_json({"dim": 1, "basis": ["x", "y"], "brackets": []})
    with pytest.raises(ValueError):
        algebra_from_json(
            {"dim": 1, "basis": ["x"], "brackets": [{"x": "x", "y": "u", "value": {}}]}
        )


# --- change of basis ------------------------------------------------------------


def rebase(algebra, p):
    """The same algebra in the basis f_a = sum_i p[a][i] e_i."""
    n, c = algebra.dim, algebra.constants
    q = [[Fraction(int(x.p), int(x.q)) for x in row] for row in sympy.Matrix(p).inv().tolist()]
    new = [[(0,) * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            v = [
                sum(p[a][i] * p[b][j] * c[i][j][k] for i in range(n) for j in range(n))
                for k in range(n)
            ]
            w = tuple(sum(v[k] * q[k][l] for k in range(n)) for l in range(n))
            new[a][b], new[b][a] = w, tuple(-x for x in w)
    return LieAlgebra(n, tuple(tuple(plane) for plane in new), tuple(f"f{i}" for i in range(n)))


def dense_unimodular(lower, upper, n):
    """L U for unit triangular L and U whose off-diagonal entries are drawn in order."""
    low, up = iter(lower), iter(upper)
    lmat = [[1 if i == j else next(low) if i > j else 0 for j in range(n)] for i in range(n)]
    umat = [[1 if i == j else next(up) if i < j else 0 for j in range(n)] for i in range(n)]
    return [[sum(lmat[i][k] * umat[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


SMALL_CATALOGUE = ["af", "sol", "sl2", "heisenberg", "abelian(2)", "abelian(3)", "so(3)",
                   "so(2,1)", "af+af", "af+so(2,1)", "so(4)", "so(3,1)", "so(2,2)", "sl2+sl2",
                   "sol+sl2", "vr(2,1,1)", "vr(3,0,1)"]
SCALES = (1, -1, 2, -2, Fraction(1, 2), 3, Fraction(-2, 3))
UNIT_ENTRIES = (-1, 0, 1)


@lru_cache(maxsize=None)
def catalogue_answer(name):
    return lie_presentable(catalogue(name)).answer


def draw_basis(data, n):
    """A permuted-scaled or a dense unimodular change of basis of Q^n."""
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(n)))
        scales = data.draw(st.lists(st.sampled_from(SCALES), min_size=n, max_size=n))
        return [[scales[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    entries = st.lists(st.sampled_from(UNIT_ENTRIES), min_size=n * (n - 1) // 2,
                       max_size=n * (n - 1) // 2)
    return dense_unimodular(data.draw(entries), data.draw(entries), n)


@settings(max_examples=40)
@given(st.sampled_from(SMALL_CATALOGUE), st.data())
def test_bracket_subspace_is_the_span_of_the_rational_brackets(name, data):
    # bracket_subspace brackets primitive integer multiples of the rows: same span
    algebra = catalogue(name)
    n = algebra.dim
    entries = st.lists(st.sampled_from(UNIT_ENTRIES), min_size=n * (n - 1) // 2,
                       max_size=n * (n - 1) // 2)
    algebra = rebase(algebra, dense_unimodular(data.draw(entries), data.draw(entries), n))
    vectors = st.lists(st.lists(st.sampled_from((0,) + SCALES), min_size=n, max_size=n), min_size=1, max_size=n)
    a, b = (Subspace.from_vectors(n, data.draw(vectors)) for _ in range(2))
    brackets = [algebra.bracket(x, y) for x in a.rows for y in b.rows]
    assert bracket_subspace(algebra, a, b) == Subspace.from_vectors(n, brackets)


@settings(max_examples=40)
@given(st.data())
def test_answers_survive_change_of_basis(data):
    name = data.draw(st.sampled_from(SMALL_CATALOGUE))
    algebra = catalogue(name)
    rebased = rebase(algebra, draw_basis(data, algebra.dim))
    assert validate(rebased) is None
    res = lie_presentable(rebased)
    assert res.answer == catalogue_answer(name) != Answer.UNKNOWN
    if res.answer == Answer.YES:
        ok, reason = verify_product_certificate(rebased, res.certificate)
        assert ok, reason


# the vr(2,1,2) family splits its socle Q^3 + Q^3 from a null vector of a generator
# in a dense basis; vr(3,1,2), vr(2,2,2) and vr(4,0,2) can stay Unknown there
INVARIANT_UNDER_BASIS = SMALL_CATALOGUE + ["vr(2,1,2)", "sol+vr(2,1,2)", "vr(2,1,2)+sl2", "vr(3,0,2)"]


def lattice_summary(algebra):
    """The answer, the lattice completeness, and the ideal and witness dimensions."""
    res, lattice = lie_presentable(algebra), ideal_lattice(algebra)
    if lattice.completeness is Completeness.INFINITE_FAMILY:
        assert_witness_pair(algebra, lattice)
    witness = None if lattice.witness is None else [w.dim for w in lattice.witness]
    return (res.answer, res.to_json()["lattice_completeness"], lattice.completeness,
            sorted(s.dim for s in lattice.ideals), witness)


@lru_cache(maxsize=None)
def catalogue_summary(name):
    return lattice_summary(catalogue(name))


@settings(max_examples=60)
@given(st.data())
def test_lattices_survive_change_of_basis(data):
    name = data.draw(st.sampled_from(INVARIANT_UNDER_BASIS))
    algebra = catalogue(name)
    rebased = rebase(algebra, draw_basis(data, algebra.dim))
    assert lattice_summary(rebased) == catalogue_summary(name)


@pytest.mark.parametrize("name", ["vr(2,1,3)", "vr(3,0,3)"])
def test_dense_basis_descends_to_a_simple_submodule(monkeypatch, name):
    """In the dense basis seed 1 draws, the proper submodule that
    _find_simple_inside starts from is not simple, so it descends at least
    once; the verdict is the catalogue basis's: two 3-dimensional ideals of
    an infinite family."""
    algebra = catalogue(name)
    n = algebra.dim
    rng = random.Random(1)
    lower, upper = ([rng.choice(UNIT_ENTRIES) for _ in range(n * (n - 1) // 2)] for _ in range(2))
    rebased = rebase(algebra, dense_unimodular(lower, upper, n))
    inside, steps = [False], []
    find, compose = lie._find_simple_inside, lie._compose_rows

    def spy_find(rows, gens):
        inside[0] = True
        try:
            return find(rows, gens)
        finally:
            inside[0] = False

    def spy_compose(outer, inner):
        steps.append(inside[0])
        return compose(outer, inner)

    monkeypatch.setattr(lie, "_find_simple_inside", spy_find)
    monkeypatch.setattr(lie, "_compose_rows", spy_compose)
    for basis in (algebra, rebased):
        report = lie_presentable(basis).to_json()
        assert report["lattice_completeness"] == "InfiniteFamilyDetected"
        assert [step["ideal_dim"] for step in report["ideal_trace"]] == [3, 3]
    assert any(steps)


def restrict_oracle(mat, rows):
    """The matrix of mat on the invariant span of the rref rows, in their coordinates."""
    piv = [next(i for i, x in enumerate(r) if x) for r in rows]
    images = [[sum(a * x for a, x in zip(row, b)) for row in mat] for b in rows]
    return [[image[p] for image in images] for p in piv]


def assert_witness_pair(algebra, lattice):
    """w1 != w2, and modulo K = w1 meet w2 (the ideal J of a family found in L / J)
    both are simple, isomorphic modules with one centralizer."""
    w1, w2 = lattice.witness
    assert w1 != w2
    k = intersect(w1, w2)
    quot, project = algebra, tuple
    if not k.is_zero():
        quot, _lift, project = quotient_algebra(algebra, k)
    m1, m2 = (Subspace.from_vectors(quot.dim, [project(r) for r in w.rows]) for w in (w1, w2))
    gens1, gens2 = ([restrict_oracle(a, m.rows) for a in ad_matrices(quot)] for m in (m1, m2))
    for m, gens in ((m1, gens1), (m2, gens2)):
        # an envelope of all of M_d(Q) leaves no proper subspace invariant
        assert len(envelope_oracle(gens, m.dim)) == m.dim ** 2
    assert hom_oracle(gens1, gens2, m1.dim, m2.dim)
    assert centralizer(quot, m1) == centralizer(quot, m2)


SEMISIMPLE = ["so(3)", "so(2,1)", "sl2", "so(4)", "so(3,1)", "so(2,2)", "sl2+sl2"]
NOT_SEMISIMPLE = [name for name in SMALL_CATALOGUE if name not in SEMISIMPLE]
# dimension of the solvable radical; af+so(2,1) has radical af, vr(p,q,1) the Q^(p+q)
RADICAL_DIM = {"af": 2, "sol": 3, "heisenberg": 3, "abelian(2)": 2, "abelian(3)": 3,
               "af+af": 4, "af+so(2,1)": 2, "sol+sl2": 3, "vr(2,1,1)": 3, "vr(3,0,1)": 3}


def ad_matrices(algebra):
    return [algebra.ad_basis(i) for i in range(algebra.dim)]


@pytest.mark.parametrize("name", SEMISIMPLE + NOT_SEMISIMPLE)
def test_killing_form_gate(name, monkeypatch):
    # Cartan's criterion: the Killing form is nondegenerate iff L is semisimple
    algebra = catalogue(name)
    n = algebra.dim
    degenerate = bool(lie.nullspace(lie._trace_gram(ad_matrices(algebra)), n))
    assert degenerate == (name in NOT_SEMISIMPLE)
    radical, _socle = lie._adjoint_socle(algebra, ad_matrices(algebra))
    assert len(radical) == RADICAL_DIM.get(name, 0)
    calls = []

    def spy(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)

    for fn in (lie._simplicity, lie._decomposability):
        monkeypatch.setattr(lie, fn.__name__, spy(fn))
    lie._minimal_ideals(algebra)
    assert ("_simplicity" in calls) == degenerate
    ideal_lattice(algebra)
    assert "_decomposability" not in calls


def lie_closure(gens):
    """The Lie algebra of matrices spanned by the gens and their iterated commutators."""
    m = len(gens[0])
    span, queue = SpanOracle(), []
    for g in gens:
        if span.add([x for row in g for x in row]):
            queue.append(g)
    basis = list(queue)
    while queue:
        a = queue.pop()
        for b in list(basis):
            c = [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(m)) for j in range(m)]
                 for i in range(m)]
            if span.add([x for row in c for x in row]):
                basis.append(c)
                queue.append(c)
    rows = span.basis()
    piv = [next(i for i, x in enumerate(r) if x) for r in rows]
    n = len(rows)
    mats = [[list(r[i * m:(i + 1) * m]) for i in range(m)] for r in rows]
    constants = []
    for a in mats:
        plane = []
        for b in mats:
            c = [sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(m))
                 for i in range(m) for j in range(m)]
            plane.append(tuple(c[p] for p in piv))  # coordinates in the rref basis
        constants.append(tuple(plane))
    return LieAlgebra(n, tuple(constants), tuple(f"x{i}" for i in range(n)))


@st.composite
def matrix_lie_algebras(draw):
    """The Lie closure of 2-3 integer matrices in gl3 or gl4, each with 1-3 nonzero entries."""
    m = draw(st.sampled_from((3, 4)))
    upper = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        g = [[0] * m for _ in range(m)]
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2))
            if upper:
                i, j = min(i, j), max(i, j)
            g[i][j] = draw(st.sampled_from((1, -1, 2)))
        gens.append(g)
    algebra = lie_closure(gens)
    assume(algebra.dim <= 10)  # the envelope oracle has up to dim^2 elements
    return algebra


def envelope_socle_oracle(algebra):
    """The annihilator of the trace-form radical of the envelope of ad L."""
    n = algebra.dim
    env = envelope_oracle(ad_matrices(algebra), n)
    gram = [[sum(a[r][s] * b[s][r] for r in range(n) for s in range(n)) for b in env]
            for a in env]
    rows = []
    for sol in nullspace_oracle(gram, len(env)):
        rows += [[sum(c * m[r][s] for c, m in zip(sol, env)) for s in range(n)]
                 for r in range(n)]
    return rref_oracle(nullspace_oracle(rows, n))


@settings(max_examples=40)
@given(st.data())
def test_socle_matches_envelope_oracle(data):
    if data.draw(st.booleans()):
        algebra = catalogue(data.draw(st.sampled_from(SMALL_CATALOGUE)))
        algebra = rebase(algebra, draw_basis(data, algebra.dim))
    else:
        algebra = data.draw(matrix_lie_algebras())
    _radical, socle = lie._adjoint_socle(algebra, ad_matrices(algebra))
    assert socle == envelope_socle_oracle(algebra)
    atoms, status, _witness = lie._minimal_ideals(algebra)
    if status is Completeness.COMPLETE:
        assert rref_oracle(r for atom in atoms for r in atom.rows) == socle


@settings(max_examples=40)
@given(st.data())
def test_centroid_agrees_with_the_lattice_scan(data):
    # without a centre, the first ideal the scan finds complemented by its centralizer
    # is the least image of a primitive centroid idempotent, and the rest is the other part
    if data.draw(st.booleans()):
        algebra = catalogue(data.draw(st.sampled_from(SMALL_CATALOGUE)))
        algebra = rebase(algebra, draw_basis(data, algebra.dim))
    else:
        algebra = data.draw(matrix_lie_algebras())
    assume(centre(algebra).is_zero())
    res = lie_presentable(algebra)
    assume(res.lattice.completeness is Completeness.COMPLETE)
    kind, parts = lie._decomposability(algebra)
    if res.answer == Answer.YES:
        assert kind == "decomposable"
        assert parts == (res.certificate.g1, res.certificate.g2)
    else:
        assert kind == "indecomposable"


def test_socle_leaves_out_a_jordan_block():
    # L = Qx + [L, L] with ad x a Jordan block on [L, L], which is also the
    # centralizer of [L, R]: the socle is the block's eigenline alone
    jordan = lie_closure([[[1, 1, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [0, 0, 0]]])
    _radical, socle = lie._adjoint_socle(jordan, ad_matrices(jordan))
    assert len(socle) == 1 and socle == envelope_socle_oracle(jordan)


@pytest.mark.parametrize("name, atoms", [("sl2+sl2", 2), ("so(4)+so(4)", 4), ("sl2+abelian(1)", 2)])
def test_lattice_of_a_direct_sum_of_atoms(name, atoms, monkeypatch):
    # when the minimal ideals span the algebra, its ideals are their 2^k partial sums
    algebra = catalogue(name)
    calls = []
    minimal_ideals = lie._minimal_ideals
    monkeypatch.setattr(lie, "_minimal_ideals", lambda *a: calls.append(1) or minimal_ideals(*a))
    lattice = ideal_lattice(algebra)
    assert lattice.completeness is Completeness.COMPLETE
    assert len(lattice.ideals) == 2 ** atoms and len(calls) == 1


@pytest.mark.parametrize("name, splits, ideals", [("sol+sl2", 8, 10), ("sol", 4, 5)])
def test_lattice_splits_each_ideal_once(name, splits, ideals, monkeypatch):
    # each ideal is split at most once, and an ideal that is a sum of atoms
    # above a split one is not split at all: sol+sl2 has 2 such ideals
    calls = []
    minimal_ideals = lie._minimal_ideals
    monkeypatch.setattr(lie, "_minimal_ideals", lambda *a: calls.append(1) or minimal_ideals(*a))
    lattice = ideal_lattice(catalogue(name))
    assert lattice.completeness is Completeness.COMPLETE
    assert (len(calls), len(lattice.ideals)) == (splits, ideals)


@settings(max_examples=40)
@given(st.data())
def test_lattice_matches_the_recursion_oracle(data):
    if data.draw(st.booleans()):
        algebra = catalogue(data.draw(st.sampled_from(SMALL_CATALOGUE)))
        algebra = rebase(algebra, draw_basis(data, algebra.dim))
    else:
        algebra = data.draw(matrix_lie_algebras())
    lattice, expected = ideal_lattice(algebra), lattice_recursion_oracle(algebra)
    assert (lattice.completeness, lattice.ideals) == (expected.completeness, expected.ideals)
    dims = [None if lat.witness is None else [w.dim for w in lat.witness]
            for lat in (lattice, expected)]
    assert dims[0] == dims[1]


def envelope_oracle(gens, n):
    """Basis of the unital matrix algebra that the gens generate, spun depth first."""
    basis, span = [], SpanOracle()
    queue = [[[int(i == j) for j in range(n)] for i in range(n)]] + list(gens)
    while queue:
        m = queue.pop()
        if span.add([x for row in m for x in row]):
            basis.append(m)
            queue.extend(
                [[sum(a * b for a, b in zip(row, col)) for col in zip(*g)] for row in m] for g in gens
            )
    return basis


def pinned_dense(name, seed):
    algebra = catalogue(name)
    n, rng = algebra.dim, random.Random(seed)
    draws = [rng.choice(UNIT_ENTRIES) for _ in range(n * (n - 1))]
    return rebase(algebra, dense_unimodular(draws[::2], draws[1::2], n))


COMPLETE_NO = {
    "answer": "NO",
    "certificate": None,
    "lattice_completeness": "Complete",
    "note": "every nonzero ideal fails: its centralizer does not complement it",
}
# lie_presentable(...).to_json() on pinned_dense(name, seed)
PINNED = {
    ("so(3,1)", 31): {
        **COMPLETE_NO,
        "ideal_trace": [{"ideal_dim": 6, "centralizer_dim": 0, "span_dim": 6}],
    },
    ("vr(3,0,1)", 301): {
        **COMPLETE_NO,
        "ideal_trace": [
            {"ideal_dim": 3, "centralizer_dim": 3, "span_dim": 3},
            {"ideal_dim": 6, "centralizer_dim": 0, "span_dim": 6},
        ],
    },
    ("so(5)", 5): {
        **COMPLETE_NO,
        "ideal_trace": [{"ideal_dim": 10, "centralizer_dim": 0, "span_dim": 10}],
    },
    ("vr(2,1,2)", 212): {
        "answer": "NO",
        "certificate": None,
        "ideal_trace": [{"ideal_dim": 3, "centralizer_dim": 6, "span_dim": 6}] * 2,
        "lattice_completeness": "InfiniteFamilyDetected",
        "note": "infinitely many ideals, but the centre is zero and the centroid is local with"
                " residue field Q; no pair of commuting complementary ideals exists",
    },
    ("af+so(2,1)", 21): {
        "answer": "YES",
        "certificate": {
            "g1": [["1", "0", "-1", "-2/3", "-4/3"], ["0", "1", "1", "2/3", "7/3"]],
            "g2": [["1", "0", "-1/2", "0", "-1/2"], ["0", "1", "0", "0", "1"],
                   ["0", "0", "0", "1", "0"]],
        },
        "ideal_trace": [
            {"ideal_dim": 1, "centralizer_dim": 4, "span_dim": 4},
            {"ideal_dim": 2, "centralizer_dim": 3, "span_dim": 5},
        ],
        "lattice_completeness": "Complete",
        "note": "an ideal and its centralizer span the algebra",
    },
}


@pytest.mark.parametrize("name, seed", list(PINNED))
def test_dense_basis_certificates_are_pinned(name, seed):
    algebra = pinned_dense(name, seed)
    assert lie_presentable(algebra).to_json() == PINNED[name, seed]
    lattice = ideal_lattice(algebra)
    if lattice.completeness is Completeness.INFINITE_FAMILY:
        assert_witness_pair(algebra, lattice)


def test_centroid_certificate_is_pinned():
    # both copies of af have dimension 2; the right-hand one has the lesser rows
    algebra = catalogue("af+af")
    first, second = (lie_presentable(algebra).to_json() for _ in range(2))
    assert first == second
    assert first["certificate"] == {
        "g1": [["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        "g2": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    }


# the catalogue algebras with the verdicts the benchmark's reference pins, and so(6)
CENTROID_CASES = ["af", "sol", "sl2", "so(3)", "so(2,1)", "so(3,1)", "vr(2,1,1)", "vr(3,0,1)",
                  "vr(3,1,1)", "vr(2,1,2)", "so(5)", "abelian(2)", "abelian(3)", "heisenberg",
                  "sl2+sl2", "so(2,2)", "so(4)", "af+af", "sol+sl2", "af+so(2,1)", "so(4)+so(4)",
                  "so(6)"]


@pytest.mark.parametrize("name", CENTROID_CASES)
def test_centroid_from_generators_is_the_all_basis_commutant(name):
    algebra = catalogue(name)
    n = algebra.dim
    picks = lie._generators(algebra)
    span = Subspace.from_vectors(n, [unit(n, i) for i in picks])
    while (grown := span.add(bracket_subspace(algebra, span, span))).dim > span.dim:
        span = grown
    assert span.dim == n
    everything = solve_commutant([algebra.ad_basis(i) for i in range(n)], n)
    assert lie.centroid(algebra) == everything


@settings(max_examples=40)
@given(st.data())
def test_decomposability_matches_the_crt_oracle(data):
    # the primary kernels of one generating element split the centroid as its
    # CRT idempotents, lifted by Newton's iteration, do; vr(2,1,1) and vr(3,0,1)
    # put a radical into the centroid
    if data.draw(st.booleans()):
        algebra = catalogue(data.draw(st.sampled_from(SMALL_CATALOGUE)))
        algebra = rebase(algebra, draw_basis(data, algebra.dim))
    else:
        algebra = data.draw(matrix_lie_algebras())
    extra = data.draw(st.sampled_from((None, "vr(2,1,1)", "vr(3,0,1)")))
    if extra is not None:
        algebra = direct_sum(algebra, catalogue(extra))
    assume(centre(algebra).is_zero())
    assert lie._decomposability(algebra) == decomposability_oracle(algebra)


def test_a_radical_in_the_centroid_is_split_by_squaring():
    # the centroid of vr(2,1,1) + sl2 is Q[e]/(e^2) x Q: on the vr(2,1,1) part
    # z - a is a nonzero nilpotent, whose kernel is only half of that part
    algebra = catalogue("vr(2,1,1)+sl2")
    kind, parts = lie._decomposability(algebra)
    assert kind == "decomposable"
    assert parts == (span(algebra, *(unit(9, i) for i in range(6, 9))),
                     span(algebra, *(unit(9, i) for i in range(6))))


# --- internal checks that survive python -O --------------------------------------


def test_primitive_idempotents_need_a_commutative_algebra():
    # M2(Q) has dimension 4 and no radical, but no element of it has degree 4
    basis = [[[int((r, s) == (i, j)) for s in range(2)] for r in range(2)]
             for i in range(2) for j in range(2)]
    with pytest.raises(InternalVerificationError, match="not commutative"):
        lie._primary_components(basis, 2, 4)


def test_isotypic_components_check_their_dimensions(monkeypatch):
    # sl2 + sl2 reads one component per factor of z's minimal polynomial;
    # losing a factor loses a component
    factor_over_q = lie.factor_over_q
    monkeypatch.setattr(lie, "factor_over_q", lambda f: factor_over_q(f)[:-1])
    with pytest.raises(InternalVerificationError, match="primary components"):
        lie_presentable(catalogue("sl2+sl2"))


def test_isotypic_components_solve_over_the_generators(monkeypatch):
    """Every commutant is solved once, over the generators' restrictions: the
    socle's, then, beside a radical, that of each component that is not the
    whole socle (sol+sl2 has two of dimension 1), and for vr(2,1,2), whose
    one component is the whole socle, that of the simple w1; the witness map
    phi comes from the component's commutant, which is the socle's."""
    solve = lie.solve_commutant
    handed = []
    monkeypatch.setattr(lie, "solve_commutant", lambda mats, n: handed.append((len(mats), n)) or solve(mats, n))
    for name, dims in [("so(5)", [10]), ("sol+sl2", [5, 3, 1, 1]), ("vr(2,1,2)", [6, 3])]:
        algebra = catalogue(name)
        handed.clear()
        lie._minimal_ideals(algebra)
        generators = len(lie._generators(algebra))
        assert handed == [(generators, d) for d in dims]
        assert generators < algebra.dim


@pytest.mark.parametrize("algebra", [catalogue("so(8)"), pinned_dense("so(7)", 7)], ids=["so(8)", "dense so(7)"])
def test_large_simple_algebras_decide_no(algebra):
    # a simple algebra's one nonzero ideal is itself, with zero centralizer
    n = algebra.dim
    assert lie_presentable(algebra).to_json() == {
        **COMPLETE_NO,
        "ideal_trace": [{"ideal_dim": n, "centralizer_dim": 0, "span_dim": n}],
    }


def generators_by_brackets(algebra):
    """The generator picks of ``lie._generators``, closing each span under brackets of pairs."""
    n = algebra.dim
    span, elements, picks = SpanOracle(), [], []
    for i in range(n):
        if span.contains(unit(n, i)):
            continue
        picks.append(i)
        queue = [unit(n, i)]
        while queue:
            v = queue.pop()
            if span.add(v):
                queue.extend(algebra.bracket(u, v) for u in elements)
                elements.append(v)
    return picks


@pytest.mark.parametrize("name", SMALL_CATALOGUE + ["so(5)"])
def test_generators_match_the_bracket_closure(name):
    for algebra in (catalogue(name), pinned_dense(name, 5)):
        assert lie._generators(algebra) == generators_by_brackets(algebra)


@pytest.mark.parametrize(
    "name, components, message",
    [
        # sl2 + sl2 in its standard basis: e, f, h of the left copy, then of the right
        ("sl2+sl2", [(0, 1, 3), (2, 4, 5)], "not an ideal"),
        ("sl2+sl2", [(0, 1, 2)], "do not span"),
        # af is no semisimple algebra: itself is an ideal, but [af, af] = ke
        ("af", [(0, 1)], "not perfect"),
    ],
)
def test_semisimple_components_are_rechecked(monkeypatch, name, components, message):
    algebra = catalogue(name)
    n = algebra.dim
    rows = [tuple(unit(n, i) for i in comp) for comp in components]
    monkeypatch.setattr(lie, "_isotypic_components", lambda *args: rows)
    # a nondegenerate Killing Gram sends af down the semisimple path too
    monkeypatch.setattr(lie, "_trace_gram", lambda mats: identity_matrix(len(mats)))
    with pytest.raises(InternalVerificationError, match=message):
        lie._minimal_ideals(algebra)
