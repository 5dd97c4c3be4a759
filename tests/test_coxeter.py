import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coxeter_oracles import float_matrix, from_rational_matrix, submatrix
from cyclotomic_field import berkowitz_signature, zeta_signature
import pbp.coxeter as coxeter_mod
from pbp.coxeter import (
    AFFINE,
    FINITE,
    INDEFINITE,
    INF,
    CoxeterMatrix,
    Signature,
    SymmetricForm,
    classify,
    components,
    coxeter_from_json,
    coxeter_presentable,
    coxeter_report,
    signature,
    standard_diagram,
    tits_form,
    _from_edges,
    _path,
)
from pbp.algebraic import two_cos_pi_over
from pbp.verdict import Answer, InternalVerificationError

FINITE_NAMES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 13)]
)
AFFINE_NAMES = ["A~1", "A~2", "C~2", "G~2", "F~4", "E~8"]


def triangle(a, b, c):
    return CoxeterMatrix(((1, a, b), (a, 1, c), (b, c, 1)))


def eig_signature(form, tol=1e-9):
    vals = np.linalg.eigvalsh(np.array(float_matrix(form)))
    p = int((vals > tol).sum())
    q = int((vals < -tol).sum())
    return Signature(p, q, len(vals) - p - q)


# --- form construction --------------------------------------------------------


def test_tits_form_entries():
    form = tits_form(triangle(3, 2, INF))
    assert form.rows[0][1] == Fraction(-1, 2)
    assert form.rows[0][2] == 0
    assert form.rows[1][2] == -1


def test_tits_form_pentagon_entry():
    form = tits_form(standard_diagram("I2(5)"))
    entry = form.rows[0][1]
    assert not isinstance(entry, Fraction) and entry == form.rows[1][0]
    assert entry.m == 5
    assert math.isclose(float_matrix(form)[0][1], -math.cos(math.pi / 5), abs_tol=1e-12)


def test_components():
    all2 = CoxeterMatrix(((1, 2, 2), (2, 1, 2), (2, 2, 1)))
    assert components(all2) == [[0], [1], [2]]
    a3 = standard_diagram("A3")
    assert components(a3) == [[0, 1, 2]]
    two_a2 = CoxeterMatrix(
        ((1, 3, 2, 2), (3, 1, 2, 2), (2, 2, 1, 3), (2, 2, 3, 1))
    )
    assert components(two_a2) == [[0, 1], [2, 3]]


# --- signature ----------------------------------------------------------------


def test_signature_all_minus_one():
    form = from_rational_matrix(
        [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    )
    assert signature(form) == Signature(2, 1, 0)
    # characteristic polynomial is exactly (x+1)(x-2)^2
    x = sympy.Symbol("x")
    cp = sympy.Matrix([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]]).charpoly(x).as_expr()
    assert sympy.expand(cp - (x + 1) * (x - 2) ** 2) == 0


def test_signature_affine_a1():
    form = from_rational_matrix([[1, -1], [-1, 1]])
    assert signature(form) == Signature(1, 0, 1)


def test_signature_a3_positive_definite():
    form = tits_form(standard_diagram("A3"))
    assert eig_signature(form) == Signature(3, 0, 0)  # oracle
    assert signature(form) == Signature(3, 0, 0)


def test_signature_with_zero_diagonal_schur_complement():
    # after the first pivot the trailing 2x2 block is [[0,-1],[-1,0]], with a
    # zero diagonal: one 2x2 step on it adds one to p and one to q
    rows = [[1, -1, -1], [-1, 1, 0], [-1, 0, 1]]
    form = from_rational_matrix(rows)
    assert signature(form) == eig_signature(form) == Signature(2, 1, 0)


def test_signature_matches_oracle_on_random_admissible():
    rng = random.Random(20259)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        rows = [[Fraction(1)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = -Fraction(rng.randint(0, 8), 8)
                rows[i][j] = rows[j][i] = v
        form = from_rational_matrix(rows)
        sig = signature(form)
        assert sig.p + sig.q + sig.r == n
        vals = np.linalg.eigvalsh(np.array(float_matrix(form)))
        if min(abs(vals)) > 1e-6:  # oracle decisive away from zero eigenvalues
            assert sig == eig_signature(form)
            checked += 1
    assert checked > 100


# --- classification -----------------------------------------------------------


def test_classify_triangle_examples():
    assert classify(standard_diagram("A3"))[0][1] == FINITE
    assert classify(triangle(3, 3, 3))[0][1] == AFFINE
    comp, label, sig = classify(triangle(3, 3, 7))[0]
    assert label == INDEFINITE
    assert (sig.p, sig.q, sig.r) == (2, 1, 0)


@pytest.mark.parametrize("name", FINITE_NAMES)
def test_finite_catalogue(name):
    matrix = standard_diagram(name)
    parts = classify(matrix)
    assert len(parts) == 1, f"{name} should be irreducible"
    comp, label, sig = parts[0]
    assert label == FINITE
    assert (sig.p, sig.q, sig.r) == (matrix.n, 0, 0)
    assert eig_signature(tits_form(matrix)) == sig


@pytest.mark.parametrize("name", AFFINE_NAMES)
def test_affine_catalogue(name):
    matrix = standard_diagram(name)
    parts = classify(matrix)
    assert len(parts) == 1, f"{name} should be irreducible"
    comp, label, sig = parts[0]
    assert label == AFFINE
    assert sig.r == 1 and sig.q == 0
    assert eig_signature(tits_form(matrix)) == sig
    assert tuple(signature(tits_form(matrix))) == zeta_signature(matrix)


def test_dihedral_dichotomy():
    for m in range(3, 13):
        sig = classify(standard_diagram(f"I2({m})"))[0][2]
        assert (sig.p, sig.q, sig.r) == (2, 0, 0)
    sig = classify(standard_diagram("A~1"))[0][2]
    assert (sig.p, sig.r) == (1, 1)


# --- appendix-style random form properties -------------------------------------


def det3(rows):
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def random_admissible(rng, n):
    rows = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, 12)
            v = -Fraction(rng.randint(0, den), den)
            rows[i][j] = rows[j][i] = v
    return rows


def is_irreducible(rows):
    n = len(rows)
    seen = {0}
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if j not in seen and i != j and rows[i][j] != 0:
                seen.add(j)
                queue.append(j)
    return len(seen) == n


def test_three_by_three_p_at_least_two():
    rng = random.Random(33033)
    for _ in range(250):
        rows = random_admissible(rng, 3)
        sig = signature(from_rational_matrix(rows))
        assert sig.p >= 2
        if det3(rows) > 0:
            assert sig.p == 3


def test_four_by_four_irreducible_p_at_least_three():
    rng = random.Random(44044)
    done = 0
    while done < 250:
        rows = random_admissible(rng, 4)
        if not is_irreducible(rows):
            continue
        done += 1
        sig = signature(from_rational_matrix(rows))
        assert sig.p >= 3


# --- verdicts -----------------------------------------------------------------


def test_verdict_affine_triangle():
    v = coxeter_presentable(triangle(3, 3, 3))
    assert v.answer == Answer.YES
    assert v.certificate["kind"] == "virtually-free-abelian"
    assert v.certificate["rank"] == 2


def test_verdict_indefinite_triangle():
    v = coxeter_presentable(triangle(3, 3, 7))
    assert v.answer == Answer.NO
    assert any("Zariski" in t.cite for t in v.trace)


def test_verdict_finite():
    v = coxeter_presentable(standard_diagram("A3"))
    assert v.answer == Answer.NOT_APPLICABLE


def test_verdict_two_infinite_components():
    # disjoint union of two affine A~1 diagrams
    m = CoxeterMatrix(
        ((1, INF, 2, 2), (INF, 1, 2, 2), (2, 2, 1, INF), (2, 2, INF, 1))
    )
    v = coxeter_presentable(m)
    assert v.answer == Answer.YES
    assert v.certificate["kind"] == "direct-product-of-infinite-factors"


def test_verdict_infinite_plus_finite_component():
    # A~1 x A1: verdict follows the affine part, finite factor dropped
    m = CoxeterMatrix(((1, INF, 2), (INF, 1, 2), (2, 2, 1)))
    v = coxeter_presentable(m)
    assert v.answer == Answer.YES
    assert any(t.rule == "finite-index" for t in v.trace)


def test_report_and_json():
    matrix = coxeter_from_json({"n": 3, "m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]})
    report = coxeter_report(matrix)
    assert report["answer"] == "NOT_APPLICABLE"  # this is A3, finite
    assert report["components"][0]["label"] == FINITE

    aff = coxeter_from_json({"n": 2, "m": [[1, "inf"], ["inf", 1]]})
    assert coxeter_report(aff)["answer"] == "YES"


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        coxeter_from_json({"n": 2, "m": [[1, 1], [1, 1]]})
    with pytest.raises(ValueError):
        coxeter_from_json({"n": 2, "m": [[1, 3]]})
    with pytest.raises(ValueError):
        CoxeterMatrix(((1, 3), (4, 1)))


@pytest.mark.parametrize("rows", [[[1, 0, 5], [0, 1]], [[1], [0, 1]], [[1, 0], [0]]])
def test_symmetric_form_refuses_ragged_rows(rows):
    """A form with n rows must have n entries in each."""
    with pytest.raises(ValueError, match="square"):
        from_rational_matrix(rows)


# --- high-degree fields, relabelling, classical triangle rule -----------------


@pytest.mark.parametrize("labels", [(5, 7, 8), (8, 9, 11), (7, 11, 13), (2, 101, 103)])
def test_high_degree_triangles_are_indefinite(labels):
    matrix = triangle(*labels)
    report = coxeter_report(matrix)
    assert report["answer"] == "NO"
    assert report["components"] == [{"vertices": [0, 1, 2], "label": INDEFINITE, "signature": [2, 1, 0]}]
    assert eig_signature(tits_form(matrix)) == Signature(2, 1, 0)


LABELS = st.sampled_from([2, 2, 3, 3, 4, 5, 6, INF])


@st.composite
def relabelled_matrices(draw):
    n = draw(st.integers(1, 12))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(LABELS)
    perm = draw(st.permutations(range(n)))
    permuted = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return CoxeterMatrix(tuple(map(tuple, rows))), CoxeterMatrix(tuple(map(tuple, permuted))), perm


def _parts(report, relabel):
    return sorted(
        (sorted(relabel[v] for v in c["vertices"]), c["label"], c["signature"]) for c in report["components"]
    )


@settings(max_examples=80)
@given(relabelled_matrices())
def test_report_invariant_under_relabelling(case):
    matrix, permuted, perm = case
    # vertex i of the permuted matrix is vertex perm[i] of the original
    ident = list(range(matrix.n))
    a, b = coxeter_report(matrix), coxeter_report(permuted)
    assert a["answer"] == b["answer"]
    # Z[theta] gets slow past rank 6; the ball Berkowitz oracle takes over there
    def oracle(m):
        return zeta_signature(m) if m.n <= 6 else berkowitz_by_blocks(tits_form(m))

    assert tuple(signature(tits_form(matrix))) == oracle(matrix)
    for part in a["components"]:
        assert tuple(part["signature"]) == oracle(submatrix(matrix, part["vertices"]))
    assert _parts(a, ident) == _parts(b, perm)
    cert_a, cert_b = a.get("certificate"), b.get("certificate")
    assert (cert_a or {}).get("kind") == (cert_b or {}).get("kind")
    if cert_a and cert_a["kind"] == "virtually-free-abelian":
        assert cert_a["rank"] == cert_b["rank"]
        assert cert_a["component"] == sorted(perm[v] for v in cert_b["component"])


def test_triangles_follow_the_classical_angle_rule():
    # Humphreys 1990, 6.8: a triangle group is finite, affine or hyperbolic
    # as 1/l + 1/m + 1/n is > 1, = 1 or < 1
    labels = range(2, 14)
    for l in labels:
        for m in labels:
            for n in (n for n in labels if l <= m <= n):
                angle_sum = Fraction(1, l) + Fraction(1, m) + Fraction(1, n)
                parts = classify(triangle(l, m, n))
                kinds = [label for _, label, _ in parts]
                assert tuple(signature(tits_form(triangle(l, m, n)))) == zeta_signature(triangle(l, m, n))
                if angle_sum > 1:
                    assert set(kinds) == {FINITE}, (l, m, n)
                elif angle_sum == 1:
                    assert kinds == [AFFINE] and parts[0][2] == Signature(2, 0, 1), (l, m, n)
                else:
                    assert kinds == [INDEFINITE] and parts[0][2] == Signature(2, 1, 0), (l, m, n)


def test_report_classifies_once(monkeypatch):
    calls = []
    real = coxeter_mod.classify

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(coxeter_mod, "classify", counting)
    coxeter_report(triangle(3, 3, 7))
    assert len(calls) == 1



# with one large prime label, whose field Q(cos(pi/m)) has degree (10**6 + 2) / 2
COMPONENT_LABELS = (2, 3, 4, 5, 6, 7, INF, 10**6 + 3)


@st.composite
def labelled_matrices(draw):
    """A random Coxeter matrix of rank 1-7 with labels from COMPONENT_LABELS."""
    n = draw(st.integers(1, 7))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(COMPONENT_LABELS))
    return CoxeterMatrix(tuple(map(tuple, rows)))


@settings(max_examples=60, deadline=None)
@given(labelled_matrices())
def test_classify_reads_each_component_as_signature_of_its_submatrix(matrix):
    parts = classify(matrix)
    assert [comp for comp, _, _ in parts] == components(matrix)
    for comp, _, sig in parts:
        assert sig == signature(tits_form(submatrix(matrix, comp)))


def test_report_builds_no_matrix_or_form_beyond_its_input(monkeypatch):
    matrices = [triangle(3, 3, 7), standard_diagram("H4"), standard_diagram("E~8"),
                disjoint_union(standard_diagram("G~2"), standard_diagram("I2(7)"), triangle(4, 5, INF))]
    built, joined = [], []
    for cls in (CoxeterMatrix, SymmetricForm):
        real_init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, real_init=real_init, cls=cls:
                            built.append(cls.__name__) or real_init(self, *a))
    real_connected = coxeter_mod._connected
    monkeypatch.setattr(coxeter_mod, "_connected", lambda *a: joined.append(a) or real_connected(*a))
    tits_form(matrices[0])
    assert built == ["SymmetricForm"]  # the counters see a construction
    for matrix in matrices:
        built.clear()
        joined.clear()
        report = coxeter_report(matrix)
        assert built == [] and len(joined) == 1, report
    assert [len(coxeter_report(m)["components"]) for m in matrices] == [1, 1, 1, 3]


@pytest.mark.parametrize("matrix", [triangle(3, 3, INF), triangle(3, 3, 7)])
def test_inertia_that_does_not_add_up_is_refused(monkeypatch, matrix):
    # one count short of the rank, on a rational and on an irrational block
    monkeypatch.setattr(coxeter_mod, "_eliminate", lambda s, proved_zero, prec: (len(s) - 1, 0, 0))
    with pytest.raises(InternalVerificationError, match="does not add up to 3"):
        classify(matrix)
    with pytest.raises(InternalVerificationError, match="does not add up to 3"):
        signature(tits_form(matrix))

def test_split_certificate_is_rechecked(monkeypatch):
    # two A~1 blocks joined by a label 3: one irreducible component, but a
    # wrong component split would claim two commuting infinite factors
    matrix = CoxeterMatrix(
        ((1, INF, 3, 2), (INF, 1, 2, 2), (3, 2, 1, INF), (2, 2, INF, 1))
    )
    monkeypatch.setattr(coxeter_mod, "components", lambda m: [[0, 1], [2, 3]])
    with pytest.raises(InternalVerificationError):
        coxeter_presentable(matrix)


# --- block split, exact zeros with large labels, affine re-check --------------


def disjoint_union(*matrices):
    n = sum(m.n for m in matrices)
    rows = [[2] * n for _ in range(n)]
    offset = 0
    for m in matrices:
        for i in range(m.n):
            for j in range(m.n):
                rows[offset + i][offset + j] = m.m(i, j)
        offset += m.n
    return CoxeterMatrix(tuple(map(tuple, rows)))


def test_exact_zero_beside_a_large_label():
    matrix = disjoint_union(standard_diagram("A~2"), standard_diagram("I2(101)"))
    assert signature(tits_form(matrix)) == Signature(4, 0, 1)


def test_signature_splits_the_form_into_blocks():
    # as one block the zero coefficient of C~2 would need the norm bound of a
    # field of degree 2550; block by block it needs degree 2
    matrix = disjoint_union(*(standard_diagram(name) for name in ("I2(101)", "I2(103)", "C~2")))
    start = time.perf_counter()
    assert signature(tits_form(matrix)) == Signature(6, 0, 1)
    assert time.perf_counter() - start < 1.0


def test_tiny_determinant_of_a_huge_label():
    # det(2B) = 4 sin(pi/m)**2 < 2**-180 is not 0: the 64-bit ball holds 0,
    # the norm bound does not call it 0, and a higher precision settles it
    start = time.perf_counter()
    assert signature(tits_form(standard_diagram(f"I2({10**30 + 57})"))) == Signature(2, 0, 0)
    assert time.perf_counter() - start < 1.0


# the connected affine diagrams beyond standard_diagram's (Humphreys 1990, 2.7)
MORE_AFFINE = {
    "A~3": _from_edges(4, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 3}),
    "B~3": _from_edges(4, {(0, 2): 3, (1, 2): 3, (2, 3): 4}),
    "B~5": _from_edges(6, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 4}),
    "C~4": _path([4, 3, 3, 4]),
    "D~4": _from_edges(5, {(0, 4): 3, (1, 4): 3, (2, 4): 3, (3, 4): 3}),
    "D~6": _from_edges(7, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (4, 6): 3}),
    "E~6": _from_edges(7, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (2, 5): 3, (5, 6): 3}),
    "E~7": _from_edges(8, {(i, i + 1): 3 for i in range(6)} | {(3, 7): 3}),
}


@pytest.mark.parametrize("name", sorted(MORE_AFFINE))
def test_more_affine_diagrams_are_affine(name):
    matrix = MORE_AFFINE[name]
    (_, label, sig), = classify(matrix)
    assert label == AFFINE and sig == Signature(matrix.n - 1, 0, 1)
    assert tuple(sig) == zeta_signature(matrix)
    assert coxeter_presentable(matrix).certificate["kind"] == "virtually-free-abelian"


def test_affine_certificate_is_rechecked(monkeypatch):
    # a wrong signature would make the hyperbolic triangle (3, 3, 7) affine
    matrix = triangle(3, 3, 7)
    monkeypatch.setattr(coxeter_mod, "classify", lambda m: [([0, 1, 2], AFFINE, Signature(2, 0, 1))])
    with pytest.raises(InternalVerificationError):
        coxeter_presentable(matrix)


# --- the elimination: oracles, 2x2 steps, zero proofs --------------------------


def berkowitz_by_blocks(form):
    """``berkowitz_signature`` summed over the blocks of the form."""
    sig = [0, 0, 0]
    for block in coxeter_mod._connected(form.n, lambda i, j: form.rows[i][j] != 0):
        part = berkowitz_signature(SymmetricForm([[form.rows[i][j] for j in block] for i in block]))
        sig = [a + b for a, b in zip(sig, part)]
    return tuple(sig)


ALL_AFFINE = {name: standard_diagram(name) for name in AFFINE_NAMES} | MORE_AFFINE


@st.composite
def coxeter_matrices(draw):
    """A random Coxeter matrix of rank 2-8; every other one has an affine block, so r >= 1."""
    n = draw(st.integers(2, 8))
    palette = draw(st.sampled_from([(2, 3, INF), (2, 3, 4, 6), (2, 2, 3, 5, 12), (2, 3, 4, 5, 6, 12, INF)]))
    labels = st.sampled_from(palette)
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(labels)
    matrix = CoxeterMatrix(tuple(map(tuple, rows)))
    affine = draw(st.sampled_from([None, *sorted(ALL_AFFINE)]))
    if affine and ALL_AFFINE[affine].n + n <= 8:
        matrix = disjoint_union(ALL_AFFINE[affine], matrix)
        perm = draw(st.permutations(range(matrix.n)))
        matrix = submatrix(matrix, perm)
    return matrix


@settings(max_examples=80)
@given(coxeter_matrices())
def test_signature_equals_both_oracles_on_coxeter_matrices(matrix):
    form = tits_form(matrix)
    sig = tuple(signature(form))
    assert sig == zeta_signature(matrix) == berkowitz_by_blocks(form)


@settings(max_examples=150)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.sampled_from([Fraction(0)] * 3 + [Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(-2, 3)]),
    min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
def test_signature_equals_berkowitz_on_rational_forms_with_zeros(case):
    n, upper = case
    rows = [[Fraction(1)] * n for _ in range(n)]
    values = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = next(values)
    form = SymmetricForm(rows)
    assert tuple(signature(form)) == berkowitz_by_blocks(form)


@pytest.mark.parametrize("rows, expected", [
    # after the first pivot the trailing diagonal is 0 beside b = -2 sqrt(2) - 4
    ([[1, INF, INF], [INF, 1, 4], [INF, 4, 1]], Signature(2, 1, 0)),
    # the same with a pivot after the 2x2 step
    ([[1, INF, INF, INF], [INF, 1, 4, 4], [INF, 4, 1, 4], [INF, 4, 4, 1]], Signature(3, 1, 0)),
    ([[1, INF, INF, INF], [INF, 1, 4, 4], [INF, 4, 1, INF], [INF, 4, INF, 1]], Signature(3, 1, 0)),
])
def test_irrational_two_by_two_steps(rows, expected):
    matrix = CoxeterMatrix(tuple(map(tuple, rows)))
    assert signature(tits_form(matrix)) == expected
    assert tuple(expected) == zeta_signature(matrix) == tuple(eig_signature(tits_form(matrix)))
    assert coxeter_report(matrix)["answer"] == "NO"


def test_two_by_two_step_on_a_zero_diagonal():
    # 2B for the first example above: after the pivot 2 the trailing block is
    # [[0, b], [b, 0]], b = 2 * (-sqrt(2)) - 4, and both zeros are asked about
    prec = 64
    root = two_cos_pi_over(4, prec)
    asked = []

    def proved_zero(j, c):
        asked.append((j, c))
        return isinstance(c, int) and c == 0

    assert coxeter_mod._eliminate([[2, -2, -2], [-2, 2, -root], [-2, -root, 2]], proved_zero, prec) == (2, 1, 0)
    assert asked == [(2, 0), (2, 0)]


@pytest.mark.parametrize("name", ["C~2", "G~2", "F~4", "B~3", "B~5", "C~4"])
def test_singular_irrational_blocks_prove_the_determinant_zero(monkeypatch, name):
    # every proper subdiagram of an affine one is finite, so every pivot is
    # positive and the last entry, det(sB), an n-minor, is proved 0
    matrix = ALL_AFFINE[name]
    minors = []
    real = coxeter_mod._hadamard_sq
    monkeypatch.setattr(coxeter_mod, "_hadamard_sq", lambda scale, j: minors.append(j) or real(scale, j))
    assert signature(tits_form(matrix)) == Signature(matrix.n - 1, 0, 1)
    assert set(minors) == {matrix.n}


def sylvester_hadamard(order):
    rows = [[1]]
    while len(rows) < order:
        rows = [row + row for row in rows] + [row + [-v for v in row] for row in rows]
    return rows


@pytest.mark.parametrize("order", [1, 2, 4, 8])
@pytest.mark.parametrize("scale", [1, 2, 6])
def test_hadamard_bound_is_attained(order, scale):
    # Sylvester's matrices reach Hadamard's bound, so no smaller bound holds
    det = sympy.Matrix([[scale * v for v in row] for row in sylvester_hadamard(order)]).det()
    assert coxeter_mod._hadamard_sq(scale, order) == det**2


def test_rank_forty_is_fast_and_agrees_with_eigenvalues():
    rng = random.Random(40)
    n = 40
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice((2, 2, 2, 3, 3, 4, 5))
    matrix = CoxeterMatrix(tuple(map(tuple, rows)))
    start = time.perf_counter()
    report = coxeter_report(matrix)
    assert time.perf_counter() - start < 1.0
    vals = np.linalg.eigvalsh(np.array(float_matrix(tits_form(matrix))))
    assert min(abs(vals)) > 1e-6  # the eigenvalue oracle is decisive
    assert [part["signature"] for part in report["components"]] == [list(eig_signature(tits_form(matrix)))]
