import hashlib
import json
import random
from fractions import Fraction

import pytest
import sympy
from abels_oracles import a3_inv, commutator_oracle, is_identity
from hypothesis import example, given
from hypothesis import strategies as st

from pbp import abels
from pbp.abels import (
    A3Matrix,
    GammaElement,
    a3_mul,
    acentral_check,
    diagonal_element,
    gamma_commutes,
    random_gamma_element,
    symbolic_commutator_identities,
)


def rand_matrix(p, rng):
    return random_gamma_element(p, rng).matrix


# --- Z[1/p] entries, checked on entry -------------------------------------------


def is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_make_accepts_p_power_denominators():
    m = A3Matrix.make(3, Fraction(5, 27), Fraction(-7, 3), 4, -1, -2)
    assert (m.x, m.y, m.z, m.u) == (Fraction(5, 27), Fraction(-7, 3), 4, Fraction(-1, 9))
    assert all(type(v) is Fraction for v in (m.x, m.y, m.z, m.u))
    A3Matrix.make(2, Fraction(-7, 8), 0, 0)
    A3Matrix.make(5, 4, 0, 0, 1, 3)


def test_make_rejects_outside_values():
    with pytest.raises(ValueError, match="not prime"):
        A3Matrix.make(4, 1, 0, 0)
    with pytest.raises(ValueError, match="not prime"):
        A3Matrix.make(1, 0, 0, 0)
    for entries in [(Fraction(1, 2), 0, 0), (0, Fraction(1, 2), 0), (0, 0, Fraction(1, 6))]:
        with pytest.raises(ValueError, match=r"Z\[1/3\]"):
            A3Matrix.make(3, *entries)
    for sign, exp in [(2, 1), (0, 1), (-3, 0), (1, 0.5), (-1, Fraction(1, 2))]:
        with pytest.raises(ValueError, match="unit"):
            A3Matrix.make(3, 0, 0, 0, sign, exp)


def z_inv_p(p):
    return st.builds(lambda a, k: Fraction(a, p**k), st.integers(-50, 50), st.integers(0, 4))


@st.composite
def a3_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def matrix():
        sign, exp = draw(st.sampled_from([1, -1])), draw(st.integers(-4, 4))
        return A3Matrix.make(p, draw(z_inv_p(p)), draw(z_inv_p(p)), draw(z_inv_p(p)), sign, exp)

    return matrix(), matrix()


def as_rows(m):
    return [[1, m.x, m.z], [0, m.u, m.y], [0, 0, 1]]


def rows_matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def rows_inverse(rows):
    """Gauss-Jordan over Q, independent of the closed forms in a3_inv."""
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(3)]
           for i, row in enumerate(rows)]
    for col in range(3):
        pivot = next(r for r in range(col, 3) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(3):
            if r != col:
                aug[r] = [v - aug[r][col] * w for v, w in zip(aug[r], aug[col])]
    return [row[3:] for row in aug]


@given(a3_pairs())
def test_mul_and_inv_are_the_fraction_matrix_product_and_inverse(pair):
    a, b = pair
    for result, expected in [
        (a3_mul(a, b), rows_matmul(as_rows(a), as_rows(b))),
        (a3_inv(a), rows_inverse(as_rows(a))),
    ]:
        assert as_rows(result) == expected
        assert all(is_p_power(v.denominator, a.p) for v in (result.x, result.y, result.z, result.u))
        assert is_p_power(abs(result.u.numerator), a.p)  # u stays a unit +-p^k


# --- group arithmetic -----------------------------------------------------------


def test_identity_law():
    rng = random.Random(2)
    e = A3Matrix.make(3, 0, 0, 0)
    for _ in range(20):
        m = rand_matrix(3, rng)
        assert a3_mul(e, m) == m
        assert a3_mul(m, e) == m


def test_inverse_law():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(30):
            m = rand_matrix(p, rng)
            assert is_identity(a3_mul(m, a3_inv(m)))
            assert is_identity(a3_mul(a3_inv(m), m))


def test_associativity_random():
    rng = random.Random(4)
    for _ in range(40):
        a, b, c = (rand_matrix(3, rng) for _ in range(3))
        assert a3_mul(a3_mul(a, b), c) == a3_mul(a, a3_mul(b, c))


def test_inverse_of_diagonal_unit():
    m = A3Matrix.make(3, 0, 0, 0, 1, 1)  # u = p
    assert a3_inv(m).u == Fraction(1, 3)


def test_central_elements_commute_with_everything():
    rng = random.Random(5)
    central = GammaElement(A3Matrix.make(3, 0, 0, Fraction(7, 9)))
    for _ in range(100):
        h = random_gamma_element(3, rng)
        assert gamma_commutes(central, h)
        assert gamma_commutes(h, central)


def test_centre_matches_commuting_with_generators():
    # {u = 1, x = y = 0} is exactly what commutes with both of these
    p = 3
    gen1 = GammaElement(A3Matrix.make(p, 1, 1, 0))
    gen2 = GammaElement(A3Matrix.make(p, 0, 0, 0, 1, 1))
    rng = random.Random(6)
    for _ in range(400):
        h = random_gamma_element(p, rng)
        central = gamma_commutes(gen1, h) and gamma_commutes(gen2, h)
        hm = h.matrix
        literally = hm.x == 0 and hm.y == 0 and hm.u == 1
        assert central == literally


# --- commutation in the quotient -------------------------------------------------


def test_diagonal_vs_unipotent():
    g = diagonal_element(3, 1)  # u = 3
    h = GammaElement(A3Matrix.make(3, 1, 0, 0))
    assert not gamma_commutes(g, h)


def test_two_diagonals_commute():
    g = diagonal_element(3, 2)
    h = diagonal_element(3, -1, -1)
    assert gamma_commutes(g, h)


def test_y_entry_obstruction():
    # commutator y-entry is y (u - 1) = (1/5)(5 - 1) != 0
    g = diagonal_element(5, 1)
    h = GammaElement(A3Matrix.make(5, 0, Fraction(1, 5), 0))
    assert not gamma_commutes(g, h)


@st.composite
def gamma_pairs(draw):
    """A pair of classes and whether they commute, when known by construction."""
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def matrix(x=None, y=None):
        x = draw(z_inv_p(p)) if x is None else x
        y = draw(z_inv_p(p)) if y is None else y
        sign, exp = draw(st.sampled_from([1, -1])), draw(st.integers(-4, 4))
        return A3Matrix.make(p, x, y, draw(z_inv_p(p)), sign, exp)

    h = GammaElement(matrix())
    kind = draw(st.sampled_from(["random", "unipotent", "diagonal", "central", "self", "square"]))
    commute = True
    if kind == "random":
        g, commute = GammaElement(matrix()), None
    elif kind == "unipotent":  # ab and ba differ only in z, by x y
        x, y = draw(z_inv_p(p)), draw(z_inv_p(p)) * p ** draw(st.integers(0, 4))
        g = GammaElement(A3Matrix.make(p, x, 0, draw(z_inv_p(p))))
        h = GammaElement(A3Matrix.make(p, 0, y, draw(z_inv_p(p))))
        commute = (x * y).denominator == 1
    elif kind == "diagonal":  # x = y = 0 against a diagonal element
        sign, exp = draw(st.sampled_from([1, -1])), draw(st.integers(-4, 4))
        g, h = GammaElement(A3Matrix.make(p, 0, 0, 0, sign, exp)), GammaElement(matrix(0, 0))
    elif kind == "central":
        g = GammaElement(A3Matrix.make(p, 0, 0, draw(z_inv_p(p))))
    elif kind == "self":
        g = h
    else:
        g = GammaElement(a3_mul(h.matrix, h.matrix))
    return ((g, h) if draw(st.booleans()) else (h, g)) + (commute,)


def unipotent_pair(x, y):
    return GammaElement(A3Matrix.make(3, x, 0, 0)), GammaElement(A3Matrix.make(3, 0, y, 0))


@given(gamma_pairs())
@example(unipotent_pair(Fraction(1, 3), 1) + (False,))  # x y = 1/3
@example(unipotent_pair(Fraction(1, 3), 6) + (True,))  # x y = 2: central, but not the identity
def test_gamma_commutes_matches_the_commutator(case):
    g, h, commute = case
    assert gamma_commutes(g, h) == commutator_oracle(g, h)
    assert commute is None or gamma_commutes(g, h) == commute


def test_acentral_check_makes_two_products_per_sample(monkeypatch):
    calls = 0
    mul = abels.a3_mul

    def counting(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(abels, "a3_mul", counting)
    assert acentral_check(3, trials=50).passed
    assert calls == 2 * (50 + 5)  # 50 random samples and 50 // 10 positive controls


def test_symbolic_identities():
    assert symbolic_commutator_identities()


def test_wrong_closed_form_is_rejected():
    mono, add = abels._monomial, abels._laurent_add
    assert abels._commutator_matches(abels._COMMUTATOR_ENTRIES)
    wrong = dict(abels._COMMUTATOR_ENTRIES)
    wrong[(1, 2)] = add(mono(1, y=1, u0=1), mono(1, y=1))  # y (u0 + 1)
    assert not abels._commutator_matches(wrong)
    wrong = dict(abels._COMMUTATOR_ENTRIES)
    wrong[(0, 1)] = add(mono(1, x=1, u0=-1), mono(-1, x=1))  # x (1/u0 - 1), u dropped
    assert not abels._commutator_matches(wrong)


# --- primality ------------------------------------------------------------------


def test_is_prime_matches_sympy_below_200000():
    assert [n for n in range(200_000) if abels._is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("bits", [64, 128])
def test_is_prime_matches_sympy_on_random_integers(bits):
    rng = random.Random(bits)
    numbers = [rng.getrandbits(bits) | 1 for _ in range(400)]
    numbers += [sympy.nextprime(rng.getrandbits(bits)) for _ in range(100)]
    assert [n for n in numbers if abels._is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize(
    "n",
    [
        2047, 3215031751, 3825123056546413051,  # strong pseudoprimes to base 2
        561, 41041, 825265,  # Carmichael numbers
        5459, 5777, 10877,  # strong Lucas pseudoprimes
    ],
)
def test_is_prime_rejects_pseudoprimes(n):
    assert not abels._is_prime(n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_acentral_check_no_counterexamples(p):
    report = acentral_check(p, trials=800, exponent=1 if p != 2 else -2, sign=1 if p != 2 else -1)
    assert report.passed
    assert report.commuting_cases > 0  # the sampler does hit the centralizer
    assert report.counterexamples == ()


def test_acentral_check_rejects_unit_exponent_zero():
    with pytest.raises(ValueError):
        acentral_check(3, trials=10, exponent=0)


def test_report_json_shape():
    report = acentral_check(3, trials=50)
    obj = report.to_json()
    assert obj["symbolic"] == "pass"
    assert obj["randomized"] == "pass"
    assert obj["counterexamples"] == []


@pytest.mark.parametrize("trials", [0, -5])
def test_acentral_check_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        acentral_check(3, trials=trials)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("exponent,sign", [(1, 1), (-2, -1), (3, 1), (-1, -1)])
def test_acentral_report_is_pinned(p, exponent, sign):
    # 300 trials hit no random commuting class, so all 30 cases are the controls
    report = acentral_check(p, trials=300, exponent=exponent, sign=sign)
    assert json.dumps(report.to_json()) == (
        f'{{"prime": {p}, "symbolic": "pass", "randomized": "pass", "trials": 300, '
        '"commuting_cases": 30, "counterexamples": []}'
    )


def test_acentral_report_counts_random_commuting_classes():
    # three of the 3000 random classes over Z[1/2] have x = y = 0
    report = acentral_check(2, trials=3000, exponent=-1, sign=-1)
    assert report.commuting_cases == 300 + 3
    assert report.passed


def test_random_gamma_element_stream_is_pinned():
    rng = random.Random(0x5EED)
    rows = []
    for p in (2, 3, 5, 7, 11):
        for _ in range(200):
            m = random_gamma_element(p, rng).matrix
            rows.append((m.x, m.y, m.z, m.u))
    assert rows[0] == (Fraction(19, 2), Fraction(-15, 4), Fraction(7, 16), Fraction(-1, 2))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "3f42d6928cb1c6a580cd8a1359fddadbbdcbb46e32d10893bd4356b415479e86"
