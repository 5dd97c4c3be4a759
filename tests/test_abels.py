import random
from fractions import Fraction

import pytest
import sympy

from pbp import abels
from pbp.abels import (
    A3Matrix,
    GammaElement,
    ZInvP,
    a3_identity,
    a3_inv,
    a3_mul,
    a3_op,
    acentral_check,
    diagonal_element,
    gamma_commutes,
    random_gamma_element,
    symbolic_commutator_identities,
)


def rand_matrix(p, rng):
    return random_gamma_element(p, rng).matrix


# --- Z[1/p] -------------------------------------------------------------------


def test_zinvp_accepts_p_power_denominators():
    ZInvP(3, Fraction(5, 27))
    ZInvP(2, Fraction(-7, 8))
    ZInvP(5, 4)


def test_zinvp_rejects_other_denominators():
    with pytest.raises(ValueError):
        ZInvP(3, Fraction(1, 2))
    with pytest.raises(ValueError):
        ZInvP(4, 1)  # not prime


def test_zinvp_ring_closure():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(50):
            k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
            a = ZInvP(p, Fraction(rng.randint(-20, 20), p**k1))
            b = ZInvP(p, Fraction(rng.randint(-20, 20), p**k2))
            for value in (a + b, a - b, a * b, -a, a.times_p_power(-2)):
                assert isinstance(value, ZInvP)


# --- group arithmetic -----------------------------------------------------------


def test_identity_law():
    rng = random.Random(2)
    e = a3_identity(3)
    for _ in range(20):
        m = rand_matrix(3, rng)
        assert a3_mul(e, m) == m
        assert a3_mul(m, e) == m


def test_inverse_law():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(30):
            m = rand_matrix(p, rng)
            assert a3_mul(m, a3_inv(m)).is_identity()
            assert a3_mul(a3_inv(m), m).is_identity()


def test_associativity_random():
    rng = random.Random(4)
    for _ in range(40):
        a, b, c = (rand_matrix(3, rng) for _ in range(3))
        assert a3_mul(a3_mul(a, b), c) == a3_mul(a, a3_mul(b, c))


def test_inverse_of_diagonal_unit():
    m = A3Matrix.make(3, 0, 0, 0, 1, 1)  # u = p
    assert a3_inv(m).u == Fraction(1, 3)


def test_a3_op_dispatch():
    e = a3_identity(5)
    assert a3_op("mul", e, e) == e
    assert a3_op("inv", e) == e
    with pytest.raises(ValueError):
        a3_op("pow", e)


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
        literally = hm.x.value == 0 and hm.y.value == 0 and hm.u == 1
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
