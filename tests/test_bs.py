import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bs_oracles import britton_reduce_random, free_words, shortest_relation_oracle, witness_subgroup_oracle
from pbp import bs
from pbp.bs import (
    BSGroup,
    SubgroupWitness,
    ZeroParameter,
    affine_rep,
    britton_reduce,
    bs_presentable,
    cm_x_c2_images,
    pi_image,
    s_word,
    t_word,
    verify_witness,
    witness_subgroup,
)
from pbp.presentations import AbelianInvariants, coset_enumerate
from pbp.verdict import Answer
from pbp.words import Word, parse_word

NAMES = ("s", "t")
NONZERO_5 = st.integers(-5, 5).filter(bool)


def w(text):
    return parse_word(text, NAMES)


# --- Britton reduction ---------------------------------------------------------


def test_defining_relation():
    form = britton_reduce(BSGroup(2, 3), w("t s^2 t^-1"))
    assert form.as_word() == w("s^3")


def test_no_pinch_left_alone():
    form = britton_reduce(BSGroup(2, 3), w("t s t^-1"))
    assert form.t_length == 2
    assert form.as_word() == w("t s t^-1")


def test_inverse_relation():
    form = britton_reduce(BSGroup(2, 3), w("t^-1 s^3 t"))
    assert form.as_word() == w("s^2")


def test_identity_and_negatives():
    group = BSGroup(2, -2)
    assert britton_reduce(group, Word()).is_identity()
    # t s^2 t^-1 = s^-2 here
    assert britton_reduce(group, w("t s^2 t^-1 s^2")).is_identity()


def test_exponent_normalization():
    group = BSGroup(2, 3)
    form = britton_reduce(group, w("t s^5"))
    # t s^5 = t s^4 s = s^6 t s
    assert form.k0 == 6
    assert form.tail == ((1, 1),)


def test_tlength_subadditive_and_zero_iff_power_of_s():
    group = BSGroup(2, 3)
    rng = random.Random(4096)
    alphabet = [1, -1, 2, -2]
    for _ in range(300):
        a = Word([rng.choice(alphabet) for _ in range(rng.randint(0, 8))])
        b = Word([rng.choice(alphabet) for _ in range(rng.randint(0, 8))])
        fa, fb, fab = (britton_reduce(group, x) for x in (a, b, a * b))
        assert fab.t_length <= fa.t_length + fb.t_length
    for k in range(-4, 5):
        form = britton_reduce(group, s_word(k))
        assert form.t_length == 0 and form.k0 == k


def all_letter_words(max_len):
    alphabet = (1, -1, 2, -2)
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield Word(tup)


def test_confluence_exhaustive_short():
    # all words of length <= 5 here; the acceptance suite pushes this to 8
    group = BSGroup(2, 3)
    rng = random.Random(11)
    for word in all_letter_words(5):
        canonical = britton_reduce(group, word)
        randomized = britton_reduce_random(group, word, rng)
        assert canonical == randomized


LETTERS = st.sampled_from((1, -1, 2, -2))


@given(NONZERO_5, NONZERO_5, st.lists(LETTERS, max_size=40), st.integers(0, 2**32))
def test_britton_reduce_matches_random_order(m, n, letters, seed):
    group = BSGroup(m, n)
    word = Word(letters)
    assert britton_reduce(group, word) == britton_reduce_random(group, word, random.Random(seed))


def test_equal_elements_get_equal_forms():
    group = BSGroup(2, 3)
    # s^m commutes with nothing special, but conjugation relations hold:
    lhs = britton_reduce(group, w("t s^2 t^-1"))
    rhs = britton_reduce(group, w("s^3"))
    assert lhs == rhs
    lhs = britton_reduce(group, w("t s^4 t^-1"))
    assert lhs == britton_reduce(group, w("s^6"))


# --- pi ------------------------------------------------------------------------


def test_pi_values():
    group = BSGroup(2, 2)
    assert pi_image(group, w("s")) == (1, 0)
    assert pi_image(group, w("s^2")) == (0, 0)
    assert pi_image(group, w("t^2")) == (0, 0)
    assert pi_image(group, w("t")) == (0, 1)


def test_pi_is_homomorphism_and_kills_relator():
    rng = random.Random(314)
    for m, eta in [(2, 1), (2, -1), (3, 1), (3, -1)]:
        group = BSGroup(m, eta * m)
        relator = group.presentation().relators[0]
        assert pi_image(group, relator) == (0, 0)
        for _ in range(250):
            a = Word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 10))])
            b = Word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 10))])
            pa, pb, pab = pi_image(group, a), pi_image(group, b), pi_image(group, a * b)
            assert pab == ((pa[0] + pb[0]) % m, (pa[1] + pb[1]) % 2)


def test_pi_requires_equal_moduli():
    with pytest.raises(ValueError):
        pi_image(BSGroup(2, 3), w("s"))


# --- the witness subgroup -------------------------------------------------------


def test_witness_m2_data():
    witness = witness_subgroup(2, 1)
    assert witness.zs_generator == w("s^2")
    assert witness.T == (w("t"), w("s t s^-1"))
    # Schreier rewriting of the even-length subgroup of the free group on T
    assert witness.fII_basis == (
        w("s t s^-1 t^-1"),
        w("t t"),
        w("t s t s^-1"),
    )


def test_witness_sizes():
    for m in (2, 3, 4):
        witness = witness_subgroup(m, 1)
        assert len(witness.T) == m
        assert len(witness.fII_basis) == 2 * m - 1


def test_closed_form_basis_is_the_reidemeister_schreier_basis():
    # the same witness as a coset enumeration and Reidemeister-Schreier give,
    # and a certificate equal to theirs byte for byte
    for m, eta in itertools.product(range(2, 13), (1, -1)):
        expected = witness_subgroup_oracle(m, eta)
        assert witness_subgroup(m, eta) == expected
        certificate = {"kind": "finite-index-direct-product", **expected.to_json()}
        assert json.dumps(bs_presentable(m, eta * m).certificate) == json.dumps(certificate)
        assert json.dumps(bs_presentable(-m, -eta * m).certificate) == json.dumps(certificate)


def test_witness_words_even_and_in_kernel():
    for m, eta in [(2, 1), (3, -1)]:
        group = BSGroup(m, eta * m)
        witness = witness_subgroup(m, eta)
        for word in witness.fII_basis:
            assert word.exponent_sum(1) % 2 == 0
            assert pi_image(group, word) == (0, 0)


@pytest.mark.parametrize(
    "m,eta,bound",
    [(2, 1, 8), (2, -1, 8), (3, 1, 6), (3, -1, 6), (4, 1, 6), (4, -1, 6), (5, 1, 4), (5, -1, 4)],
)
def test_verify_witness_passes(m, eta, bound):
    group = BSGroup(m, eta * m)
    report = verify_witness(group, witness_subgroup(m, eta), bound)
    assert report.passed, report.failures
    assert report.index == 2 * m
    assert report.abelian == AbelianInvariants(2 * m)


def test_tampered_witness_fails_kernel_check():
    witness = witness_subgroup(2, 1)
    tampered = SubgroupWitness(
        2, 1, witness.zs_generator, witness.T,
        (w("t"),) + witness.fII_basis[1:],  # odd t-count sneaks in
    )
    report = verify_witness(BSGroup(2, 2), tampered, 4)
    assert not report.passed
    assert any("ker" in f for f in report.failures)


def test_verify_witness_rejects_witness_for_another_group():
    with pytest.raises(ValueError, match="witness"):
        verify_witness(BSGroup(3, 3), witness_subgroup(2, 1), 3)


ORACLE_BOUND = 6


def _reports_match_from_scratch_search(monkeypatch, group, witness):
    """The reports of ``verify_witness`` at bounds 1 to 6, each checked against
    the from-scratch search.  That search runs once, at bound 6: the shortest
    relation within bound L is the one within bound 6 if it is at most L
    long, and there is none otherwise."""
    shortest = shortest_relation_oracle(group, witness.T, ORACLE_BOUND)

    def from_scratch(oracle_group, conjugates, length_bound):
        assert (oracle_group, conjugates) == (group, witness.T)
        return shortest if shortest is not None and shortest <= length_bound else None

    reports = []
    for bound in range(1, ORACLE_BOUND + 1):
        report = verify_witness(group, witness, bound)
        with monkeypatch.context() as patch:
            patch.setattr(bs, "_shortest_relation", from_scratch)
            expected = verify_witness(group, witness, bound)
        assert (report.passed, report.failures) == (expected.passed, expected.failures)
        reports.append(report)
    return reports


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("eta", [1, -1])
def test_freeness_search_matches_from_scratch_search(monkeypatch, m, eta):
    group, witness = BSGroup(m, eta * m), witness_subgroup(m, eta)
    for report in _reports_match_from_scratch_search(monkeypatch, group, witness):
        assert report.passed, report.failures


def _mutations(witness):
    # (conjugates, length of their shortest relation)
    T, m = witness.T, witness.m
    yield (T[0],) + T[:-1], 2  # x1 x2^-1
    yield (~T[0],) + T[1:], None  # still a free basis
    yield T[:-1] + (s_word(m),), 4  # s^m commutes with t up to sign: x1 xm x1^-1 xm^+-1


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("eta", [1, -1])
def test_mutated_conjugates_match_from_scratch_search(monkeypatch, m, eta):
    group, witness = BSGroup(m, eta * m), witness_subgroup(m, eta)
    for T, shortest in _mutations(witness):
        tampered = SubgroupWitness(m, eta, witness.zs_generator, T, witness.fII_basis)
        reports = _reports_match_from_scratch_search(monkeypatch, group, tampered)
        for bound, report in enumerate(reports, start=1):
            found = shortest is not None and bound >= shortest
            assert len(report.failures) == found, (T, bound, report.failures)
            # a failure names the shortest relation, not the first one found
            want = f"nontrivial relation of length {shortest} among the conjugates"
            assert all(f == want for f in report.failures), (T, bound, report.failures)


NONZERO_4 = st.integers(-4, 4).filter(bool)


@given(
    NONZERO_4,
    NONZERO_4,
    st.lists(st.lists(LETTERS, min_size=1, max_size=5), min_size=1, max_size=3),
    st.integers(1, 5),
)
def test_shortest_relation_matches_from_scratch_search(m, n, conjugates, bound):
    group, words = BSGroup(m, n), [Word(letters) for letters in conjugates]
    assert bs._shortest_relation(group, words, bound) == shortest_relation_oracle(group, words, bound)


@pytest.mark.parametrize("m,bound", [(2, 5), (3, 4)])
def test_freeness_search_visits_every_word(monkeypatch, m, bound):
    # a pruned search would weaken the freeness check without changing a verdict
    calls = 0
    push = bs._britton_push

    def spy(*args):
        nonlocal calls
        calls += 1
        return push(*args)

    monkeypatch.setattr(bs, "_britton_push", spy)
    witness = witness_subgroup(m, 1)
    assert verify_witness(BSGroup(m, m), witness, bound).passed
    half = (bound + 1) // 2
    words = sum(2 * m * (2 * m - 1) ** (k - 1) for k in range(1, half + 1))
    assert words == sum(1 for _ in free_words(m, half))
    # one push per word of length <= ceil(bound / 2), plus one Britton
    # reduction per commutator check
    assert calls == words + len(witness.fII_basis)


def test_odd_words_do_not_commute_when_eta_is_minus_one():
    # single conjugates s^i t s^-i commute with s^m only in BS(m, m)
    group = BSGroup(2, -2)
    comm = s_word(2) * w("t") * s_word(-2) * ~w("t")
    assert not britton_reduce(group, comm).is_identity()
    group_plus = BSGroup(2, 2)
    assert britton_reduce(group_plus, comm).is_identity()


# --- affine representation ------------------------------------------------------


def test_affine_rep_relator_and_identity():
    assert affine_rep(2, Word()) == [[1, 0], [0, 1]]
    relator = BSGroup(1, 2).presentation().relators[0]
    assert affine_rep(2, relator) == [[1, 0], [0, 1]]


def test_affine_rep_faithful_on_short_britton_forms():
    group = BSGroup(1, 2)
    seen = {}
    for word in all_letter_words(6):
        form = britton_reduce(group, word)
        key = (form.k0, form.tail)
        mat = tuple(map(tuple, affine_rep(2, form.as_word())))
        if key in seen:
            assert seen[key] == mat
        else:
            for other, other_mat in seen.items():
                if other_mat == mat:
                    raise AssertionError(f"distinct forms {other} and {key} collide")
            seen[key] = mat


# --- verdicts -------------------------------------------------------------------


def test_verdict_table_small_parameters():
    for m in [-3, -2, -1, 1, 2, 3]:
        for n in [-3, -2, -1, 1, 2, 3]:
            verdict = bs_presentable(m, n)
            expected = Answer.YES if abs(m) == abs(n) else Answer.NO
            assert verdict.answer == expected, (m, n)


NONZERO = st.integers(-12, 12).filter(bool)


@given(NONZERO, NONZERO)
def test_verdict_symmetry(m, n):
    # BS(m, n), BS(n, m) and BS(-m, -n) are isomorphic
    verdicts = [bs_presentable(a, b) for a, b in ((m, n), (n, m), (-m, -n))]
    kinds = {(v.answer, v.qualifier, (v.certificate or {}).get("kind")) for v in verdicts}
    assert len(kinds) == 1, (m, n, kinds)


def test_verdict_abelian_and_klein():
    v = bs_presentable(1, 1)
    assert v.answer == Answer.YES and v.certificate["kind"] == "infinite-centre"
    v = bs_presentable(1, -1)
    assert v.answer == Answer.YES and v.certificate["generator"] == "t^2"


def test_verdict_witness_certificate():
    v = bs_presentable(2, -2)
    assert v.answer == Answer.YES
    assert v.certificate["index"] == 4
    assert len(v.certificate["fII_basis"]) == 3


def test_verdict_no_traces():
    v = bs_presentable(2, 3)
    assert v.answer == Answer.NO
    rules = [t.rule for t in v.trace]
    assert "bs/powers" in rules and "bs/deficiency" in rules
    v = bs_presentable(1, -4)
    rules = [t.rule for t in v.trace]
    assert "bs/soluble" in rules and "bs/deficiency" in rules


def test_zero_parameter_rejected():
    with pytest.raises(ZeroParameter):
        bs_presentable(0, 2)
    with pytest.raises(ZeroParameter):
        BSGroup(2, 0)


# --- kernel index via coset enumeration -----------------------------------------


@pytest.mark.parametrize("m,eta", [(2, 1), (2, -1), (3, 1), (3, -1)])
def test_kernel_index_2m(m, eta):
    group = BSGroup(m, eta * m)
    table = coset_enumerate(group.presentation(), cm_x_c2_images(m))
    assert table.d == 2 * m


@pytest.mark.parametrize("bound", [0, -1])
def test_verify_witness_rejects_nonpositive_bound(bound):
    with pytest.raises(ValueError, match="length bound"):
        verify_witness(BSGroup(2, 2), witness_subgroup(2, 1), bound)
