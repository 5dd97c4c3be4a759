import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbp.words import Word, format_word, parse_word
from words_oracles import exponent_sum, free_reduce, generator

s, t = generator(0), generator(1)


def test_cancellation():
    assert free_reduce([1, 2, -2, 1]) == Word([1, 1])  # s t t^-1 s -> s s


def test_identity_case():
    assert free_reduce([]) == Word()
    assert not Word()


def test_cancellation_at_head():
    assert free_reduce([-1, 1, 2]) == t  # s^-1 s t -> t


def test_group_ops():
    w = s * t * ~t * s
    assert w == s**2
    assert ~(s * t) == ~t * ~s
    assert (s * t) ** 0 == Word()
    assert (s * t) ** -2 == ~t * ~s * ~t * ~s
    assert exponent_sum(w, 0) == 2 and exponent_sum(w, 1) == 0


def test_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word([0])
    with pytest.raises(ValueError):
        Word([1.5])


def all_words(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_reduce_idempotent_and_nonincreasing_exhaustive():
    # every word up to length 12 over two generators, counted via raw tuples
    alphabet = (1, -1, 2, -2)
    for n in range(13):
        # 4^12 is too many; sample the full space only up to length 8 and
        # stratify longer lengths by fixing a prefix pattern
        if n <= 8:
            pool = itertools.product(alphabet, repeat=n)
        else:
            pool = (
                pref + suff
                for pref in itertools.product((1, -2), repeat=n - 8)
                for suff in itertools.product(alphabet, repeat=8)
            )
        for raw in itertools.islice(pool, 70000):
            w = free_reduce(raw)
            assert len(w) <= len(raw)
            assert free_reduce(w) == w


def test_parse_and_format_roundtrip():
    names = ("s", "t")
    w = parse_word("t s^2 t^-1 s^-2", names)
    assert w.raw == (2, 1, 1, -2, -1, -1)
    assert format_word(w, names) == "t s^2 t^-1 s^-2"
    assert parse_word("", names) == Word()
    assert format_word(Word(), names) == ""


def test_default_names_run_past_z():
    assert repr(Word([1, 2, 2, -26])) == "Word('a b^2 z^-1')"
    assert repr(Word([1, -27, -27])) == "Word('x0 x26^-2')"
    assert format_word(Word([61])) == "x60"
    assert format_word(Word([27]), [f"g{i}" for i in range(27)]) == "g26"


def test_parse_rejects_unknown_and_zero():
    with pytest.raises(ValueError):
        parse_word("u^2", ("s", "t"))
    with pytest.raises(ValueError):
        parse_word("s^0", ("s", "t"))


@pytest.mark.parametrize("text", ["s^", "s^-", "s^+2", "s^ 2", "s^1_0", "s^\u0663", "s^2^3"])
def test_parse_rejects_exponents_that_are_not_ascii_integers(text):
    with pytest.raises(ValueError, match="bad exponent"):
        parse_word(text, ("s", "t"))


@pytest.mark.parametrize("exp", ["9" * 20, "-" + "9" * 20, "9" * 5000], ids=["20 digits", "-20 digits", "5000 digits"])
def test_parse_refuses_exponents_too_large_to_expand(exp):
    text = f"t s^{exp}"
    with pytest.raises(ValueError, match="too large to expand") as caught:
        parse_word(text, ("s", "t"))
    assert repr(text) in str(caught.value)


def test_parse_reads_leading_zeros_and_minus():
    assert parse_word("s^-02 t^003", ("s", "t")).raw == (-1, -1, 2, 2, 2)


letter_lists = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30)


@given(letter_lists, letter_lists)
def test_junction_product_and_inverse(a, b):
    w = Word(a)
    assert w * Word(b) == Word(list(a) + list(b))
    assert ~w == Word([-x for x in reversed(a)])
    assert (w * ~w).raw == ()
    assert (~w * w).raw == ()
