import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from pbp.presentations import (
    DEFAULT_COSET_CAP,
    AbelianInvariants,
    BoundExceeded,
    CosetTable,
    FinitePresentation,
    RelatorNotKilled,
    _exponent_rows,
    _sparse_smith,
    abelianization,
    coset_enumerate,
    perm_inv,
    presentation_from_json,
    presentation_to_json,
    reidemeister_schreier_data,
    rs_counts,
    smith_normal_form,
)
from pbp.words import Word, parse_word
from presentations_oracles import (
    act,
    act_word,
    coset_enumerate_oracle,
    deficiency_count,
    exponent_matrix,
    is_closed_oracle,
    kunneth_bound,
    perm_identity,
    perm_mul,
    perm_mul_oracle,
    reached_from_base,
    reidemeister_schreier,
    schreier_data_oracle,
    word_image,
)


SRC = Path(__file__).resolve().parent.parent / "src" / "pbp"
A2_RELATORS = ["a^2", "b^2", "c^2", "a b a b a b", "b c b c b c", "a c a c a c"]


def bs_presentation(m, n):
    # <s, t | t s^m t^-1 s^-n>
    sgn = lambda k: [1] * k if k >= 0 else [-1] * (-k)
    relator = Word([2] + sgn(m) + [-2] + sgn(-n))
    return FinitePresentation(2, (relator,), ("s", "t"))


def cyclic_perm(k):
    return tuple((i + 1) % k for i in range(k))


def swap2():
    return (1, 0)


def embed(perm, offset, degree):
    out = list(range(degree))
    for i, j in enumerate(perm):
        out[offset + i] = offset + j
    return tuple(out)


def cm_x_c2_images(m):
    """s -> m-cycle on the first block, t -> swap on the last two points."""
    degree = m + 2
    return [embed(cyclic_perm(m), 0, degree), embed(swap2(), m, degree)]


# --- deficiency and counting -------------------------------------------------


def test_deficiency_examples():
    assert deficiency_count(bs_presentation(2, 2)) == 1
    assert deficiency_count(FinitePresentation(3)) == 3
    assert deficiency_count(FinitePresentation(1, (Word([1] * 5),))) == 0


def test_relators_are_checked_in_order():
    with pytest.raises(ValueError, match=r"relator Word\('c'\) uses an undeclared generator"):
        FinitePresentation(2, (Word([1, 2]), Word([3]), "a b"))
    with pytest.raises(TypeError, match="relators must be Word instances"):
        FinitePresentation(2, (Word([1, 2]), "a b", Word([3])))
    with pytest.raises(ValueError, match=r"relator Word\('a c\^-1'\) uses an undeclared generator"):
        FinitePresentation(2, (Word([1, 2]), Word([1, -3])))
    # past z, a word's repr names its generators x0, x1, ...
    with pytest.raises(ValueError, match=r"relator Word\('x29'\) uses an undeclared generator"):
        FinitePresentation(2, (Word([30]),))
    assert FinitePresentation(30, (Word([30, -1]),)).relators == (Word([30, -1]),)


def test_rs_counts_values():
    assert rs_counts(2, 1, 4) == (5, 4)
    assert rs_counts(1, 0, 3) == (1, 0)
    for d in range(1, 30):
        a = random.Random(d).randint(1, 6)
        ab, bb = rs_counts(a, a - 1, d)  # a - b = 1
        assert ab - bb == 1
    for args in [(0, 1, 1), (1, -1, 1), (1, 1, 0)]:
        with pytest.raises(ValueError, match=r"^need a >= 1, b >= 0, d >= 1$"):
            rs_counts(*args)


def test_kunneth_bound_nonpositive():
    for k in range(2, 11):
        for l in range(2, 11):
            assert kunneth_bound(k, l) <= 0


# --- coset enumeration -------------------------------------------------------


def test_bs22_kernel_has_four_cosets():
    table = coset_enumerate(bs_presentation(2, 2), cm_x_c2_images(2))
    assert table.d == 4
    assert is_closed_oracle(table, bs_presentation(2, 2))
    assert reached_from_base(table) == set(range(4))


def test_regular_representation_of_c3():
    pres = FinitePresentation(1, (Word([1, 1, 1]),), ("s",))
    table = coset_enumerate(pres, [cyclic_perm(3)])
    assert table.d == 3


def test_index_two_sublattice():
    pres = FinitePresentation(2, (Word([1, 2, -1, -2]),), ("a", "b"))
    table = coset_enumerate(pres, [swap2(), perm_identity(2)])
    assert table.d == 2


def test_relator_not_killed():
    pres = FinitePresentation(1, (Word([1, 1]),), ("s",))
    with pytest.raises(RelatorNotKilled):
        coset_enumerate(pres, [cyclic_perm(3)])


def test_bound_exceeded():
    pres = FinitePresentation(1, (), ("s",))
    with pytest.raises(BoundExceeded):
        coset_enumerate(pres, [cyclic_perm(12)], coset_cap=5)
    # the cap bounds the coset count exactly: d cosets fit under a cap of d, not d - 1
    for group, images, d in [
        (pres, [cyclic_perm(12)], 12),
        (bs_presentation(3, 3), cm_x_c2_images(3), 6),
    ]:
        assert coset_enumerate(group, images, coset_cap=d).d == d
        with pytest.raises(BoundExceeded):
            coset_enumerate(group, images, coset_cap=d - 1)


# --- Reidemeister-Schreier ---------------------------------------------------


def test_bs22_subgroup_counts():
    pres = bs_presentation(2, 2)
    table = coset_enumerate(pres, cm_x_c2_images(2))
    sub = reidemeister_schreier(pres, table)
    assert sub.generator_count == 5
    assert sub.relator_count == 4


def test_free_group_subgroups_are_free():
    # index 3 in Z: still one generator, no relators
    pres = FinitePresentation(1, (), ("s",))
    table = CosetTable(3, (cyclic_perm(3),))
    sub = reidemeister_schreier(pres, table)
    assert (sub.generator_count, sub.relator_count) == (1, 0)

    # index 2 in F_2: Nielsen-Schreier rank 3
    pres2 = FinitePresentation(2, ())
    table2 = CosetTable(2, (swap2(), swap2()))
    sub2 = reidemeister_schreier(pres2, table2)
    assert (sub2.generator_count, sub2.relator_count) == (3, 0)


def test_schreier_words_lie_in_kernel():
    pres = bs_presentation(2, 2)
    images = cm_x_c2_images(2)
    table = coset_enumerate(pres, images)
    data = reidemeister_schreier_data(pres, table)

    for w in data.generator_words:
        assert word_image(w, [tuple(p) for p in images], 4) == perm_identity(4)
    # transversal representatives hit every coset exactly once
    hit = sorted(act_word(table, 0, rep) for rep in data.transversal)
    assert hit == list(range(table.d))


def random_quotient_pair(rng):
    """A presentation whose relators die in a random permutation image."""
    a = rng.randint(1, 3)
    degree = rng.randint(2, 5)
    images = []
    for _ in range(a):
        p = list(range(degree))
        rng.shuffle(p)
        images.append(tuple(p))
    b = rng.randint(0, 3)
    relators = []
    for _ in range(b):
        length = rng.randint(1, 6)
        w = Word([rng.choice([1, -1]) * rng.randint(1, a) for _ in range(length)])
        # kill the image by raising the word to the order of its image
        relators.append(w ** perm_order(word_image(w, images, degree)))
    return FinitePresentation(a, tuple(relators)), images


def perm_order(p):
    order, acc = 1, tuple(p)
    while acc != perm_identity(len(p)):
        acc, order = perm_mul(acc, p), order + 1
    return order


def triangle_kernel(a, b):
    """The triangle group (l, m, n) of a, b and ab, with images a and b."""
    l, m, n = perm_order(a), perm_order(b), perm_order(perm_mul(a, b))
    relators = (Word([1] * l), Word([2] * m), Word([1, 2] * n))
    return FinitePresentation(2, relators, ("a", "b")), [a, b]


TRIANGLE_KERNELS = [
    # onto S4 as (2, 4, 3), A5 as (2, 3, 5), S5 as (2, 5, 4)
    (triangle_kernel((1, 0, 2, 3), cyclic_perm(4)), 24),
    (triangle_kernel((1, 0, 3, 2, 4), (2, 1, 4, 3, 0)), 60),
    (triangle_kernel((1, 0, 2, 3, 4), cyclic_perm(5)), 120),
]


def test_rs_matches_per_letter_oracle():
    rng = random.Random(13)
    cases = [random_quotient_pair(rng) for _ in range(30)]
    cases += [case for case, _ in TRIANGLE_KERNELS]
    for pres, images in cases:
        table = coset_enumerate(pres, images)
        assert table.action == coset_enumerate_oracle(pres, images).action
        assert is_closed_oracle(table, pres)
        data, oracle = reidemeister_schreier_data(pres, table), schreier_data_oracle(pres, table)
        assert data.presentation.relators == oracle.presentation.relators
        assert data.generator_words == oracle.generator_words
        assert data.transversal == oracle.transversal
        assert abelianization(data.presentation) == abelianization(oracle.presentation)
    assert [coset_enumerate(*case).d for case, _ in TRIANGLE_KERNELS] == [d for _, d in TRIANGLE_KERNELS]


def test_table_broken_by_one_relator_is_rejected():
    # S4 on four points: a swaps 1 and 2, b is a 4-cycle.  The table is closed
    # under a^2, b^4 and (ab)^3.  A relator that moves a coset moves at least
    # two; b a b a b moves exactly two, and neither is the base coset.
    names = ("a", "b")
    relators = ("a^2", "b a b a b", "b^4", "a b a b a b")
    pres = FinitePresentation(2, tuple(parse_word(r, names) for r in relators), names)
    table = CosetTable(4, ((0, 2, 1, 3), (1, 2, 3, 0)))
    moved = [c for c in range(4) if act_word(table, c, pres.relators[1]) != c]
    assert len(moved) == 2 and 0 not in moved
    closed = FinitePresentation(2, pres.relators[:1] + pres.relators[2:], names)
    assert is_closed_oracle(table, closed) and reached_from_base(table) == set(range(4))
    assert not is_closed_oracle(table, pres)
    with pytest.raises(ValueError, match="table is not closed under the relators"):
        reidemeister_schreier_data(pres, table)
    with pytest.raises(ValueError, match="table is not closed under the relators"):
        schreier_data_oracle(pres, table)


def test_rs_matches_three_product_oracle_past_26_generators():
    # the oracle builds each Schreier generator as rep[c] * x * ~rep[c.x]
    rng = random.Random(2811)
    sizes = []
    while len(sizes) < 12:
        pres, images = random_quotient_pair(rng)
        table = coset_enumerate(pres, images)
        data = reidemeister_schreier_data(pres, table)
        if data.presentation.generator_count <= 26:
            continue
        oracle = schreier_data_oracle(pres, table)
        assert [w.raw for w in data.generator_words] == [w.raw for w in oracle.generator_words]
        assert [r.raw for r in data.presentation.relators] == [r.raw for r in oracle.presentation.relators]
        assert [w.raw for w in data.transversal] == [w.raw for w in oracle.transversal]
        sizes.append(data.presentation.generator_count)
    assert max(sizes) > 100


def test_kernel_presentation_past_26_generators_has_a_repr():
    (pres, images), d = TRIANGLE_KERNELS[1]  # onto A5
    sub = reidemeister_schreier(pres, coset_enumerate(pres, images))
    assert (sub.generator_count, d) == (61, 60)
    text = repr(sub)
    assert text.startswith("FinitePresentation(generator_count=61, relators=(Word(")
    assert "Word('x" in text


def test_table_check_order_is_kept():
    """Reidemeister-Schreier reports the generator count before closure, and
    closure before transitivity, also when a walk starts at an unreached
    coset."""
    cube = FinitePresentation(1, (Word([1, 1, 1]),))
    square = FinitePresentation(1, (Word([1, 1]),))
    swap_and_fix = CosetTable(3, ((1, 0, 2),))  # coset 2 is out of reach
    # 0 <-> 1 under a, 2 -> 3 -> 4 -> 2 under a and b: the 3-cycle is closed
    # under b^3 but not under a^2, and no letter leads from {0, 1} to it
    apart = CosetTable(5, ((1, 0, 3, 4, 2), (0, 1, 3, 4, 2)))
    assert reached_from_base(apart) == {0, 1}
    cases = [
        (cube, swap_and_fix, "table is not closed under the relators"),
        (square, swap_and_fix, "table is not transitive from the base coset"),
        (FinitePresentation(2, (Word([1, 1, 1]),)), swap_and_fix,
         "table has the wrong number of generator actions"),
        (cube, CosetTable(2, (swap2(),)), "table is not closed under the relators"),
        (FinitePresentation(2, (Word([1, 1]), Word([2, 2, 2]))), apart,
         "table is not closed under the relators"),
        (FinitePresentation(2, (Word([2, 2, 2]),)), apart, "table is not transitive from the base coset"),
        # the count, closure and reach all fail: the count is reported
        (FinitePresentation(3, (Word([1, 1]),)), apart, "table has the wrong number of generator actions"),
    ]
    for pres, table, message in cases:
        with pytest.raises(ValueError, match=message):
            reidemeister_schreier_data(pres, table)


@st.composite
def killed_relator_pairs(draw):
    """Random images in S_n, n <= 6, and relators built to die in them: each
    a random word raised to the order of its image."""
    degree = draw(st.integers(1, 6))
    a = draw(st.integers(1, 3))
    images = [tuple(draw(st.permutations(range(degree)))) for _ in range(a)]
    letter = st.integers(1, a).flatmap(lambda g: st.sampled_from([g, -g]))
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=6).map(Word), max_size=3))
    relators = [w ** perm_order(word_image(w, images, degree)) for w in words]
    return FinitePresentation(a, relators), images


@settings(max_examples=100, deadline=None)
@given(killed_relator_pairs())
def test_enumerated_tables_are_closed_and_transitive(case):
    # what coset_enumerate's docstring proves instead of checking
    pres, images = case
    table = coset_enumerate(pres, images)
    assert is_closed_oracle(table, pres)
    assert reached_from_base(table) == set(range(table.d))


@st.composite
def transitive_tables_and_relators(draw):
    """A transitive action of 1-3 generators on 1-7 cosets, given to the
    public CosetTable, and up to three cyclically reduced words, each raised
    to the order of the permutation its walk applies, so the table is closed
    under them.  An intransitive draw gets a conjugate of the d-cycle as its
    last generator."""
    d = draw(st.integers(1, 7))
    a = draw(st.integers(1, 3))
    action = [list(draw(st.permutations(range(d)))) for _ in range(a)]
    table = CosetTable(d, action)
    if reached_from_base(table) != set(range(d)):
        sigma = draw(st.permutations(range(d)))
        action[-1] = [sigma[(sigma.index(c) + 1) % d] for c in range(d)]
        table = CosetTable(d, action)
    letter = st.integers(1, a).flatmap(lambda g: st.sampled_from([g, -g]))
    relators = []
    for letters in draw(st.lists(st.lists(letter, min_size=1, max_size=6), max_size=3)):
        w = Word(letters).raw
        while len(w) > 1 and w[0] == -w[-1]:
            w = w[1:-1]
        walk = [act_word(table, c, Word(w)) for c in range(d)]
        relators.append(Word(w) ** perm_order(walk))
    return FinitePresentation(a, tuple(relators)), table


@settings(max_examples=150, deadline=None)
@given(transitive_tables_and_relators())
def test_rs_rewrite_of_any_transitive_table_is_reduced_as_written(case):
    """The rewrite keeps every non-tree letter and cancels none: a reduced
    relator's walk cannot return along the spanning tree to run a non-tree
    edge backwards.  This holds for any table, not only enumerated ones."""
    pres, table = case
    data = reidemeister_schreier_data(pres, table)
    oracle = schreier_data_oracle(pres, table)
    assert data == oracle
    assert all(Word(r.raw).raw == r.raw for r in data.presentation.relators)


def kernel_shapes():
    """The kernels group-kernels runs: triangle maps onto S4, A5 and S5, and
    A~2 onto (Z/k)^2 x| S3 for k = 2, 3."""
    names = ("a", "b", "c")
    a2 = FinitePresentation(3, tuple(parse_word(r, names) for r in A2_RELATORS), names)
    return [case for case, _ in TRIANGLE_KERNELS] + [(a2, affine_a2_images(k)) for k in (2, 3)]


def assert_built_as_checked(pres, images):
    """The table and the subgroup presentation built without their public
    constructors' checks equal what those constructors build and accept."""
    table = coset_enumerate(pres, images)
    checked = CosetTable(table.d, table.action)
    assert table == checked and table.inverse == checked.inverse
    assert all(type(row) is tuple for row in table.action + table.inverse)
    data = reidemeister_schreier_data(pres, table)
    sub = data.presentation
    assert sub == FinitePresentation(sub.generator_count, sub.relators)
    assert type(sub.relators) is tuple
    for w in sub.relators + data.generator_words + data.transversal:
        assert type(w) is Word and Word(w.raw).raw == w.raw  # reduced letters
    assert len(data.transversal) == table.d


@settings(max_examples=100, deadline=None)
@given(killed_relator_pairs())
def test_unchecked_table_and_presentation_equal_checked_ones(case):
    assert_built_as_checked(*case)


def test_unchecked_kernel_shapes_equal_checked_ones():
    for pres, images in kernel_shapes():
        assert_built_as_checked(pres, images)


def test_public_constructors_refuse_what_the_private_paths_skip():
    """The two private construction paths skip checks that the public
    constructors keep: each malformed input is refused with its message."""
    w = Word([1, 2])
    presentations = [
        ((0, ()), ValueError, "presentation needs at least one generator"),
        ((2, ((1, 2),)), TypeError, "relators must be Word instances"),
        ((2, (w, "a")), TypeError, "relators must be Word instances"),
        ((1, (w,)), ValueError, "relator Word('a b') uses an undeclared generator"),
        ((2, (w, Word([-3]))), ValueError, "relator Word('c^-1') uses an undeclared generator"),
        ((2, (w,), ("a",)), ValueError, "generator names must be distinct, one per generator"),
        ((2, (w,), ("a", "a")), ValueError, "generator names must be distinct, one per generator"),
        ((2, (w,), ("a", "b", "c")), ValueError, "generator names must be distinct, one per generator"),
    ]
    for args, error, message in presentations:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            FinitePresentation(*args)
    # rows of a wrong length, rows that are no permutation, non-integer entries
    for row in NOT_A_PERMUTATION + [(1, 2, 0, 3), (0, "1", 2)]:
        with pytest.raises(ValueError, match="^each generator must act as a permutation of the cosets$"):
            CosetTable(3, ((1, 2, 0), row))


def test_each_unchecked_constructor_has_one_caller():
    """FinitePresentation._unchecked is called from reidemeister_schreier_data
    alone, and CosetTable._from_bijections from coset_enumerate alone."""
    callers = {"_unchecked": [], "_from_bijections": []}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Attribute) and node.attr in callers:
                        callers[node.attr].append((path.stem, func.name))
    assert callers == {
        "_unchecked": [("presentations", "reidemeister_schreier_data")],
        "_from_bijections": [("presentations", "coset_enumerate")],
    }


def test_act_word_is_the_one_word_walk():
    """CosetTable.act_word is the one place src/pbp reads a word's image: it
    is called from coset_enumerate and verify_witness alone, and neither the
    permutation products nor the exponent sums it replaced are defined."""
    callers, defined = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.ClassDef)):
                defined.add(func.name)
            if isinstance(func, ast.FunctionDef):
                callers += [(path.stem, func.name) for node in ast.walk(func)
                            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "act_word"]
    assert callers == [("bs", "verify_witness"), ("presentations", "coset_enumerate")]
    assert defined.isdisjoint({"word_image", "perm_mul", "perm_identity", "pi_image", "exponent_sum"})


@st.composite
def maps_and_words(draw):
    """Images in S_n, n <= 6, of 1-3 generators, and a few words, some of
    them raised to the order of their image so that they map to 1."""
    degree = draw(st.integers(0, 6))
    a = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    images = [tuple(rng.sample(range(degree), degree)) for _ in range(a)]
    letter = st.integers(1, a).flatmap(lambda g: st.sampled_from([g, -g]))
    words = draw(st.lists(st.lists(letter, max_size=8).map(Word), min_size=1, max_size=4))
    words += [w ** perm_order(word_image(w, images, degree)) for w in words if draw(st.booleans())]
    return images, words


@settings(max_examples=150, deadline=None)
@given(maps_and_words())
def test_act_word_walks_the_table_and_reads_the_image(case):
    """From every coset, act_word ends where the letter-by-letter oracle
    does; from coset 0 it returns to 0 exactly when the word maps to 1."""
    images, words = case
    degree = len(images[0])
    table = coset_enumerate(FinitePresentation(len(images)), images)
    for w in words:
        assert [table.act_word(c, w) for c in range(table.d)] == [act_word(table, c, w) for c in range(table.d)]
        assert (table.act_word(0, w) == 0) == (word_image(w, images, degree) == perm_identity(degree))


def test_rs_count_identity_on_random_pairs():
    rng = random.Random(71046)
    for _ in range(20):
        pres, images = random_quotient_pair(rng)
        table = coset_enumerate(pres, images)
        sub = reidemeister_schreier(pres, table)
        assert (sub.generator_count, sub.relator_count) == rs_counts(
            pres.generator_count, pres.relator_count, table.d
        )


# --- Smith normal form and abelianization ------------------------------------


def snf_oracle(rows):
    if not rows:
        return []
    m = sympy.Matrix(rows)
    d = sympy_snf(m, domain=sympy.ZZ)
    out = [abs(int(d[i, i])) for i in range(min(d.shape))]
    return sorted(out, key=lambda v: (v == 0, v))


def test_snf_against_oracle_random():
    rng = random.Random(90125)
    for trial in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        mine = smith_normal_form([row[:] for row in rows])
        assert sorted(mine, key=lambda v: (v == 0, v)) == snf_oracle(rows)
        # exact repeats of rows reach the elimination too
        doubled = rows + rows[: 1 + trial % m]
        assert sorted(smith_normal_form(doubled), key=lambda v: (v == 0, v)) == snf_oracle(doubled)
        # divisibility chain on the nonzero part
        nz = [v for v in mine if v]
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
    # integral values of other types are integers
    assert smith_normal_form([[3.0, 0], [0, Fraction(2)]]) == [1, 6]


@pytest.mark.parametrize(
    "rows",
    [[[Fraction(3, 2)]], [[2.5, 0], [0, 3]], [[float("inf")]], [[1, 2], [3]], [[0], [0, 0, 5]]],
    ids=["fraction", "float", "infinite", "short-row", "long-row"],
)
def test_snf_refuses_malformed_matrices(rows):
    with pytest.raises(ValueError):
        smith_normal_form(rows)


def test_abelianization_examples():
    # one relator with exponent vector (-1, 0)
    assert exponent_matrix(bs_presentation(2, 3)) == [[-1, 0]]
    assert abelianization(bs_presentation(2, 3)) == AbelianInvariants(1)

    pres = bs_presentation(2, 2)
    table = coset_enumerate(pres, cm_x_c2_images(2))
    sub = reidemeister_schreier(pres, table)
    assert abelianization(sub) == AbelianInvariants(4)

    cyclic4 = FinitePresentation(1, (Word([1] * 4),), ("a",))
    assert abelianization(cyclic4) == AbelianInvariants(0, (4,))


def test_abelianization_invariance():
    rng = random.Random(5517)
    for _ in range(25):
        a = rng.randint(1, 3)
        relators = [
            Word([rng.choice([1, -1]) * rng.randint(1, a) for _ in range(rng.randint(0, 6))])
            for _ in range(rng.randint(1, 3))
        ]
        pres = FinitePresentation(a, tuple(relators))
        base = abelianization(pres)

        shuffled = relators[:]
        rng.shuffle(shuffled)
        assert abelianization(FinitePresentation(a, tuple(shuffled))) == base

        inverted = [~r if rng.random() < 0.5 else r for r in relators]
        assert abelianization(FinitePresentation(a, tuple(inverted))) == base

        rotated = []
        for r in relators:
            raw = r.raw
            if raw:
                k = rng.randrange(len(raw))
                rotated.append(Word(raw[k:] + raw[:k]))
            else:
                rotated.append(r)
        assert abelianization(FinitePresentation(a, tuple(rotated))) == base


@st.composite
def relator_lists(draw):
    a = draw(st.integers(1, 4))
    letter = st.integers(1, a).flatmap(lambda g: st.sampled_from([g, -g]))
    relators = draw(st.lists(st.lists(letter, max_size=8).map(Word), min_size=1, max_size=6))
    return a, relators


@settings(max_examples=80, deadline=None)
@given(relator_lists(), st.data())
def test_abelianization_ignores_rotation_repetition_and_order(case, data):
    a, relators = case
    pres = FinitePresentation(a, relators)
    base = abelianization(pres)
    assert base == invariants_from_diagonal(snf_oracle(exponent_matrix(pres)), a)
    moved = []
    for r in relators:
        k = data.draw(st.integers(0, max(len(r) - 1, 0)))
        moved += [Word(r.raw[k:] + r.raw[:k])] * data.draw(st.integers(1, 3))
    moved = data.draw(st.permutations(moved))
    assert abelianization(FinitePresentation(a, moved)) == base
    # a conjugate keeps its relator's row, but in general not its letters
    w = Word(data.draw(st.lists(st.integers(-a, a).filter(bool), max_size=3)))
    assert abelianization(FinitePresentation(a, relators + [w * r * ~w for r in relators])) == base


def test_repeated_rows_of_different_letters_reach_the_elimination():
    names = ("a", "b")
    texts = ("b", "a b a^-1", "a^-2 b a^2", "a^4 b^2", "a^5 b^2 a^-1", "a^6")
    pres = FinitePresentation(2, tuple(parse_word(t, names) for t in texts), names)
    rows = _exponent_rows(pres)
    # six letter multisets, three distinct rows: (0, 1) three times, (4, 2) twice, (6, 0)
    assert len(rows) == 6 and len({tuple(sorted(row.items())) for row in rows}) == 3
    assert abelianization(pres) == invariants_from_diagonal(snf_oracle(exponent_matrix(pres)), 2)
    assert abelianization(pres) == AbelianInvariants(0, (2,))


@pytest.mark.parametrize(
    "images",
    [
        [swap2(), perm_identity(2)],
        [cyclic_perm(3), perm_identity(3)],
        [cyclic_perm(4), cyclic_perm(4)],
        [embed(swap2(), 0, 4), embed(swap2(), 2, 4)],
    ],
)
def test_finite_index_in_z2_is_z2(images):
    pres = FinitePresentation(2, (Word([1, 2, -1, -2]),), ("a", "b"))
    table = coset_enumerate(pres, images)
    sub = reidemeister_schreier(pres, table)
    assert abelianization(sub) == AbelianInvariants(2)


def pres_from_matrix(rows, n):
    """A presentation whose exponent-sum matrix is ``rows`` (n columns)."""
    relators = []
    for row in rows:
        letters = []
        for j, v in enumerate(row):
            letters += [j + 1 if v > 0 else -(j + 1)] * abs(v)
        relators.append(Word(letters))
    return FinitePresentation(n, tuple(relators))


def invariants_from_diagonal(diag, n):
    return AbelianInvariants(n - sum(1 for v in diag if v), tuple(v for v in diag if v > 1))


MIXED = [0] * 8 + [1, -1] * 3 + [2, -2, 3, -4, 6]
# no +-1, so every pivot takes the non-unit branch and the gcd/lcm chain
TORSION_ONLY = [0] * 8 + [2, -2, 3, -3, 4, -4, 6]


@st.composite
def sparse_matrices(draw, palette=MIXED):
    m = draw(st.integers(1, 25))
    n = draw(st.integers(1, 25))
    entry = st.sampled_from(palette)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return rows, n


@st.composite
def singleton_chains(draw):
    """Chains of rows in which row k has a +-1 in column c_k and entries
    only in c_0..c_(k-1) besides: row 0 is a +-1 singleton, and each
    elimination leaves the next row of its chain one.  A few random rows
    share the columns."""
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        chain = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        for k, j in enumerate(chain):
            row = [0] * n
            for l in chain[:k]:
                row[l] = draw(st.sampled_from([0, 1, -1, 2, -3]))
            row[j] = draw(st.sampled_from([1, -1]))
            rows.append(row)
    entry = st.sampled_from([0] * 6 + [1, -1, 2, -2, 3])
    rows += draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    return draw(st.permutations(rows)), n


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse_matrices(), sparse_matrices(TORSION_ONLY), singleton_chains()))
def test_sparse_abelianization_matches_dense_snf(case):
    rows, n = case
    pres = pres_from_matrix(rows, n)
    assert exponent_matrix(pres) == rows
    diag = snf_oracle(rows)
    assert smith_normal_form(rows) == diag
    assert abelianization(pres) == invariants_from_diagonal(diag, n)


UNIT = st.sampled_from([1, -1])


@st.composite
def unit_rich_matrices(draw):
    """Sparse matrices rich in one-entry +-1 rows, shuffled.  Besides random
    rows of up to three entries, they draw the shapes the unit-row pre-pass
    of ``_sparse_smith`` must get right: a unit row whose column kill leaves
    another row a one-entry unit row, {j: 1} beside {j: -1}, a one-entry
    +-2 row, which stays for the heap, and rows that the kills empty."""
    n = draw(st.integers(1, 12))
    column = st.integers(0, n - 1)
    rows = []

    def put(*entries):
        row = [0] * n
        for j, v in entries:
            row[j] = v
        rows.append(row)

    for _ in range(draw(st.integers(0, 3))):  # a kill that makes a new unit row
        j, k = draw(column), draw(column)
        put((j, draw(UNIT)))
        put((j, draw(st.sampled_from([1, -1, 2, -3]))), (k, draw(UNIT)))
    for _ in range(draw(st.integers(0, 2))):  # {j: 1} and {j: -1}
        j = draw(column)
        put((j, 1))
        put((j, -1))
    for _ in range(draw(st.integers(0, 2))):  # a one-entry row that is no unit
        put((draw(column), draw(st.sampled_from([2, -2]))))
    for _ in range(draw(st.integers(0, 2))):  # rows the kills empty
        j, k = draw(column), draw(column)
        put((j, draw(UNIT)))
        put((k, draw(UNIT)))
        put((j, draw(st.sampled_from([3, -2]))))
        put((j, 2), (k, draw(st.sampled_from([1, 4]))))
    entry = st.sampled_from([1, -1, 2, -2, 3, -4, 6])
    for _ in range(draw(st.integers(0, 8))):
        put(*draw(st.lists(st.tuples(column, entry), max_size=3)))
    if not rows:
        put((draw(column), draw(UNIT)))
    return draw(st.permutations(rows)), n


@settings(max_examples=150, deadline=None)
@given(unit_rich_matrices())
def test_unit_row_prepass_matches_dense_snf(case):
    rows, n = case
    diag = snf_oracle(rows)
    assert smith_normal_form(rows) == diag
    units, chain = _sparse_smith([{j: v for j, v in enumerate(row) if v} for row in rows])
    assert [1] * units + chain == [v for v in diag if v]
    assert abelianization(pres_from_matrix(rows, n)) == invariants_from_diagonal(diag, n)


@st.composite
def scrambled_diagonals(draw):
    """A square matrix with a known Smith form: diag(1, ..., 1, d_1 | d_2 | ...,
    0, ..., 0) scrambled by about 3n random unimodular row and column
    operations, each adding or subtracting one line to another."""
    n = draw(st.integers(15, 40))
    chain = [draw(st.sampled_from([2, 3]))]
    for _ in range(draw(st.integers(0, 3))):
        chain.append(chain[-1] * draw(st.sampled_from([1, 2, 3])))
    ones = draw(st.integers(0, n - len(chain)))
    diag = [1] * ones + chain + [0] * (n - ones - len(chain))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, k = rng.sample(range(n), 2)
        sign = rng.choice([1, -1])
        if rng.random() < 0.5:
            rows[i] = [a + sign * b for a, b in zip(rows[i], rows[k])]
        else:
            for row in rows:
                row[i] += sign * row[k]
    return rows, n, diag


@settings(max_examples=20, deadline=None)
@given(scrambled_diagonals())
def test_dense_scrambled_diagonal_keeps_its_smith_form(case):
    rows, n, diag = case
    assert smith_normal_form(rows) == diag
    assert abelianization(pres_from_matrix(rows, n)) == invariants_from_diagonal(diag, n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse_matrices(), sparse_matrices(TORSION_ONLY)), st.data())
def test_abelianization_unimodular_invariance(case, data):
    rows, n = case
    base = abelianization(pres_from_matrix(rows, n))
    m = len(rows)
    # row operation: multiply relator i by relator k (possibly inverted)
    i, k = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    sign = data.draw(st.sampled_from([1, -1]))
    if i != k:
        moved = [row[:] for row in rows]
        moved[i] = [a + sign * b for a, b in zip(rows[i], rows[k])]
        assert abelianization(pres_from_matrix(moved, n)) == base
    # column operation: substitute x_i -> x_i x_k^sign, so column k gains
    # sign times column i
    i, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if i != k:
        moved = [row[:] for row in rows]
        for row in moved:
            row[k] += sign * row[i]
        assert abelianization(pres_from_matrix(moved, n)) == base


def test_coset_table_caches_inverses():
    table = CosetTable(4, ((1, 2, 3, 0), (1, 0, 3, 2)))
    assert table.inverse == ((3, 0, 1, 2), (1, 0, 3, 2))
    for p, q in zip(table.action, table.inverse):
        assert q == perm_inv(p)
    for c in range(4):
        assert act(table, act(table, c, 1), -1) == c


NOT_A_PERMUTATION = [(0, 1, 1), (0, 1, -1), (0, 1, 3), (0, 1), (0, 1.0, 2), (0, None, 2)]


@pytest.mark.parametrize("row", NOT_A_PERMUTATION,
                         ids=["repeated", "negative", "past_the_end", "short", "float", "none"])
def test_coset_table_refuses_a_row_that_is_no_permutation(row):
    with pytest.raises(ValueError, match="^each generator must act as a permutation of the cosets$"):
        CosetTable(3, ((1, 2, 0), row))


@pytest.mark.parametrize("image", [(0, 0), (1, -1), (0, 2), (1.0, 0), (1, 0, 2)])
def test_coset_enumerate_refuses_an_image_that_is_no_permutation(image):
    pres = FinitePresentation(2, (), ("a", "b"))
    with pytest.raises(ValueError, match=f"^image {re.escape(repr(image))} is not a permutation of degree 2$"):
        coset_enumerate(pres, [swap2(), image])


def enumerate_or_error(enumerate_, pres, images, cap):
    """The table's d, action and inverse, or the type and message of what it raised."""
    try:
        table = enumerate_(pres, images, cap)
    except ValueError as exc:
        return type(exc), str(exc)
    return table.d, table.action, table.inverse


@st.composite
def small_maps(draw):
    """Images in S_n, n <= 6, some of them no permutation of the common
    degree, relators that die in the image and some that may not, and a
    coset cap that may be too small."""
    degree = draw(st.integers(0, 6))
    a = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))  # uniform, unlike shrinkable permutations
    images = [tuple(rng.sample(range(degree), degree)) for _ in range(a)]
    if draw(st.integers(0, 9)) == 0:
        images[draw(st.integers(0, a - 1))] = tuple(draw(st.lists(st.integers(-1, degree), max_size=degree + 1)))
    letter = st.integers(1, a).flatmap(lambda g: st.sampled_from([g, -g]))
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=6).map(Word), max_size=3))
    if all(sorted(p) == list(range(degree)) for p in images):
        words = [w if draw(st.integers(0, 4)) == 0 else w ** perm_order(word_image(w, images, degree))
                 for w in words]
    return FinitePresentation(a, words), images, draw(st.sampled_from([DEFAULT_COSET_CAP, 1, 5, 30, 200]))


@settings(max_examples=200, deadline=None)
@given(small_maps())
def test_coset_enumerate_matches_the_per_image_oracle(case):
    assert enumerate_or_error(coset_enumerate, *case) == enumerate_or_error(coset_enumerate_oracle, *case)


def test_coset_enumerate_pins_small_degrees_and_messages():
    """Degrees 0 and 1 give the one-coset table, as degree 2 with trivial
    images does; refusals keep their messages.  The table is built before
    the relators are walked on it, so a map that is not a homomorphism onto
    a group larger than the cap is refused as BoundExceeded."""
    one = FinitePresentation(1, (Word([1, 1]),), ("s",))
    two = FinitePresentation(2, (Word([1, 2, -1, -2]),), ("a", "b"))
    for pres, images, want in [
        (one, [()], (1, ((0,),), ((0,),))),
        (one, [(0,)], (1, ((0,),), ((0,),))),
        (two, [(0,), (0,)], (1, ((0,), (0,)), ((0,), (0,)))),
        (two, [(0, 1), (0, 1)], (1, ((0,), (0,)), ((0,), (0,)))),
        (one, [swap2()], (2, ((1, 0),), ((1, 0),))),
        (two, [swap2(), swap2()], (2, ((1, 0), (1, 0)), ((1, 0), (1, 0)))),
        (two, [[1, 0], [0, 1]], (2, ((1, 0), (0, 1)), ((1, 0), (0, 1)))),
        (two, [(0,), (0, 1)], (ValueError, "image (0, 1) is not a permutation of degree 1")),
        (two, [(), (0,)], (ValueError, "image (0,) is not a permutation of degree 0")),
        (two, [(1, 1), (0, 1)], (ValueError, "image (1, 1) is not a permutation of degree 2")),
        (one, [(1, 2, 0)], (RelatorNotKilled, "relator 's^2' survives in the image")),
        (FinitePresentation(1, (Word([1, 1]),)), [(1, 2, 0)],
         (RelatorNotKilled, "relator 'x0^2' survives in the image")),
        (two, [(1, 0, 2), (0, 2, 1)], (RelatorNotKilled, "relator 'a b a^-1 b^-1' survives in the image")),
        (FinitePresentation(1, ()), [cyclic_perm(5)], (BoundExceeded, "more than 4 cosets")),
        (one, [cyclic_perm(5)], (RelatorNotKilled, "relator 's^2' survives in the image")),
        (one, [cyclic_perm(5)], (BoundExceeded, "more than 4 cosets")),
    ]:
        cap = 4 if want[0] is BoundExceeded else DEFAULT_COSET_CAP
        assert enumerate_or_error(coset_enumerate, pres, images, cap) == want
        assert enumerate_or_error(coset_enumerate_oracle, pres, images, cap) == want
    with pytest.raises(ValueError, match="^one permutation image per generator is required$"):
        coset_enumerate(two, [swap2()])


def test_perm_mul_matches_the_per_index_product():
    rng = random.Random(33)
    for n in range(7):
        for _ in range(5):
            p, q = (tuple(rng.sample(range(n), n)) for _ in range(2))
            assert perm_mul(p, q) == perm_mul_oracle(p, q)
            assert perm_mul(list(p), list(q)) == perm_mul_oracle(p, q)
            assert type(perm_mul(list(p), q)) is tuple


def test_perm_inv_inverts_and_refuses_non_permutations():
    rng = random.Random(30)
    for n in range(8):
        for _ in range(5):
            p = tuple(rng.sample(range(n), n))
            q = perm_inv(p)
            assert q == tuple(p.index(i) for i in range(n))
            assert perm_mul(p, q) == perm_mul(q, p) == perm_identity(n)
    for bad in [(0, 0), (-1, 0), (0, 2), (0.0, 1), ("0", 1), (10**30, 0)]:
        with pytest.raises(ValueError):
            perm_inv(bad)


# --- large kernels -----------------------------------------------------------


def test_triangle_2_6_5_kernel_onto_s6():
    pres = FinitePresentation(2, (Word([1] * 2), Word([2] * 6), Word([1, 2] * 5)), ("a", "b"))
    images = [(1, 0, 2, 3, 4, 5), cyclic_perm(6)]
    table = coset_enumerate(pres, images)
    sub = reidemeister_schreier(pres, table)
    assert table.d == 720
    assert (sub.generator_count, sub.relator_count) == (721, 2160)
    # Riemann-Hurwitz: 2 - 2g = 720 (1/2 + 1/6 + 1/5 - 1), so g = 49
    assert abelianization(sub) == AbelianInvariants(98)


def affine_a2_images(k):
    """A~2 onto (Z/k)^2 x| S3: its reflections acting on the coroot lattice mod k."""
    pts = [(x, y) for x in range(k) for y in range(k)]
    at = {p: i for i, p in enumerate(pts)}
    return [
        tuple(at[((1 - y) % k, (1 - x) % k)] for x, y in pts),
        tuple(at[((y - x) % k, y)] for x, y in pts),
        tuple(at[(x, (x - y) % k)] for x, y in pts),
    ]


def test_affine_a2_translation_kernel_is_z2():
    names = ("a", "b", "c")
    pres = FinitePresentation(3, tuple(parse_word(r, names) for r in A2_RELATORS), names)
    table = coset_enumerate(pres, affine_a2_images(5))
    assert table.d == 150
    # the kernel is the translation lattice 5 Z^2
    assert abelianization(reidemeister_schreier(pres, table)) == AbelianInvariants(2)


# --- the RS count property, exercised through the whole pipeline -------------


def test_rs_output_counts_match_formula_always():
    pres = bs_presentation(3, -3)
    images = cm_x_c2_images(3)
    table = coset_enumerate(pres, images)
    data = reidemeister_schreier_data(pres, table)
    assert table.d == 6
    assert data.presentation.generator_count == (2 - 1) * 6 + 1
    assert data.presentation.relator_count == 6


# --- JSON --------------------------------------------------------------------


def test_presentation_json_roundtrip():
    obj = {"generators": ["s", "t"], "relators": ["t s^2 t^-1 s^-2"]}
    pres = presentation_from_json(obj)
    assert pres.generator_count == 2
    assert pres.relators[0] == parse_word("t s^2 t^-1 s^-2", ("s", "t"))
    assert presentation_to_json(pres) == obj


def test_presentation_json_rejects_garbage():
    from pbp.presentations import PresentationFormatError

    # names that format_word's output would not parse back to
    for names in (["x", "x^-1"], ["", "b"], ["a b"], ["a\t"], ["^"]):
        with pytest.raises(PresentationFormatError, match="is empty or has whitespace or '\\^'"):
            presentation_from_json({"generators": names, "relators": []})
    with pytest.raises(PresentationFormatError):
        presentation_from_json({"generators": ["s"], "relators": ["u"]})
    with pytest.raises(PresentationFormatError):
        presentation_from_json({"generators": ["s"], "relators": ["s^0"]})
    with pytest.raises(PresentationFormatError):
        presentation_from_json({"relators": []})
