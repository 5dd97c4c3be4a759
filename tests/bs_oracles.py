"""From-scratch references for ``pbp.bs``.

``britton_reduce_random`` applies the Britton rewrites in random order.
``pbp.bs.britton_reduce`` rewrites left to right; the rewrite system is
confluent, so every order must reach the same normal form.

``first_relation_oracle`` is the bounded freeness search done the plain
way: it visits every freely reduced word in the conjugates, depth first,
and pushes each word's Britton state on from its parent's by the letters of
one conjugate or its inverse.  It matches no halves, and it re-checks a
word it finds trivial by substituting and reducing it from scratch.
``shortest_relation_oracle``
runs it again below each length it finds, down to the shortest relation,
where ``pbp.bs._shortest_relation`` reduces only the words up to half the
bound and matches the normal forms of the two halves.

``witness_subgroup_oracle`` builds the BS(m, +-m) witness as ``pbp.bs``
did before it wrote the free basis in closed form: a coset enumeration of
the index-2 subgroup of the free group on the conjugates T_i = s^i t s^-i,
then Reidemeister-Schreier.

``pi_image`` is the image of a word under pi: s -> (c, 1), t -> (1, d) in
C_|m| x C_2, read off its exponent sums.  ``pbp.bs.verify_witness`` reads
kernel membership off the coset table of pi instead.

``affine_rep`` is the faithful image of BS(1, n) in the affine group of the
line, s -> [[1, 1], [0, 1]] and t -> [[n, 0], [0, 1]], in exact rationals.
"""

import random
from fractions import Fraction
from typing import Iterable, Sequence

from pbp.bs import (
    S,
    T,
    BrittonForm,
    BSGroup,
    SubgroupWitness,
    _britton_push,
    britton_reduce,
    s_word,
    t_word,
)
from pbp.presentations import FinitePresentation, coset_enumerate, reidemeister_schreier_data
from pbp.words import Word
from words_oracles import exponent_sum


def substitute(word: Word, images: Sequence[Word]) -> Word:
    """The word with each letter i replaced by images[i - 1]."""
    letters: list[int] = []
    for letter in word.raw:
        img = images[abs(letter) - 1].raw
        letters.extend(img if letter > 0 else [-x for x in reversed(img)])
    return Word(letters)


def _parts_from_word(word: Word) -> tuple[int, list[list[int]]]:
    k0 = 0
    tail: list[list[int]] = []
    for letter in word.raw:
        if abs(letter) == S:
            if tail:
                tail[-1][1] += 1 if letter > 0 else -1
            else:
                k0 += 1 if letter > 0 else -1
        else:
            tail.append([1 if letter > 0 else -1, 0])
    return k0, tail


def britton_reduce_random(group: BSGroup, word: Word, rng: random.Random) -> BrittonForm:
    """Reduce by applying applicable rewrites in random order; same result."""
    m, n = group.m, group.n
    k0, tail = _parts_from_word(word)
    while True:
        moves = []
        for i, (eps, k) in enumerate(tail):
            inner = m if eps == 1 else n
            if k % abs(inner) != k:
                moves.append(("push", i))
            if k % abs(inner) == 0 and i + 1 < len(tail) and tail[i + 1][0] == -eps:
                moves.append(("pinch", i))
        if not moves:
            break
        kind, i = rng.choice(moves)
        eps, k = tail[i]
        inner, outer = (m, n) if eps == 1 else (n, m)
        if kind == "push":
            rho = k % abs(inner)
            q = (k - rho) // inner
            tail[i][1] = rho
            if i == 0:
                k0 += q * outer
            else:
                tail[i - 1][1] += q * outer
        else:
            c = k // inner
            carry = c * outer + tail[i + 1][1]
            del tail[i : i + 2]
            if i == 0:
                k0 += carry
            else:
                tail[i - 1][1] += carry
    # no move left: every interior exponent is already normalized
    return BrittonForm(group, k0, tuple((e, k) for e, k in tail))


def free_words(alphabet: int, max_len: int) -> Iterable[Word]:
    """All freely reduced nonempty words over the alphabet, up to max_len,
    depth first in preorder with children in reversed letter order."""
    letters = [i for i in range(1, alphabet + 1)] + [-i for i in range(1, alphabet + 1)]
    stack: list[list[int]] = [[x] for x in letters]
    while stack:
        word = stack.pop()
        yield Word(word)
        if len(word) < max_len:
            for x in letters:
                if x != -word[-1]:
                    stack.append(word + [x])


def first_relation_oracle(group: BSGroup, conjugates: Sequence[Word], length_bound: int) -> int | None:
    """Length of the first word of ``free_words`` trivial in the group, or None.

    The words come in ``free_words``' order, each with its parent's Britton
    state; the state of a word is (0, ()) iff it is trivial.
    """
    m, n = group.m, group.n
    images: dict[int, tuple[int, ...]] = {}
    for i, conjugate in enumerate(conjugates, 1):
        images[i], images[-i] = conjugate.raw, (~conjugate).raw
    letters = [*range(1, len(conjugates) + 1), *range(-1, -len(conjugates) - 1, -1)]
    stack: list = [([x], (0, ())) for x in letters]  # (word, its parent's state)
    while stack:
        word, parent = stack.pop()
        state = _britton_push(parent, images[word[-1]], m, n)
        if state == (0, ()):
            assert britton_reduce(group, substitute(Word(word), conjugates)).is_identity(), word
            return len(word)
        if len(word) < length_bound:
            stack.extend((word + [x], state) for x in letters if x != -word[-1])
    return None


def shortest_relation_oracle(group: BSGroup, conjugates: Sequence[Word], length_bound: int) -> int | None:
    """Length of the shortest trivial word of ``free_words``, or None."""
    length = first_relation_oracle(group, conjugates, length_bound)
    while length is not None and length > 1:
        # the depth-first search finds a relation, not the shortest one
        shorter = first_relation_oracle(group, conjugates, length - 1)
        if shorter is None:
            break
        length = shorter
    return length


def witness_subgroup_oracle(m: int, eta: int) -> SubgroupWitness:
    conj = [s_word(i) * t_word(1) * s_word(-i) for i in range(m)]
    free = FinitePresentation(m, ())
    table = coset_enumerate(free, [(1, 0)] * m)
    basis = tuple(substitute(w, conj) for w in reidemeister_schreier_data(free, table).generator_words)
    return SubgroupWitness(m, eta, s_word(m), tuple(conj), basis)


def pi_image(group: BSGroup, word: Word) -> tuple[int, int]:
    """Image of a word under s -> (c, 1), t -> (1, d) in C_|m| x C_2."""
    if abs(group.m) != abs(group.n):
        raise ValueError("the map to C_m x C_2 needs |m| = |n|")
    return (exponent_sum(word, 0) % abs(group.m), exponent_sum(word, 1) % 2)


def affine_rep(n: int, word: Word) -> list[list[Fraction]]:
    """Image of a word of BS(1, n) under s -> [[1,1],[0,1]], t -> [[n,0],[0,1]]."""
    if abs(n) < 2:
        raise ValueError("the affine embedding is for BS(1, n) with |n| >= 2")
    s_mat = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    t_mat = ((Fraction(n), Fraction(0)), (Fraction(0), Fraction(1)))

    def inv2(m):
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        return (
            (m[1][1] / det, -m[0][1] / det),
            (-m[1][0] / det, m[0][0] / det),
        )

    def mul2(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    table = {S: s_mat, -S: inv2(s_mat), T: t_mat, -T: inv2(t_mat)}
    out = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for letter in word.raw:
        out = mul2(out, table[letter])
    relator = BSGroup(1, n).presentation().relators[0]
    check = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for letter in relator.raw:
        check = mul2(check, table[letter])
    if check != ((1, 0), (0, 1)):
        raise AssertionError("defining relator does not map to the identity")
    return [list(row) for row in out]
