"""From-scratch references for ``pbp.presentations``.

``coset_enumerate_oracle`` is ``coset_enumerate`` with one
``tuple(map(p.__getitem__, e))`` per product, the table built by the
public ``CosetTable`` constructor, which checks and inverts every row, and
then every relator image composed one letter at a time by
``perm_mul_oracle``, where ``coset_enumerate`` walks the relator on its
table.  ``word_image`` is the permutation a word maps to, one ``perm_mul``
per letter: what ``CosetTable.act_word`` reads off a table from coset 0.
``is_closed_oracle`` applies every relator to every coset, letter by
letter, with ``act_word``, and ``reached_from_base`` searches the cosets
reachable from coset 0.  ``schreier_data_oracle`` rewrites each relator at
each coset one letter at a time, looking the Schreier generator of every
edge up in a dict keyed by (coset, generator).
``pbp.presentations`` does the same work from flat per-letter tables; the
results must be equal Word for Word.  ``exponent_matrix`` is the dense
relator-by-generator matrix of exponent sums that abelianization reduces.
``deficiency_count`` and ``kunneth_bound`` are the counts the acceptance
criteria state about presentations and products of free groups.
``reidemeister_schreier`` is the presentation alone of
``pbp.presentations.reidemeister_schreier_data``.
"""

from collections import deque
from typing import Sequence

from pbp.presentations import (
    DEFAULT_COSET_CAP,
    BoundExceeded,
    CosetTable,
    FinitePresentation,
    RelatorNotKilled,
    SchreierData,
    perm_inv,
    reidemeister_schreier_data,
    rs_counts,
)
from pbp.words import Word, format_word
from words_oracles import exponent_sum


def deficiency_count(pres: FinitePresentation) -> int:
    """Generators minus relators for this particular presentation.

    This is a lower bound for the deficiency of the presented group, which
    is defined as the maximum of this count over all of its presentations.
    """
    return pres.generator_count - pres.relator_count


def kunneth_bound(k: int, l: int) -> int:
    """First minus second Betti number of a product of free groups F_k x F_l."""
    return k + l - k * l


def exponent_matrix(pres: FinitePresentation) -> list[list[int]]:
    """Relator-by-generator matrix of exponent sums."""
    return [[exponent_sum(r, g) for g in range(pres.generator_count)] for r in pres.relators]


def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def perm_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """p then q."""
    return tuple(map(q.__getitem__, p))


def word_image(w: Word, images: Sequence[tuple[int, ...]], degree: int) -> tuple[int, ...]:
    """The permutation that ``w`` maps to under generator i -> images[i]."""
    out = perm_identity(degree)
    for x in w.raw:
        out = perm_mul(out, images[x - 1] if x > 0 else perm_inv(images[-x - 1]))
    return out


def perm_mul_oracle(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """p then q, one index at a time."""
    return tuple(q[p[i]] for i in range(len(p)))


def coset_enumerate_oracle(
    pres: FinitePresentation,
    images: Sequence[Sequence[int]],
    coset_cap: int = DEFAULT_COSET_CAP,
) -> CosetTable:
    """Right regular action of the group the images generate, with
    ``coset_enumerate``'s checks, messages and coset cap, in its order:
    the images, then the cap while enumerating, then the relators."""
    if len(images) != pres.generator_count:
        raise ValueError("one permutation image per generator is required")
    imgs = [tuple(p) for p in images]
    degree = len(imgs[0])
    for p in imgs:
        try:
            if len(p) != degree:
                raise ValueError
            perm_inv(p)
        except ValueError:
            raise ValueError(f"image {p!r} is not a permutation of degree {degree}") from None

    identity = perm_identity(degree)
    elements = {identity: 0}
    order = [identity]
    rows: list[list[int]] = [[] for _ in imgs]
    for e in order:  # grows while it is read
        for p, row in zip(imgs, rows):
            f = tuple(map(p.__getitem__, e))
            k = elements.get(f)
            if k is None:
                if len(order) >= coset_cap:
                    raise BoundExceeded(f"more than {coset_cap} cosets")
                k = elements[f] = len(order)
                order.append(f)
            row.append(k)
    table = CosetTable(len(order), rows)

    for r in pres.relators:
        image = identity
        for x in r.raw:
            image = perm_mul_oracle(image, imgs[x - 1] if x > 0 else perm_inv(imgs[-x - 1]))
        if image != identity:
            raise RelatorNotKilled(f"relator {format_word(r, pres.names())!r} survives in the image")
    return table


def act(table: CosetTable, coset: int, letter: int) -> int:
    """Apply one signed letter to a coset."""
    return table.step(letter)[coset]


def act_word(table: CosetTable, coset: int, w: Word) -> int:
    for x in w.raw:
        coset = act(table, coset, x)
    return coset


def is_closed_oracle(table: CosetTable, pres: FinitePresentation) -> bool:
    """Every relator fixes every coset, checked one coset at a time."""
    return all(act_word(table, c, r) == c for r in pres.relators for c in range(table.d))


def reached_from_base(table: CosetTable) -> set[int]:
    """The cosets a breadth-first search reaches from coset 0 by any letter."""
    seen, queue = {0}, deque([0])
    while queue:
        c = queue.popleft()
        for i in range(len(table.action)):
            for letter in (i + 1, -i - 1):
                nxt = act(table, c, letter)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def _transversal(pres: FinitePresentation, table: CosetTable):
    letter_order = [s * (i + 1) for i in range(pres.generator_count) for s in (1, -1)]
    rep: list = [None] * table.d
    rep[0] = Word()
    tree: set[tuple[int, int]] = set()  # (coset, letter) edges used by the BFS
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for letter in letter_order:
            nxt = act(table, c, letter)
            if rep[nxt] is None:
                rep[nxt] = rep[c] * Word((letter,))
                tree.add((c, letter))
                queue.append(nxt)
    return rep, tree


def schreier_data_oracle(pres: FinitePresentation, table: CosetTable) -> SchreierData:
    """Reidemeister-Schreier rewriting, one ``act`` call per letter."""
    if not is_closed_oracle(table, pres):
        raise ValueError("table is not closed under the relators")
    a, d = pres.generator_count, table.d
    rep, tree = _transversal(pres, table)

    gen_index: dict[tuple[int, int], int] = {}
    gen_words: list[Word] = []
    for c in range(d):
        for i in range(a):
            letter = i + 1
            nxt = act(table, c, letter)
            if (c, letter) in tree or (nxt, -letter) in tree:
                continue
            gen_index[(c, i)] = len(gen_words)
            gen_words.append(rep[c] * Word((letter,)) * ~rep[nxt])

    def rewrite(w: Word, start: int) -> Word:
        out: list[int] = []
        c = start
        for x in w.raw:
            if x > 0:
                key = (c, x - 1)
                if key in gen_index:
                    out.append(gen_index[key] + 1)
                c = act(table, c, x)
            else:
                c = act(table, c, x)
                key = (c, -x - 1)
                if key in gen_index:
                    out.append(-(gen_index[key] + 1))
        return Word(out)

    relators = tuple(rewrite(r, c) for r in pres.relators for c in range(d))
    assert (len(gen_words), len(relators)) == rs_counts(a, pres.relator_count, d)
    return SchreierData(FinitePresentation(len(gen_words), relators), tuple(gen_words), tuple(rep))


def reidemeister_schreier(pres: FinitePresentation, table: CosetTable) -> FinitePresentation:
    """Presentation of the subgroup realized by a closed coset table."""
    return reidemeister_schreier_data(pres, table).presentation
