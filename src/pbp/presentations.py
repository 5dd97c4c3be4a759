"""Finite presentations, coset tables, subgroup rewriting, abelianization.

The coset machinery is deliberately narrow: every subgroup we ever need is
the kernel of a map onto an explicitly given finite permutation group, so
tables are built from the permutation action instead of a general
Todd-Coxeter search.  This always terminates on valid input.

The kernel path works on flat per-letter arrays.  With d cosets, a
generators and relators of total length R:

- ``coset_enumerate`` fills the action rows during its one breadth-first
  pass over the image group: one permutation product per element and
  generator, each an ``itemgetter(*e)`` built once per element e and
  applied to the generator's image.  It then walks each relator on the
  finished table from coset 0, the identity: ``CosetTable.act_word``, one
  lookup per letter, is the one place a word's image is read.
- ``CosetTable`` inverts each action row once, and refuses a row that is
  not a permutation in that same pass.  The table ``coset_enumerate``
  builds skips that check (``CosetTable._from_bijections``): right
  multiplication by a group element is a bijection, so each of its rows is
  a permutation by construction.
- The Reidemeister-Schreier rewrite reads, per letter x and coset c, the
  signed Schreier generator ``gen_at[x][c]`` and the next coset: R * d
  lookups, plus the Word output.  It checks every table it is given
  against the presentation: a walk of a relator that does not end at its
  start coset is an error, and so is a coset its transversal misses
  (``coset_enumerate`` builds tables that pass both by construction).
  A rewritten relator is reduced as written: a reduced relator's walk
  never comes back along the tree to run a non-tree edge backwards.  So
  the subgroup presentation it writes skips ``FinitePresentation``'s
  relator check (``FinitePresentation._unchecked``): every relator is a
  reduced Word in the Schreier generators the rewrite has just numbered.
- ``abelianization`` builds one exponent row per distinct letter multiset
  of the relators.  The rewrites of a relator u^n at the cosets c, c.u,
  c.u^2, ... are rotations of one another before free reduction, so most
  of them share their letters.  ``abelianization`` and
  ``smith_normal_form`` run one sparse elimination, ``_sparse_smith``.
  It first takes the one-entry rows {j: +-1} in plain passes over the
  rows: each is a unit pivot whose row and column operations only delete
  column j, so it counts one unit and column j goes from every row, and
  the passes repeat until one finds no such row.  One heap keyed by (least
  |entry|, row length, row index) takes every pivot of the rows left, so
  the two-entry rows with a +-1 come first, each costing the length of its
  column.

The two private construction paths have one caller each; every public
constructor keeps all its checks.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from operator import itemgetter, neg

from .verdict import Record
from .words import Word, format_word, parse_word

DEFAULT_COSET_CAP = 10**6


class RelatorNotKilled(ValueError):
    """A relator maps to a nontrivial element of the target group."""


class BoundExceeded(ValueError):
    """Enumeration grew past the configured coset cap."""


class PresentationFormatError(ValueError):
    """Malformed JSON input for a presentation."""


# ---------------------------------------------------------------------------
# presentations


class FinitePresentation(Record):
    """Generators 0..generator_count-1 and a list of relator words.

    Relators are freely reduced on ingestion; their order is preserved.
    """

    __slots__ = ("generator_count", "relators", "generator_names")

    def __init__(self, generator_count: int, relators: Sequence[Word] = (),
                 generator_names: Sequence[str] | None = None):
        if generator_count < 1:
            raise ValueError("presentation needs at least one generator")
        relators = tuple(relators)
        for r in relators:
            if not isinstance(r, Word):
                raise TypeError("relators must be Word instances")
            if r.max_generator() >= generator_count:
                raise ValueError(f"relator {r!r} uses an undeclared generator")
        if generator_names is not None:
            generator_names = tuple(generator_names)
            if len(generator_names) != generator_count or len(set(generator_names)) != generator_count:
                raise ValueError("generator names must be distinct, one per generator")
        object.__setattr__(self, "generator_count", generator_count)
        object.__setattr__(self, "relators", relators)
        object.__setattr__(self, "generator_names", generator_names)

    @classmethod
    def _unchecked(cls, generator_count: int, relators: tuple[Word, ...]) -> "FinitePresentation":
        # For Reidemeister-Schreier output alone: relators of Schreier
        # generator numbers it assigned itself, a tuple of Words.
        pres = object.__new__(cls)
        pres._set(generator_count, relators, None)
        return pres

    @property
    def relator_count(self) -> int:
        return len(self.relators)

    def names(self) -> tuple[str, ...]:
        if self.generator_names is not None:
            return self.generator_names
        return tuple(f"x{i}" for i in range(self.generator_count))


def rs_counts(a: int, b: int, d: int) -> tuple[int, int]:
    """Generator/relator counts of an index-``d`` subgroup presentation.

    A presentation with ``a`` generators and ``b`` relators rewrites to one
    with ``(a-1)d + 1`` generators and ``b*d`` relators.
    """
    if a < 1 or b < 0 or d < 1:
        raise ValueError("need a >= 1, b >= 0, d >= 1")
    return (a - 1) * d + 1, b * d


# ---------------------------------------------------------------------------
# permutations (tuples mapping i -> p[i])


def perm_inv(p: Sequence[int]) -> tuple[int, ...]:
    """The inverse of ``p``; ValueError, in the same pass, if ``p`` is not
    a permutation of 0..len(p)-1."""
    out = [-1] * len(p)
    try:
        for i, j in enumerate(p):
            if j < 0 or out[j] >= 0:  # a negative index would wrap around
                raise ValueError("not a permutation")
            out[j] = i
    except (IndexError, TypeError):  # an entry past the end, or not an integer
        raise ValueError("not a permutation") from None
    return tuple(out)


# ---------------------------------------------------------------------------
# coset tables


class CosetTable(Record):
    """Right action of the generators on cosets 0..d-1, base coset 0.

    ``inverse[i]`` is the inverse of ``action[i]``, computed once; it takes
    no part in equality, hashing or the repr.
    """

    __slots__ = ("d", "action", "inverse")
    _fields = ("d", "action")

    def __init__(self, d: int, action: Sequence[Sequence[int]]):
        action = tuple(tuple(p) for p in action)
        try:
            if any(len(p) != d for p in action):
                raise ValueError
            inverse = tuple(map(perm_inv, action))
        except ValueError:
            raise ValueError("each generator must act as a permutation of the cosets") from None
        self._set(d, action, inverse)

    @classmethod
    def _from_bijections(cls, d: int, rows: list[list[int]]) -> "CosetTable":
        # For coset_enumerate alone: each row is a bijection of 0..d-1 by
        # construction, so it is inverted without perm_inv's checks.
        inverse = []
        for row in rows:
            inv = [0] * d
            for c, k in enumerate(row):
                inv[k] = c
            inverse.append(tuple(inv))
        table = object.__new__(cls)
        table._set(d, tuple(map(tuple, rows)), tuple(inverse))
        return table

    def step(self, letter: int) -> tuple[int, ...]:
        """The permutation of the cosets that one signed letter applies."""
        return self.action[letter - 1] if letter > 0 else self.inverse[-letter - 1]

    def act_word(self, coset: int, w: Word) -> int:
        """The coset that ``w`` takes ``coset`` to, one letter at a time."""
        for x in w.raw:
            coset = self.step(x)[coset]
        return coset


def coset_enumerate(
    pres: FinitePresentation,
    images: Sequence[Sequence[int]],
    coset_cap: int = DEFAULT_COSET_CAP,
) -> CosetTable:
    """Coset table of ker(generator i -> images[i]) in the presented group.

    ``images`` are permutations of a common degree; the coset count equals
    the order of the subgroup they generate.  Refuses, in this order, an
    image that is no such permutation (ValueError), a table past the cap
    (BoundExceeded) and a map that is not a homomorphism of the
    presentation (RelatorNotKilled), walking the relators on the finished
    table.

    Coset k is the k-th element of the image group in breadth-first order,
    and generator i acts by right multiplication by its image g_i (Holt,
    Eick and O'Brien, *Handbook of Computational Group Theory*, 2005,
    §5.1-5.3).  Coset 0 is the identity, so a word w maps to 1 exactly when
    ``table.act_word(0, w) == 0``, |w| lookups.  The table is closed and
    transitive by construction and is not checked again.  Closed: every
    relator r has image 1, so it takes each e to e.image(r) = e.
    Transitive: each element is numbered when first reached from an earlier
    one by some g_i, so it is reached from coset 0.
    ``reidemeister_schreier_data`` still checks both on every table it is
    given.

    The product e.g_i is ``itemgetter(*e)`` applied to g_i, one getter per
    element for all the generators; degrees 0 and 1 give the one-coset
    table directly.  Each row is a permutation, since right multiplication
    by g_i is a bijection of the image group, so the table is built by
    ``CosetTable._from_bijections``, which inverts the rows unchecked.
    """
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

    # Cosets of the kernel biject with elements of the image subgroup; the
    # generator action is right multiplication.  Elements are numbered in
    # breadth-first order, and element k is expanded k-th, so one pass
    # fills column k of every action row.
    identity = tuple(range(degree))
    elements: dict[tuple[int, ...], int] = {identity: 0}
    order: list[tuple[int, ...]] = [identity]
    if degree < 2:
        # the trivial group, one coset: itemgetter() raises and itemgetter(0)
        # returns an int, not a tuple
        rows = [[0] for _ in imgs]
    else:
        rows = [[] for _ in imgs]
        for e in order:  # grows while it is read
            times_e = itemgetter(*e)  # one product map per element
            for p, row in zip(imgs, rows):
                f = times_e(p)  # e, then p
                k = elements.get(f)
                if k is None:
                    if len(order) >= coset_cap:
                        raise BoundExceeded(f"more than {coset_cap} cosets")
                    k = elements[f] = len(order)
                    order.append(f)
                row.append(k)
    table = CosetTable._from_bijections(len(order), rows)
    for r in pres.relators:
        if table.act_word(0, r) != 0:
            raise RelatorNotKilled(f"relator {format_word(r, pres.names())!r} survives in the image")
    return table


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


class SchreierData(Record):
    """Subgroup presentation together with the words realizing it.

    ``generator_words[k]`` is the k-th subgroup generator as a word in the
    parent generators; ``transversal[c]`` is the chosen representative of
    coset ``c``.
    """

    __slots__ = ("presentation", "generator_words", "transversal")

    def __init__(self, presentation: FinitePresentation, generator_words: tuple[Word, ...],
                 transversal: tuple[Word, ...]):
        self._set(presentation, generator_words, transversal)


def _schreier_transversal(table: CosetTable):
    """Coset representatives and the spanning tree they use.

    Breadth-first search from the base coset, letters tried in the fixed
    order g0, g0^-1, g1, g1^-1, ...  This yields the lexicographically
    least shortest representative of every coset (by induction on BFS
    level: parents are dequeued in lex order and letters in alphabet order).
    ``in_tree[i][c]`` says whether the edge c -> c.g_i is a tree edge, in
    either direction.  ``rep[c]`` is the letter tuple of a freely reduced
    word, or None for a coset the search does not reach.
    """
    d = table.d
    rep: list[tuple[int, ...] | None] = [None] * d
    rep[0] = ()
    in_tree = [[False] * d for _ in table.action]
    letters = [(i, x, table.step(x)) for i in range(len(table.action)) for x in (i + 1, -i - 1)]
    queue = [0]
    for c in queue:  # grows while it is read
        for i, x, perm in letters:
            nxt = perm[c]
            if rep[nxt] is None:
                # rep[c] cannot end in x^-1, which leads back to the parent
                # of c, so the product is reduced
                rep[nxt] = rep[c] + (x,)
                in_tree[i][c if x > 0 else nxt] = True
                queue.append(nxt)
    return rep, in_tree


def reidemeister_schreier_data(
    pres: FinitePresentation, table: CosetTable
) -> SchreierData:
    """Rewrite ``pres`` to a presentation of the subgroup given by ``table``.

    The rewrite reads two flat tables per signed letter x: ``step(x)``, the
    permutation of the cosets it applies, and ``gen_at[x][c]``, the signed
    subgroup generator that x traces from coset c (0 on a tree edge).

    A table that does not fit ``pres`` raises ValueError for the first of
    these that it fails, each checked once:

    1. one action row per generator, before the transversal is built;
    2. closure: each relator's walk from each coset ends at its start;
    3. transitivity: the transversal reaches every coset, read after the
       walks.  The cosets it reaches are closed under every letter, so an
       unreached coset has Schreier generator 0 on every edge, and a walk
       from it stays among unreached cosets: closure is still tested on all
       of them first.

    The subgroup generator of a non-tree edge (c, x) is the concatenation
    rep[c] x rep[c.x]^-1, already freely reduced: rep[c] ends in x^-1 only
    when c is reached from c.x by x^-1, and rep[c.x] ends in x only when
    c.x is reached from c by x; either way (c, x) is a tree edge.

    A rewritten relator lists the non-tree edges its walk crosses, reduced
    as written (Lyndon and Schupp, *Combinatorial Group Theory*, 1977,
    ch. II).  -g is g's edge run backwards, and a reduced relator never
    runs an edge straight back, so g then -g would need a closed tree walk
    without backtracking, which does not exist.  Only the spanning tree is
    used, so this holds for every table.

    The representatives stay letter tuples until the transitivity check
    has passed, and become the ``transversal`` Words once.  The subgroup
    presentation is built by ``FinitePresentation._unchecked``: its
    relators are reduced Words in the generators 1..n_gens this rewrite
    numbered, so the public constructor's relator check could not fail.
    """
    a, d = pres.generator_count, table.d
    if len(table.action) != a:
        raise ValueError("table has the wrong number of generator actions")
    rep, in_tree = _schreier_transversal(table)
    # letters of rep[c]^-1, None for a coset the transversal misses
    back = [None if w is None else tuple(map(neg, reversed(w))) for w in rep]

    # A subgroup generator for every non-tree edge (reached coset, positive letter).
    gen_at: dict[int, list[int]] = {i + 1: [0] * d for i in range(a)}
    gen_words: list[Word] = []
    for c in range(d):
        if rep[c] is None:
            continue
        head = rep[c]
        for i in range(a):
            if not in_tree[i][c]:
                gen_words.append(Word._from_reduced(head + (i + 1,) + back[table.action[i][c]]))
                gen_at[i + 1][c] = len(gen_words)
    for i in range(a):
        # x^-1 at c runs the edge of x from c.x^-1 backwards
        forward = gen_at[i + 1]
        gen_at[-i - 1] = [-forward[b] for b in table.inverse[i]]

    def rewrite(path: list[tuple[list[int], tuple[int, ...]]], start: int) -> Word:
        out: list[int] = []  # never cancels: see the docstring
        c = start
        for gens, perm in path:
            if g := gens[c]:
                out.append(g)
            c = perm[c]
        if c != start:
            raise ValueError("table is not closed under the relators")
        return Word._from_reduced(tuple(out))

    relators = []
    for r in pres.relators:
        path = [(gen_at[x], table.step(x)) for x in r.raw]
        relators.extend(rewrite(path, c) for c in range(d))
    if None in rep:
        raise ValueError("table is not transitive from the base coset")
    n_gens = len(gen_words)
    expected = rs_counts(a, pres.relator_count, d)
    assert (n_gens, len(relators)) == expected, "subgroup counts disagree with (a-1)d+1, bd"
    sub = FinitePresentation._unchecked(n_gens, tuple(relators))
    return SchreierData(sub, tuple(gen_words), tuple(map(Word._from_reduced, rep)))


# ---------------------------------------------------------------------------
# abelianization via Smith normal form


class AbelianInvariants(Record):
    """Free rank and torsion chain (each entry >= 2, dividing the next)."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Sequence[int] = ()):
        torsion = tuple(torsion)
        for t in torsion:
            if t < 2:
                raise ValueError("torsion entries are at least 2")
        for s, t in zip(torsion, torsion[1:]):
            if t % s:
                raise ValueError("torsion entries must form a divisibility chain")
        self._set(free_rank, torsion)


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns nonnegative d_1 | d_2 | ..., min(m, n) entries with the zeros
    last, computed exactly by the sparse elimination ``_sparse_smith``.
    Raises ValueError on a row whose length differs from the first row's,
    or on an entry that is not an integer value (``3.0`` is one, ``2.5``
    and ``Fraction(3, 2)`` are not).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    sparse = []
    for row in rows:
        if len(row) != n:
            raise ValueError(f"a row of length {len(row)} in a matrix with {n} columns")
        if any(v % 1 for v in row):  # nan for an infinite or nan entry
            raise ValueError("matrix entries must be integers")
        sparse.append({j: int(v) for j, v in enumerate(row) if v})
    units, chain = _sparse_smith(sparse)
    diag = [1] * units + chain
    return diag + [0] * (min(m, n) - len(diag))


def _exponent_rows(pres: FinitePresentation) -> list[dict[int, int]]:
    """Sparse exponent-sum rows ``{generator: exponent}``, one per distinct
    letter multiset of the relators, in order of first appearance.

    Relators with the same letters have the same row, so this drops only
    repeated rows.  Reidemeister-Schreier emits such repeats: its rewrites
    of a relator u^n at the cosets c, c.u, c.u^2, ... are rotations of one
    another before free reduction.
    """
    rows = []
    for letters in dict.fromkeys(tuple(sorted(r.raw)) for r in pres.relators):
        row: dict[int, int] = {}
        for x in letters:
            g = abs(x) - 1
            row[g] = row.get(g, 0) + (1 if x > 0 else -1)
        rows.append({g: v for g, v in row.items() if v})
    return rows


def _sparse_smith(rows: list[dict[int, int]]) -> tuple[int, list[int]]:
    """Smith diagonal of a sparse integer matrix, rows ``{column: entry}``.

    Returns the number of +-1 pivots, each a 1 on the diagonal, and the
    other nonzero diagonal entries as a chain d_1 | d_2 | ... (which may
    begin with 1s); the rest of the diagonal is 0.  The rows are consumed.

    A pivot p at (i, j) runs in two steps:

    - row operations with floor quotients reduce column j modulo p;
    - once column j is clear, column operations reduce row i modulo p, and
      they touch row i alone.

    When both are clear, |p| is a diagonal entry; a +-1 clears both at
    once.  Otherwise the changed rows go back on the heap, with a remainder
    smaller than |p| among them.  Pivots are chosen as in Havas-Holt-Rees,
    "Recognizing badly presented Z-modules" (1993).

    Plain passes over the rows first take every one-entry row {j: +-1}.
    Such a pivot is exact without the heap's order: its row operations
    subtract multiples of a row with no other entry, so they only delete
    column j from the other rows, and its row has nothing left for column
    operations.  So each column j with such a row counts one unit (a second
    row {j: +-1} is emptied by the first), column j is dropped from every
    row, empty rows go, and the passes repeat until one finds no such row,
    since a drop can leave a row with a single +-1.  A one-entry row that is
    not +-1 stays.  The heap runs on the rows left, keyed by (least |entry|
    of the row, row length, row index):

    - a row of one or two entries with a +-1 keys as (1, 1 or 2, i) and
      comes first.  Such a pivot substitutes one column for another, or
      deletes one, so it lengthens no row;
    - the key depends on its row alone, so every row a pivot changes is
      pushed again at once and no other key goes stale.  ``pushed[i]`` is
      the key row i was last pushed with, or None once the row is gone (so
      no spent key is kept alive).  A popped key that is not that very
      tuple, because the row is gone or has changed since, is skipped
      without recomputing the row's key.  So a key that is popped is the
      least over the live rows, p is the least entry of the matrix, each
      remainder makes the next pivot smaller, and the elimination ends;
    - within the row, the pivot is an entry of least |entry| in the
      shortest column.

    Rows are not deduplicated: a row equal to the pivot row is cleared at
    that pivot (quotient 1, remainder 0), and ``_exponent_rows`` already
    gives one row per letter multiset.

    One gcd/lcm pass over the non-unit entries folds them into the chain.
    """
    units = 0
    rows = [row for row in rows if row]
    while True:  # the one-entry +-1 rows, off the heap
        dead = {j for row in rows if len(row) == 1 for j, v in row.items() if v == 1 or v == -1}
        if not dead:
            break
        units += len(dead)
        kept = []
        for row in rows:
            for j in dead.intersection(row):
                del row[j]
            if row:
                kept.append(row)
        rows = kept

    live = dict(enumerate(rows))
    cols: dict[int, set[int]] = {}
    for i, row in live.items():
        for j in row:
            cols.setdefault(j, set()).add(i)

    def key(i: int) -> tuple[int, int, int]:
        row = live[i]
        values = row.values()
        least = 1 if 1 in values or -1 in values else min(map(abs, values))
        return least, len(row), i

    chain: list[int] = []
    pushed = [key(i) for i in live]  # the key each row was last pushed with
    heap = pushed.copy()
    heapq.heapify(heap)
    while heap:
        popped = heapq.heappop(heap)
        i = popped[2]
        if pushed[i] is not popped:  # emptied or changed since it was pushed
            continue
        pivot_row = live[i]
        least = popped[0]
        # the entry of absolute value least in the shortest column
        j = min((len(cols[l]), l) for l, v in pivot_row.items() if v == least or v == -least)[1]

        p = pivot_row.pop(j)
        column = cols.pop(j)
        column.discard(i)
        changed = []
        kept = [i]  # rows left with an entry in column j
        for k in column:
            row = live[k]
            q, r = divmod(row.pop(j), p)  # q != 0: no entry is smaller than p
            if r:
                row[j] = r
                kept.append(k)
            for l, v in pivot_row.items():
                w = row.get(l, 0) - q * v
                if w:
                    if l not in row:
                        cols[l].add(k)
                    row[l] = w
                else:
                    del row[l]
                    cols[l].discard(k)
            if row:
                changed.append(k)
            else:
                del live[k]
                pushed[k] = None
        if p == 1 or p == -1:
            # column operations clear row i and touch no other row
            for l in pivot_row:
                cols[l].discard(i)
            del live[i]
            pushed[i] = None
            units += 1
        else:
            if len(kept) == 1:
                # column j is clear, so column operations change row i alone
                for l, v in list(pivot_row.items()):
                    if v % p:
                        pivot_row[l] = v % p
                    else:
                        del pivot_row[l]
                        cols[l].discard(i)
            if len(kept) > 1 or pivot_row:
                pivot_row[j] = p
                cols[j] = set(kept)
                changed.append(i)
            else:
                del live[i]
                pushed[i] = None
                chain.append(abs(p))
        for k in changed:
            pushed[k] = key(k)
            heapq.heappush(heap, pushed[k])

    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = math.gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] // g * chain[b]
    return units, chain


def abelianization(pres: FinitePresentation) -> AbelianInvariants:
    """Invariants of the abelianized group, from the Smith normal form of
    the sparse exponent-sum matrix."""
    units, chain = _sparse_smith(_exponent_rows(pres))
    torsion = tuple(v for v in chain if v > 1)
    return AbelianInvariants(pres.generator_count - units - len(chain), torsion)

# ---------------------------------------------------------------------------
# JSON interface


def presentation_from_json(obj: dict) -> FinitePresentation:
    """Parse ``{"generators": [...], "relators": ["t s^2 t^-1 s^-2", ...]}``."""
    try:
        names = obj["generators"]
        relator_texts = obj.get("relators", [])
    except (KeyError, TypeError) as exc:
        raise PresentationFormatError(f"bad presentation object: {exc}") from exc
    if not isinstance(names, list) or not names or any(not isinstance(s, str) for s in names):
        raise PresentationFormatError("generators must be a nonempty list of names")
    for name in names:
        # parse_word splits a word at whitespace and each syllable at its first
        # '^', so only such names read back from format_word's output
        if name.split() != [name] or "^" in name:
            raise PresentationFormatError(f"generator name {name!r} is empty or has whitespace or '^'")
    if not isinstance(relator_texts, list) or any(not isinstance(s, str) for s in relator_texts):
        raise PresentationFormatError("relators must be a list of words")
    try:
        relators = tuple(parse_word(text, names) for text in relator_texts)
    except ValueError as exc:
        raise PresentationFormatError(str(exc)) from exc
    return FinitePresentation(len(names), relators, tuple(names))


def presentation_to_json(pres: FinitePresentation) -> dict:
    names = pres.names()
    return {
        "generators": list(names),
        "relators": [format_word(r, names) for r in pres.relators],
    }
