"""Finite presentations, coset tables, subgroup rewriting, abelianization.

The coset machinery is deliberately narrow: every subgroup we ever need is
the kernel of a map onto an explicitly given finite permutation group, so
tables are built from the permutation action instead of a general
Todd-Coxeter search.  This always terminates on valid input.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .words import Word, format_word, parse_word

DEFAULT_COSET_CAP = 10**6


class RelatorNotKilled(Exception):
    """A relator maps to a nontrivial element of the target group."""


class BoundExceeded(Exception):
    """Enumeration grew past the configured coset cap."""


class PresentationFormatError(ValueError):
    """Malformed JSON input for a presentation."""


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class FinitePresentation:
    """Generators 0..generator_count-1 and a list of relator words.

    Relators are freely reduced on ingestion; their order is preserved.
    """

    generator_count: int
    relators: tuple[Word, ...] = ()
    generator_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.generator_count < 1:
            raise ValueError("presentation needs at least one generator")
        object.__setattr__(self, "relators", tuple(self.relators))
        for r in self.relators:
            if not isinstance(r, Word):
                raise TypeError("relators must be Word instances")
            if r.max_generator() >= self.generator_count:
                raise ValueError(f"relator {r!r} uses an undeclared generator")
        if self.generator_names is not None:
            names = tuple(self.generator_names)
            if len(names) != self.generator_count or len(set(names)) != len(names):
                raise ValueError("generator names must be distinct, one per generator")
            object.__setattr__(self, "generator_names", names)

    @property
    def relator_count(self) -> int:
        return len(self.relators)

    def names(self) -> tuple[str, ...]:
        if self.generator_names is not None:
            return self.generator_names
        return tuple(f"x{i}" for i in range(self.generator_count))


def deficiency_count(pres: FinitePresentation) -> int:
    """Generators minus relators for this particular presentation.

    This is a lower bound for the deficiency of the presented group, which
    is defined as the maximum of this count over all of its presentations.
    """
    return pres.generator_count - pres.relator_count


def rs_counts(a: int, b: int, d: int) -> tuple[int, int]:
    """Generator/relator counts of an index-``d`` subgroup presentation.

    A presentation with ``a`` generators and ``b`` relators rewrites to one
    with ``(a-1)d + 1`` generators and ``b*d`` relators.
    """
    if a < 1 or b < 0 or d < 1:
        raise ValueError("need a >= 1, b >= 0, d >= 1")
    return (a - 1) * d + 1, b * d


def kunneth_bound(k: int, l: int) -> int:
    """First minus second Betti number of a product of free groups F_k x F_l."""
    return k + l - k * l


# ---------------------------------------------------------------------------
# permutations (tuples mapping i -> p[i]; composition applies left then right)


def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def perm_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    return tuple(q[p[i]] for i in range(len(p)))


def perm_inv(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def is_permutation(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def word_image(w: Word, images: Sequence[tuple[int, ...]], degree: int) -> tuple[int, ...]:
    out = perm_identity(degree)
    for x in w.raw:
        g = images[abs(x) - 1]
        out = perm_mul(out, g if x > 0 else perm_inv(g))
    return out


# ---------------------------------------------------------------------------
# coset tables


@dataclass(frozen=True)
class CosetTable:
    """Right action of the generators on cosets 0..d-1, base coset 0.

    ``inverse[i]`` is the inverse of ``action[i]``, computed once.
    """

    d: int
    action: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "action", tuple(tuple(p) for p in self.action))
        for p in self.action:
            if len(p) != self.d or not is_permutation(p):
                raise ValueError("each generator must act as a permutation of the cosets")
        object.__setattr__(self, "inverse", tuple(perm_inv(p) for p in self.action))

    def act(self, coset: int, letter: int) -> int:
        """Apply one signed letter to a coset."""
        if letter > 0:
            return self.action[letter - 1][coset]
        return self.inverse[-letter - 1][coset]

    def act_word(self, coset: int, w: Word) -> int:
        for x in w.raw:
            coset = self.act(coset, x)
        return coset

    def is_closed(self, pres: FinitePresentation) -> bool:
        """Every relator fixes every coset."""
        return all(
            self.act_word(c, r) == c for r in pres.relators for c in range(self.d)
        )

    def is_transitive(self) -> bool:
        seen = {0}
        queue = [0]
        while queue:
            c = queue.pop()
            for p, q in zip(self.action, self.inverse):
                for nxt in (p[c], q[c]):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
        return len(seen) == self.d

    def check(self, pres: FinitePresentation) -> None:
        if len(self.action) != pres.generator_count:
            raise ValueError("table has the wrong number of generator actions")
        if not self.is_closed(pres):
            raise ValueError("table is not closed under the relators")
        if not self.is_transitive():
            raise ValueError("table is not transitive from the base coset")


def coset_enumerate(
    pres: FinitePresentation,
    images: Sequence[Sequence[int]],
    coset_cap: int = DEFAULT_COSET_CAP,
) -> CosetTable:
    """Coset table of ker(generator i -> images[i]) in the presented group.

    ``images`` are permutations of a common degree; the coset count equals
    the order of the subgroup they generate.  Raises RelatorNotKilled if the
    map is not a homomorphism of the presentation, BoundExceeded past the cap.
    """
    if len(images) != pres.generator_count:
        raise ValueError("one permutation image per generator is required")
    imgs = [tuple(p) for p in images]
    if not imgs:
        raise ValueError("empty image list")
    degree = len(imgs[0])
    for p in imgs:
        if len(p) != degree or not is_permutation(p):
            raise ValueError(f"image {p!r} is not a permutation of degree {degree}")

    identity = perm_identity(degree)
    for r in pres.relators:
        if word_image(r, imgs, degree) != identity:
            raise RelatorNotKilled(f"relator {format_word(r, pres.names())!r} survives in the image")

    # Cosets of the kernel biject with elements of the image subgroup; the
    # generator action is right multiplication.
    elements: dict[tuple[int, ...], int] = {identity: 0}
    order: list[tuple[int, ...]] = [identity]
    queue = deque([identity])
    while queue:
        e = queue.popleft()
        for p in imgs:
            f = perm_mul(e, p)
            if f not in elements:
                if len(elements) >= coset_cap:
                    raise BoundExceeded(f"more than {coset_cap} cosets")
                elements[f] = len(order)
                order.append(f)
                queue.append(f)

    d = len(order)
    action = tuple(
        tuple(elements[perm_mul(e, p)] for e in order) for p in imgs
    )
    table = CosetTable(d, action)
    table.check(pres)
    return table


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


@dataclass(frozen=True)
class SchreierData:
    """Subgroup presentation together with the words realizing it.

    ``generator_words[k]`` is the k-th subgroup generator as a word in the
    parent generators; ``transversal[c]`` is the chosen representative of
    coset ``c``.
    """

    presentation: FinitePresentation
    generator_words: tuple[Word, ...]
    transversal: tuple[Word, ...]


def _schreier_transversal(pres: FinitePresentation, table: CosetTable):
    # Breadth-first search from the base coset, letters tried in the fixed
    # order g0, g0^-1, g1, g1^-1, ...  This yields the lexicographically
    # least shortest representative of every coset (by induction on BFS
    # level: parents are dequeued in lex order and letters in alphabet order).
    a = pres.generator_count
    letter_order = [s * (i + 1) for i in range(a) for s in (1, -1)]
    rep: list[Word | None] = [None] * table.d
    rep[0] = Word()
    tree: set[tuple[int, int]] = set()  # (coset, letter) edges used by the BFS
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for letter in letter_order:
            nxt = table.act(c, letter)
            if rep[nxt] is None:
                rep[nxt] = rep[c] * Word((letter,))
                tree.add((c, letter))
                queue.append(nxt)
    assert all(r is not None for r in rep), "table must be transitive"
    return rep, tree


def reidemeister_schreier_data(
    pres: FinitePresentation, table: CosetTable
) -> SchreierData:
    """Rewrite ``pres`` to a presentation of the subgroup given by ``table``."""
    table.check(pres)
    a, d = pres.generator_count, table.d
    rep, tree = _schreier_transversal(pres, table)

    # A subgroup generator for every non-tree edge (coset, positive letter).
    gen_index: dict[tuple[int, int], int] = {}
    gen_words: list[Word] = []
    for c in range(d):
        for i in range(a):
            letter = i + 1
            nxt = table.act(c, letter)
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
                c = table.act(c, x)
            else:
                c = table.act(c, x)
                key = (c, -x - 1)
                if key in gen_index:
                    out.append(-(gen_index[key] + 1))
        return Word(out)

    relators = tuple(rewrite(r, c) for r in pres.relators for c in range(d))
    n_gens = len(gen_words)
    expected = rs_counts(a, pres.relator_count, d)
    assert (n_gens, len(relators)) == expected, "subgroup counts disagree with (a-1)d+1, bd"
    sub = FinitePresentation(n_gens, relators)
    return SchreierData(sub, tuple(gen_words), tuple(rep))


def reidemeister_schreier(
    pres: FinitePresentation, table: CosetTable
) -> FinitePresentation:
    """Presentation of the subgroup realized by a closed coset table."""
    return reidemeister_schreier_data(pres, table).presentation


# ---------------------------------------------------------------------------
# abelianization via Smith normal form


@dataclass(frozen=True)
class AbelianInvariants:
    """Free rank and torsion chain (each entry >= 2, dividing the next)."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion entries are at least 2")
        for s, t in zip(self.torsion, self.torsion[1:]):
            if t % s:
                raise ValueError("torsion entries must form a divisibility chain")


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns nonnegative d_1 | d_2 | ... (zeros included), computed with
    exact arbitrary-precision arithmetic.
    """
    a = [list(map(int, row)) for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        # find a pivot of least absolute value in the remaining block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        # clear row and column t; swapping in smaller remainders until done
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // p
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
                        break
            if not dirty:
                break
        # enforce divisibility of everything below-right by the pivot
        p = a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, n):
                a[t][j] += a[offender][j]
            continue
        diag.append(abs(p))
        t += 1
    while len(diag) < min(m, n):
        diag.append(0)
    return diag


def _exponent_rows(pres: FinitePresentation) -> list[dict[int, int]]:
    """Sparse exponent-sum rows ``{generator: exponent}``, one per relator."""
    rows = []
    for r in pres.relators:
        row: dict[int, int] = {}
        for x in r.raw:
            g = abs(x) - 1
            row[g] = row.get(g, 0) + (1 if x > 0 else -1)
        rows.append({g: v for g, v in row.items() if v})
    return rows


def exponent_matrix(pres: FinitePresentation) -> list[list[int]]:
    """Relator-by-generator matrix of exponent sums."""
    out = []
    for row in _exponent_rows(pres):
        dense = [0] * pres.generator_count
        for g, v in row.items():
            dense[g] = v
        out.append(dense)
    return out


def _eliminate_unit_pivots(rows: list[dict[int, int]]) -> tuple[int, list[list[int]]]:
    """Eliminate the +-1 pivots of a sparse integer matrix, in place.

    Returns the number of pivots taken, each a 1 on the Smith diagonal, and
    the dense remainder, whose Smith diagonal supplies the rest.  Repeated
    rows are dropped first: Reidemeister-Schreier rewrites a relator at every
    coset on its cycle to the same exponent row.

    A pivot at (i, j) clears column j by row operations; column operations
    then clear row i without touching any other row, so row i and column j
    drop out.  Pivots go in Markowitz order, least (row nnz - 1) * (column nnz - 1)
    first, which keeps fill-in low (Havas-Holt-Rees, "Recognizing badly
    presented Z-modules", 1993).  The heap holds each candidate with its cost
    when pushed; a candidate whose cost has grown since is pushed back.
    """
    distinct = {frozenset(row.items()): row for row in rows if row}
    live = dict(enumerate(distinct.values()))
    cols: dict[int, set[int]] = {}
    for i, row in live.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap: list[tuple[int, int, int]] = []

    def push(i: int) -> None:
        row = live[i]
        for j, v in row.items():
            if v == 1 or v == -1:
                heapq.heappush(heap, ((len(row) - 1) * (len(cols[j]) - 1), i, j))

    for i in live:
        push(i)
    pivots = 0
    while heap:
        cost, i, j = heapq.heappop(heap)
        pivot_row = live.get(i)
        if pivot_row is None or pivot_row.get(j) not in (1, -1):
            continue
        now = (len(pivot_row) - 1) * (len(cols[j]) - 1)
        if now > cost:
            heapq.heappush(heap, (now, i, j))
            continue
        p = pivot_row.pop(j)
        del live[i]
        for l in pivot_row:
            cols[l].discard(i)
        others = cols.pop(j)
        others.discard(i)
        for k in others:
            row = live[k]
            f = row.pop(j) * p  # p is its own inverse
            for l, v in pivot_row.items():
                w = row.get(l, 0) - f * v
                if w:
                    if l not in row:
                        cols[l].add(k)
                    row[l] = w
                else:
                    del row[l]
                    cols[l].discard(k)
            if row:
                push(k)
            else:
                del live[k]
        pivots += 1

    used = sorted({j for row in live.values() for j in row})
    return pivots, [[row.get(j, 0) for j in used] for row in live.values()]


def abelianization(pres: FinitePresentation) -> AbelianInvariants:
    """Invariants of the abelianized group, via Smith normal form.

    Unit pivots of the sparse exponent-sum matrix are eliminated first, and
    only what remains goes to the dense ``smith_normal_form``.
    """
    units, rest = _eliminate_unit_pivots(_exponent_rows(pres))
    diag = smith_normal_form(rest) if rest else []
    rank = units + sum(1 for v in diag if v)
    torsion = tuple(v for v in diag if v > 1)
    return AbelianInvariants(pres.generator_count - rank, torsion)


# ---------------------------------------------------------------------------
# JSON interface


def presentation_from_json(obj: dict) -> FinitePresentation:
    """Parse ``{"generators": [...], "relators": ["t s^2 t^-1 s^-2", ...]}``."""
    try:
        names = list(obj["generators"])
        relator_texts = list(obj.get("relators", []))
    except (KeyError, TypeError) as exc:
        raise PresentationFormatError(f"bad presentation object: {exc}") from exc
    if not names or any(not isinstance(s, str) for s in names):
        raise PresentationFormatError("generators must be a nonempty list of names")
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
