"""Baumslag-Solitar groups BS(m, n) = <s, t | t s^m t^-1 = s^n>.

Words reduce to a canonical pinch-free form: on top of removing the pinches
t s^(cm) t^-1 and t^-1 s^(cn) t, interior s-exponents are normalized into
{0..|m|-1} after t and {0..|n|-1} after t^-1 by pushing multiples to the
left.  Equality of group elements is then a syntactic comparison.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .verdict import Answer, Record, TraceEntry, Verdict
from .words import Word, format_word

S, T = 1, 2  # letter values for the two generators

CITE_Z2 = "BS(1,1) is free abelian of rank 2, so its centre is infinite."
CITE_KLEIN = (
    "BS(1,-1) is the Klein-bottle group; the square of the stable letter "
    "generates an infinite central subgroup."
)
CITE_WITNESS = (
    "For |m| = |n| >= 2 the kernel of s -> (c, 1), t -> (1, d) in C_m x C_2 "
    "has index 2|m| and is the direct product of the infinite cyclic group "
    "on s^m with a free group of rank 2|m| - 1."
)
CITE_FINITE_INDEX = (
    "Presentability by a product is invariant under passage to finite-index "
    "subgroups; a finite-index product of two infinite groups suffices."
)
CITE_SOLUBLE = (
    "BS(1,n) with |n| >= 2 embeds as a Zariski-dense subgroup of the affine "
    "group of the line, whose Lie algebra has no pair of commuting "
    "complementary ideals; Zariski-dense subgroups of such groups are not "
    "presentable by products."
)
CITE_POWERS = (
    "For 1 < |m| < |n| the group is a Powers group (de la Harpe-Preaux 2011), "
    "and Powers groups are not presentable by products."
)
CITE_MOLDAVANSKII = (
    "A deficiency-one group presentable by a product is infinite cyclic or "
    "virtually F_k x Z, hence has a normal infinite cyclic subgroup; by "
    "Moldavanskii's classification BS(m,n) has one only when |m| = |n|."
)
CITE_SYMMETRY = "BS(m,n) and BS(n,m) are isomorphic (exchange the stable letter's direction)."


class ZeroParameter(ValueError):
    """BS(m, n) requires both parameters nonzero."""


class BSGroup(Record):
    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if m == 0 or n == 0:
            raise ZeroParameter("BS(m, n) needs m != 0 and n != 0")
        self._set(m, n)

    def presentation(self) -> FinitePresentation:
        from .presentations import FinitePresentation

        relator = t_word(1) * s_word(self.m) * t_word(-1) * s_word(-self.n)
        return FinitePresentation(2, (relator,), ("s", "t"))


def s_word(k: int) -> Word:
    return Word([S] * k if k >= 0 else [-S] * (-k))


def t_word(k: int) -> Word:
    return Word([T] * k if k >= 0 else [-T] * (-k))


# ---------------------------------------------------------------------------
# Britton normal forms


class BrittonForm(Record):
    """s^k0 t^(e1) s^(k1) ... t^(el) s^(kl), pinch-free with normalized k_i."""

    __slots__ = ("group", "k0", "tail")

    def __init__(self, group: BSGroup, k0: int, tail: tuple[tuple[int, int], ...]):
        """``tail`` holds the pairs (epsilon, following s-exponent)."""
        m, n = group.m, group.n
        for idx, (eps, k) in enumerate(tail):
            if eps not in (1, -1):
                raise ValueError("epsilon must be +-1")
            bound = abs(m) if eps == 1 else abs(n)
            if not 0 <= k < bound:
                raise ValueError(f"exponent {k} out of range at position {idx}")
        for (e1, k1), (e2, _) in zip(tail, tail[1:]):
            if k1 == 0 and e1 == -e2:
                raise ValueError("form contains a pinch")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "tail", tail)

    @property
    def t_length(self) -> int:
        return len(self.tail)

    def is_identity(self) -> bool:
        return self.k0 == 0 and not self.tail

    def as_word(self) -> Word:
        letters: list[int] = list(s_word(self.k0).raw)
        for eps, k in self.tail:
            letters.append(T if eps == 1 else -T)
            letters.extend(s_word(k).raw)
        return Word(letters)

    def __repr__(self):
        return f"BrittonForm({format_word(self.as_word(), ('s', 't'))!r} in BS{(self.group.m, self.group.n)})"


def _britton_push(
    state: tuple[int, tuple[tuple[int, int], ...]], letters: Iterable[int], m: int, n: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Extend a pinch-free state by letters; returns the new state.

    A state (k0, ((eps, k), ...)) is s^k0 t^eps s^k ... with exponents left
    unnormalized and no pinch: no t s^k t^-1 with m | k, no t^-1 s^k t with
    n | k.  Appending a letter can only make a pinch at the right end, so each
    t-letter either cancels against the top syllable or is pushed, and one
    left-to-right stack pass reduces the letters.  The word is trivial iff the
    state is (0, ()).
    """
    k0, syllables = state
    stack = [(0, k0), *syllables]  # eps 0 marks the leading power of s
    eps, k = stack.pop()
    for letter in letters:
        if letter == S:
            k += 1
        elif letter == -S:
            k -= 1
        else:
            e = 1 if letter == T else -1
            if eps == -e:
                inner, outer = (m, n) if eps == 1 else (n, m)
                if k % inner == 0:
                    # t^eps s^(c inner) t^-eps = s^(c outer) merges into the syllable below
                    carry = k // inner * outer
                    eps, k = stack.pop()
                    k += carry
                    continue
            stack.append((eps, k))
            eps, k = e, 0
    stack.append((eps, k))
    return stack[0][1], tuple(stack[1:])


def _normalize_pass(state: tuple[int, tuple], m: int, n: int) -> tuple[int, tuple]:
    """The normal form (k0, tail) of a pinch-free state from ``_britton_push``."""
    k0, syllables = state
    tail = list(syllables)
    # push multiples of the associated subgroup's exponent to the left; where
    # syllables i-1 and i could pinch, outer is i-1's modulus, so none appears
    for i in range(len(tail) - 1, -1, -1):
        eps, k = tail[i]
        inner, outer = (m, n) if eps == 1 else (n, m)
        rho = k % abs(inner)
        if rho != k:
            q = (k - rho) // inner
            tail[i] = (eps, rho)
            if i == 0:
                k0 += q * outer
            else:
                tail[i - 1] = (tail[i - 1][0], tail[i - 1][1] + q * outer)
    return k0, tuple(tail)


def britton_reduce(group: BSGroup, word: Word) -> BrittonForm:
    """Canonical pinch-free form of a word; equal elements compare equal."""
    m, n = group.m, group.n
    k0, tail = _normalize_pass(_britton_push((0, ()), word.raw, m, n), m, n)
    return BrittonForm(group, k0, tail)


# ---------------------------------------------------------------------------
# the finite quotient C_m x C_2 and its kernel


def _cycle(k: int) -> tuple[int, ...]:
    return tuple((i + 1) % k for i in range(k))


def _embed(perm: Sequence[int], offset: int, degree: int) -> tuple[int, ...]:
    out = list(range(degree))
    for i, j in enumerate(perm):
        out[offset + i] = offset + j
    return tuple(out)


def cm_x_c2_images(m: int) -> list[tuple[int, ...]]:
    """Permutation images of s and t for the quotient C_m x C_2."""
    degree = m + 2
    return [_embed(_cycle(m), 0, degree), _embed((1, 0), m, degree)]


class SubgroupWitness(Record):
    """Generating data for the index-2|m| subgroup Z x F_(2|m|-1).

    T lists the free basis s^i t s^-i of the intermediate free group; the
    even-length words in T span the free factor, and s^m spans the cyclic
    one.  pi records the finite quotient whose kernel this is.
    """

    __slots__ = ("m", "eta", "zs_generator", "T", "fII_basis")

    def __init__(self, m: int, eta: int, zs_generator: Word, T: tuple[Word, ...],
                 fII_basis: tuple[Word, ...]):
        self._set(m, eta, zs_generator, T, fII_basis)

    def pi_description(self) -> dict:
        return {"target": f"C{self.m} x C2", "s": "(c, 1)", "t": "(1, d)"}

    def to_json(self) -> dict:
        names = ("s", "t")
        return {
            "index": 2 * self.m,
            "zs_generator": format_word(self.zs_generator, names),
            "T": [format_word(w, names) for w in self.T],
            "fII_basis": [format_word(w, names) for w in self.fII_basis],
            "pi": self.pi_description(),
        }


def witness_subgroup(m: int, eta: int) -> SubgroupWitness:
    """The explicit Z x F_(2m-1) inside BS(m, eta*m), m >= 2."""
    if m < 2:
        raise ValueError("the witness subgroup needs m >= 2")
    if eta not in (1, -1):
        raise ValueError("eta must be +1 or -1")
    conj = [s_word(i) * t_word(1) * s_word(-i) for i in range(m)]
    # the even-length words in the free group on T_0..T_(m-1) are its index-2
    # subgroup; with the Schreier transversal {1, T_0}, its free basis is
    # T_i T_0^-1 for i = 1..m-1, then T_0 T_i for i = 0..m-1
    basis = tuple(t * ~conj[0] for t in conj[1:]) + tuple(conj[0] * t for t in conj)
    return SubgroupWitness(m, eta, s_word(m), tuple(conj), basis)


def _shortest_relation(group: BSGroup, conjugates: Sequence[Word], length_bound: int) -> int | None:
    """Length of the shortest freely reduced word of length 1 to
    ``length_bound`` in the conjugates that is trivial in the group; else None.

    Meet in the middle (Horowitz and Sahni, J. ACM 21, 1974).  A freely
    reduced word of length l is trivial iff it splits as u v with |u| =
    ceil(l/2) and u = v^-1 in the group, that is, by Britton's lemma, iff u
    and v^-1 have one normal form (Lyndon and Schupp, Combinatorial Group
    Theory, 1977, ch. IV).  u and v^-1 are freely reduced words of lengths
    ceil(l/2) and floor(l/2), and u v is freely reduced iff they end in
    different letters; the empty word has the identity form and no last
    letter.  So the search builds the words level by level up to ceil(L/2),
    each from its parent's form by one Britton push of its last letter's
    image, keeps per form of a level its last letter or ``several``, and
    scans l = 1..L for the first pair of levels ceil(l/2), floor(l/2) that
    share a form under different last letters.  It holds the forms of two
    levels at a time and drops the Britton states once the forms are taken.
    """
    m, n = group.m, group.n
    images: dict[int, tuple[int, ...]] = {}
    for i, word in enumerate(conjugates, 1):
        images[i], images[-i] = word.raw, (~word).raw
    letters = [*range(1, len(conjugates) + 1), *range(-1, -len(conjugates) - 1, -1)]
    several = None  # a form reached under two different last letters
    below: dict = {(0, ()): 0}  # forms of the level below -> last letter; 0 for the empty word
    frontier: list = [((0, ()), 0)]  # (form, last letter) of the words the next level extends
    top = (length_bound + 1) // 2
    for level in range(1, top + 1):
        even = 2 * level <= length_bound  # else only l = 2 level - 1 is in range
        forms: dict = {}
        children: list = []
        for parent, last in frontier:
            for x in letters:
                if x == -last:
                    continue
                form = _normalize_pass(_britton_push(parent, images[x], m, n), m, n)
                # a form absent below reads as x itself: no match
                if below.get(form, x) != x:
                    return 2 * level - 1
                if even and forms.setdefault(form, x) != x:
                    forms[form] = several
                if level < top:
                    children.append((form, x))
        if several in forms.values():
            return 2 * level
        below, frontier = forms, children
    return None


class WitnessReport(Record):
    __slots__ = ("passed", "index", "abelian", "failures")

    def __init__(self, passed: bool, index: int, abelian: AbelianInvariants,
                 failures: tuple[str, ...]):
        self._set(passed, index, abelian, failures)


def verify_witness(group: BSGroup, witness: SubgroupWitness, length_bound: int = 6) -> WitnessReport:
    """Machine-check the witness: commutation, kernel membership, index,
    bounded freeness of the conjugate basis, and the kernel's abelianization.

    The coset table of pi gives kernel membership, ``table.act_word(0, w)
    == 0`` (coset 0 is the identity of C_m x C_2), the index and the
    kernel's Reidemeister-Schreier presentation.

    The freeness check looks for a freely reduced word of length 1 to
    ``length_bound`` = L in the m conjugates that is trivial in the group,
    and a failure names the shortest one's length.  It meets in the middle
    (``_shortest_relation``): it reduces only the words of length up to
    ceil(L/2), sum_{k=1..ceil(L/2)} 2m (2m-1)^(k-1) of them, at one Britton
    stack step over one conjugate each, and matches their normal forms
    instead of reducing all sum_{k=1..L} 2m (2m-1)^(k-1) words.  The price
    is memory: up to 2m (2m-1)^(ceil(L/2)-1) stored normal forms, 810,000
    for BS(8, 8) at L = 10 (374 MB peak RSS on Python 3.11).
    """
    from .presentations import (
        AbelianInvariants,
        abelianization,
        coset_enumerate,
        reidemeister_schreier_data,
    )

    if abs(group.m) != abs(group.n) or abs(group.m) < 2:
        raise ValueError("witness checks apply to BS(m, +-m) with |m| >= 2")
    if length_bound < 1:
        raise ValueError(f"the length bound must be at least 1, got {length_bound}")
    if witness.m != abs(group.m):
        raise ValueError(f"the witness is for |m| = {witness.m}, the group has |m| = {abs(group.m)}")
    m = witness.m
    names = ("s", "t")
    failures: list[str] = []

    for w in witness.fII_basis:
        comm = witness.zs_generator * w * ~witness.zs_generator * ~w
        if not britton_reduce(group, comm).is_identity():
            failures.append(f"[s^{m}, {format_word(w, names)}] != 1")

    pres = group.presentation()
    table = coset_enumerate(pres, cm_x_c2_images(m))
    for w in (witness.zs_generator,) + witness.fII_basis:
        if table.act_word(0, w) != 0:
            failures.append(f"{format_word(w, names)} is not in ker(pi)")
    if table.d != 2 * m:
        failures.append(f"kernel index is {table.d}, expected {2 * m}")

    length = _shortest_relation(group, witness.T, length_bound)
    if length is not None:
        failures.append(f"nontrivial relation of length {length} among the conjugates")

    sub = reidemeister_schreier_data(pres, table).presentation
    invariants = abelianization(sub)
    if invariants != AbelianInvariants(2 * m):
        failures.append(f"kernel abelianization is {invariants}, expected free of rank {2 * m}")

    return WitnessReport(not failures, table.d, invariants, tuple(failures))


# ---------------------------------------------------------------------------
# the verdict


def bs_presentable(m: int, n: int) -> Verdict:
    """Presentability of BS(m, n): YES iff |m| = |n|, with witnesses."""
    if m == 0 or n == 0:
        raise ZeroParameter("BS(m, n) needs m != 0 and n != 0")
    trace_prefix: list[TraceEntry] = []
    if abs(m) > abs(n):
        trace_prefix.append(TraceEntry("bs/symmetry", CITE_SYMMETRY))
        m, n = n, m

    if abs(m) == abs(n) == 1:
        if n == m:  # BS(1,1) = Z^2 after sign normalization
            cert = {"kind": "infinite-centre", "generator": "s"}
            cite = TraceEntry("bs/abelian", CITE_Z2)
        else:
            cert = {"kind": "infinite-centre", "generator": "t^2"}
            cite = TraceEntry("bs/klein-bottle", CITE_KLEIN)
        return Verdict(Answer.YES, certificate=cert, trace=tuple(trace_prefix) + (cite,))

    if abs(m) == abs(n):
        big = abs(m)
        eta = 1 if m * n > 0 else -1
        witness = witness_subgroup(big, eta)
        return Verdict(
            Answer.YES,
            certificate={"kind": "finite-index-direct-product", **witness.to_json()},
            trace=tuple(trace_prefix)
            + (
                TraceEntry("bs/equal-moduli", CITE_WITNESS),
                TraceEntry("finite-index", CITE_FINITE_INDEX),
            ),
        )

    route = TraceEntry("bs/soluble", CITE_SOLUBLE) if abs(m) == 1 else TraceEntry("bs/powers", CITE_POWERS)
    return Verdict(
        Answer.NO,
        trace=tuple(trace_prefix)
        + (route, TraceEntry("bs/deficiency", CITE_MOLDAVANSKII)),
    )
