"""Inputs of the three library workloads, built from a seed.

Each input is a ``Case``: a zero-argument call into pbp, the check that
compares its summary with an answer from ``reference``, and whether it is a
frontier input (slow or refused at the time the benchmark was written, kept
so that a fix shows up in ``failed_share``).

Calls look pbp functions up through their modules at call time, so that the
traced run sees them after ``tracer.install`` has replaced them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pbp
import reference as ref

INF = ref.INF


@dataclass
class Case:
    name: str
    run: Callable[[], tuple]  # -> (answer, detail); answer is a verdict or "DONE"
    check: Callable[[str, object], "str | None"]
    frontier: bool = False


# Per-input limits in seconds.  Each is more than twice the slowest
# non-frontier input and less than half of the fastest frontier timeout,
# measured at the commit that introduced the benchmark.
LIMITS = {"coxeter-sweep": 1.5, "group-kernels": 2.5, "lie-abels": 2.5}


# ---------------------------------------------------------------------------
# coxeter-sweep


STANDARD = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + ["I2(5)", "I2(8)", "I2(12)"] + ["A~1", "A~2", "C~2", "G~2", "F~4", "E~8"]
)
# Triangles whose fields have index 60 to 168: they set the p80 and p90.
HIGH_DEGREE = [(6, 8, 9), (3, 8, 11), (3, 7, 11), (7, 9, 9), (6, 9, 10), (2, 8, 11), (7, 7, 9),
               (9, 9, 10), (2, 11, 12), (4, 6, 7), (3, 9, 11), (5, 9, 10), (2, 7, 11), (5, 6, 9),
               (6, 7, 9), (6, 8, 10), (9, 9, 11), (5, 8, 12), (7, 7, 11), (5, 6, 8), (4, 8, 11),
               (6, 7, 8), (4, 5, 6), (5, 5, 12), (6, 11, 11), (9, 10, 10), (3, 10, 11), (7, 12, 12),
               (5, 7, 10), (8, 9, 12), (6, 7, 12), (7, 10, 10), (3, 11, 12), (2, 10, 11)]
COXETER_FRONTIER = [(5, 7, 8), (8, 9, 11), (7, 11, 13), (2, 101, 103)]
# Classes of the seeded draw: a rank and a label palette in which every
# label >= 4 appears, so each class has a fixed field; two labels >= 4 only
# up to rank 4, which keeps every draw cheaper than the triangles above.  The
# diagrams are connected, so the whole rank is one form.
PALETTES = [(2, 3, INF), (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 3, 4, 6), (2, 3, 4, 5)]
RANDOM_CLASSES = [(rank, p) for rank in range(3, 8) for p in PALETTES if len(p) == 3 or rank <= 4]
RANDOM_PER_CLASS = 2
INFINITE_BLOCKS = ["A~1", "A~2", "C~2", "G~2", "F~4", (2, 3, 7), (3, 3, 4), (2, 4, 5)]
# Fixed pairs of infinite components, every other one with a finite third
# component; the seed relabels the vertices.
BLOCK_PAIRS = [(a, b) for i, a in enumerate(INFINITE_BLOCKS) for b in INFINITE_BLOCKS[i + 1:]][::2]
FINITE_BLOCKS = ["A2", "B3", "H3", "I2(5)"]
SHAPES = ("path-end", "path-mid", "cycle", "tree")


def _triangle(l, m, n):
    return [[1, l, m], [l, 1, n], [m, n, 1]]


def _rows_of(block):
    if isinstance(block, tuple):
        return _triangle(*block)
    return [list(r) for r in pbp.coxeter.standard_diagram(block).entries]


def random_rows(rng, rank, palette):
    """A connected diagram: a random spanning tree of labels >= 3, then the rest."""
    rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    weights = [3 if v == 2 else 2 if v == 3 else 1 for v in palette]
    for i, j in pairs:
        rows[i][j] = rows[j][i] = rng.choices(palette, weights)[0]
    order = rng.sample(range(rank), rank)
    tree = [(order[rng.randrange(k)], order[k]) for k in range(1, rank)]
    for i, j in tree:
        if rows[i][j] == 2:
            rows[i][j] = rows[j][i] = 3
    forced = [v for v in palette if v != INF and v >= 4]
    for v, (i, j) in zip(forced, rng.sample(tree, len(forced))):
        rows[i][j] = rows[j][i] = v
    return rows


def _shape_rows(rank, shape, label):
    """Low-degree diagrams around the median: a path, a cycle or a tree, one big label."""
    if shape == "cycle":
        edges = [(i, (i + 1) % rank) for i in range(rank)]
    elif shape == "tree":
        edges = [(0, 1), (1, 2)] + [(1, i) for i in range(3, rank)]
    else:
        edges = [(i, i + 1) for i in range(rank - 1)]
    rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = 3
    i, j = edges[0] if shape == "path-end" else edges[len(edges) // 2]
    rows[i][j] = rows[j][i] = label
    return rows


def _block_rows(rng, k, pair):
    blocks = list(pair) + ([FINITE_BLOCKS[k % len(FINITE_BLOCKS)]] if k % 2 else [])
    parts = [_rows_of(b) for b in blocks]
    n = sum(len(p) for p in parts)
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    at = 0
    for p in parts:
        for i, row in enumerate(p):
            for j, v in enumerate(row):
                rows[at + i][at + j] = v
        at += len(p)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _coxeter_case(name, rows, frontier=False):
    matrix = pbp.coxeter.CoxeterMatrix(tuple(tuple(r) for r in rows))

    def run():
        report = pbp.coxeter.coxeter_report(matrix)
        return report["answer"], report

    return Case(name, run, lambda answer, report: ref.check_coxeter(rows, report), frontier)


def coxeter_sweep(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = [_coxeter_case(f"std.{n}", _rows_of(n)) for n in STANDARD]
    cases += [_coxeter_case(f"tri.{l}-{m}-{n}", _triangle(l, m, n)) for l, m, n in HIGH_DEGREE]
    for k, (rank, palette) in enumerate(RANDOM_CLASSES * RANDOM_PER_CLASS):
        cases.append(_coxeter_case(f"random.{k}", random_rows(rng, rank, palette)))
    cases += [_coxeter_case(f"blocks.{k}", _block_rows(rng, k, pair)) for k, pair in enumerate(BLOCK_PAIRS)]
    cases += [_coxeter_case(f"shape.{shape}.{rank}.{label}", _shape_rows(rank, shape, label))
              for rank in (5, 6) for shape in SHAPES for label in (4, 5, 6)]
    cases += [_coxeter_case(f"frontier.tri.{l}-{m}-{n}", _triangle(l, m, n), True)
              for l, m, n in COXETER_FRONTIER]
    return cases


# ---------------------------------------------------------------------------
# group-kernels


def _word(letters):
    return pbp.words.Word(letters)


def _kernel_summary(pres, images):
    table = pbp.presentations.coset_enumerate(pres, images)
    data = pbp.presentations.reidemeister_schreier_data(pres, table)
    inv = pbp.presentations.abelianization(data.presentation)
    sub = data.presentation
    return table.d, sub.generator_count, sub.relator_count, inv.free_rank, tuple(inv.torsion)


def _kernel_case(name, pres, images, free_rank, frontier=False):
    def run():
        return "DONE", _kernel_summary(pres, images)

    def check(answer, result):
        return ref.check_kernel(images, pres.generator_count, pres.relator_count, free_rank, result)

    return Case(name, run, check, frontier)


def _is_even(p) -> bool:
    seen, transpositions = set(), 0
    for i in range(len(p)):
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j, length = p[j], length + 1
        transpositions += max(0, length - 1)
    return transpositions % 2 == 0


def triangle_map(rng, degree, alternating):
    """Random generators a, b of S_degree (or A_degree) with orders >= 2."""
    target = math.factorial(degree) // (2 if alternating else 1)
    while True:
        a, b = (tuple(rng.sample(range(degree), degree)) for _ in range(2))
        if alternating and not (_is_even(a) and _is_even(b)):
            continue
        orders = (ref.perm_order(a), ref.perm_order(b), ref.perm_order(ref.perm_compose(a, b)))
        if min(orders) >= 2 and ref.group_order([a, b]) == target:
            return a, b, orders, target


def _triangle_case(name, a, b, orders, d, frontier=False):
    l, m, n = orders
    pres = pbp.presentations.FinitePresentation(
        2, (_word([1] * l), _word([2] * m), _word([1, 2] * n)), ("a", "b"))
    return _kernel_case(name, pres, [a, b], 2 * ref.triangle_genus(l, m, n, d), frontier)


A2_RELATORS = ["a^2", "b^2", "c^2", "a b a b a b", "b c b c b c", "a c a c a c"]


def affine_a2_images(k, rotation):
    """A~2 onto (Z/k)^2 x| S3: its reflections acting on the coroot lattice mod k."""
    pts = [(x, y) for x in range(k) for y in range(k)]
    at = {p: i for i, p in enumerate(pts)}
    reflections = [
        tuple(at[((1 - y) % k, (1 - x) % k)] for x, y in pts),  # the affine reflection
        tuple(at[((y - x) % k, y)] for x, y in pts),
        tuple(at[(x, (x - y) % k)] for x, y in pts),
    ]
    return reflections[rotation:] + reflections[:rotation]


def _affine_a2_case(name, k, rotation, frontier=False):
    names = ("a", "b", "c")
    rels = tuple(pbp.words.parse_word(r, names) for r in A2_RELATORS)
    pres = pbp.presentations.FinitePresentation(3, rels, names)
    return _kernel_case(name, pres, affine_a2_images(k, rotation), 2, frontier)


BS_LENGTH_BOUND = {2: 6, 3: 6, 4: 4, 5: 4}


def _bs_case(m, eta):
    def run():
        verdict = pbp.bs.bs_presentable(m, eta * m)
        group = pbp.bs.BSGroup(m, eta * m)
        report = pbp.bs.verify_witness(group, pbp.bs.witness_subgroup(m, eta), BS_LENGTH_BOUND[m])
        inv = report.abelian
        return verdict.answer.value, (report.passed, report.index, inv.free_rank, tuple(inv.torsion))

    def check(answer, detail):
        if answer != "YES":
            return f"BS({m},{eta * m}) answer {answer} != YES"
        if detail != (True, 2 * m, 2 * m, ()):
            return f"witness report {detail} != passed, index {2 * m}, Z^{2 * m}"
        return None

    return Case(f"bs.witness.{m}.{eta:+d}", run, check)


def _pinch_free(rng, m, n, t_length):
    """s^k0 t^e1 s^k1 ... with no t s^(jm) t^-1 or t^-1 s^(jn) t subword."""
    letters = [1 if rng.random() < 0.5 else -1] * rng.randint(0, 3)
    eps = [rng.choice((1, -1))]
    while len(eps) < t_length:  # every s^k pinches between t and t^-1 when |m| = 1
        e = rng.choice((1, -1))
        eps.append(eps[-1] if e == -eps[-1] and abs(m if e == -1 else n) == 1 else e)
    for idx, e in enumerate(eps):
        letters.append(2 * e)
        k = rng.randint(-5, 5)
        if idx + 1 < t_length and eps[idx + 1] == -e:
            modulus = abs(m) if e == 1 else abs(n)
            while k % modulus == 0:
                k = rng.randint(-5, 5)
        letters += [1 if k > 0 else -1] * abs(k)
    return letters


def _scramble(rng, letters, relator):
    out = list(letters)
    for _ in range(3):
        conj = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 3))]
        r = relator if rng.random() < 0.5 else [-x for x in reversed(relator)]
        insert = conj + r + [-x for x in reversed(conj)]
        at = rng.randint(0, len(out))
        out[at:at] = insert
    return out


def _britton_case(name, rng):
    m = rng.choice((1, 2, 3, 4)) * rng.choice((1, -1))
    n = rng.choice((2, 3, 4, 5)) * rng.choice((1, -1))
    relator = [2] + ([1] * m if m > 0 else [-1] * -m) + [-2] + ([-1] * n if n > 0 else [1] * -n)
    words = []
    for _ in range(8):
        t_length = rng.randint(1, 6)
        normal = _pinch_free(rng, m, n, t_length)
        words.append((_word(_scramble(rng, normal, relator)), _word(normal), t_length))

    def run():
        group = pbp.bs.BSGroup(m, n)
        out = []
        for w, normal, _ in words:
            form = pbp.bs.britton_reduce(group, w)
            out.append((form.t_length, pbp.bs.britton_reduce(group, w * ~normal).is_identity()))
        return "DONE", out

    def check(answer, out):
        want = [(t, True) for _, _, t in words]
        return None if out == want else f"BS({m},{n}) Britton forms {out} != {want}"

    return Case(name, run, check)


def group_kernels(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for degree, alternating, count in ((4, False, 30), (5, True, 20), (5, False, 8)):
        group = f"{'A' if alternating else 'S'}{degree}"
        for k in range(count):
            a, b, orders, d = triangle_map(rng, degree, alternating)
            cases.append(_triangle_case(f"triangle.{group}.{k}", a, b, orders, d))
    cases += [_affine_a2_case(f"a2.k{k}.r{r}", k, r) for k in (2, 3) for r in range(3)]
    cases += [_bs_case(m, eta) for m in (2, 3, 4, 5) for eta in (1, -1)]
    cases += [_britton_case(f"britton.{k}", rng) for k in range(30)]
    cases.append(_affine_a2_case("frontier.a2.k5", 5, 0, True))
    six_cycle = (1, 2, 3, 4, 5, 0)
    cases.append(_triangle_case("frontier.triangle.S6", (1, 0, 2, 3, 4, 5), six_cycle,
                                (2, 6, 5), 720, True))
    return cases


# ---------------------------------------------------------------------------
# lie-abels


SMALL_ALGEBRAS = ["af", "sol", "sl2", "heisenberg", "abelian(2)", "abelian(3)", "so(3)",
                  "so(2,1)", "af+af", "af+so(2,1)"]
DIM6_ALGEBRAS = ["so(4)", "so(3,1)", "so(2,2)", "sl2+sl2", "sol+sl2", "vr(2,1,1)", "vr(3,0,1)"]
DIM6_DENSE = ["so(4)", "so(3,1)", "vr(2,1,1)", "vr(3,0,1)"]
LARGE_ALGEBRAS = ["vr(2,1,2)", "vr(3,1,1)"]
PRIMES = (2, 3, 5, 7)
ACENTRAL_TRIALS = 500
SCALES = (1, -1, 2, -2, Fraction(1, 2), 3)


def _inverse(p):
    n = len(p)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def rebase(algebra, p):
    """The same algebra in the basis f_a = sum_i p[a][i] e_i."""
    n, c, q = algebra.dim, algebra.constants, _inverse(p)
    new = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            v = [Fraction(0)] * n
            for i in range(n):
                for j in range(n):
                    s = p[a][i] * p[b][j]
                    if s:
                        for k, ck in enumerate(c[i][j]):
                            if ck:
                                v[k] += s * ck
            w = [sum((v[k] * q[k][l] for k in range(n) if v[k]), Fraction(0)) for l in range(n)]
            new[a][b], new[b][a] = w, [-x for x in w]
    return pbp.lie.LieAlgebra(n, tuple(tuple(tuple(r) for r in pl) for pl in new),
                              tuple(f"f{i}" for i in range(n)))


def permuted_scaled(rng, n):
    perm = rng.sample(range(n), n)
    return [[rng.choice(SCALES) if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def dense_unimodular(rng, n):
    lower = [[1 if i == j else rng.choice((-1, 0, 1)) if i > j else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.choice((-1, 0, 1)) if i < j else 0 for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _lie_case(name, algebra, expected, frontier=False):
    def run():
        return pbp.lie.lie_presentable(algebra).answer.value, None

    def check(answer, _):
        return None if answer == expected else f"answer {answer} != {expected}"

    return Case(name, run, check, frontier)


def _acentral_case(p, seed):
    def run():
        report = pbp.abels.acentral_check(p, trials=ACENTRAL_TRIALS, seed=seed)
        return "DONE", (report.passed, len(report.counterexamples))

    def check(answer, detail):
        return None if detail == (True, 0) else f"acentrality over Z[1/{p}] failed: {detail}"

    return Case(f"acentral.p{p}", run, check)


def lie_abels(seed: int) -> list[Case]:
    rng = random.Random(seed)
    algebra = {name: pbp.lie.catalogue(name)
               for name in SMALL_ALGEBRAS + DIM6_ALGEBRAS + LARGE_ALGEBRAS}
    verdict = ref.LIE_VERDICTS
    cases = [_lie_case(f"cat.{name}", a, verdict[name]) for name, a in algebra.items()]
    for name, copies in [(n, 3) for n in SMALL_ALGEBRAS] + [(n, 2) for n in DIM6_ALGEBRAS]:
        a = algebra[name]
        cases += [_lie_case(f"scaled.{name}.{k}", rebase(a, permuted_scaled(rng, a.dim)), verdict[name])
                  for k in range(copies)]
    for name, copies in [(n, 3) for n in SMALL_ALGEBRAS] + [(n, 1) for n in DIM6_DENSE]:
        a = algebra[name]
        cases += [_lie_case(f"dense.{name}.{k}", rebase(a, dense_unimodular(rng, a.dim)), verdict[name])
                  for k in range(copies)]
    cases += [_acentral_case(p, rng.randrange(2**32)) for p in PRIMES]
    so5 = pbp.lie.catalogue("so(5)")
    cases.append(_lie_case("frontier.dense.so(5)", rebase(so5, dense_unimodular(rng, so5.dim)),
                           verdict["so(5)"], True))
    cases.append(_lie_case("frontier.cat.so(4)+so(4)", pbp.lie.catalogue("so(4)+so(4)"),
                           verdict["so(4)+so(4)"], True))
    return cases


BUILDERS = {"coxeter-sweep": coxeter_sweep, "group-kernels": group_kernels, "lie-abels": lie_abels}
