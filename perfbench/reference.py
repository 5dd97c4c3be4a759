"""Reference answers that do not come from pbp.

Every check here uses numpy, the standard library and classical results:

* Coxeter signatures from numpy eigenvalues with a stated gap, falling back
  to the classical lists of connected finite and affine diagrams
  (Humphreys, Reflection Groups and Coxeter Groups, 1990, sections 2.4-2.7);
* orders of permutation groups by closure, and the Reidemeister-Schreier
  counts ((a-1)d+1, bd);
* abelianizations of torsion-free kernels: Z^2 for the translation lattice of
  the affine group A~2, Z^(2m) for the Baumslag-Solitar witness, Z^(2g) with
  2 - 2g = d(1/l + 1/m + 1/n - 1) for triangle groups (Riemann-Hurwitz);
* Lie verdicts pinned by the test suite and by the direct-sum and simple
  cases of the paper, which a change of basis must not alter.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf
# Eigenvalues of magnitude below ZERO_TOL count as zero, above SIGN_TOL as
# signed; anything between means the gap does not hold for that matrix.
ZERO_TOL = 1e-9
SIGN_TOL = 1e-6

FINITE, AFFINE, INDEFINITE = "Finite", "Affine", "Indefinite"


# ---------------------------------------------------------------------------
# Coxeter matrices


def components(rows) -> list[list[int]]:
    """Connected components of the Coxeter graph (edges where m >= 3)."""
    n = len(rows)
    seen: set[int] = set()
    out = []
    for start in range(n):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if j not in seen and rows[i][j] >= 3:
                    seen.add(j)
                    stack.append(j)
        out.append(sorted(comp))
    return out


def cosine_matrix(rows):
    import numpy as np

    n = len(rows)
    b = np.eye(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                m = rows[i][j]
                b[i, j] = -1.0 if m == INF else -math.cos(math.pi / m)
    return b


def numeric_signature(rows):
    """(p, q, r) from eigenvalues, or None when an eigenvalue sits in the gap."""
    import numpy as np

    eig = np.linalg.eigvalsh(cosine_matrix(rows))
    if any(ZERO_TOL <= abs(v) <= SIGN_TOL for v in eig):
        return None
    p = int(sum(1 for v in eig if v > SIGN_TOL))
    q = int(sum(1 for v in eig if v < -SIGN_TOL))
    return (p, q, len(rows) - p - q)


def _edges(rows):
    n = len(rows)
    return {(i, j): rows[i][j] for i in range(n) for j in range(i + 1, n) if rows[i][j] >= 3}


def _arms(rows, centre):
    """Lengths and last-edge labels of the paths leaving a branch vertex."""
    n = len(rows)
    adj = {i: [j for j in range(n) if j != i and rows[i][j] >= 3] for i in range(n)}
    arms = []
    for first in adj[centre]:
        prev, cur, length, last = centre, first, 1, rows[centre][first]
        while len(adj[cur]) == 2:
            nxt = adj[cur][0] if adj[cur][1] == prev else adj[cur][1]
            prev, cur, length, last = cur, nxt, length + 1, rows[cur][nxt]
        arms.append((length, last))
    return sorted(arms)


def _path_labels(rows):
    n = len(rows)
    adj = {i: [j for j in range(n) if j != i and rows[i][j] >= 3] for i in range(n)}
    prev, cur = None, next(i for i in range(n) if len(adj[i]) == 1)
    labels = []
    while True:
        nxt = [j for j in adj[cur] if j != prev]
        if not nxt:
            return labels
        labels.append(rows[cur][nxt[0]])
        prev, cur = cur, nxt[0]


def classical_label(rows) -> str:
    """Finite / Affine / Indefinite for a connected diagram, from the lists."""
    n = len(rows)
    if n == 1:
        return FINITE
    edges = _edges(rows)
    labels = list(edges.values())
    if n == 2:
        return AFFINE if labels[0] == INF else FINITE
    if INF in labels:
        return INDEFINITE
    degree = [sum(1 for j in range(n) if j != i and rows[i][j] >= 3) for i in range(n)]
    if len(edges) == n:  # one cycle: A~(n-1) with all labels 3
        ok = all(v == 3 for v in labels) and all(d == 2 for d in degree)
        return AFFINE if ok else INDEFINITE
    if len(edges) > n:
        return INDEFINITE
    big = [v for v in labels if v != 3]
    branches = [i for i in range(n) if degree[i] >= 3]
    if max(degree) == 4:
        return AFFINE if n == 5 and not big else INDEFINITE  # D~4
    if len(branches) == 2:  # D~n: two forks of two leaves each
        leaves = sum(1 for b in branches for j in range(n) if rows[b][j] >= 3 and j != b and degree[j] == 1)
        return AFFINE if not big and leaves == 4 else INDEFINITE
    if len(branches) > 2:
        return INDEFINITE
    if len(branches) == 1:
        arms = _arms(rows, branches[0])
        lengths = tuple(a for a, _ in arms)
        if not big:
            if lengths[:2] == (1, 1) or lengths in ((1, 2, 2), (1, 2, 3), (1, 2, 4)):
                return FINITE  # D_n, E6, E7, E8
            if lengths in ((2, 2, 2), (1, 3, 3), (1, 2, 5)):
                return AFFINE  # E~6, E~7, E~8
            return INDEFINITE
        if big == [4] and lengths[:2] == (1, 1) and arms[2][1] == 4:
            return AFFINE  # B~n: the 4 sits on the last edge of the long arm
        return INDEFINITE
    path = _path_labels(rows)
    if not big:
        return FINITE  # A_n
    if len(big) == 1:
        v, at_end = big[0], path[0] != 3 or path[-1] != 3
        if v == 4 and (at_end or path == [3, 4, 3]):
            return FINITE  # B_n, F4
        if v == 5 and at_end and n <= 4:
            return FINITE  # H3, H4
        if v == 6 and path in ([6, 3], [3, 6]):
            return AFFINE  # G~2
        if v == 4 and path in ([3, 3, 4, 3], [3, 4, 3, 3]):
            return AFFINE  # F~4
        return INDEFINITE
    if big == [4, 4] and path[0] == 4 and path[-1] == 4:
        return AFFINE  # C~n
    return INDEFINITE


def coxeter_reference(rows) -> dict:
    """Components with label and (possibly partial) signature, plus verdict."""
    parts = []
    for comp in components(rows):
        sub = [[rows[i][j] for j in comp] for i in comp]
        label = classical_label(sub)
        sig = numeric_signature(sub)
        if sig is not None:
            numeric = FINITE if sig[1:] == (0, 0) else AFFINE if sig[1] == 0 else INDEFINITE
            if numeric != label:
                raise AssertionError(f"reference disagreement on {sub}: {sig} vs {label}")
        elif label == FINITE:
            sig = (len(comp), 0, 0)
        elif label == AFFINE:
            sig = (len(comp) - 1, 0, 1)
        parts.append({"vertices": comp, "label": label, "signature": sig})
    infinite = [p for p in parts if p["label"] != FINITE]
    if not infinite:
        answer = "NOT_APPLICABLE"
    elif len(infinite) >= 2 or infinite[0]["label"] == AFFINE:
        answer = "YES"
    else:
        answer = "NO"
    return {"components": parts, "answer": answer}


def check_coxeter(rows, report: dict) -> str | None:
    """None when pbp's report matches the reference, else a message."""
    ref = coxeter_reference(rows)
    if report["answer"] != ref["answer"]:
        return f"answer {report['answer']} != reference {ref['answer']}"
    got = report["components"]
    if [c["vertices"] for c in got] != [c["vertices"] for c in ref["components"]]:
        return "component vertex sets differ"
    for mine, theirs in zip(ref["components"], got):
        if theirs["label"] != mine["label"]:
            return f"component {mine['vertices']}: label {theirs['label']} != {mine['label']}"
        if mine["signature"] is not None and tuple(theirs["signature"]) != mine["signature"]:
            return f"component {mine['vertices']}: signature {theirs['signature']} != {mine['signature']}"
        if sum(theirs["signature"]) != len(mine["vertices"]):
            return f"component {mine['vertices']}: signature does not add up"
    return None


# ---------------------------------------------------------------------------
# permutation groups and kernels


def perm_compose(p, q):
    """x -> q[p[x]], the convention of right actions."""
    return tuple(q[i] for i in p)


def perm_order(p) -> int:
    identity = tuple(range(len(p)))
    x, k = p, 1
    while x != identity:
        x, k = perm_compose(x, p), k + 1
    return k


def group_order(gens) -> int:
    identity = tuple(range(len(gens[0])))
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perm_compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def triangle_genus(l: int, m: int, n: int, d: int) -> int:
    """Genus of the torsion-free index-d kernel of the (l, m, n) triangle group."""
    chi = Fraction(d) * (Fraction(1, l) + Fraction(1, m) + Fraction(1, n) - 1)
    two_g = 2 - chi
    if two_g.denominator != 1 or two_g < 0 or two_g.numerator % 2:
        raise AssertionError(f"Riemann-Hurwitz gives non-integral genus for {(l, m, n, d)}")
    return int(two_g) // 2


def check_kernel(images, gens: int, rels: int, free_rank: int, result) -> str | None:
    """Index, subgroup counts and abelianization of a kernel pipeline result."""
    d, sub_gens, sub_rels, rank, torsion = result
    order = group_order([tuple(p) for p in images])
    if d != order:
        return f"index {d} != image order {order}"
    if (sub_gens, sub_rels) != ((gens - 1) * d + 1, rels * d):
        return f"counts {(sub_gens, sub_rels)} != {((gens - 1) * d + 1, rels * d)}"
    if rank != free_rank or torsion:
        return f"abelianization Z^{rank} x {torsion} != Z^{free_rank}"
    return None


# ---------------------------------------------------------------------------
# Lie algebras

# Verdicts pinned by tests/test_lie.py and tests/test_acceptance.py, plus the
# classical cases: simple algebras are NO, direct sums of two algebras YES.
LIE_VERDICTS = {
    "af": "NO", "sol": "NO", "sl2": "NO", "so(3)": "NO", "so(2,1)": "NO",
    "so(3,1)": "NO", "vr(2,1,1)": "NO", "vr(3,0,1)": "NO", "vr(3,1,1)": "NO",
    "vr(2,1,2)": "NO", "so(5)": "NO",
    "abelian(2)": "YES", "abelian(3)": "YES", "heisenberg": "YES", "sl2+sl2": "YES",
    "so(2,2)": "YES", "so(4)": "YES", "af+af": "YES", "sol+sl2": "YES",
    "af+so(2,1)": "YES", "so(4)+so(4)": "YES",
}
