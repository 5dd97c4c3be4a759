"""From-scratch references for ``pbp.lie``.

``lattice_recursion_oracle`` enumerates the ideal lattice by recursing into
the quotient by every minimal ideal and lifting each ideal of the quotient
back one level at a time.  A quotient reached along several orders of
removal is split once per order.  ``pbp.lie.ideal_lattice`` splits each
ideal of L once, in a worklist over L itself, and must find the same ideals,
the same completeness and, when it flags an infinite family, a witness pair
of the same dimensions.
"""

import random
from itertools import combinations

from pbp.lie import (
    SEED,
    Completeness,
    IdealLattice,
    LieAlgebra,
    Subspace,
    _minimal_ideals,
    _ordered,
    quotient_algebra,
)
from pbp.linalg import rref


def lattice_recursion_oracle(algebra: LieAlgebra) -> IdealLattice:
    return _lattice_rec(algebra, random.Random(SEED))


def _lattice_rec(algebra: LieAlgebra, rng) -> IdealLattice:
    n = algebra.dim
    atoms, status, witness = _minimal_ideals(algebra, rng)
    if status is not Completeness.COMPLETE:
        return IdealLattice((), status, witness)
    if sum(atom.dim for atom in atoms) == n:
        # the algebra is the direct sum of its atoms, pairwise non-isomorphic
        # simple modules, so its ideals are the sums of subsets of them
        ideals = [
            Subspace(n, rref([r for atom in subset for r in atom.rows]))
            for k in range(len(atoms) + 1)
            for subset in combinations(atoms, k)
        ]
        return IdealLattice(_ordered(ideals), Completeness.COMPLETE, None)
    found = {(): Subspace.zero(n)}
    for atom in atoms:
        quot, lift, _project = quotient_algebra(algebra, atom)
        sub = _lattice_rec(quot, rng)
        if sub.completeness is not Completeness.COMPLETE:
            lifted = None
            if sub.witness is not None:
                lifted = tuple(
                    Subspace(n, rref(list(atom.rows) + [lift(r) for r in w.rows]))
                    for w in sub.witness
                )
            return IdealLattice((), sub.completeness, lifted)
        for ideal in sub.ideals:
            rows = rref(list(atom.rows) + [lift(r) for r in ideal.rows])
            found.setdefault(rows, Subspace(n, rows))
    return IdealLattice(_ordered(found.values()), Completeness.COMPLETE, None)
