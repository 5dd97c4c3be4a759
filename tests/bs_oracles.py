"""Britton reduction with its rewrites applied in random order.

The tests compare ``pbp.bs.britton_reduce``, which rewrites left to right,
against this: the rewrite system is confluent, so every order of rewrites
must reach the same normal form.
"""

import random

from pbp.bs import BrittonForm, BSGroup, _normalize_pass, _parts_from_word
from pbp.words import Word


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
    k0 = _normalize_pass(k0, tail, m, n)
    return BrittonForm(group, k0, tuple((e, k) for e, k in tail))
