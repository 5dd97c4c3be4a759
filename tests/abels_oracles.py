"""From-scratch references for ``pbp.abels``.

``a3_inv`` is the closed-form inverse of [[1, x, z], [0, u, y], [0, 0, 1]].
``commutator_oracle`` decides commuting in the quotient by the central Z the
plain way: it builds the commutator (ab)(a^-1 b^-1) of the lifts and asks
whether it is central with an integer z-entry, where
``pbp.abels.gamma_commutes`` compares ab with ba.

``fraction_mul``, ``fraction_mod_centre`` and ``fraction_commutes`` are the
same product, reduction of z modulo 1 and ab-versus-ba comparison done in
Fractions, on the entries (x, y, z, u), where ``pbp.abels`` keeps integer
numerators over a power of p.
"""

import math

from pbp.abels import A3Matrix, GammaElement, a3_mul


def a3_inv(a: A3Matrix) -> A3Matrix:
    u = a.u
    return A3Matrix.make(a.p, -a.x / u, -a.y / u, a.x * a.y / u - a.z, a.u_sign, -a.u_exp)


def is_central(m: A3Matrix) -> bool:
    """Members of the centre: u = 1 and x = y = 0."""
    return m.x == 0 and m.y == 0 and m.u == 1


def is_identity(m: A3Matrix) -> bool:
    return is_central(m) and m.z == 0


def commutator_oracle(g: GammaElement, h: GammaElement) -> bool:
    a, b = g.matrix, h.matrix
    comm = a3_mul(a3_mul(a, b), a3_mul(a3_inv(a), a3_inv(b)))
    return is_central(comm) and comm.z.denominator == 1


def entries(m: A3Matrix) -> tuple:
    return m.x, m.y, m.z, m.u


def fraction_mul(a: tuple, b: tuple) -> tuple:
    # [[1,x1,z1],[0,u1,y1],[0,0,1]] * [[1,x2,z2],[0,u2,y2],[0,0,1]]
    x1, y1, z1, u1 = a
    x2, y2, z2, u2 = b
    return x2 + x1 * u2, y1 + u1 * y2, z2 + x1 * y2 + z1, u1 * u2


def fraction_mod_centre(a: tuple) -> tuple:
    x, y, z, u = a
    return x, y, z - math.floor(z), u


def fraction_commutes(a: tuple, b: tuple) -> bool:
    (x1, y1, z1, u1), (x2, y2, z2, u2) = fraction_mul(a, b), fraction_mul(b, a)
    return x1 == x2 and y1 == y2 and u1 == u2 and (z1 - z2).denominator == 1
