"""From-scratch references for ``pbp.abels``.

``a3_inv`` is the closed-form inverse of [[1, x, z], [0, u, y], [0, 0, 1]].
``commutator_oracle`` decides commuting in the quotient by the central Z the
plain way: it builds the commutator (ab)(a^-1 b^-1) of the lifts and asks
whether it is central with an integer z-entry, where
``pbp.abels.gamma_commutes`` compares ab with ba.
"""

from pbp.abels import A3Matrix, GammaElement, a3_mul


def a3_inv(a: A3Matrix) -> A3Matrix:
    return A3Matrix(a.p, -a.x / a.u, -a.y / a.u, a.x * a.y / a.u - a.z, 1 / a.u)


def is_central(m: A3Matrix) -> bool:
    """Members of the centre: u = 1 and x = y = 0."""
    return m.x == 0 and m.y == 0 and m.u == 1


def is_identity(m: A3Matrix) -> bool:
    return is_central(m) and m.z == 0


def commutator_oracle(g: GammaElement, h: GammaElement) -> bool:
    a, b = g.matrix, h.matrix
    comm = a3_mul(a3_mul(a, b), a3_mul(a3_inv(a), a3_inv(b)))
    return is_central(comm) and comm.z.denominator == 1
