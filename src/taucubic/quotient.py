"""The quotient surface of the cubic-quadric intersection by the involution.

The quotient sits in P^1 x P^2 and is cut by a single bihomogeneous equation
of bidegree (2, 3): a quadratic in (x0, x1) whose three coefficients are the
cubics  l_ij * f2 - a_ij * f3.  Its discriminant with respect to the (x0, x1)
factor is a plane sextic, the branch curve of the 2:1 quotient map.
"""

from __future__ import annotations

import random

from .forms import Form, compose_linear, monomials
from .roots import is_squarefree, trim
from .tau import TauInstance


class IdenticallyZero(ValueError):
    """The branch discriminant vanishes identically (degenerate instance)."""


def quotient_equation(instance: TauInstance) -> tuple[Form, Form, Form]:
    """The bidegree-(2,3) equation A x0^2 + B x0 x1 + C x1^2 of the quotient
    surface in P^1 x P^2, as its three plane cubics (A, B, C)."""
    q = instance.quadrics[0]
    f2, f3 = q.f2, instance.f3
    return (f2 * instance.l00 - f3.scale(q.a00),
            f2 * instance.l01 - f3.scale(q.a01),
            f2 * instance.l11 - f3.scale(q.a11))


def branch_sextic(instance: TauInstance) -> Form:
    """Discriminant B^2 - 4AC of the quotient equation in the (x0, x1) factor:
    a plane form of degree 6."""
    a_coef, b_coef, c_coef = quotient_equation(instance)
    disc = b_coef * b_coef - (a_coef * c_coef).scale(instance.domain.coerce(4))
    if disc.is_zero:
        raise IdenticallyZero("branch discriminant vanishes identically")
    assert disc.degree == 6
    return disc


def sextic_squarefree_probe(instance: TauInstance, rng: random.Random) -> bool | None:
    """Squarefreeness of the branch sextic of an instance over F_p, probed on
    five random line sections.  A squarefree section certifies a squarefree
    sextic; None means too few probed sections were informative."""
    fdom = instance.domain
    sextic = branch_sextic(instance)
    informative = 0
    for _ in range(5):
        a = tuple(fdom.coerce(rng.randrange(fdom.p)) for _ in range(3))
        b = tuple(fdom.coerce(rng.randrange(fdom.p)) for _ in range(3))
        rows = [[x, y] for x, y in zip(a, b)]
        sect = compose_linear(sextic, rows)
        if sect.is_zero:
            continue  # the probe line is a component; undecided
        cs = [fdom.zero] * 7
        for m, c in zip(monomials(2, 6), sect.coeffs):
            cs[m[0]] = cs[m[0]] + c
        cs = trim(cs)
        inf_mult = 6 - (len(cs) - 1)
        informative += 1
        if inf_mult <= 1 and is_squarefree(cs, fdom):
            return True
    # every full section carried a repeated root: overwhelmingly a repeated factor
    return False if informative >= 3 else None
