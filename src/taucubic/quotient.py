"""The quotient surface of the cubic-quadric intersection by the involution.

The quotient sits in P^1 x P^2 and is cut by a single bihomogeneous equation
of bidegree (2, 3): a quadratic in (x0, x1) whose three coefficients are the
cubics  l_ij * f2 - a_ij * f3.  Its discriminant with respect to the (x0, x1)
factor is a plane sextic, the branch curve of the 2:1 quotient map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .forms import Form, compose_linear, evaluate, monomials
from .roots import is_squarefree, trim
from .scalars import RationalField
from .tau import TauInstance, reduce_instance


class IdenticallyZero(ValueError):
    """The branch discriminant vanishes identically (degenerate instance)."""


@dataclass(frozen=True)
class BiForm:
    """Bihomogeneous form on P^1 x P^2, dense in the product monomial order:
    (x0, x1) monomials graded-lex, then (x2, x3, x4) monomials graded-lex."""

    domain: object
    deg1: int
    deg2: int
    coeffs: tuple

    def __post_init__(self):
        expected = len(monomials(2, self.deg1)) * len(monomials(3, self.deg2))
        if len(self.coeffs) != expected:
            raise ValueError(f"bidegree ({self.deg1},{self.deg2}) needs {expected} coefficients")

    @property
    def bidegree(self):
        return (self.deg1, self.deg2)

    @classmethod
    def from_factor_forms(cls, domain, deg1, parts: dict):
        """Build from {(e0, e1): Form in (x2,x3,x4)} with all parts one degree."""
        deg2 = next(iter(parts.values())).degree
        mons1 = monomials(2, deg1)
        mons2 = monomials(3, deg2)
        coeffs = []
        for m1 in mons1:
            part = parts.get(m1)
            if part is None:
                coeffs.extend([domain.zero] * len(mons2))
            else:
                if part.degree != deg2:
                    raise ValueError("mixed plane degrees in one biform")
                coeffs.extend(part.coeffs)
        return cls(domain, deg1, deg2, tuple(coeffs))

    def factor_form(self, e01) -> Form:
        """The (x2,x3,x4)-coefficient form attached to the monomial x0^e0 x1^e1."""
        mons1 = monomials(2, self.deg1)
        width = len(monomials(3, self.deg2))
        i = mons1.index(tuple(e01))
        return Form(self.domain, 3, self.deg2,
                    tuple(self.coeffs[i * width:(i + 1) * width]))

    def evaluate(self, pt01, pt234):
        mons1 = monomials(2, self.deg1)
        total = self.domain.zero
        for m1 in mons1:
            v = self.factor_form(m1)
            term = evaluate(v, pt234)
            for c, e in zip(pt01, m1):
                for _ in range(e):
                    term = term * c
            total = total + term
        return total


def quotient_equation(instance: TauInstance, quadric_index: int = 0) -> BiForm:
    """The bidegree-(2,3) equation of the quotient surface in P^1 x P^2."""
    q = instance.quadrics[quadric_index]
    domain = instance.domain
    a_coef = q.f2 * instance.l00 - instance.f3.scale(q.a00)
    b_coef = q.f2 * instance.l01 - instance.f3.scale(q.a01)
    c_coef = q.f2 * instance.l11 - instance.f3.scale(q.a11)
    bf = BiForm.from_factor_forms(domain, 2, {(2, 0): a_coef, (1, 1): b_coef,
                                              (0, 2): c_coef})
    assert bf.bidegree == (2, 3)
    return bf


def branch_sextic(instance: TauInstance, quadric_index: int = 0) -> Form:
    """Discriminant of the quotient equation in the (x0, x1) factor: a plane
    form of degree 6."""
    bf = quotient_equation(instance, quadric_index)
    a_coef = bf.factor_form((2, 0))
    b_coef = bf.factor_form((1, 1))
    c_coef = bf.factor_form((0, 2))
    disc = b_coef * b_coef - (a_coef * c_coef).scale(instance.domain.coerce(4))
    if disc.is_zero:
        raise IdenticallyZero("branch discriminant vanishes identically")
    assert disc.degree == 6
    return disc


def fiber_quadratic(bf: BiForm, P):
    """(A(P), B(P), C(P)): the fiber of the quotient equation bf over a point of
    the plane factor."""
    return tuple(evaluate(bf.factor_form(e), P) for e in ((2, 0), (1, 1), (0, 2)))


def sextic_squarefree_probe(instance: TauInstance, p: int | None = None,
                            rng: random.Random | None = None,
                            quadric_index: int = 0, tries: int = 5) -> bool | None:
    """Squarefreeness of the branch sextic, probed on random line sections
    over F_p.  A squarefree section certifies a squarefree sextic; None means
    every probed section was degenerate."""
    rng = rng or random.Random(0x5EC71C)
    if p is None and isinstance(instance.domain, RationalField):
        raise ValueError("probing a rational instance needs a prime")
    work = reduce_instance(instance, p)
    fdom = work.domain
    sextic = branch_sextic(work, quadric_index)
    informative = 0
    for _ in range(tries):
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
