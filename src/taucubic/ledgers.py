"""Closed-form numeric ledgers: Hurwitz genera, complete-intersection genus,
Koszul dimension counts, eigen splits, and the Prym dimension ledger.

Everything here is computed from degree inputs, never hard-coded, so deleting
a target constant still re-derives it.  The sampling cross-check at the end
compares the Koszul dimension bookkeeping against the rank of an evaluation
matrix at surface points over a prime field, taken from a seeded walk over the
fibres of the surface's F_p points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, asdict
from math import comb, prod

from . import linalg
from .bruteforce import monomial_values
from .forms import monomials
from .scalars import PrimeField
from .tau import TauInstance, random_points_on_surface, sym2_eigensplit


class Disconnected(ValueError):
    """Unramified double cover of a rational curve: not a connected curve."""


def hurwitz_double_cover(g: int, r: int) -> int:
    """Genus of a double cover of a genus-g curve with r simple branch points."""
    if g < 0 or r < 0:
        raise ValueError("genus and branch count must be non-negative")
    if r % 2:
        raise ValueError("branch count of a double cover is even")
    if g == 0 and r == 0:
        raise Disconnected("unramified double cover of a rational curve is disconnected")
    rhs = 2 * (2 * g - 2) + r
    if rhs < -2:
        raise ValueError("branch data violates the cover inequality")
    assert rhs % 2 == 0
    return (rhs + 2) // 2


def plane_curve_genus(d: int) -> int:
    """Genus of a smooth plane curve of degree d."""
    if d < 1:
        raise ValueError("degree must be positive")
    return (d - 1) * (d - 2) // 2


def ci_curve_genus(degrees, ambient_dim: int) -> int:
    """Genus of a smooth complete-intersection curve in P^n:
    2g - 2 = (prod d_i)(sum d_i - n - 1)."""
    degrees = list(degrees)
    if len(degrees) != ambient_dim - 1:
        raise ValueError(f"a curve in P^{ambient_dim} needs {ambient_dim - 1} hypersurfaces")
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    two_g_minus_2 = prod(degrees) * (sum(degrees) - ambient_dim - 1)
    assert two_g_minus_2 % 2 == 0
    return (two_g_minus_2 + 2) // 2


def h0_twist(m: int, n: int) -> int:
    """Global sections of O(m) on P^n."""
    return comb(m + n, n) if m >= 0 else 0


def ideal_section_dimension(ci_degrees, twist: int, ambient_dim: int) -> int:
    """h^0 of the twisted ideal sheaf of a complete intersection, by
    inclusion-exclusion over the Koszul resolution terms."""
    degrees = list(ci_degrees)
    if twist < 0:
        raise ValueError("twist must be non-negative")
    total = 0
    for mask in range(1, 1 << len(degrees)):
        chosen = [degrees[i] for i in range(len(degrees)) if mask >> i & 1]
        sign = -1 if len(chosen) % 2 == 0 else 1
        total += sign * h0_twist(twist - sum(chosen), ambient_dim)
    return total


@dataclass(frozen=True)
class KoszulLedger:
    h0_quadrics_ambient: int
    h0_ideal_quadrics: int
    h01_curve: int


def koszul_h01_ledger() -> KoszulLedger:
    """Dimension bookkeeping for the pencil base curve cut by two invariant
    quadrics on the cubic: (15, 2, 13)."""
    ambient = 4
    h0_o2 = h0_twist(2, ambient)
    h0_ideal = ideal_section_dimension((2, 2, 3), 2, ambient)
    h01 = h0_o2 - h0_ideal
    if h01 != ci_curve_genus([3, 2, 2], ambient):
        raise ArithmeticError("Koszul count disagrees with the adjunction genus")
    return KoszulLedger(h0_o2, h0_ideal, h01)


@dataclass(frozen=True)
class JacobianSplit:
    plus: int
    minus: int


def jacobian_tau_split() -> JacobianSplit:
    """Eigen-dimensions of the base-curve Jacobian: the two invariant quadric
    relations sit in the invariant block of the 15 quadric monomials."""
    split = sym2_eigensplit()
    relations = 2
    plus = split.invariant_total - relations
    minus = split.anti_invariant_total
    if plus + minus != koszul_h01_ledger().h01_curve:
        raise ArithmeticError("eigen split does not add up to the curve genus")
    return JacobianSplit(plus, minus)


@dataclass(frozen=True)
class GenusLedger:
    g_C2: int
    g_C3: int
    ramification: int
    g_C2cover: int
    g_C3cover: int
    dim_P2: int
    dim_P3: int
    h21_cubic: int
    isogeny_degree_log_bound: int
    g_Z: int
    h01_Z_plus: int
    h01_Z_minus: int

    def __post_init__(self):
        if self.dim_P2 + self.dim_P3 != self.h21_cubic:
            raise ArithmeticError("Prym dimensions do not sum to h^{2,1}")
        if self.g_Z != self.h01_Z_plus + self.h01_Z_minus:
            raise ArithmeticError("eigen split does not sum to the curve genus")
        if self.g_C2cover != hurwitz_double_cover(self.g_C2, self.ramification):
            raise ArithmeticError("conic-cover genus violates the cover formula")
        if self.g_C3cover != hurwitz_double_cover(self.g_C3, self.ramification):
            raise ArithmeticError("cubic-cover genus violates the cover formula")

    def to_json(self) -> dict:
        return asdict(self)


def prym_dimension_ledger() -> GenusLedger:
    """The full dimension ledger, derived from the component degrees alone:
    the conic and the cubic of the discriminant quintic.

    The double covers of the two discriminant components branch over their
    crossing points (Bezout count), the Prym dimensions are genus differences,
    and their sum matches the middle Hodge number of the cubic threefold.
    """
    conic_degree, cubic_degree = 2, 3
    r = conic_degree * cubic_degree
    g2 = plane_curve_genus(conic_degree)
    g3 = plane_curve_genus(cubic_degree)
    g2c = hurwitz_double_cover(g2, r)
    g3c = hurwitz_double_cover(g3, r)
    # middle Hodge number of a degree-d threefold in P^4 via the residue
    # calculus: sections of O(2d - 5)
    h21 = h0_twist(2 * cubic_degree - 5, 4)
    koszul = koszul_h01_ledger()
    split = jacobian_tau_split()
    return GenusLedger(
        g_C2=g2, g_C3=g3, ramification=r,
        g_C2cover=g2c, g_C3cover=g3c,
        dim_P2=g2c - g2, dim_P3=g3c - g3,
        h21_cubic=h21,
        isogeny_degree_log_bound=r,
        g_Z=koszul.h01_curve,
        h01_Z_plus=split.plus, h01_Z_minus=split.minus,
    )


def ideal_dimension_by_sampling(instance: TauInstance, twist: int,
                                rng: random.Random) -> int:
    """Nullity mod p of the evaluation matrix of the degree-``twist`` monomials
    at seeded surface points over F_p (``bruteforce.monomial_values``); the
    sampling counterpart of ideal_section_dimension.  It asks for three points
    per monomial and needs two."""
    domain = instance.domain
    if not isinstance(domain, PrimeField):
        raise TypeError("evaluation cross-check runs over a prime field")
    nmons = len(monomials(5, twist))
    pts = random_points_on_surface(instance, rng, 3 * nmons)
    if len(pts) < 2 * nmons:
        raise RuntimeError(f"only {len(pts)} surface points found, need {2 * nmons}")
    table = monomial_values([domain.plain_list(pt)[0] for pt in pts], twist, domain.p)
    return nmons - linalg.rank_mod_p(table, domain.p)
