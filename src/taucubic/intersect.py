"""Plane-curve intersection through sheared eliminants.

Two curves in P^2 are intersected by a random coordinate shear (so the
eliminated variable has constant leading coefficient and no two intersection
points share a projection), a Sylvester resultant, and the root ledger of the
resulting binary form.  Multiplicity totals and squarefreeness are certified
on the eliminant; explicit coordinates are produced for Galois orbits of
degree <= 2 over the working field.

Over F_p the rational points of a single plane curve are enumerated exactly,
slice by slice, rather than searched for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import roots as uv
from .bruteforce import projective_points_fp
from .forms import (Form, compose_linear, evaluate, monomials, partial_derivative,
                    sylvester_resultant)
from .linalg import rank
from .roots import BinaryRootLedger, RootEntry, binary_form_roots


class CommonComponent(ValueError):
    """The two curves share a component; the intersection is not finite."""


@dataclass
class PlanePoint:
    coords: tuple
    mult: int
    field_label: str
    domain: object
    transversal: bool | None = None


@dataclass
class PlaneIntersection:
    total_multiplicity: int
    expected_total: int
    distinct: bool
    shear_stable: bool
    points: list[PlanePoint] = field(default_factory=list)
    clusters: list[RootEntry] = field(default_factory=list)
    ledger: BinaryRootLedger | None = None


def _shear_rows(domain, a, b):
    one, zero = domain.one, domain.zero
    return [[one, zero, zero],
            [domain.coerce(a), one, zero],
            [domain.coerce(b), zero, one]]


def _unshear_point(pt3, a, b, domain):
    x2, x3, x4 = pt3
    dom = _point_domain(pt3, domain)
    return (x2, x3 + dom.coerce(a) * x2, x4 + dom.coerce(b) * x2)


def _point_domain(pt, fallback):
    from .scalars import QuadElem
    for c in pt:
        if isinstance(c, QuadElem):
            return c.ext
    return fallback


def _slice_in_x2(f: Form, x3, x4, domain):
    """Coefficient list (ascending) of t -> f(t, x3, x4)."""
    coeffs = [None] * (f.degree + 1)
    pows3 = [domain.one]
    pows4 = [domain.one]
    for _ in range(f.degree):
        pows3.append(pows3[-1] * x3)
        pows4.append(pows4[-1] * x4)
    for m, c in zip(monomials(3, f.degree), f.coeffs):
        if not c:
            continue
        term = c * pows3[m[1]] * pows4[m[2]]
        k = m[0]
        coeffs[k] = term if coeffs[k] is None else coeffs[k] + term
    return uv.trim([domain.zero if c is None else c for c in coeffs])


def intersect_plane_curves(f: Form, g: Form, rng: random.Random | None = None,
                           want_points: bool = True, shear_tries: int = 24) -> PlaneIntersection:
    """Intersection ledger of two ternary forms with no common component."""
    if f.num_vars != 3 or g.num_vars != 3:
        raise ValueError("plane-curve intersection expects ternary forms")
    rng = rng or random.Random(0xC0FFEE)
    domain = f.domain
    expected = f.degree * g.degree
    attempts = []
    zero_resultants = 0
    for _ in range(shear_tries):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        rows = _shear_rows(domain, a, b)
        fs, gs = compose_linear(f, rows), compose_linear(g, rows)
        # leading coefficient in the eliminated variable must be a constant
        lead_f = fs.coefficient((fs.degree, 0, 0))
        lead_g = gs.coefficient((gs.degree, 0, 0))
        if not lead_f or not lead_g:
            continue
        res = sylvester_resultant(fs, gs, 0)
        if res.is_zero:
            zero_resultants += 1
            if zero_resultants >= 3:
                raise CommonComponent("eliminant vanished for three shears")
            continue
        if not want_points:
            # multiplicity total and squarefreeness need no root extraction;
            # a non-squarefree eliminant may be a projection collision, so
            # only report non-distinct after three shears agree
            asc = uv.trim([res.coeffs[-(k + 1)] for k in range(expected + 1)])
            inf_mult = expected - uv.degree(asc)
            squarefree = inf_mult <= 1 and uv.is_squarefree(asc, domain)
            attempts.append((squarefree,))
            if squarefree or len(attempts) >= 3:
                return PlaneIntersection(
                    total_multiplicity=expected,
                    expected_total=expected,
                    distinct=squarefree,
                    shear_stable=True,
                    ledger=None,
                )
            continue
        ledger = binary_form_roots(list(reversed(res.coeffs)), domain)
        attempts.append((len(ledger.entries), a, b, fs, gs, ledger))
        if len(attempts) >= 3:
            break
    if not attempts:
        raise CommonComponent("no usable shear found")
    if not want_points:
        return PlaneIntersection(expected, expected, False, False, ledger=None)
    attempts.sort(key=lambda t: -t[0])
    nentries, a, b, fs, gs, ledger = attempts[0]
    stable = len(attempts) >= 2 and attempts[1][0] == nentries
    out = PlaneIntersection(
        total_multiplicity=ledger.total_multiplicity,
        expected_total=expected,
        distinct=ledger.squarefree and ledger.total_multiplicity == expected,
        shear_stable=stable,
        ledger=ledger,
    )
    for entry in ledger.entries:
        if entry.point is None:
            out.clusters.append(entry)
            continue
        if not want_points:
            out.clusters.append(entry)
            continue
        for pt3 in _lift_root(fs, gs, entry, domain):
            coords = _unshear_point(pt3, a, b, domain)
            pdom = _point_domain(coords, domain)
            if evaluate(f, coords) or evaluate(g, coords):
                raise ArithmeticError("lifted intersection point fails to lie on both curves")
            pp = PlanePoint(coords, entry.mult, entry.field_label, pdom)
            pp.transversal = _is_transversal(f, g, coords, pdom)
            out.points.append(pp)
    return out


def _lift_root(fs: Form, gs: Form, entry: RootEntry, domain):
    """x2-values over a projective root (x3:x4) of the eliminant."""
    root_domain = entry.domain or domain
    x3, x4 = entry.point
    lift = lambda c: root_domain.coerce(c) if root_domain is not domain else c
    u = _slice_in_x2(fs.map_coefficients(lift, root_domain) if root_domain is not domain else fs,
                     x3, x4, root_domain)
    v = _slice_in_x2(gs.map_coefficients(lift, root_domain) if root_domain is not domain else gs,
                     x3, x4, root_domain)
    g = uv.gcd(u, v, root_domain)
    if not 1 <= uv.degree(g) <= 2:
        return []
    # x2-values outside the root's field are not lifted
    return [(x2, x3, x4) for (x2, _one), fld in uv.low_degree_roots(g, root_domain)
            if fld == root_domain]


def _is_transversal(f, g, coords, domain):
    jac = [[evaluate(partial_derivative(h, i), coords) for i in range(3)] for h in (f, g)]
    return rank(jac, domain) == 2


# ---------------------------------------------------------------------------
# rational points of plane curves over F_p, by enumeration


def _plane_curve_points(f: Form, rng: random.Random, count: int):
    """The first ``count`` points of a seeded shuffle of every F_p point of the
    plane curve f = 0.  The list is complete: (1 : 0 : 0), then the roots of
    the x2-slice over each (x3 : x4) in P^1(F_p)."""
    domain = f.domain
    p = domain.p
    one, zero = domain.one, domain.zero
    out = [] if evaluate(f, (one, zero, zero)) else [(one, zero, zero)]
    for x3, x4 in projective_points_fp(2, p):
        cs = _slice_in_x2(f, x3, x4, domain)
        if cs:
            xs = [t for t, _mult in uv.fp_rational_roots(cs, p)[0]]
        else:  # the line through (1 : 0 : 0) and (0 : x3 : x4) is a component
            xs = [domain.coerce(t) for t in range(p)]
        out.extend((x2, x3, x4) for x2 in xs)
    for pt in out:
        if evaluate(f, pt):
            raise ArithmeticError("enumerated point is off its curve")
    rng.shuffle(out)
    return out[:count]


def conic_rational_points(conic: Form, rng: random.Random, count: int):
    """The first ``count`` points of a seeded shuffle of all F_p points of a conic."""
    return _plane_curve_points(conic, rng, count)


def curve_rational_points(f: Form, rng: random.Random, count: int):
    """The first ``count`` points of a seeded shuffle of all F_p points of a plane curve."""
    return _plane_curve_points(f, rng, count)
