"""Plane-curve intersection through sheared eliminants.

Four callers meet a conic with a cubic: the gate's two keys (the conic part
with f3, and f2 with f3), ``discriminant_quintic`` (the conic part with f3) and
``fixed_points_on_S`` (f2 with f3).  Two curves in P^2 are intersected through
one coordinate shear, which gives the eliminated variable a constant leading
coefficient, and the Sylvester resultant of the sheared forms.  The shears are
drawn from a private fixed-seed generator built inside each call, so a verdict
depends on the curves alone and draws nothing from a caller's rng.  One rule
keeps the shear: the first usable one whose eliminant is squarefree, else the
one of three usable shears whose eliminant has the most distinct roots.
``distinct`` is whether the kept shear has deg f * deg g of them, as
``distinct_root_count`` counts them: over Q certified at one prime, else by the
exact gcd, over F_p on residues.  The root ledger, its multiplicity total and
the Galois orbits of degree <= 2 are computed from the kept shear on first
access.

Over F_p the rational points of a single plane curve are drawn a slice at a
time: the lines through (1 : 0 : 0) come in a random order drawn from the
caller's rng, and each drawn line gives every root of its x2-slice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from . import roots as uv
from .bruteforce import coefficient_matrix, form_values, random_order
from .forms import Form, compose_linear, evaluate, monomials, sylvester_resultant
from .roots import BinaryRootLedger, RootEntry, binary_form_roots
from .scalars import point_field

SHEAR_TRIES = 24


class CommonComponent(ValueError):
    """The two curves share a component; the intersection is not finite."""


@dataclass
class PlanePoint:
    coords: tuple
    mult: int
    domain: object


@dataclass
class PlaneIntersection:
    """The intersection of f and g read off the eliminant of one kept shear
    (x3 += a x2, x4 += b x2); ``eliminant`` lists its coefficients ascending
    in x3.  ``distinct`` is settled when the shear is kept; the ledger and the
    points are computed on first access."""

    f: Form
    g: Form
    shear: tuple
    fs: Form
    gs: Form
    eliminant: list
    distinct: bool

    @cached_property
    def ledger(self) -> BinaryRootLedger:
        return binary_form_roots(self.eliminant, self.f.domain)

    @property
    def total_multiplicity(self) -> int:
        return self.ledger.total_multiplicity

    @cached_property
    def points(self) -> list[PlanePoint]:
        f, g, domain = self.f, self.g, self.f.domain
        a, b = self.shear
        out = []
        for entry in self.ledger.entries:
            if entry.point is None:
                continue
            for x2, x3, x4 in _lift_root(self.fs, self.gs, entry, domain):
                pdom = point_field([(x2, x3, x4)], domain)
                coords = (x2, x3 + pdom.coerce(a) * x2, x4 + pdom.coerce(b) * x2)
                if evaluate(f, coords) or evaluate(g, coords):
                    raise ArithmeticError("lifted intersection point fails to lie on both curves")
                out.append(PlanePoint(coords, entry.mult, pdom))
        return out


def _shear_rows(domain, a, b):
    one, zero = domain.one, domain.zero
    return [[one, zero, zero],
            [domain.coerce(a), one, zero],
            [domain.coerce(b), zero, one]]


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


def intersect_plane_curves(f: Form, g: Form) -> PlaneIntersection:
    """Intersection of two ternary forms with no common component."""
    if f.num_vars != 3 or g.num_vars != 3:
        raise ValueError("plane-curve intersection expects ternary forms")
    rng = random.Random(0xC0FFEE)
    domain = f.domain
    expected = f.degree * g.degree
    kept = None  # (distinct roots, shear, fs, gs, eliminant)
    usable = zero_resultants = 0
    for _ in range(SHEAR_TRIES):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        rows = _shear_rows(domain, a, b)
        fs, gs = compose_linear(f, rows), compose_linear(g, rows)
        # leading coefficient in the eliminated variable must be a constant
        if not fs.coefficient((fs.degree, 0, 0)) or not gs.coefficient((gs.degree, 0, 0)):
            continue
        res = sylvester_resultant(fs, gs, 0)
        if res.is_zero:
            zero_resultants += 1
            if zero_resultants >= 3:
                raise CommonComponent("eliminant vanished for three shears")
            continue
        eliminant = list(reversed(res.coeffs))
        affine = uv.trim(list(eliminant))
        # a root at (1 : 0) counts once however often it repeats
        roots = (len(affine) < len(eliminant)) + uv.distinct_root_count(affine, domain)
        if kept is None or roots > kept[0]:
            kept = (roots, (a, b), fs, gs, eliminant)
        usable += 1
        # a repeated root may be two points sharing a projection, so a
        # non-squarefree eliminant is only trusted after three shears
        if roots == expected or usable == 3:
            break
    if kept is None:
        raise CommonComponent("no usable shear found")
    roots, shear, fs, gs, eliminant = kept
    return PlaneIntersection(f, g, shear, fs, gs, eliminant, distinct=roots == expected)


def _lift_root(fs: Form, gs: Form, entry: RootEntry, domain):
    """x2-values over a projective root (x3:x4) of the eliminant."""
    root_domain = entry.domain or domain
    x3, x4 = entry.point
    if root_domain is not domain:
        fs, gs = (h.map_coefficients(root_domain.coerce, root_domain) for h in (fs, gs))
    g = uv.gcd(_slice_in_x2(fs, x3, x4, root_domain), _slice_in_x2(gs, x3, x4, root_domain),
               root_domain)
    if not 1 <= uv.degree(g) <= 2:
        return []
    # x2-values outside the root's field are not lifted
    return [(x2, x3, x4) for (x2, _one), fld in uv.low_degree_roots(g, root_domain)
            if fld == root_domain]


# ---------------------------------------------------------------------------
# rational points of plane curves over F_p, drawn a slice at a time


def _slice_residues(residues, degree: int, x3: int, x4: int, p: int):
    """Residue list (ascending, trimmed) of t -> f(t, x3, x4) mod p, for the
    plane form f of degree ``degree`` with the coefficient ``residues``."""
    cs = [0] * (degree + 1)
    for (e2, e3, e4), c in zip(monomials(3, degree), residues):
        cs[e2] += c * x3 ** e3 * x4 ** e4
    return uv.trim([c % p for c in cs])


def _plane_curve_points(f: Form, rng: random.Random, count: int, off=None):
    """Up to ``count`` F_p points of the plane curve f = 0, all of them when it
    has no more; with the form ``off``, only points where ``off`` does not
    vanish are kept, and no slice is drawn once ``count`` are.  The slices of
    P^2 are drawn in ``random_order``: index k <= p is the line (t : x3 : x4)
    over the k-th point (x3 : x4) of P^1(F_p), index p + 1 the point
    (1 : 0 : 0), read as t = 1 on the slice x3 = x4 = 0.  A drawn line gives the
    roots t of its x2-slice in ascending order, or every t when it is a
    component of the curve; ``off`` is read on the same slice.  The points are
    checked on f, and off ``off``, in one ``form_values`` product each."""
    field, p = f.domain, f.domain.p
    residues = field.plain_list(f.coeffs)[0]
    if off is not None:
        off_residues = field.plain_list(off.coeffs)[0]
    out = []
    for k in random_order(rng, p + 2):
        if len(out) >= count:
            break
        if k == p + 1:
            x3, x4, xs = 0, 0, [] if f.coefficient((f.degree, 0, 0)) else [1]
        else:
            x3, x4 = (1, k) if k < p else (0, 1)
            cs = _slice_residues(residues, f.degree, x3, x4, p)
            # no slice: the line through (1 : 0 : 0) and (0 : x3 : x4) is a component
            xs = [field.plain(t) for t, _ in uv.fp_rational_roots(cs, p)[0]] if cs else range(p)
        if off is not None:
            other = _slice_residues(off_residues, off.degree, x3, x4, p)
            xs = (t for t in xs if uv.eval_mod(other, t, p))
        out += [(x2, x3, x4) for x2 in islice(xs, count - len(out))]
    if out and form_values(out, f.degree, coefficient_matrix([f], p), p).any():
        raise ArithmeticError("drawn point is off its curve")
    if out and off is not None and not form_values(out, off.degree,
                                                   coefficient_matrix([off], p), p).all():
        raise ArithmeticError("drawn point is on the curve it must avoid")
    return [tuple(field.from_plain(pt)) for pt in out]


def conic_rational_points(conic: Form, rng: random.Random, count: int, off=None):
    """Up to ``count`` F_p points of a conic, drawn a line through (1 : 0 : 0)
    at a time in a random order (``_plane_curve_points``); with ``off``, only
    points off the curve {off = 0}."""
    return _plane_curve_points(conic, rng, count, off)


def curve_rational_points(f: Form, rng: random.Random, count: int, off=None):
    """Up to ``count`` F_p points of a plane curve, drawn a line through
    (1 : 0 : 0) at a time in a random order (``_plane_curve_points``); with
    ``off``, only points off the curve {off = 0}."""
    return _plane_curve_points(f, rng, count, off)
