"""Projection of the invariant cubic from the fixed line: fiber conics, the
degree-5 discriminant and its forced conic*cubic factorization, line splitting
and the involution's action on split fibers, line counts through points of the
fixed line, and the quadric cone over the conic factor.

Every fiber over a point P of the fixed plane is cut on the plane spanned by
P and the fixed line; in plane coordinates (x0, x1, s) the cubic restricts to
s * (alpha x0^2 + beta x1^2 + gamma x0 x1 + delta s^2) with alpha, beta, gamma
the values of l00, l11, l01 at P and delta = f3(P).  The residual conic splits
exactly over the discriminant, which is the quintic f3 * (4 l00 l11 - l01^2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .forms import (Form, SymMatrix3, evaluate, compose_linear, exact_divide,
                    monomials, partial_derivative)
from .intersect import (CommonComponent, PlaneIntersection, conic_rational_points,
                        curve_rational_points, intersect_plane_curves)
from .roots import binary_quadratic_roots
from .scalars import PrimeField, ZeroInput, quad_sqrt
from .tau import TauInstance, embed_with_x01, fibre_points


class DegenerateConicPart(ValueError):
    """The conic factor of the discriminant has rank < 3."""


class ZeroConic(ValueError):
    """All four fiber-conic coefficients vanish."""


class InfinitelyMany(RuntimeError):
    """The line-count condition system has a positive-dimensional solution set."""


FIXES = "Fixes"
SWAPS = "Swaps"
DOUBLE_LINE = "DoubleLine"
SMOOTH_FIBER = "SmoothFiber"


def _plane_point(P):
    """Normalize a fixed-plane point to its (x2, x3, x4) coordinates."""
    if len(P) == 5:
        if P[0] or P[1]:
            raise ValueError("point does not lie in the fixed plane")
        P = P[2:]
    if len(P) != 3 or not any(P):
        raise ValueError("expected a nonzero point of the fixed plane")
    return tuple(P)


@dataclass
class FiberConic:
    """Residual conic of one projection fiber, in plane coordinates (x0, x1, s)."""

    base_point: tuple
    alpha: object
    beta: object
    gamma: object
    delta: object
    gram: SymMatrix3
    plane_rows: list
    domain: object

    def coefficients(self):
        return (self.alpha, self.beta, self.gamma, self.delta)

    def rank(self) -> int:
        return self.gram.rank(self.domain)


def fiber_conic(instance: TauInstance, P) -> FiberConic:
    """Fiber data over a point of the fixed plane, with the restriction identity
    of the cubic to the spanned plane checked symbolically."""
    domain = instance.domain
    P = tuple(domain.coerce(c) for c in _plane_point(P))
    alpha = evaluate(instance.l00, P)
    beta = evaluate(instance.l11, P)
    gamma = evaluate(instance.l01, P)
    delta = evaluate(instance.f3, P)
    one, zero = domain.one, domain.zero
    rows = [[one, zero, zero], [zero, one, zero],
            [zero, zero, P[0]], [zero, zero, P[1]], [zero, zero, P[2]]]
    restricted = compose_linear(instance.cubic(), rows)
    expected = Form.from_terms(3, 3, {(2, 0, 1): alpha, (0, 2, 1): beta,
                                      (1, 1, 1): gamma, (0, 0, 3): delta}, domain)
    if restricted != expected:
        raise ArithmeticError("plane restriction of the cubic lost its s * E_P shape")
    half = one / domain.coerce(2)
    gram = SymMatrix3.from_rows([[alpha, gamma * half, zero],
                                 [gamma * half, beta, zero],
                                 [zero, zero, delta]])
    return FiberConic(P, alpha, beta, gamma, delta, gram, rows, domain)


@dataclass
class Line:
    """A line in P^4 as two spanning points; keeps plane coordinates too."""

    span: tuple
    plane_span: tuple | None
    domain: object

    def same_line(self, other: "Line") -> bool:
        a, b = self.span
        for q in other.span:
            if linalg.rank([list(a), list(b), list(q)], self.domain) > 2:
                return False
        return True

    def contains(self, pt) -> bool:
        a, b = self.span
        return linalg.rank([list(a), list(b), list(pt)], self.domain) == 2


@dataclass
class LinePair:
    plus: Line
    minus: Line
    double: bool
    domain: object

    def as_set(self):
        return (self.plus, self.minus)


def split_conic(fc: FiberConic) -> LinePair | None:
    """Factor a degenerate fiber conic into its line pair.

    Rank 3 returns None (smooth conic, nothing splits); rank 2 gives two
    distinct lines over at most one quadratic extension; rank 1 gives a double
    line.  Raises ZeroConic when all four coefficients vanish.
    """
    if not any(fc.coefficients()):
        raise ZeroConic("fiber conic is identically zero")
    domain = fc.domain
    r = fc.rank()
    if r == 3:
        return None
    entries = fc.gram.entries
    if r == 1:
        row = next(row for row in entries if any(row))
        ln = _line_from_plane_form(fc, row, domain)
        return LinePair(ln, ln, True, domain)
    kernel = linalg.nullspace([list(r_) for r_ in entries], domain)
    assert len(kernel) == 1
    k = kernel[0]
    m = max(range(3), key=lambda i: 1 if k[i] else 0)
    others = [i for i in range(3) if i != m]
    u, v = others
    A = entries[u][u]
    B = entries[u][v] + entries[u][v]
    C = entries[v][v]
    roots, fld = binary_quadratic_roots(A, B, C, domain)
    lines = []
    for (a, b), _mult in roots:
        pt = [fld.zero] * 3
        pt[u], pt[v] = fld.coerce(a), fld.coerce(b)
        kpt = [fld.coerce(c) for c in k]
        lines.append(_line_from_plane_points(fc, tuple(kpt), tuple(pt), fld))
    if len(lines) == 1 or _proj_same(roots[0][0], roots[1][0]):
        return LinePair(lines[0], lines[0], True, fld)
    return LinePair(lines[0], lines[1], False, fld)


def _proj_same(p, q):
    return p[0] * q[1] == p[1] * q[0]


def _line_from_plane_points(fc: FiberConic, p3, q3, fld):
    to5 = lambda pt: tuple(_row_dot(row, pt, fld) for row in fc.plane_rows)
    return Line((to5(p3), to5(q3)), (p3, q3), fld)


def _row_dot(row, pt, fld):
    total = fld.zero
    for c, x in zip(row, pt):
        total = total + fld.coerce(c) * x
    return total


def _line_from_plane_form(fc: FiberConic, coeffs, fld):
    """Line {c0 x0 + c1 x1 + c2 s = 0} in the fiber plane, as spanning points."""
    c = [fld.coerce(x) for x in coeffs]
    pts = []
    for i in range(3):
        for j in range(i + 1, 3):
            # point with support {i, j} solving the linear equation
            pt = [fld.zero] * 3
            pt[i], pt[j] = c[j], -c[i]
            if any(pt):
                pts.append(tuple(pt))
    base = pts[0]
    other = next(p for p in pts[1:]
                 if linalg.rank([list(base), list(p)], fld) == 2)
    return _line_from_plane_points(fc, base, other, fld)


def split_normal_form(fc: FiberConic):
    """The coefficients (b0, b1) with the conic equal to
    delta*(s + b0 x0 + b1 x1)(s - b0 x0 - b1 x1), for rank-2 fibers with
    nonzero delta.  Returns (b0, b1, field)."""
    if not fc.delta:
        raise ZeroInput("normal form needs a nonzero s^2 coefficient")
    domain = fc.domain
    if fc.alpha:
        b0, fld = quad_sqrt(-fc.alpha / fc.delta, domain)
        b1 = fld.coerce(-fc.gamma / (fc.delta * 2)) / b0
    else:
        b0 = domain.zero
        b1, fld = quad_sqrt(-fc.beta / fc.delta, domain)
        b0 = fld.coerce(b0)
    return b0, b1, fld


@dataclass
class FiberAction:
    action: str
    on_conic_component: bool
    on_cubic_component: bool
    pair: LinePair | None


def tau_fiber_action(instance: TauInstance, P) -> FiberAction:
    """How the involution moves the two lines of a degenerate fiber.

    The verified dichotomy: fibers over the cubic component (delta = 0) keep
    each line; fibers over the conic component swap them; over component
    crossings the pair degenerates to a double line.
    """
    fc = fiber_conic(instance, P)
    on_cubic = not fc.delta
    on_conic = not evaluate(instance.conic_part(), fc.base_point)
    pair = split_conic(fc)
    if pair is None:
        return FiberAction(SMOOTH_FIBER, on_conic, on_cubic, None)
    if pair.double:
        return FiberAction(DOUBLE_LINE, on_conic, on_cubic, pair)
    imgs = [_tau_plane_line(fc, ln, pair) for ln in pair.as_set()]
    if imgs[0].same_line(pair.plus) and imgs[1].same_line(pair.minus):
        return FiberAction(FIXES, on_conic, on_cubic, pair)
    if imgs[0].same_line(pair.minus) and imgs[1].same_line(pair.plus):
        return FiberAction(SWAPS, on_conic, on_cubic, pair)
    raise ArithmeticError("involution did not preserve the fiber's line pair")


def _tau_plane_line(fc: FiberConic, ln: Line, pair: LinePair) -> Line:
    fld = pair.domain
    moved = tuple((-p[0], -p[1], p[2]) for p in ln.plane_span)
    return _line_from_plane_points(fc, moved[0], moved[1], fld)


# ---------------------------------------------------------------------------
# the discriminant quintic


@dataclass
class DiscriminantData:
    quintic: Form
    conic_part: Form
    cubic_part: Form
    intersection: PlaneIntersection
    transversal: bool


def discriminant_quintic(instance: TauInstance,
                         rng: random.Random | None = None) -> DiscriminantData:
    """The quintic discriminant with its conic*cubic factorization and the six
    crossing points of its two components."""
    rng = rng or random.Random(0xD15C)
    domain = instance.domain
    conic = instance.conic_part()
    if conic.is_zero or SymMatrix3.gram_of_ternary(conic).rank(domain) < 3:
        raise DegenerateConicPart("conic factor of the discriminant is degenerate")
    cubic = instance.f3
    quintic = conic * cubic
    if exact_divide(quintic, conic) != cubic:
        raise ArithmeticError("factorization re-verification failed")
    inter = intersect_plane_curves(conic, cubic, rng, want_points=True)
    transversal = (inter.distinct and inter.total_multiplicity == 6
                   and all(p.transversal is not False for p in inter.points))
    return DiscriminantData(quintic, conic, cubic, inter, transversal)


def family_gram(instance: TauInstance) -> SymMatrix3:
    """Gram matrix of the fiber-conic family, with Form entries; 4*det equals
    the discriminant quintic.

    The grading is (1,1,2) x (1,1,2): the off-corner zero entries are the
    zero form of degree 2 so every determinant term is a quintic.
    """
    dom = instance.domain
    half = dom.one / dom.coerce(2)
    z2 = Form.zero_form(3, 2, dom)
    half_l01 = instance.l01.scale(half)
    return SymMatrix3.from_rows([
        [instance.l00, half_l01, z2],
        [half_l01, instance.l11, z2],
        [z2, z2, instance.f3],
    ])


# ---------------------------------------------------------------------------
# F_p points on the discriminant components, from the plane-curve enumerator


def points_on_conic_component(instance: TauInstance, rng: random.Random, count: int,
                              off_cubic: bool = True):
    conic = instance.conic_part()
    pts = conic_rational_points(conic, rng, count * 3 + 10)
    out = []
    for pt in pts:
        if off_cubic and not evaluate(instance.f3, pt):
            continue
        out.append(pt)
        if len(out) >= count:
            break
    return out


def points_on_cubic_component(instance: TauInstance, rng: random.Random, count: int,
                              off_conic: bool = True):
    conic = instance.conic_part()
    pts = curve_rational_points(instance.f3, rng, count * 3 + 10)
    out = []
    for pt in pts:
        if off_conic and not evaluate(conic, pt):
            continue
        out.append(pt)
        if len(out) >= count:
            break
    return out


def points_on_both_components(instance: TauInstance, rng: random.Random):
    """Crossing points of the two components that are rational over the
    instance domain."""
    inter = intersect_plane_curves(instance.conic_part(), instance.f3, rng,
                                   want_points=True)
    return [p.coords for p in inter.points if p.domain == instance.domain]


# ---------------------------------------------------------------------------
# lines through a point of the fixed line


@dataclass
class LineCountReport:
    total_multiplicity: int
    expected_total: int
    rational_directions: list
    clusters: list
    contains_fixed_line: bool
    distinct: bool
    dropped_coordinate: int


def directional_expansion(f: Form, T):
    """Coefficient forms of u^k in f(T + u*Q), as forms in the direction Q."""
    from .forms import PolyDict
    domain = f.domain
    nv = f.num_vars
    # variables of the expansion ring: (u, Q_0, ..., Q_{nv-1})
    coords = []
    for i in range(nv):
        terms = {}
        if T[i]:
            terms[(0,) * (nv + 1)] = T[i]
        e = [0] * (nv + 1)
        e[0] = 1
        e[i + 1] = 1
        terms[tuple(e)] = domain.one
        coords.append(PolyDict(nv + 1, domain, terms))
    expanded = evaluate(f, coords)
    buckets: dict = {}
    for e, c in expanded.terms.items():
        buckets.setdefault(e[0], {})[e[1:]] = c
    out = {}
    for k, terms in buckets.items():
        out[k] = Form.from_terms(nv, k, terms, domain)
    return out


def _condition_forms(instance: TauInstance, T):
    """Forms of degree 1, 2, 3 on the direction space cutting the lines on the
    cubic through a point T of the fixed line."""
    domain = instance.domain
    if len(T) == 2:
        T = (T[0], T[1], 0, 0, 0)
    T = tuple(domain.coerce(c) for c in T)
    if any(T[2:]) or not any(T[:2]):
        raise ValueError("T must be a nonzero point of the fixed line")
    phi = instance.cubic()
    if evaluate(phi, T):
        raise ArithmeticError("the fixed line is not on the cubic (broken instance)")
    expansion = directional_expansion(phi, T)
    assert 0 not in expansion, "constant term survived though T is on the cubic"
    g1 = expansion.get(1, Form.zero_form(5, 1, domain))
    g2 = expansion.get(2, Form.zero_form(5, 2, domain))
    g3 = expansion.get(3, Form.zero_form(5, 3, domain))
    return T, g1, g2, g3


def drop_variable(f: Form, var: int) -> Form:
    """Restrict a form to the hyperplane {x_var = 0} (variable removed)."""
    terms = {}
    for m, c in zip(monomials(f.num_vars, f.degree), f.coeffs):
        if c and m[var] == 0:
            terms[m[:var] + m[var + 1:]] = c
    return Form.from_terms(f.num_vars - 1, f.degree, terms, f.domain)


def lines_through_point_of_ltau(instance: TauInstance, T,
                                rng: random.Random | None = None) -> LineCountReport:
    """Multiplicity-aware count of the lines on the cubic through a point of
    the fixed line; six with multiplicity for a general point, the fixed line
    itself always among them."""
    rng = rng or random.Random(0x11E5)
    domain = instance.domain
    T, g1, g2, g3 = _condition_forms(instance, T)
    drop = 0 if T[0] else 1
    g1r = drop_variable(g1, drop)
    g2r = drop_variable(g2, drop)
    g3r = drop_variable(g3, drop)
    if g1r.is_zero or g2r.is_zero or g3r.is_zero:
        raise InfinitelyMany("a condition form vanished identically")
    lin = [g1r.coefficient(tuple(1 if j == i else 0 for j in range(4)))
           for i in range(4)]
    j = next(i for i in range(3, -1, -1) if lin[i])
    keep = [i for i in range(4) if i != j]
    rows = []
    inv = domain.one / lin[j]
    for i in range(4):
        if i != j:
            k = keep.index(i)
            rows.append([domain.one if kk == k else domain.zero for kk in range(3)])
        else:
            rows.append([-(lin[keep[k]]) * inv for k in range(3)])
    g2s = compose_linear(g2r, rows)
    g3s = compose_linear(g3r, rows)
    if g2s.is_zero or g3s.is_zero:
        raise InfinitelyMany("condition system degenerated after elimination")
    try:
        inter = intersect_plane_curves(g2s, g3s, rng, want_points=True)
    except CommonComponent as exc:
        raise InfinitelyMany("positive-dimensional family of lines") from exc
    directions = []
    fixed_found = False
    for pp in inter.points:
        y = pp.coords
        pdom = pp.domain
        q4 = [pdom.zero] * 4
        for k, i in enumerate(keep):
            q4[i] = y[k]
        q4[j] = sum((rows[j][k] * y[k] for k in range(3)), start=pdom.zero)
        q5 = list(q4)
        q5.insert(drop, pdom.zero)
        q5 = tuple(q5)
        for form in (g1, g2, g3):
            if evaluate(form, q5):
                raise ArithmeticError("reconstructed line direction fails a condition form")
        if not any(q5[2:]):
            fixed_found = True
        directions.append((q5, pp.mult, pp.field_label))
    return LineCountReport(
        total_multiplicity=inter.total_multiplicity,
        expected_total=6,
        rational_directions=directions,
        clusters=list(inter.clusters),
        contains_fixed_line=fixed_found,
        distinct=inter.distinct,
        dropped_coordinate=drop,
    )


def lines_through_point_brute(instance: TauInstance, T):
    """Brute-force enumeration of rational line directions over F_p, for the
    same hyperplane slice used by the elimination route."""
    from .bruteforce import projective_points_fp
    domain = instance.domain
    if not isinstance(domain, PrimeField):
        raise TypeError("brute-force line count works over prime fields")
    T, g1, g2, g3 = _condition_forms(instance, T)
    drop = 0 if T[0] else 1
    fs = [drop_variable(g1, drop), drop_variable(g2, drop), drop_variable(g3, drop)]
    out = []
    for q in projective_points_fp(4, domain.p):
        if all(not evaluate(f, q) for f in fs):
            q5 = list(q)
            q5.insert(drop, domain.zero)
            out.append(tuple(q5))
    return out


# ---------------------------------------------------------------------------
# the cone over the conic component and its singular pencil member


@dataclass
class ConeReport:
    singular_locus_is_fixed_line: bool
    line_points: list
    line_point_field: object
    line_points_singular: bool
    probe_count: int
    probes_all_smooth: bool
    singular_probes: list
    probe_undecided: str = ""  # why the off-line probes say nothing, if they do not


def cone_and_singular_member(instance: TauInstance, quadric_index: int = 0,
                             rng: random.Random | None = None,
                             probe_prime: int = 101,
                             probe_count: int = 8) -> ConeReport:
    """The quadric cone over the conic component has the fixed line as its exact
    singular locus; its intersection with a smooth pencil quadric is singular
    exactly at the two points cut on the fixed line."""
    rng = rng or random.Random(0xC04E)
    domain = instance.domain
    conic = instance.conic_part()
    if conic.is_zero or SymMatrix3.gram_of_ternary(conic).rank(domain) < 3:
        raise DegenerateConicPart("cone over a degenerate conic")
    K = embed_with_x01(conic, 0, 0)
    grads = [partial_derivative(K, i) for i in range(5)]
    assert grads[0].is_zero and grads[1].is_zero
    # gradient components live in (x2,x3,x4); their coefficient matrix has rank 3
    # exactly when the vanishing locus is the fixed line
    rows3 = []
    for i in range(2, 5):
        g = grads[i]
        row = []
        for k in range(2, 5):
            e = [0] * 5
            e[k] = 1
            row.append(g.coefficient(tuple(e)))
        rows3.append(row)
    sing_is_line = linalg.rank(rows3, domain) == 3
    q = instance.quadrics[quadric_index]
    F = instance.quadric(quadric_index)
    roots, fld = binary_quadratic_roots(q.a00, q.a01, q.a11, domain)
    line_points = []
    ranks = []
    for (x0, x1), _m in roots:
        zero = fld.zero
        pt = (x0, x1, zero, zero, zero)
        if evaluate(_coerce_form(K, fld), pt) or evaluate(_coerce_form(F, fld), pt):
            raise ArithmeticError("root of the line quadratic is not on the surface")
        jac = [[evaluate(_coerce_form(g, fld), pt) for g in grads],
               [evaluate(_coerce_form(partial_derivative(F, i), fld), pt) for i in range(5)]]
        ranks.append(linalg.rank(jac, fld))
        line_points.append(pt)
    probes, singular, undecided = _probe_cone_surface(instance, quadric_index, rng,
                                                      probe_prime, probe_count)
    return ConeReport(
        singular_locus_is_fixed_line=sing_is_line,
        line_points=line_points,
        line_point_field=fld,
        line_points_singular=all(r <= 1 for r in ranks),
        probe_count=probes,
        probes_all_smooth=not singular,
        singular_probes=singular,
        probe_undecided=undecided,
    )


def _coerce_form(f: Form, fld):
    if fld is f.domain:
        return f
    return f.map_coefficients(fld.coerce, fld)


def _probe_cone_surface(instance, quadric_index, rng, probe_prime, probe_count):
    """Jacobian ranks at rational points of the cone surface off the fixed line,
    one point from the fibre over each of a seeded sample of conic points.

    A rational instance is probed mod probe_prime; when its conic part drops
    rank there, the reduced cone is singular over the conic's vertex and the
    probes are skipped with that reason."""
    domain = instance.domain
    if isinstance(domain, PrimeField):
        work = instance
        p = domain.p
    else:
        from .tau import reduce_instance
        work = reduce_instance(instance, probe_prime)
        p = probe_prime
    fdom = PrimeField(p)
    conic = work.conic_part()
    if SymMatrix3.gram_of_ternary(conic).rank(fdom) < 3:
        return 0, [], f"the conic part drops rank mod {p}"
    K = embed_with_x01(conic, 0, 0)
    F = work.quadric(quadric_index)
    gradsK = [partial_derivative(K, i) for i in range(5)]
    gradsF = [partial_derivative(F, i) for i in range(5)]
    count = 0
    singular = []
    for c in conic_rational_points(conic, rng, probe_count * 4 + 8):
        if count >= probe_count:
            break
        pt = next(fibre_points(K, F, c), None)
        if pt is None:
            continue
        jac = [[evaluate(g, pt) for g in gradsK],
               [evaluate(g, pt) for g in gradsF]]
        count += 1
        if linalg.rank(jac, fdom) < 2:
            singular.append(pt)
    return count, singular, ""
