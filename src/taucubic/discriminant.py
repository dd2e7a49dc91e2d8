"""Projection of the invariant cubic from the fixed line: fiber conics, the
degree-5 discriminant and its conic*cubic factorization, line splitting and
the involution's action on split fibers, line counts through points of the
fixed line, and the quadric cone over the conic factor.

Every fiber over a point P of the fixed plane is cut on the plane spanned by
P and the fixed line.  A point of that plane is x0 e0 + x1 e1 + s P, so in
plane coordinates (x0, x1, s) the cubic restricts to
s * (alpha x0^2 + gamma x0 x1 + beta x1^2 + delta s^2), where alpha, gamma,
beta and delta are the values at P of the forms multiplying x0^2, x0 x1 and
x1^2 in the cubic and of its part free of x0 and x1.  Those four forms are the
instance's ``family``, read off the cubic's coefficients once; reading them
off also checks that the cubic has no other monomial.

The discriminant is 4 * det of the family's Gram matrix.  It is computed from
the cubic, and the report compares it with the conic 4 l00 l11 - l01^2 times
f3 built from the instance's parts, so the factorization is checked, not
assumed.

A degenerate fiber conic is a pair of lines, each a linear form
c = (c0, c1, c2) in (x0, x1, s) over the base field or one quadratic
extension.  The involution negates x0 and x1 and fixes s, so it maps the
plane to itself and the zero set of c0 x0 + c1 x1 + c2 s to the zero set of
-c0 x0 - c1 x1 + c2 s: it acts on line forms by (c0, c1, c2) -> (-c0, -c1, c2),
and two forms give the same line when they are proportional.  Over the cubic
component (delta = 0) both lines pass through P = (0 : 0 : 1), so c2 = 0 and
each line is kept; over the conic component they are s = +-m(x0, x1) and
are swapped.

The fiber over a point is evaluated, split and classified on the plain
numbers of ``scalars``: residues mod p over F_p, Fractions over Q.  The
family's forms are one dense table of plain coefficients, built once per
instance (``FiberFamily.table``).  An element a + b sqrt(d) of the quadratic
extension a line pair may need is the pair (a, b), so a line form is a pair
(re, im) of plain vectors (``_split``), and its square root is the plain
(s0, s1, d) of the domain's ``plain_sqrt``.  Over F_p no field element is
built for a fiber; over Q a non-square's root is read off ``quad_sqrt``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from . import linalg
from .bruteforce import common_projective_zeros
from .forms import (Form, compose_linear, evaluate, is_smooth_conic, jacobian_rank,
                    monomials, partial_derivative)
from .intersect import (PlaneIntersection, conic_rational_points, curve_rational_points,
                        intersect_plane_curves)
from .roots import binary_form_roots, binary_quadratic_roots
from .scalars import BadPrime, PrimeField, QuadElem
from .tau import FibreSystem, TauInstance, embed_with_x01, reduce_instance


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


_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _split(values, domain):
    """The line pair of the fiber conic with the plain values (alpha, beta,
    gamma, delta): None for a smooth conic (rank 3), else (lines, field, d)
    with one line for a double line (rank 1) and two otherwise.  A line is a
    pair (re, im) of plain vectors, the form re + sqrt(d) im over
    field = domain(sqrt(d)); over field = domain, im is zero and d is 0.
    Raises ZeroConic when all four values vanish.

    Rank 1 is the nonzero row of the Gram matrix.  Rank 2 is two distinct
    lines through the vertex k, the kernel of the Gram matrix: on a coordinate
    line {x_m = 0} with k_m != 0 the conic is a binary quadratic whose two
    roots q give the lines k x q.  The Gram matrix is diag(A, delta), A its
    (x0, x1) block, so the vertex is (0, 0, det A) on the cubic component and
    (ker A, 0) on the conic one, and the binary quadratic has a cross term
    only on {s = 0}.  A root (r : 1) at (x_u, x_v) gives the line
    k x q = r (k x e_u) + k x e_v."""
    alpha, beta, gamma, delta = values
    if not any(values):
        raise ZeroConic("fiber conic is identically zero")
    reduce, inverse = domain.reduce, domain.inverse
    g01 = reduce(gamma * inverse(2))
    det_a = reduce(alpha * beta - g01 * g01)
    if det_a and delta:
        return None
    # the first nonzero cross product of two Gram rows (rows 0 x 1, 0 x 2, 1 x 2)
    if det_a:
        vertex = (0, 0, det_a)
    elif alpha or gamma:
        vertex = (reduce(g01 * delta), reduce(-alpha * delta), 0)
    else:
        vertex = (reduce(beta * delta), 0, 0)
    zero = (0, 0, 0)
    if not any(vertex):
        row = (alpha, g01, 0) if alpha or gamma else (0, beta, 0) if beta else (0, 0, delta)
        return [(row, zero)], domain, 0
    m = next(i for i in range(3) if vertex[i])
    u, v = (i for i in range(3) if i != m)
    (p0, p1, p2), (q0, q1, q2) = _cross(vertex, _UNIT[u]), _cross(vertex, _UNIT[v])
    line = lambda x, y: (reduce(x * p0 + y * q0), reduce(x * p1 + y * q1),
                         reduce(x * p2 + y * q2))
    a, b, c = (alpha, beta, delta)[u], gamma if v == 1 else 0, (alpha, beta, delta)[v]
    if not a:
        return [(line(1, 0), zero), (line(-c * inverse(b), 1), zero)], domain, 0
    s0, s1, d, field = domain.plain_sqrt(b * b - 4 * a * c)
    w = inverse(2 * a)
    return [(line((s0 - b) * w, 1), line(s1 * w, 0)),
            (line((-s0 - b) * w, 1), line(-s1 * w, 0))], field, d


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _tau_line(c):
    """The involution on a line form (re, im): (c0, c1, c2) -> (-c0, -c1, c2)."""
    (r0, r1, r2), (i0, i1, i2) = c
    return (-r0, -r1, r2), (-i0, -i1, i2)


def _proportional(c, e, d, reduce) -> bool:
    """Whether two line forms (re, im) over K(sqrt(d)) are proportional: every
    2x2 minor vanishes, in both its parts."""
    ((a0, a1, a2), (b0, b1, b2)), ((c0, c1, c2), (e0, e1, e2)) = c, e
    return not (reduce(a0 * c1 - a1 * c0 + d * (b0 * e1 - b1 * e0))
                or reduce(a0 * e1 - a1 * e0 + b0 * c1 - b1 * c0)
                or reduce(a0 * c2 - a2 * c0 + d * (b0 * e2 - b2 * e0))
                or reduce(a0 * e2 - a2 * e0 + b0 * c2 - b2 * c0)
                or reduce(a1 * c2 - a2 * c1 + d * (b1 * e2 - b2 * e1))
                or reduce(a1 * e2 - a2 * e1 + b1 * c2 - b2 * c1))


@dataclass
class FiberAction:
    action: str
    on_conic_component: bool
    on_cubic_component: bool


def tau_fiber_action(instance: TauInstance, P) -> FiberAction:
    """How the involution moves the two lines of a degenerate fiber.

    The verified dichotomy: fibers over the cubic component (delta = 0) keep
    each line; fibers over the conic component swap them; over component
    crossings the pair degenerates to a double line.  The fiber is computed
    on plain numbers.
    """
    domain = instance.domain
    values = instance.family.values([domain.plain(c) for c in _plane_point(P)])
    alpha, beta, gamma, delta = values
    on_cubic = not delta
    on_conic = not domain.reduce(4 * alpha * beta - gamma * gamma)
    split = _split(values, domain)
    if split is None:
        return FiberAction(SMOOTH_FIBER, on_conic, on_cubic)
    lines, _field, d = split
    if len(lines) == 1:
        return FiberAction(DOUBLE_LINE, on_conic, on_cubic)
    plus, minus = lines
    same = lambda c, e: _proportional(c, e, d, domain.reduce)
    if same(_tau_line(plus), plus) and same(_tau_line(minus), minus):
        return FiberAction(FIXES, on_conic, on_cubic)
    if same(_tau_line(plus), minus) and same(_tau_line(minus), plus):
        return FiberAction(SWAPS, on_conic, on_cubic)
    raise ArithmeticError("involution did not preserve the fiber's line pair")


# ---------------------------------------------------------------------------
# the discriminant quintic


@dataclass
class DiscriminantData:
    """The quintic, its conic and cubic parts and their intersection.

    ``transversal``: the conic and the cubic meet in six distinct points,
    total multiplicity 6, and their gradients are independent at each
    crossing point that has coordinates over the field or a quadratic
    extension.  Only those points are lifted, so the Jacobian check sees only
    them; over Q it usually sees none (none in 20 of 20 gated draws,
    ``sample_instance(s, 10)`` for s = 0..19), and the verdict rests on
    ``distinct`` and Bezout: six distinct crossings of a conic and a cubic
    each have multiplicity one."""

    quintic: Form
    conic_part: Form
    cubic_part: Form
    intersection: PlaneIntersection
    transversal: bool


def discriminant_quintic(instance: TauInstance) -> DiscriminantData:
    """The quintic discriminant, 4 * det of the family's Gram matrix, next to
    the conic and cubic parts of the instance and the six crossing points of
    their curves.  Whether the quintic is conic * cubic is left to the caller."""
    domain = instance.domain
    conic = instance.conic_part()
    if not is_smooth_conic(conic):
        raise DegenerateConicPart("conic factor of the discriminant is degenerate")
    quintic = instance.family.gram().det().scale(domain.coerce(4))
    cubic = instance.f3
    inter = intersect_plane_curves(conic, cubic)
    grads = [[partial_derivative(h, i) for i in range(3)] for h in (conic, cubic)]
    transversal = (inter.distinct and inter.total_multiplicity == 6
                   and all(jacobian_rank(grads, p.coords, p.domain) == 2 for p in inter.points))
    return DiscriminantData(quintic, conic, cubic, inter, transversal)


# ---------------------------------------------------------------------------
# F_p points on the discriminant components, from the plane-curve sampler


def points_on_conic_component(instance: TauInstance, rng: random.Random, count: int):
    """Up to ``count`` F_p points of the conic component off the cubic one."""
    return conic_rational_points(instance.conic_part(), rng, count, off=instance.f3)


def points_on_cubic_component(instance: TauInstance, rng: random.Random, count: int):
    """Up to ``count`` F_p points of the cubic component off the conic one."""
    return curve_rational_points(instance.f3, rng, count, off=instance.conic_part())


# ---------------------------------------------------------------------------
# lines through a point of the fixed line


@dataclass
class LineCountReport:
    total_multiplicity: int
    rational_directions: list
    contains_fixed_line: bool


def _condition_forms(instance: TauInstance, T):
    """The point T of the fixed line, as five coordinates, and the forms g1, g2,
    g3 in the direction Q with Phi(T + u Q) = u g1(Q) + u^2 g2(Q) + u^3 g3(Q),
    whose common zeros are the lines on the cubic through T.

    They are read off the instance's parts: Phi = x0^2 l00 + x0 x1 l01 +
    x1^2 l11 + f3 in y = (x2, x3, x4), and T = (t0, t1, 0, 0, 0) gives
    g1 = t0^2 l00 + t0 t1 l01 + t1^2 l11, a linear form in y,
    g2 = x0 (2 t0 l00 + t1 l01) + x1 (t0 l01 + 2 t1 l11) and g3 = Phi."""
    domain = instance.domain
    if len(T) == 2:
        T = (T[0], T[1], 0, 0, 0)
    T = tuple(domain.coerce(c) for c in T)
    if any(T[2:]) or not any(T[:2]):
        raise ValueError("T must be a nonzero point of the fixed line")
    t0, t1 = T[:2]
    l00, l01, l11 = instance.l00, instance.l01, instance.l11
    g1 = l00.scale(t0 * t0) + l01.scale(t0 * t1) + l11.scale(t1 * t1)
    g2 = (embed_with_x01(l00.scale(t0 + t0) + l01.scale(t1), 1, 0)
          + embed_with_x01(l01.scale(t0) + l11.scale(t1 + t1), 0, 1))
    return T, embed_with_x01(g1, 0, 0), g2, instance.cubic()


def drop_variable(f: Form, var: int) -> Form:
    """Restrict a form to the hyperplane {x_var = 0} (variable removed)."""
    terms = {}
    for m, c in zip(monomials(f.num_vars, f.degree), f.coeffs):
        if c and m[var] == 0:
            terms[m[:var] + m[var + 1:]] = c
    return Form.from_terms(f.num_vars - 1, f.degree, terms, f.domain)


def lines_through_point_of_ltau(instance: TauInstance, T) -> LineCountReport:
    """Multiplicity-aware count of the lines on the cubic through a point of
    the fixed line; six with multiplicity for a general point, the fixed line
    itself always among them.

    On the slice {x_drop = 0}, with x the kept one of x0 and x1, the condition
    forms are g1(y), g2 = x L(y) and g3 = Phi, so every direction lies on one
    of the two lines {x = 0} and {L = 0} of the plane {g1 = 0}.  Each line is
    parametrised by a kernel basis, and the root ledger of the binary cubic
    g3 restricted to it gives the directions on it with their multiplicities.
    Intersection multiplicity is additive in the factors x and L, so a
    direction on both lines gets the sum, and the total is the sum of the two
    ledger totals.  The lines found are checked on the cubic itself: T with
    ``evaluate``, and each direction on plain numbers (``_check_on_cubic``)."""
    domain = instance.domain
    T, *forms = _condition_forms(instance, T)
    if evaluate(instance.cubic(), T):
        raise ArithmeticError("the point T does not lie on the cubic")
    drop = 0 if T[0] else 1
    g1r, g2r, g3r = (drop_variable(g, drop) for g in forms)
    # slice coordinates (x, y): g1r is linear in y, g2r = x L(y)
    x_row = [domain.one, domain.zero, domain.zero, domain.zero]
    l_row = [domain.zero] + [g2r.coefficient((1,) + e) for e in _UNIT]
    total = 0
    directions = []   # [direction, multiplicity, field label]
    for row in (x_row, l_row):
        basis = linalg.nullspace([row, list(g1r.coeffs)], domain)
        if len(basis) != 2:
            raise InfinitelyMany("a component of the condition system is a plane")
        cubic = compose_linear(g3r, list(zip(*basis)))
        if cubic.is_zero:
            raise InfinitelyMany("the cubic contains a line of the condition plane")
        ledger = binary_form_roots(list(reversed(cubic.coeffs)), domain)
        total += ledger.total_multiplicity
        for e in ledger.entries:
            if e.point is None:
                continue
            s, t = e.point
            q = [s * b0 + t * b1 for b0, b1 in zip(*basis)]
            q = tuple(q[:drop] + [e.domain.zero] + q[drop:])
            same = next((d for d in directions
                         if d[2] == e.field_label and linalg.proportional(d[0], q)), None)
            if same:
                same[1] += e.mult
            else:
                directions.append([q, e.mult, e.field_label])
    _check_on_cubic(instance, T, [q for q, _m, _label in directions])
    return LineCountReport(
        total_multiplicity=total,
        rational_directions=[tuple(d) for d in directions],
        contains_fixed_line=any(not any(q[2:]) for q, _m, _label in directions),
    )


def _check_on_cubic(instance: TauInstance, T, directions):
    """Raise ArithmeticError unless the cubic Phi vanishes at T + u Q for
    u = 1, 2, 3 and every direction Q through the point T of the fixed line;
    Phi(T + u Q) is a cubic in u, so with Phi(T) = 0 the line lies on Phi.
    Plain numbers, a + b sqrt(d) as the pair (a, b), and the ``family``, read
    off the cubic: with y = (x2, x3, x4), Phi at (w0, w1, u y(Q)) is
    u (w0^2 l00 + w0 w1 l01 + w1^2 l11)(y(Q)) + u^3 f3(y(Q))."""
    plain, reduce = instance.domain.plain, instance.domain.reduce
    t0, t1 = plain(T[0]), plain(T[1])
    r00, r11, r01, r3 = instance.family.table
    for q in directions:
        d = plain(q[0].ext.d) if isinstance(q[0], QuadElem) else 0
        q = [(plain(c.a), plain(c.b)) if d else (plain(c), 0) for c in q]

        def mul(x, y):
            return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]

        def at(row, ys):    # a family form at y(Q), from its row of the table
            return tuple(sum(c * y[k] for c, y in zip(row, ys)) for k in (0, 1))

        pw = [list(accumulate([c] * 3, mul, initial=(1, 0))) for c in q[2:]]
        l00, l11, l01 = (at(row, q[2:]) for row in (r00, r11, r01))
        f3 = at(r3, [mul(mul(pw[0][i], pw[1][j]), pw[2][k]) for i, j, k in monomials(3, 3)])
        for u in (1, 2, 3):
            w0, w1 = (t0 + u * q[0][0], u * q[0][1]), (t1 + u * q[1][0], u * q[1][1])
            parts = zip(mul(mul(w0, w0), l00), mul(mul(w0, w1), l01), mul(mul(w1, w1), l11), f3)
            if any(reduce(u * (a + b + c) + u ** 3 * e) for a, b, c, e in parts):
                raise ArithmeticError("a found line direction does not lie on the cubic")


def lines_through_point_brute(instance: TauInstance, T):
    """The rational line directions through T over F_p, on the same hyperplane
    slice as ``lines_through_point_of_ltau``, by the exhaustive scan of
    P^3(F_p) in ``common_projective_zeros``.  It shares one step with that
    route: the condition forms g1, g2, g3 of ``_condition_forms``, restricted
    to the slice; it replaces the split of {g1 = g2 = 0} into two lines, their
    kernel bases and the root ledgers of the cubic restricted to them.  The
    numpy scan in ``bench/reference.py``, which evaluates the cubic itself on
    T + u Q, shares no step with either.  Directions come as 5-tuples, the
    dropped coordinate 0."""
    domain = instance.domain
    if not isinstance(domain, PrimeField):
        raise TypeError("brute-force line count works over prime fields")
    T, *forms = _condition_forms(instance, T)
    drop = 0 if T[0] else 1
    zeros = common_projective_zeros([drop_variable(g, drop) for g in forms], domain.p)
    return [q[:drop] + (domain.zero,) + q[drop:] for q in zeros]


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


PROBE_COUNT = 8   # off-line points of the cone surface whose Jacobian rank is probed


def cone_and_singular_member(instance: TauInstance,
                             rng: random.Random | None = None,
                             probe_prime: int = 101) -> ConeReport:
    """The quadric cone over the conic component has the fixed line as its exact
    singular locus; its intersection with a smooth pencil quadric is singular
    exactly at the two points cut on the fixed line."""
    rng = rng or random.Random(0xC04E)
    domain = instance.domain
    conic = instance.conic_part()
    if not is_smooth_conic(conic):
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
    q = instance.quadrics[0]
    F = instance.quadric()
    gradients = (grads, [partial_derivative(F, i) for i in range(5)])
    roots, fld = binary_quadratic_roots(q.a00, q.a01, q.a11, domain)
    zero = fld.zero
    line_points = [(x0, x1, zero, zero, zero) for (x0, x1), _m in roots]
    if any(evaluate(K, pt) or evaluate(F, pt) for pt in line_points):
        raise ArithmeticError("root of the line quadratic is not on the surface")
    line_singular = all(jacobian_rank(gradients, pt, fld) <= 1 for pt in line_points)
    probes, singular, undecided = _probe_cone_surface(instance, rng, probe_prime)
    return ConeReport(
        singular_locus_is_fixed_line=sing_is_line,
        line_points=line_points,
        line_point_field=fld,
        line_points_singular=line_singular,
        probe_count=probes,
        probes_all_smooth=not singular,
        singular_probes=singular,
        probe_undecided=undecided,
    )


def _probe_cone_surface(instance, rng, probe_prime):
    """Jacobian ranks at up to ``PROBE_COUNT`` rational points of the cone
    surface off the fixed line, one point from the fibre over each of a seeded
    sample of conic points.

    A rational instance is probed mod probe_prime, an instance over F_p in its
    own field; when its conic part drops rank there, the reduced cone is
    singular over the conic's vertex and the probes are skipped with that
    reason, as they are when a denominator of the instance is divisible by
    probe_prime."""
    try:
        work = reduce_instance(instance, probe_prime)
    except BadPrime as exc:
        return 0, [], f"bad reduction: {exc}"
    fdom = work.domain
    conic = work.conic_part()
    if not is_smooth_conic(conic):
        return 0, [], f"the conic part drops rank mod {fdom.p}"
    K = embed_with_x01(conic, 0, 0)
    F = work.quadric()
    gradients = [[partial_derivative(h, i) for i in range(5)] for h in (K, F)]
    system = FibreSystem(K, F)
    count = 0
    singular = []
    for c in conic_rational_points(conic, rng, PROBE_COUNT * 4 + 8):
        if count >= PROBE_COUNT:
            break
        pt = next(system.points(c), None)
        if pt is None:
            continue
        count += 1
        if jacobian_rank(gradients, pt, fdom) < 2:
            singular.append(pt)
    return count, singular, ""
