"""The involution, its fixed loci, invariant linear series, and instance sampling.

The involution negates the first two homogeneous coordinates of P^4.  Its
fixed locus is the line {x2 = x3 = x4 = 0} together with the plane
{x0 = x1 = 0}.  Invariant cubics have the shape

    l00(x2,x3,x4) x0^2 + l11(x2,x3,x4) x1^2 + l01(x2,x3,x4) x0 x1 + f3(x2,x3,x4)

and invariant quadrics the analogous shape with constants a00, a11, a01 and a
ternary quadric f2.  An instance bundles one cubic with its quadrics, of which
the first cuts the surface S = X ∩ Q; "general position" is made concrete by
the genericity gate in ``sample_instance``.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import mul

from . import linalg
from .bruteforce import coefficient_matrix, form_values, projective_points_fp, random_order
from .forms import (Form, SymMatrix3, evaluate, compose_linear, is_smooth_conic,
                    macaulay_resultant, monomial_index, monomials, partial_derivative,
                    is_smooth_hypersurface, reduce_form, ResultantIndeterminate,
                    SMOOTH_CERTIFIED)
from .intersect import (CommonComponent, PlaneIntersection, intersect_plane_curves)
from .roots import binary_quadratic_roots, fp_binary_quadratic_roots
from .scalars import PrimeField, QQ, _sqrt_mod_p, point_field, reduce_mod_prime


class UnsupportedDegree(ValueError):
    """Invariant bases are provided for degrees 2 and 3 only."""


class GenericityExhausted(RuntimeError):
    """Sampling kept violating the genericity gate past the retry cap."""


class DegenerateOnLine(ValueError):
    """The quadric restricts to the zero form on the fixed line."""


class NoSolution(ArithmeticError):
    """Two-point linear system contradicted the guaranteed dimension bound."""


QUADRICS_DRAWN = 2         # a draw holds a pencil's two quadrics; the checks read the first


def monomial_tau_sign(exps) -> int:
    return -1 if (exps[0] + exps[1]) % 2 else 1


def tau_form(f: Form) -> Form:
    """f composed with the involution (sign flip on monomials odd in x0, x1)."""
    if f.num_vars != 5:
        raise ValueError("the involution acts on 5 coordinates")
    coeffs = tuple(c if monomial_tau_sign(m) > 0 else -c
                   for m, c in zip(monomials(5, f.degree), f.coeffs))
    return Form(f.domain, 5, f.degree, coeffs)


def invariant_basis(degree: int) -> list[Form]:
    """Monomial basis over Q of the invariant degree-d forms; 9 for d=2, 19 for d=3."""
    if degree not in (2, 3):
        raise UnsupportedDegree(f"invariant basis implemented for degrees 2 and 3, not {degree}")
    return [Form.from_terms(5, degree, {m: QQ.one}, QQ) for m in invariant_monomials(degree)]


def invariant_monomials(degree: int):
    return [m for m in monomials(5, degree) if monomial_tau_sign(m) > 0]


@dataclass(frozen=True)
class QuadricPart:
    """One invariant quadric: a00 x0^2 + a11 x1^2 + a01 x0 x1 + f2(x2,x3,x4)."""

    a00: object
    a11: object
    a01: object
    f2: Form


@dataclass(frozen=True)
class TauInstance:
    """One invariant cubic plus invariant quadrics, all over a common domain;
    the first quadric is the one the surface is cut by."""

    domain: object
    l00: Form
    l11: Form
    l01: Form
    f3: Form
    quadrics: tuple

    def __post_init__(self):
        for name, f, deg in (("l00", self.l00, 1), ("l11", self.l11, 1),
                             ("l01", self.l01, 1), ("f3", self.f3, 3)):
            if f.num_vars != 3 or f.degree != deg:
                raise ValueError(f"{name} must be a degree-{deg} form in (x2,x3,x4)")
        for q in self.quadrics:
            if q.f2.num_vars != 3 or q.f2.degree != 2:
                raise ValueError("f2 must be a ternary quadratic")

    def cubic(self) -> Form:
        """The cubic as a form on P^4, built once."""
        return self._cubic

    def quadric(self) -> Form:
        """The first quadric as a form on P^4, built once."""
        return self._quadric

    @cached_property
    def _cubic(self) -> Form:
        return (embed_with_x01(self.l00, 2, 0) + embed_with_x01(self.l11, 0, 2)
                + embed_with_x01(self.l01, 1, 1) + embed_with_x01(self.f3, 0, 0))

    @cached_property
    def _quadric(self) -> Form:
        q = self.quadrics[0]
        head = Form.from_terms(5, 2, {(2, 0, 0, 0, 0): q.a00,
                                      (0, 2, 0, 0, 0): q.a11,
                                      (1, 1, 0, 0, 0): q.a01}, self.domain)
        return head + embed_with_x01(q.f2, 0, 0)

    def conic_part(self) -> Form:
        """4 l00 l11 - l01^2, the degenerate-fiber conic in the fixed plane."""
        four = self.domain.coerce(4)
        return (self.l00 * self.l11).scale(four) - self.l01 * self.l01

    @cached_property
    def family(self) -> "FiberFamily":
        """The cubic read as a conic bundle over the fixed plane, built once."""
        return FiberFamily.of_cubic(self.cubic())


@dataclass(frozen=True)
class FiberFamily:
    """The ternary forms multiplying x0^2, x0 x1 and x1^2 in a cubic, and its
    part free of x0 and x1, read off the cubic's coefficients.

    Over a point P of the fixed plane they give the fiber conic
    l00(P) x0^2 + l01(P) x0 x1 + l11(P) x1^2 + f3(P) s^2.
    """

    l00: Form
    l01: Form
    l11: Form
    f3: Form

    @cached_property
    def table(self) -> tuple:
        """One dense row of plain coefficients (see ``scalars``) per form: l00,
        l11 and l01 at (x2, x3, x4), and f3 at the cubic ``monomials(3, 3)``."""
        plain = self.f3.domain.plain
        return tuple(tuple(map(plain, f.coeffs)) for f in (self.l00, self.l11, self.l01, self.f3))

    def values(self, P) -> tuple:
        """(alpha, beta, gamma, delta), the values of l00, l11, l01 and f3 at the
        fixed-plane point P, with P and the values as plain numbers."""
        x, y, z = P
        xx, yy, zz = x * x, y * y, z * z
        cubic = (xx * x, xx * y, xx * z, x * yy, x * y * z, x * zz, yy * y, yy * z, y * zz, zz * z)
        (a0, a1, a2), (b0, b1, b2), (g0, g1, g2), f3 = self.table
        reduce = self.f3.domain.reduce
        return (reduce(a0 * x + a1 * y + a2 * z), reduce(b0 * x + b1 * y + b2 * z),
                reduce(g0 * x + g1 * y + g2 * z), reduce(sum(map(mul, f3, cubic))))

    @classmethod
    def of_cubic(cls, phi: Form) -> "FiberFamily":
        """Split phi by its (x0, x1)-exponents; any monomial outside the four
        invariant shapes raises ArithmeticError."""
        return cls(*_tau_split(phi))

    def gram(self) -> SymMatrix3:
        """Gram matrix of the fiber conics, with Form entries; 4*det is the
        discriminant quintic.

        The grading is (1,1,2) x (1,1,2): the off-corner zero entries are the
        zero form of degree 2 so every determinant term is a quintic.
        """
        dom = self.f3.domain
        half_l01 = self.l01.scale(dom.one / dom.coerce(2))
        z2 = Form.zero_form(3, 2, dom)
        return SymMatrix3.from_rows([[self.l00, half_l01, z2],
                                     [half_l01, self.l11, z2],
                                     [z2, z2, self.f3]])


_TAU_SHAPES = ((2, 0), (1, 1), (0, 2), (0, 0))   # (x0, x1)-exponents of an invariant form


def _tau_split(G: Form):
    """The ternary forms (l00, l01, l11, f) with
    G = l00(y) x0^2 + l01(y) x0 x1 + l11(y) x1^2 + f(y), y = (x2, x3, x4), for
    a tau-invariant quadric or cubic G, read off G's coefficients.  Any other
    monomial is odd in x0, x1, so G is not tau-invariant: ArithmeticError."""
    index = {e: monomial_index(3, G.degree - sum(e)) for e in _TAU_SHAPES}
    parts = {e: [G.domain.zero] * len(index[e]) for e in _TAU_SHAPES}
    for m, c in zip(monomials(5, G.degree), G.coeffs):
        if not c:
            continue
        if m[:2] not in parts:
            raise ArithmeticError(f"the form has the monomial with exponents {m}, "
                                  "so it is not tau-invariant")
        parts[m[:2]][index[m[:2]][m[2:]]] = c
    return tuple(Form(G.domain, 3, G.degree - sum(e), tuple(parts[e])) for e in _TAU_SHAPES)


def embed_with_x01(f3vars: Form, e0: int, e1: int) -> Form:
    """Lift a form in (x2,x3,x4) to P^4 multiplied by x0^e0 * x1^e1."""
    terms = {}
    for m, c in zip(monomials(3, f3vars.degree), f3vars.coeffs):
        if c:
            terms[(e0, e1) + m] = c
    return Form.from_terms(5, f3vars.degree + e0 + e1, terms, f3vars.domain)


def canonical_instance(domain=QQ) -> TauInstance:
    """The fixture configuration: l00=x2, l11=x3, l01=x4, Fermat cubic, Fermat quadric."""
    x2 = Form.from_terms(3, 1, {(1, 0, 0): domain.one}, domain)
    x3 = Form.from_terms(3, 1, {(0, 1, 0): domain.one}, domain)
    x4 = Form.from_terms(3, 1, {(0, 0, 1): domain.one}, domain)
    fermat3 = Form.from_terms(3, 3, {(3, 0, 0): domain.one, (0, 3, 0): domain.one,
                                     (0, 0, 3): domain.one}, domain)
    fermat2 = Form.from_terms(3, 2, {(2, 0, 0): domain.one, (0, 2, 0): domain.one,
                                     (0, 0, 2): domain.one}, domain)
    q = QuadricPart(domain.one, domain.one, domain.zero, fermat2)
    return TauInstance(domain, x2, x3, x4, fermat3, (q,))


# ---------------------------------------------------------------------------
# sampling and the genericity gate


def _draw_instance(rng: random.Random, bound: int, domain) -> TauInstance:
    def rand_form(nvars, deg):
        return Form.from_terms(nvars, deg,
                               {m: domain.coerce(rng.randint(-bound, bound))
                                for m in monomials(nvars, deg)}, domain)

    quadrics = tuple(
        QuadricPart(domain.coerce(rng.randint(-bound, bound)),
                    domain.coerce(rng.randint(-bound, bound)),
                    domain.coerce(rng.randint(-bound, bound)),
                    rand_form(3, 2))
        for _ in range(QUADRICS_DRAWN))
    return TauInstance(domain, rand_form(3, 1), rand_form(3, 1), rand_form(3, 1),
                       rand_form(3, 3), quadrics)


def genericity_report(instance: TauInstance) -> dict:
    """The concrete general-position conditions, each as a named boolean.

    ``cubic_smooth`` certifies f3: by ``is_smooth_hypersurface`` over F_p, by a
    nonzero Macaulay resultant of its partials over Q.  The gate needs p > 6
    (degree-6 eliminant multiplicities); smaller p raise ValueError.

    ``cubic_hypersurface_smooth`` is the conjunction of the other keys, since
    ``conic_rank3``, ``cubic_smooth`` and ``six_points_distinct`` imply that X
    is smooth (characteristic > 3).  Write Phi = x^T M(y) x + f3(y), with
    x = (x0, x1), y = (x2, x3, x4), M_j = d_j M and C = 4 det M.  At a singular
    point, M(y) x = 0, f3(y) = 0 and x^T M_j x = -d_j f3(y) for each j.
    * x = 0: y is a singular point of f3.
    * y = 0: the quadratics x^T M_j x share the root x; taking x = (1, 0)
      kills l00, so C = -l01^2 has rank <= 1.
    * x, y != 0: y is on C and f3; M(y) = 0 would make y singular on C, so
      M(y) has rank 1, kernel x and adj M(y) = lam x x^T, lam != 0.  Then
      d_j det M(y) = lam x^T M_j x = -lam d_j f3(y): C and f3 are tangent at y.
    A smooth cubic and a rank-3 conic are irreducible and meet in six points
    with multiplicity, so six distinct points exclude all three cases.  Rank 3
    is needed: a singular point of a rank-2 C on f3 makes the points collide
    while X can stay smooth, and a rank-<=1 C allows singular points with y = 0.
    """
    if isinstance(instance.domain, PrimeField) and instance.domain.p < 7:
        raise ValueError("gated sampling needs characteristic > 6 "
                         "(degree-6 eliminant multiplicity analysis)")
    report = {}

    def meets_f3_in_six(conic: Form) -> bool:
        try:
            return intersect_plane_curves(conic, instance.f3).distinct
        except CommonComponent:
            return False

    conic = instance.conic_part()
    report["conic_rank3"] = is_smooth_conic(conic)
    report["cubic_smooth"] = _plane_cubic_smooth(instance.f3)
    report["six_points_distinct"] = (report["conic_rank3"] and report["cubic_smooth"]
                                     and meets_f3_in_six(conic))
    q = instance.quadrics[0]
    report["f2_rank3"] = is_smooth_conic(q.f2)
    report["surface_plane_points_distinct"] = (report["f2_rank3"] and report["cubic_smooth"]
                                               and meets_f3_in_six(q.f2))
    disc = q.a01 * q.a01 - 4 * q.a00 * q.a11
    report["line_quadratic_separable"] = bool(disc)
    report["cubic_hypersurface_smooth"] = all(report.values())
    report["passed"] = all(report.values())
    return report


def _plane_cubic_smooth(f3: Form) -> bool:
    """Whether the plane cubic f3 is certified smooth over the closure of its field."""
    if isinstance(f3.domain, PrimeField) and not f3.is_zero:  # a zero f3 gets resultant 0 below
        return is_smooth_hypersurface(f3).status == SMOOTH_CERTIFIED
    try:
        return bool(macaulay_resultant([partial_derivative(f3, i) for i in range(3)]))
    except ResultantIndeterminate:
        return False


def sample_instance(rng_seed: int, coefficient_bound: int, domain=QQ,
                    retries: int = 64) -> TauInstance:
    """The first of the integer-coefficient draws from ``Random(rng_seed)`` that
    passes the genericity gate; the gate draws nothing from that generator."""
    if coefficient_bound < 2:
        raise ValueError("coefficient bound must be at least 2")
    rng = random.Random(rng_seed)
    for _ in range(retries):
        inst = _draw_instance(rng, coefficient_bound, domain)
        if genericity_report(inst)["passed"]:
            return inst
    raise GenericityExhausted(f"no instance passed the gate in {retries} draws")


# ---------------------------------------------------------------------------
# base locus of the invariant cubic series


@dataclass
class BaseLocusVerdict:
    line_in_base_locus: bool
    witness_results: list
    ok: bool


def restrict_to_fixed_line(f: Form) -> Form:
    """f(x0, x1, 0, 0, 0) as a binary form."""
    rows = [[f.domain.one, f.domain.zero], [f.domain.zero, f.domain.one],
            [f.domain.zero] * 2, [f.domain.zero] * 2, [f.domain.zero] * 2]
    return compose_linear(f, rows)


def default_witness_points(domain):
    """Seven fixed points off the fixed line and four drawn from ``Random(7)``."""
    rng = random.Random(7)
    pts = [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 1, 1, 1),
           (1, 1, 1, 1, 1), (1, 0, 1, 0, 0), (0, 1, 0, 2, 1)]
    for _ in range(4):
        pts.append(tuple(rng.randint(-5, 5) for _ in range(4)) + (1,))
    return [tuple(domain.coerce(c) for c in p) for p in pts]


def verify_base_locus(degree_3_basis: list[Form], witness_points=None) -> BaseLocusVerdict:
    """The fixed line lies on every invariant cubic; nothing else is forced to."""
    if witness_points is None:
        witness_points = default_witness_points(degree_3_basis[0].domain)
    line_ok = all(restrict_to_fixed_line(f).is_zero for f in degree_3_basis)
    results = []
    for pt in witness_points:
        if not any(pt[2:]) and any(pt):   # on the fixed line
            results.append((pt, None, True))
            continue
        idx = next((i for i, f in enumerate(degree_3_basis) if evaluate(f, pt)), None)
        results.append((pt, idx, idx is not None))
    return BaseLocusVerdict(line_ok, results, line_ok and all(r[2] for r in results))


# ---------------------------------------------------------------------------
# cubics through two surface points


@dataclass
class TwoPointCubic:
    form: Form
    quotient_affine_dim: int
    quotient_projective_dim: int
    solution_affine_dim: int
    solution_projective_dim: int
    complement_indices: tuple


def invariant_coordinates(f: Form):
    """Coordinates of an invariant cubic in the 19-monomial basis."""
    inv = invariant_monomials(3)
    idx = {m: i for i, m in enumerate(inv)}
    vec = [f.domain.zero] * len(inv)
    for m, c in zip(monomials(5, 3), f.coeffs):
        if not c:
            continue
        if m not in idx:
            raise ValueError("form is not invariant under the involution")
        vec[idx[m]] = c
    return vec


def two_point_subspace(instance: TauInstance):
    """Span of the cubic and quadric*(linear in x2..x4); its monomial complement."""
    domain = instance.domain
    F = instance.quadric()
    gens = [instance.cubic()]
    for j in range(3):
        lin = Form.from_terms(3, 1, {tuple(1 if i == j else 0 for i in range(3)): domain.one},
                              domain)
        gens.append(F * embed_with_x01(lin, 0, 0))
    wmat = [invariant_coordinates(g) for g in gens]
    _, pivots = linalg.rref(wmat, domain)
    complement = tuple(i for i in range(19) if i not in pivots)
    return gens, len(pivots), complement


def two_point_analysis(instance: TauInstance, P, Q) -> TwoPointCubic:
    domain = point_field((P, Q), instance.domain)
    P = tuple(domain.coerce(c) for c in P)
    Q = tuple(domain.coerce(c) for c in Q)
    phi, F = instance.cubic(), instance.quadric()
    for pt in (P, Q):
        if evaluate(phi, pt) or evaluate(F, pt):
            raise ValueError("point does not lie on the cubic-quadric surface")
    gens, w_rank, complement = two_point_subspace(instance)
    if w_rank != 4:
        raise NoSolution(f"span of cubic and quadric multiples has rank {w_rank}, not 4")
    inv = invariant_monomials(3)
    same = linalg.proportional(P, Q)
    rows = [[_monomial_value(inv[i], P) for i in complement]]
    if not same:
        rows.append([_monomial_value(inv[i], Q) for i in complement])
    kernel = linalg.nullspace(rows, domain)
    sol_affine = len(kernel)
    sol_proj = sol_affine - 1
    bound = 13 if same else 12
    if sol_proj < bound:
        raise NoSolution(
            f"solution space has projective dimension {sol_proj}, below the bound {bound}")
    vec = kernel[0]
    terms = {inv[ci]: v for ci, v in zip(complement, vec) if v}
    form = Form.from_terms(5, 3, terms, domain)
    for pt in (P, Q):
        if evaluate(form, pt):
            raise NoSolution("solved cubic fails to vanish at an input point")
    return TwoPointCubic(form, len(complement), len(complement) - 1,
                         sol_affine, sol_proj, complement)


def _monomial_value(exps, pt):
    val = None
    for c, e in zip(pt, exps):
        for _ in range(e):
            val = c if val is None else val * c
    return val


# ---------------------------------------------------------------------------
# eigen split of the quadratic forms


@dataclass(frozen=True)
class Sym2Split:
    dim_sym2_minus: int
    dim_mixed: int
    dim_sym2_plus: int
    invariant_total: int
    anti_invariant_total: int
    grand_total: int


def sym2_eigensplit() -> Sym2Split:
    """Dimension split of the 15 degree-2 monomials under the involution."""
    degrees = [m[0] + m[1] for m in monomials(5, 2)]   # the (x0, x1)-degree of each
    minus, mixed, plus = map(degrees.count, (2, 1, 0))
    inv = sum(monomial_tau_sign(m) > 0 for m in monomials(5, 2))
    return Sym2Split(minus, mixed, plus, inv, len(degrees) - inv, len(degrees))


# ---------------------------------------------------------------------------
# fixed points of the involution on the surface


@dataclass
class FixedPointReport:
    line_points: list
    line_field: object
    line_distinct: bool
    plane: PlaneIntersection
    total_multiplicity: int
    all_distinct: bool


def fixed_points_on_S(instance: TauInstance) -> FixedPointReport:
    """Surface points fixed by the involution: two on the line, six in the plane."""
    q = instance.quadrics[0]
    domain = instance.domain
    if not q.a00 and not q.a01 and not q.a11:
        raise DegenerateOnLine("quadric vanishes identically on the fixed line")
    roots, fld = binary_quadratic_roots(q.a00, q.a01, q.a11, domain)
    zero = fld.zero
    line_points = [((x0, x1, zero, zero, zero), mult) for (x0, x1), mult in roots]
    line_mult = sum(m for _, m in roots)
    plane = intersect_plane_curves(q.f2, instance.f3)
    line_distinct = all(m == 1 for _, m in roots)
    return FixedPointReport(
        line_points=line_points,
        line_field=fld,
        line_distinct=line_distinct,
        plane=plane,
        total_multiplicity=line_mult + plane.total_multiplicity,
        all_distinct=line_distinct and plane.distinct,
    )


def reduce_instance(instance: TauInstance, p: int) -> TauInstance:
    """Coefficient-wise reduction of a rational instance mod p; an instance over
    F_p is returned as it is, whatever p."""
    if isinstance(instance.domain, PrimeField):
        return instance
    dom = PrimeField(p)
    red = lambda f: reduce_form(f, p)
    quadrics = tuple(QuadricPart(reduce_mod_prime(q.a00, p), reduce_mod_prime(q.a11, p),
                                 reduce_mod_prime(q.a01, p), red(q.f2))
                     for q in instance.quadrics)
    return TauInstance(dom, red(instance.l00), red(instance.l11), red(instance.l01),
                       red(instance.f3), quadrics)


# ---------------------------------------------------------------------------
# rational points of invariant surfaces over a prime field, fibre by fibre
#
# Projection from the fixed line sends a point (x0 : x1 : P) off the line to P
# in the fixed plane.  A tau-invariant quadric or cubic G has (x0, x1)-degree 0
# or 2, so on the fibre over a fixed representative P it reads q_G(x0, x1) + c_G
# with q_G a binary quadratic, and the fibre of {G = H = 0} is cut out by two
# such equations in the affine (x0, x1)-plane.  The coefficients of q_G and c_G
# are the four ternary forms of ``_tau_split(G)`` at P, taken for a whole batch
# of fixed-plane points at once with ``bruteforce.form_values``.


def _fixed_plane_point(k: int, p: int):
    """The k-th normalised point of the fixed plane P^2(F_p), 0 <= k < p^2 + p + 1,
    as residues."""
    if k < p * p:
        return (1, k // p, k % p)
    if k < p * p + p:
        return (0, 1, k - p * p)
    return (0, 0, 1)


class FibreSystem:
    """Two tau-invariant quadrics or cubics G and H over F_p, ready for batches
    of fixed-plane points: the coefficient matrices of the four parts of each
    (``_tau_split``) and of each full form, built once."""

    def __init__(self, G: Form, H: Form):
        self.domain = G.domain
        p = self.domain.p
        self.parts = []
        for f in (G, H):
            l00, l01, l11, rest = _tau_split(f)
            self.parts.append((l00.degree, coefficient_matrix([l00, l01, l11], p),
                               rest.degree, coefficient_matrix([rest], p)))
        self.full = [(f.degree, coefficient_matrix([f], p)) for f in (G, H)]

    def restrictions(self, Ps):
        """One pair per fixed-plane point P of ``Ps``, each P a triple of
        residues: the residues (a, m, b, c) with
        G(x0, x1, P) = a x0^2 + m x0 x1 + b x1^2 + c, and those of H."""
        p = self.domain.p
        per_form = []
        for head_degree, head, rest_degree, rest in self.parts:
            quads = form_values(Ps, head_degree, head, p).tolist()
            consts = form_values(Ps, rest_degree, rest, p).tolist()
            per_form.append([q + c for q, c in zip(quads, consts)])
        return list(zip(*per_form))

    def check(self, pts):
        """Raise ArithmeticError unless the full forms G and H vanish at every
        residue point of ``pts``; one ``form_values`` product per form."""
        if not pts:
            return
        for degree, coeffs in self.full:
            if form_values(pts, degree, coeffs, self.domain.p).any():
                raise ArithmeticError("fibre point is off the surface")

    def points(self, P):
        """The F_p points (x0, x1, P) of {G = H = 0} over one point P of the
        fixed plane: the one-row case of the batched walk, both restrictions
        solved by ``_fibre_solutions``.  A generator, so a caller wanting one
        point scans no further; each point is checked on the full G and H as
        it is yielded."""
        P = tuple(self.domain.plain_list(P)[0])
        ((rG, rH),) = self.restrictions([P])
        for x in _fibre_solutions(rG, rH, self.domain.p):
            self.check([x + P])
            yield tuple(self.domain.from_plain(x + P))


def _binary_value(q, u, v, p: int) -> int:
    return (q[0] * u * u + q[1] * u * v + q[2] * v * v) % p


def _affine_conic_points(q, c, p: int):
    """All (x0, x1) in F_p^2 with q(x0, x1) + c = 0 for a constant c != 0, by
    ascending x0 and, for one x0, in the order of ``fp_binary_quadratic_roots``;
    a generator.  A nondegenerate q is scanned by x0.  A degenerate one is
    solved in closed form: q = 0 has no point, and q = lam l^2 (m^2 = 4ab) has
    the two lines l = +-s where s^2 = -c/lam, or no point when -c/lam is a
    non-square."""
    a, m, b = q
    if not (m * m - 4 * a * b) % p:
        if b:  # every x0 has the two roots (+-s - m x0) / 2b, s^2 = -4bc
            s = _sqrt_mod_p(-4 * b * c, p)
            w = pow(2 * b, -1, p)
            if s is not None:
                for x0 in range(p):
                    yield (x0, (s - m * x0) * w % p)
                    yield (x0, (-s - m * x0) * w % p)
        elif a:  # m = 0: the lines a x0^2 = -c, each with every x1
            s = _sqrt_mod_p(-c * pow(a, -1, p), p)
            if s is not None:
                for x0 in sorted((s, p - s)):
                    yield from ((x0, x1) for x1 in range(p))
        return
    for x0 in range(p):
        # b x1^2 + (m x0) x1 + (a x0^2 + c) as a binary form in (x1 : 1), never
        # zero: b = 0 forces m != 0, and then x0 = 0 leaves c
        coeffs = (b, m * x0 % p, (a * x0 * x0 + c) % p)
        yield from ((x0, x1) for x1, w in fp_binary_quadratic_roots(*coeffs, p) if w)


class _Cone(Sequence):
    """The (x0, x1) in F_p^2 on the lines through 0 over the projective points
    ``roots``: (0, 0), then s (u, v) for s = 1, ..., p - 1 over each root in
    turn.  Indexed, and iterated, without being listed; an index i >= 0 past
    the end finds no root and raises IndexError.  ``size`` is its length,
    which over all of P^1 can pass what ``len`` takes (p^2 >= 2^63)."""

    def __init__(self, roots, p: int):
        self.roots, self.p = roots, p
        self.size = 1 + len(roots) * (p - 1)

    def __len__(self):
        return self.size

    def __bool__(self):
        return True

    def __getitem__(self, i):
        if not i:
            return (0, 0)
        k, s = divmod(i - 1, self.p - 1)
        u, v = self.roots[k]
        return ((s + 1) * u % self.p, (s + 1) * v % self.p)


class _ProjectiveLine(Sequence):
    """The points of P^1(F_p) as residue pairs, (1, t) for t = 0, ..., p - 1
    and then (0, 1); indexed, and iterated, without being listed."""

    def __init__(self, p: int):
        self.p = p

    def __len__(self):
        return self.p + 1

    def __getitem__(self, k):
        if not 0 <= k <= self.p:
            raise IndexError(k)
        return (1, k) if k < self.p else (0, 1)


def _fibre_solutions(rG, rH, p: int):
    """The (x0, x1) in F_p^2 with q_G + c_G = q_H + c_H = 0, from the residues
    (a, m, b, c) of both restrictions, as residue pairs; a list, a generator
    when one affine conic is scanned, or a ``_Cone`` when both constants
    vanish.

    With E = c_H q_G - c_G q_H every solution x satisfies E(x) = 0.  If E is
    not identically zero, x = s (u, v) over its rational roots (u : v), with
    s^2 read off whichever equation is not degenerate at (u, v).  If E vanishes
    but one constant does not, the other equation is a multiple of that one
    and its affine conic is solved (``_affine_conic_points``).  If both
    constants vanish, x = 0 and the whole lines over the common roots of q_G
    and q_H are solutions, over a ``_ProjectiveLine`` when both q vanish too.
    """
    *qG, cG = rG
    *qH, cH = rH
    E = [(cH * g - cG * h) % p for g, h in zip(qG, qH)]
    if any(E):
        xs = []
        for u, v in fp_binary_quadratic_roots(*E, p):
            val, c = _binary_value(qG, u, v, p), cG
            if not val:
                val, c = _binary_value(qH, u, v, p), cH
            s = _sqrt_mod_p(-c * pow(val, -1, p), p) if val else None
            if s:
                xs += [(s * u % p, s * v % p), (-s * u % p, -s * v % p)]
        return xs
    if cG or cH:
        return _affine_conic_points(*((qG, cG) if cG else (qH, cH)), p)
    if any(qG) or any(qH):
        q, other = (qG, qH) if any(qG) else (qH, qG)
        common = [r for r in fp_binary_quadratic_roots(*q, p) if not _binary_value(other, *r, p)]
    else:
        common = _ProjectiveLine(p)
    return _Cone(common, p)


def _fibres(system: FibreSystem, Ps, wanted=None):
    """The solutions (x0, x1) of {G = H = 0} over each fixed-plane point P of
    ``Ps``, as pairs (P, solutions) in order, P and the solutions in residues,
    checked on G and H in one batch.  A ``_Cone`` is checked at (0, 0) and at
    its first three roots: both restrictions are binary quadratics there, and
    three points of P^1 fix one, so these decide the rest; a cone over all of
    P^1 is not listed.  With ``wanted``, the fibres stop after the
    ``wanted``-th nonempty one."""
    fibres = []
    nonempty = 0
    for P, (rG, rH) in zip(Ps, system.restrictions(Ps)):
        if nonempty == wanted:
            break
        xs = _fibre_solutions(rG, rH, system.domain.p)
        fibres.append((P, xs if isinstance(xs, _Cone) else list(xs)))
        nonempty += bool(fibres[-1][1])
    system.check([x + P for P, xs in fibres
                  for x in ([xs[0], *islice(xs.roots, 3)] if isinstance(xs, _Cone) else xs)])
    return fibres


def surface_points(G: Form, H: Form):
    """All F_p points of {G = H = 0} for tau-invariant quadrics or cubics G and
    H, each once: the fibres over the fixed plane in ``projective_points_fp``
    order, p fixed-plane points per batch of ``_fibres``, then the fixed line.
    A generator."""
    domain = G.domain
    p = domain.p
    plane = p * p + p + 1
    system = FibreSystem(G, H)
    for start in range(0, plane, p):
        Ps = [_fixed_plane_point(k, p) for k in range(start, min(start + p, plane))]
        for P, xs in _fibres(system, Ps):
            yield from (tuple(domain.from_plain(x + P)) for x in xs)
    zero = domain.zero
    for x0, x1 in projective_points_fp(2, p):
        pt = (x0, x1, zero, zero, zero)
        if not evaluate(G, pt) and not evaluate(H, pt):
            yield pt


def random_points_on_surface(instance: TauInstance, rng: random.Random, count: int):
    """Up to ``count`` F_p points of {cubic = quadric = 0} off the fixed line,
    one point chosen by ``rng`` from each nonempty fibre in a seeded walk over
    the fixed plane.  Points of one fibre would come in tau-conjugate pairs,
    which impose the same condition on invariant forms.

    The walk draws the indices of fixed-plane points from ``rng`` lazily
    (``random_order``), in batches of twice the points still wanted plus a
    few, and solves each batch's fibres together (``_fibres``); the draws cost
    O(count) whatever p is.  A batch's last indices may be drawn and not
    used."""
    domain = instance.domain
    if not isinstance(domain, PrimeField):
        raise TypeError("surface points are enumerated over prime fields")
    p = domain.p
    system = FibreSystem(instance.cubic(), instance.quadric())
    order = random_order(rng, p * p + p + 1)
    out = []
    while len(out) < count:
        batch = list(islice(order, 2 * (count - len(out)) + 8))
        if not batch:
            break
        Ps = [_fixed_plane_point(k, p) for k in batch]
        for P, xs in _fibres(system, Ps, count - len(out)):
            if xs:
                # rng.randrange(n) draws as rng.choice does from n items
                n = xs.size if isinstance(xs, _Cone) else len(xs)
                out.append(tuple(domain.from_plain(xs[rng.randrange(n)] + P)))
    return out
