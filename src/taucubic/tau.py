"""The involution, its fixed loci, invariant linear series, and instance sampling.

The involution negates the first two homogeneous coordinates of P^4.  Its
fixed locus is the line {x2 = x3 = x4 = 0} together with the plane
{x0 = x1 = 0}.  Invariant cubics have the shape

    l00(x2,x3,x4) x0^2 + l11(x2,x3,x4) x1^2 + l01(x2,x3,x4) x0 x1 + f3(x2,x3,x4)

and invariant quadrics the analogous shape with constants a00, a11, a01 and a
ternary quadric f2.  An instance bundles one cubic with one or more quadrics;
"general position" is made concrete by the genericity gate in
``sample_instance``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .bruteforce import projective_points_fp
from .forms import (Form, SymMatrix3, evaluate, compose_linear, macaulay_resultant,
                    monomials, partial_derivative, is_smooth_hypersurface,
                    ResultantIndeterminate, SMOOTH_CERTIFIED)
from .intersect import (CommonComponent, PlaneIntersection, intersect_plane_curves)
from .roots import binary_quadratic_roots
from .scalars import BadPrime, PrimeField, QQ, QuadElem, RationalField


class UnsupportedDegree(ValueError):
    """Invariant bases are provided for degrees 2 and 3 only."""


class GenericityExhausted(RuntimeError):
    """Sampling kept violating the genericity gate past the retry cap."""


class DegenerateOnLine(ValueError):
    """The quadric restricts to the zero form on the fixed line."""


class NoSolution(ArithmeticError):
    """Two-point linear system contradicted the guaranteed dimension bound."""


TAU_SIGNS = (-1, -1, 1, 1, 1)


def tau_matrix(domain):
    return [[domain.coerce(TAU_SIGNS[i]) if i == j else domain.zero
             for j in range(5)] for i in range(5)]


def tau_point(pt):
    return (-pt[0], -pt[1]) + tuple(pt[2:])


def monomial_tau_sign(exps) -> int:
    return -1 if (exps[0] + exps[1]) % 2 else 1


def tau_form(f: Form) -> Form:
    """f composed with the involution (sign flip on monomials odd in x0, x1)."""
    if f.num_vars != 5:
        raise ValueError("the involution acts on 5 coordinates")
    coeffs = tuple(c if monomial_tau_sign(m) > 0 else -c
                   for m, c in zip(monomials(5, f.degree), f.coeffs))
    return Form(f.domain, 5, f.degree, coeffs)


@dataclass(frozen=True)
class FixedLoci:
    """Fixed locus of the involution: index sets of vanishing coordinates."""

    line_vanishing: tuple = (2, 3, 4)
    plane_vanishing: tuple = (0, 1)

    def on_line(self, pt) -> bool:
        return all(not pt[i] for i in self.line_vanishing) and any(pt)

    def on_plane(self, pt) -> bool:
        return all(not pt[i] for i in self.plane_vanishing) and any(pt)

    def is_fixed(self, pt) -> bool:
        return self.on_line(pt) or self.on_plane(pt)


def invariant_basis(degree: int, domain=QQ) -> list[Form]:
    """Monomial basis of the invariant degree-d forms; 9 for d=2, 19 for d=3."""
    if degree not in (2, 3):
        raise UnsupportedDegree(f"invariant basis implemented for degrees 2 and 3, not {degree}")
    out = []
    for m in monomials(5, degree):
        if monomial_tau_sign(m) > 0:
            out.append(Form.from_terms(5, degree, {m: domain.one}, domain))
    return out


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
    """One invariant cubic plus invariant quadrics, all over a common domain."""

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
        return (embed_with_x01(self.l00, 2, 0) + embed_with_x01(self.l11, 0, 2)
                + embed_with_x01(self.l01, 1, 1) + embed_with_x01(self.f3, 0, 0))

    def quadric(self, index: int = 0) -> Form:
        q = self.quadrics[index]
        dom = self.domain
        head = Form.from_terms(5, 2, {(2, 0, 0, 0, 0): q.a00,
                                      (0, 2, 0, 0, 0): q.a11,
                                      (1, 1, 0, 0, 0): q.a01}, dom)
        return head + embed_with_x01(q.f2, 0, 0)

    def conic_part(self) -> Form:
        """4 l00 l11 - l01^2, the degenerate-fiber conic in the fixed plane."""
        four = self.domain.coerce(4)
        return (self.l00 * self.l11).scale(four) - self.l01 * self.l01


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


def _draw_instance(rng: random.Random, bound: int, domain, n_quadrics: int) -> TauInstance:
    def rand_form(nvars, deg):
        return Form.from_terms(nvars, deg,
                               {m: domain.coerce(rng.randint(-bound, bound))
                                for m in monomials(nvars, deg)}, domain)

    quadrics = tuple(
        QuadricPart(domain.coerce(rng.randint(-bound, bound)),
                    domain.coerce(rng.randint(-bound, bound)),
                    domain.coerce(rng.randint(-bound, bound)),
                    rand_form(3, 2))
        for _ in range(n_quadrics))
    return TauInstance(domain, rand_form(3, 1), rand_form(3, 1), rand_form(3, 1),
                       rand_form(3, 3), quadrics)


def genericity_report(instance: TauInstance, primes=(101, 103),
                      rng: random.Random | None = None) -> dict:
    """The concrete general-position conditions, each as a named boolean."""
    rng = rng or random.Random(0xA11CE)
    domain = instance.domain
    report = {}
    conic = instance.conic_part()
    report["conic_rank3"] = (not conic.is_zero) and SymMatrix3.gram_of_ternary(conic).rank(domain) == 3
    try:
        res = macaulay_resultant([partial_derivative(instance.f3, i) for i in range(3)])
        report["cubic_smooth"] = bool(res)
    except ResultantIndeterminate:
        report["cubic_smooth"] = False
    if report["conic_rank3"] and report["cubic_smooth"]:
        try:
            inter = intersect_plane_curves(conic, instance.f3, rng, want_points=False)
            report["six_points_distinct"] = inter.distinct and inter.total_multiplicity == 6
        except (CommonComponent, ValueError):
            report["six_points_distinct"] = False
    else:
        report["six_points_distinct"] = False
    q = instance.quadrics[0]
    report["f2_rank3"] = (not q.f2.is_zero) and SymMatrix3.gram_of_ternary(q.f2).rank(domain) == 3
    if report["f2_rank3"] and report["cubic_smooth"]:
        try:
            inter = intersect_plane_curves(q.f2, instance.f3, rng, want_points=False)
            report["surface_plane_points_distinct"] = inter.distinct and inter.total_multiplicity == 6
        except (CommonComponent, ValueError):
            report["surface_plane_points_distinct"] = False
    else:
        report["surface_plane_points_distinct"] = False
    disc = q.a01 * q.a01 - 4 * q.a00 * q.a11
    report["line_quadratic_separable"] = bool(disc)
    if all(report.values()):
        try:
            verdict = is_smooth_hypersurface(instance.cubic(), list(primes))
            report["cubic_hypersurface_smooth"] = verdict.status == SMOOTH_CERTIFIED
        except (BadPrime, ResultantIndeterminate):
            report["cubic_hypersurface_smooth"] = False
    else:
        report["cubic_hypersurface_smooth"] = False
    report["passed"] = all(v for k, v in report.items() if k != "passed")
    return report


def sample_instance(rng_seed: int, coefficient_bound: int, domain=QQ,
                    primes=(101, 103), n_quadrics: int = 2,
                    retries: int = 64) -> TauInstance:
    """Draw integer-coefficient instances until the genericity gate passes."""
    if coefficient_bound < 2:
        raise ValueError("coefficient bound must be at least 2")
    if isinstance(domain, PrimeField) and domain.p < 7:
        raise ValueError("gated sampling needs characteristic > 6 "
                         "(degree-6 eliminant multiplicity analysis)")
    rng = random.Random(rng_seed)
    for _ in range(retries):
        inst = _draw_instance(rng, coefficient_bound, domain, n_quadrics)
        if genericity_report(inst, primes, rng)["passed"]:
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


def default_witness_points(domain, rng: random.Random | None = None, extra: int = 4):
    rng = rng or random.Random(7)
    pts = [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 1, 1, 1),
           (1, 1, 1, 1, 1), (1, 0, 1, 0, 0), (0, 1, 0, 2, 1)]
    for _ in range(extra):
        pts.append(tuple(rng.randint(-5, 5) for _ in range(4)) + (1,))
    return [tuple(domain.coerce(c) for c in p) for p in pts]


def verify_base_locus(degree_3_basis: list[Form], witness_points=None) -> BaseLocusVerdict:
    """The fixed line lies on every invariant cubic; nothing else is forced to."""
    if witness_points is None:
        witness_points = default_witness_points(degree_3_basis[0].domain)
    line_ok = all(restrict_to_fixed_line(f).is_zero for f in degree_3_basis)
    loci = FixedLoci()
    results = []
    for pt in witness_points:
        if loci.on_line(pt):
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


def two_point_subspace(instance: TauInstance, quadric_index: int = 0):
    """Span of the cubic and quadric*(linear in x2..x4); its monomial complement."""
    domain = instance.domain
    F = instance.quadric(quadric_index)
    gens = [instance.cubic()]
    for j in range(3):
        lin = Form.from_terms(3, 1, {tuple(1 if i == j else 0 for i in range(3)): domain.one},
                              domain)
        gens.append(F * embed_with_x01(lin, 0, 0))
    wmat = [invariant_coordinates(g) for g in gens]
    _, pivots = linalg.rref(wmat, domain)
    complement = tuple(i for i in range(19) if i not in pivots)
    return gens, len(pivots), complement


def _common_point_domain(instance, pts):
    domain = instance.domain
    ext = None
    for pt in pts:
        for c in pt:
            if isinstance(c, QuadElem):
                if ext is not None and c.ext != ext:
                    raise ValueError("points live in different quadratic extensions")
                ext = c.ext
    if ext is None:
        return domain
    if ext.base != domain:
        raise ValueError("point extension is not over the instance domain")
    return ext


def two_point_analysis(instance: TauInstance, P, Q, quadric_index: int = 0) -> TwoPointCubic:
    domain = _common_point_domain(instance, (P, Q))
    P = tuple(domain.coerce(c) for c in P)
    Q = tuple(domain.coerce(c) for c in Q)
    phi, F = instance.cubic(), instance.quadric(quadric_index)
    for pt in (P, Q):
        if evaluate(phi, pt) or evaluate(F, pt):
            raise ValueError("point does not lie on the cubic-quadric surface")
    gens, w_rank, complement = two_point_subspace(instance, quadric_index)
    if w_rank != 4:
        raise NoSolution(f"span of cubic and quadric multiples has rank {w_rank}, not 4")
    inv = invariant_monomials(3)
    same = _proj_equal(P, Q, domain)
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


def cubic_through_points(instance: TauInstance, P, Q, quadric_index: int = 0) -> Form:
    """An invariant cubic through two surface points, outside the fixed subspace."""
    return two_point_analysis(instance, P, Q, quadric_index).form


def _monomial_value(exps, pt):
    val = None
    for c, e in zip(pt, exps):
        for _ in range(e):
            val = c if val is None else val * c
    return val


def _proj_equal(P, Q, domain):
    n = len(P)
    for i in range(n):
        for j in range(i + 1, n):
            if P[i] * Q[j] != P[j] * Q[i]:
                return False
    return True


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
    minus = mixed = plus = inv = anti = 0
    for m in monomials(5, 2):
        s = m[0] + m[1]
        if s == 2:
            minus += 1
        elif s == 1:
            mixed += 1
        else:
            plus += 1
        if monomial_tau_sign(m) > 0:
            inv += 1
        else:
            anti += 1
    return Sym2Split(minus, mixed, plus, inv, anti, minus + mixed + plus)


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


def fixed_points_on_S(instance: TauInstance, quadric_index: int = 0,
                      rng: random.Random | None = None) -> FixedPointReport:
    """Surface points fixed by the involution: two on the line, six in the plane."""
    q = instance.quadrics[quadric_index]
    domain = instance.domain
    if not q.a00 and not q.a01 and not q.a11:
        raise DegenerateOnLine("quadric vanishes identically on the fixed line")
    roots, fld = binary_quadratic_roots(q.a00, q.a01, q.a11, domain)
    line_points = []
    for (x0, x1), mult in roots:
        zero = fld.zero if hasattr(fld, "zero") else domain.zero
        line_points.append(((x0, x1, zero, zero, zero), mult))
    line_mult = sum(m for _, m in roots)
    plane = intersect_plane_curves(q.f2, instance.f3, rng, want_points=True)
    line_distinct = all(m == 1 for _, m in roots)
    return FixedPointReport(
        line_points=line_points,
        line_field=fld,
        line_distinct=line_distinct,
        plane=plane,
        total_multiplicity=line_mult + plane.total_multiplicity,
        all_distinct=line_distinct and plane.distinct,
    )


# ---------------------------------------------------------------------------
# the pencil condition for two special quadrics


@dataclass
class PencilVerdict:
    g2_smooth: bool
    h2_smooth: bool
    four_transversal_points: bool
    rhs_holds: bool
    surface_misses_line: bool
    smooth_probes: dict
    lhs_probed: bool | None
    agree: bool | None
    counterexample: tuple | None = None


def check_pencil_condition(g2: Form, h2: Form, probe_primes=(5, 7),
                           rng: random.Random | None = None) -> PencilVerdict:
    """Equivalence probe: the pencil quadrics x0^2+g2, x1^2+h2 cut a smooth
    surface missing the fixed line exactly when g2, h2 are smooth conics
    meeting transversally in 4 points."""
    rng = rng or random.Random(0xBEEF)
    domain = g2.domain
    g_smooth = (not g2.is_zero) and SymMatrix3.gram_of_ternary(g2).rank(domain) == 3
    h_smooth = (not h2.is_zero) and SymMatrix3.gram_of_ternary(h2).rank(domain) == 3
    if g_smooth and h_smooth:
        try:
            inter = intersect_plane_curves(g2, h2, rng, want_points=False)
            four = inter.distinct and inter.total_multiplicity == 4
        except (CommonComponent, ValueError):
            four = False
    else:
        four = False
    rhs = g_smooth and h_smooth and four
    f0 = _special_quadric(g2, 0)
    f1 = _special_quadric(h2, 1)
    misses = _line_intersection_empty(f0, f1)
    probes = {}
    counterexample = None
    for p in probe_primes:
        if isinstance(domain, RationalField):
            from .forms import reduce_form
            q0, q1 = reduce_form(f0, p), reduce_form(f1, p)
        elif isinstance(domain, PrimeField) and domain.p == p:
            q0, q1 = f0, f1
        else:
            continue
        sing = _singular_point_probe(q0, q1, p)
        probes[p] = sing is None
        if sing is not None and counterexample is None:
            counterexample = sing
    lhs = (misses and all(probes.values())) if probes else None
    agree = (rhs == lhs) if lhs is not None else None
    return PencilVerdict(g_smooth, h_smooth, four, rhs, misses, probes, lhs,
                         agree, counterexample)


def _special_quadric(f2: Form, which: int) -> Form:
    domain = f2.domain
    sq = (2, 0, 0, 0, 0) if which == 0 else (0, 2, 0, 0, 0)
    return Form.from_terms(5, 2, {sq: domain.one}, domain) + embed_with_x01(f2, 0, 0)


def _line_intersection_empty(f0: Form, f1: Form) -> bool:
    from . import roots as uv
    domain = f0.domain
    b0, b1 = restrict_to_fixed_line(f0), restrict_to_fixed_line(f1)
    if b0.is_zero or b1.is_zero:
        return False
    u = uv.trim([b0.coefficient((k, b0.degree - k)) for k in range(b0.degree + 1)])
    v = uv.trim([b1.coefficient((k, b1.degree - k)) for k in range(b1.degree + 1)])
    # (1:0) is a common zero iff both forms lose full degree in x0
    both_at_infinity = uv.degree(u) < b0.degree and uv.degree(v) < b1.degree
    return uv.degree(uv.gcd(u, v, domain)) == 0 and not both_at_infinity


def _singular_point_probe(q0: Form, q1: Form, p: int):
    """A rational singular point of the surface {q0 = q1 = 0} over F_p, or None."""
    domain = PrimeField(p)
    grads0 = [partial_derivative(q0, i) for i in range(5)]
    grads1 = [partial_derivative(q1, i) for i in range(5)]
    for pt in surface_points(q0, q1):
        jac = [[evaluate(g, pt) for g in grads0], [evaluate(g, pt) for g in grads1]]
        if linalg.rank(jac, domain) < 2:
            return pt
    return None


def reduce_instance(instance: TauInstance, p: int) -> TauInstance:
    """Coefficient-wise reduction of a rational instance mod p."""
    from .forms import reduce_form
    from .scalars import reduce_mod_prime
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
# such equations in the affine (x0, x1)-plane.


def _fixed_plane_point(k: int, domain):
    """The k-th normalised point of the fixed plane P^2(F_p), 0 <= k < p^2 + p + 1."""
    p = domain.p
    if k < p * p:
        return (domain.one, domain.coerce(k // p), domain.coerce(k % p))
    if k < p * p + p:
        return (domain.zero, domain.one, domain.coerce(k - p * p))
    return (domain.zero, domain.zero, domain.one)


def _fibre_restriction(G: Form, P):
    """(a, m, b), c with G(x0, x1, P) = a x0^2 + m x0 x1 + b x1^2 + c."""
    zero, one = G.domain.zero, G.domain.one
    c = evaluate(G, (zero, zero) + P)
    a = evaluate(G, (one, zero) + P) - c
    b = evaluate(G, (zero, one) + P) - c
    return (a, evaluate(G, (one, one) + P) - c - a - b, b), c


def _binary_value(q, u, v):
    return q[0] * u * u + q[1] * u * v + q[2] * v * v


def _rational_roots(q, domain):
    """The F_p-rational projective roots (u : v) of a nonzero binary quadratic."""
    roots, fld = binary_quadratic_roots(q[0], q[1], q[2], domain)
    return [r for r, _mult in roots] if fld == domain else []


def _affine_conic_points(q, c, domain):
    """All (x0, x1) in F_p^2 with q(x0, x1) + c = 0, scanning x0; a generator."""
    a, m, b = q
    for x0 in (domain.coerce(t) for t in range(domain.p)):
        # b x1^2 + (m x0) x1 + (a x0^2 + c) as a binary form in (x1 : 1)
        coeffs = (b, m * x0, a * x0 * x0 + c)
        if not any(coeffs):
            yield from ((x0, domain.coerce(t)) for t in range(domain.p))
        else:
            yield from ((x0, x1 / w) for x1, w in _rational_roots(coeffs, domain) if w)


def fibre_points(G: Form, H: Form, P):
    """The F_p points (x0, x1, P) of {G = H = 0} over one point P of the fixed
    plane, for tau-invariant quadrics or cubics G and H over a prime field
    (higher degrees have x0, x1-parts of degree 4 or more).  A generator;
    every point is checked on both equations.

    With E = c_H q_G - c_G q_H every solution x satisfies E(x) = 0.  If E is
    not identically zero, x = s (u, v) over its rational roots (u : v), with
    s^2 read off whichever equation is not degenerate at (u, v).  If E vanishes
    but one constant does not, the other equation is a multiple of that one
    and its affine conic is scanned.  If both constants vanish, x = 0 and the
    whole lines over the common roots of q_G and q_H are solutions.
    """
    domain = G.domain
    P = tuple(P)
    qG, cG = _fibre_restriction(G, P)
    qH, cH = _fibre_restriction(H, P)
    E = tuple(cH * g - cG * h for g, h in zip(qG, qH))
    if any(E):
        xs = []
        for u, v in _rational_roots(E, domain):
            val, c = _binary_value(qG, u, v), cG
            if not val:
                val, c = _binary_value(qH, u, v), cH
            s = domain.sqrt_or_none(-c / val) if val else None
            if s:
                xs += [(s * u, s * v), (-s * u, -s * v)]
    elif cG or cH:
        xs = _affine_conic_points(*((qG, cG) if cG else (qH, cH)), domain)
    else:
        if any(qG) or any(qH):
            q, other = (qG, qH) if any(qG) else (qH, qG)
            common = [r for r in _rational_roots(q, domain) if not _binary_value(other, *r)]
        else:
            common = list(projective_points_fp(2, domain.p))
        units = [domain.coerce(t) for t in range(1, domain.p)]
        xs = [(domain.zero, domain.zero)] + [(s * u, s * v) for u, v in common for s in units]
    for x in xs:
        pt = x + P
        if evaluate(G, pt) or evaluate(H, pt):
            raise ArithmeticError("fibre point is off the surface")
        yield pt


def surface_points(G: Form, H: Form):
    """All F_p points of {G = H = 0} for tau-invariant quadrics or cubics G and
    H, each once: the fibres over the fixed plane, then the fixed line.  A
    generator."""
    p = G.domain.p
    for P in projective_points_fp(3, p):
        yield from fibre_points(G, H, P)
    zero = G.domain.zero
    for x0, x1 in projective_points_fp(2, p):
        pt = (x0, x1, zero, zero, zero)
        if not evaluate(G, pt) and not evaluate(H, pt):
            yield pt


def random_points_on_surface(instance: TauInstance, rng: random.Random, count: int,
                             quadric_index: int = 0):
    """Up to ``count`` F_p points of {cubic = quadric = 0} off the fixed line,
    one point chosen by ``rng`` from each nonempty fibre in a seeded walk over
    the fixed plane.  Points of one fibre would come in tau-conjugate pairs,
    which impose the same condition on invariant forms."""
    domain = instance.domain
    if not isinstance(domain, PrimeField):
        raise TypeError("surface points are enumerated over prime fields")
    p = domain.p
    phi, F = instance.cubic(), instance.quadric(quadric_index)
    order = list(range(p * p + p + 1))
    rng.shuffle(order)
    out = []
    for k in order:
        if len(out) >= count:
            break
        fibre = list(fibre_points(phi, F, _fixed_plane_point(k, domain)))
        if fibre:
            out.append(rng.choice(fibre))
    return out
