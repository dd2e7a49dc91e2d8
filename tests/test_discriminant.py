"""Projection geometry: fiber conics, the quintic factorization, line splitting
and the involution dichotomy, line counts, and the cone report."""

import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from taucubic.bruteforce import coefficient_matrix, projective_points_fp
from taucubic import discriminant, linalg, roots
from taucubic.discriminant import (DOUBLE_LINE, FIXES, SMOOTH_FIBER, SWAPS,
                                   DegenerateConicPart, InfinitelyMany,
                                   ZeroConic, _condition_forms, _split, cone_and_singular_member,
                                   discriminant_quintic, drop_variable,
                                   lines_through_point_brute,
                                   lines_through_point_of_ltau,
                                   points_on_conic_component,
                                   points_on_cubic_component,
                                   tau_fiber_action)
from taucubic.forms import (Form, SymMatrix3, compose_linear, evaluate, exact_divide,
                            jacobian_rank, monomials, partial_derivative)
from taucubic.harness import SuiteConfig, load_instance, projective_key, run_suite
from taucubic.intersect import (CommonComponent, conic_rational_points, curve_rational_points,
                                intersect_plane_curves)
from taucubic.scalars import FpElem, PrimeField, QQ, QuadElem, quad_sqrt
from taucubic.tau import TauInstance, canonical_instance, embed_with_x01, sample_instance

F101 = PrimeField(101)
F11 = PrimeField(11)
F13 = PrimeField(13)


def qq(*cs):
    return tuple(QQ.coerce(c) for c in cs)


# --- fiber conics -------------------------------------------------------


def _values(inst, P):
    """The fiber conic's plain values (alpha, beta, gamma, delta) over the
    fixed-plane point P, as ``tau_fiber_action`` reads them."""
    dom = inst.domain
    return inst.family.values([dom.plain(dom.coerce(c)) for c in P])


def _line_forms(domain, split):
    """The lines of a ``_split`` result over ``domain`` as forms of field
    elements, a + b sqrt(d) as a QuadElem, and the field they lie over."""
    lines, field, _d = split
    make = ((lambda a, _b: domain.coerce(a)) if field is domain else
            (lambda a, b: QuadElem(a, b, field)))
    return [tuple(map(make, *line)) for line in lines], field


def test_fiber_coefficients_canonical():
    inst = canonical_instance()
    assert _values(inst, qq(1, 0, 0)) == (1, 0, 0, 1)
    assert _values(inst, qq(1, -1, 0)) == (1, -1, 0, 0)


def test_fiber_accepts_five_coordinates():
    inst = canonical_instance()
    assert tau_fiber_action(inst, qq(0, 0, 1, -1, 0)) == tau_fiber_action(inst, qq(1, -1, 0))
    with pytest.raises(ValueError):
        tau_fiber_action(inst, qq(1, 0, 1, -1, 0))


def test_fiber_restriction_identity_random():
    # the cubic restricted to the plane (x0, x1, s) -> (x0, x1, s P) is s * E_P
    inst = sample_instance(21, 8)
    phi = inst.cubic()
    rng = random.Random(3)
    for _ in range(10):
        pt = qq(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 5))
        alpha, beta, gamma, delta = _values(inst, pt)
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, pt[0]], [0, 0, pt[1]], [0, 0, pt[2]]]
        expected = Form.from_terms(3, 3, {(2, 0, 1): alpha, (0, 2, 1): beta,
                                          (1, 1, 1): gamma, (0, 0, 3): delta}, QQ)
        assert compose_linear(phi, rows) == expected


def test_family_read_off_cubic():
    for seed, domain in ((23, QQ), (24, F101)):
        inst = sample_instance(seed, 8, domain=domain)
        fam = inst.family
        assert (fam.l00, fam.l01, fam.l11, fam.f3) == (inst.l00, inst.l01, inst.l11, inst.f3)
        assert inst.family is fam  # built once per instance


def test_gram_determinant_relation():
    alpha, beta, gamma, delta = _values(canonical_instance(), qq(2, 3, 1))
    zero = QQ.zero
    gram = SymMatrix3.from_rows([[alpha, gamma / 2, zero], [gamma / 2, beta, zero],
                                 [zero, zero, delta]])
    assert gram.det() == delta * (alpha * beta - gamma * gamma / 4)


def _directional_expansion(f: Form, T):
    """Coefficient forms of u^k in f(T + u*Q), as forms in the direction Q: by
    homogeneity, the coefficients of s^(d-k) in f(s*T + Q), d = deg f.  The
    generic expansion by ``compose_linear``, kept as the oracle of the closed
    form in ``_condition_forms``."""
    one = f.domain.one
    rows = [[t] + [one if j == i else 0 for j in range(f.num_vars)] for i, t in enumerate(T)]
    expanded = compose_linear(f, rows)
    buckets: dict = {}
    for e, c in zip(monomials(f.num_vars + 1, f.degree), expanded.coeffs):
        if c:
            buckets.setdefault(f.degree - e[0], {})[e[1:]] = c
    return {k: Form.from_terms(f.num_vars, k, terms, f.domain) for k, terms in buckets.items()}


@pytest.mark.parametrize("domain", [QQ, F11, F13], ids=str)
def test_condition_forms_match_the_directional_expansion(domain):
    # T = (1 : 0), T = (0 : 1) (the elimination drops x1 there) and general T
    rng = random.Random(9)
    for seed in range(4):
        inst = sample_instance(seed, 10, domain=domain)
        phi = inst.cubic()
        for t in ((1, 0), (0, 1), (1, 3), (2, 5), (7, 1)):
            T, *forms = _condition_forms(inst, tuple(map(domain.coerce, t)))
            expansion = _directional_expansion(phi, T)
            assert 0 not in expansion  # T lies on the cubic
            assert forms == [expansion.get(k, Form.zero_form(5, k, domain)) for k in (1, 2, 3)]
            for _ in range(3):
                Q = tuple(domain.coerce(rng.randint(-4, 4)) for _ in range(5))
                for u in map(domain.coerce, (1, 2, -3)):
                    shifted = tuple(a + u * q for a, q in zip(T, Q))
                    series = sum((u ** k * evaluate(g, Q) for k, g in enumerate(forms, 1)),
                                 start=domain.zero)
                    assert evaluate(phi, shifted) == series


# --- splitting ----------------------------------------------------------


def _on_line(c, pt3):
    return not (c[0] * pt3[0] + c[1] * pt3[1] + c[2] * pt3[2])


def test_split_rank2_gaussian():
    lines, fld = _line_forms(QQ, _split(qq(1, 0, 0, 1), QQ))  # x0^2 + s^2
    assert len(lines) == 2 and fld.d == -1
    # the lines are x0 = +-i s: the witness (i, 0, 1) lies on one, (-i, 0, 1) on the other
    i, zero, one = fld.sqrt_d, fld.zero, fld.one
    assert [_on_line(c, (i, zero, one)) for c in lines].count(True) == 1
    assert [_on_line(c, (-i, zero, one)) for c in lines].count(True) == 1


def test_split_difference_of_squares():
    lines, fld = _line_forms(QQ, _split(qq(1, -1, 0, 0), QQ))  # x0^2 - x1^2
    assert len(lines) == 2 and fld is QQ
    one, zero = QQ.one, QQ.zero
    # lines x0 = x1 and x0 = -x1 in the plane, through the fiber base point
    assert any(_on_line(c, (one, one, zero)) for c in lines)
    assert any(_on_line(c, (one, -one, zero)) for c in lines)
    assert all(_on_line(c, (zero, zero, one)) for c in lines)


def test_split_double_line():
    split = _split(qq(1, 0, 0, 0), QQ)  # x0^2
    assert split is not None and len(split[0]) == 1


def test_split_smooth_conic_returns_none():
    assert _split(qq(1, 1, 0, 1), QQ) is None


def test_split_zero_conic_raises():
    with pytest.raises(ZeroConic):
        _split(qq(0, 0, 0, 0), QQ)


# split points of the canonical instance over Q: on the conic component
# 4 x2 x3 = x4^2 and on the cubic component x2^3 + x3^3 + x4^3 = 0
CANONICAL_SPLIT_POINTS = (qq(1, 0, 0), qq(0, 1, 0), qq(1, 1, 2), qq(1, 1, -2),
                          qq(1, -1, 0), qq(1, 0, -1), qq(0, 1, -1))


def _split_cases(seed, bound, rng_seed, count):
    """Points of both components of a sampled instance over F_101, then the
    canonical instance's split points over Q."""
    inst = sample_instance(seed, bound, domain=F101)
    rng = random.Random(rng_seed)
    pts = points_on_conic_component(inst, rng, count) + points_on_cubic_component(inst, rng, count)
    canonical = canonical_instance()
    return [(inst, P) for P in pts] + [(canonical, P) for P in CANONICAL_SPLIT_POINTS]


def test_line_pair_product_recovers_conic():
    # the two plane line forms multiply back to the fiber conic (up to scale)
    for inst, P in _split_cases(900, 10, 31415, 10):
        alpha, beta, gamma, delta = values = _values(inst, P)
        (l1, l2), fld = _line_forms(inst.domain, _split(values, inst.domain))
        prod = {(2, 0, 0): l1[0] * l2[0], (0, 2, 0): l1[1] * l2[1],
                (0, 0, 2): l1[2] * l2[2],
                (1, 1, 0): l1[0] * l2[1] + l1[1] * l2[0],
                (1, 0, 1): l1[0] * l2[2] + l1[2] * l2[0],
                (0, 1, 1): l1[1] * l2[2] + l1[2] * l2[1]}
        conic = {(2, 0, 0): fld.coerce(alpha), (0, 2, 0): fld.coerce(beta),
                 (0, 0, 2): fld.coerce(delta), (1, 1, 0): fld.coerce(gamma),
                 (1, 0, 1): fld.zero, (0, 1, 1): fld.zero}
        lam = None
        for key, c in conic.items():
            p = prod[key]
            assert bool(c) == bool(p)
            if c:
                ratio = p / c
                assert lam is None or ratio == lam
                lam = ratio
        assert lam


def test_both_lines_lie_on_cubic():
    for inst, pt in _split_cases(31, 9, 12, 4):
        lines, fld = _line_forms(inst.domain, _split(_values(inst, pt), inst.domain))
        assert len(lines) == 2
        for c in lines:
            _assert_line_on_form(inst.cubic(), c, pt, fld)


def _assert_line_on_form(phi, c, P, fld):
    """phi vanishes on the plane line {c . (x0, x1, s) = 0} lifted to P^4 by
    (x0, x1, s) -> (x0, x1, s P)."""
    # two independent points of the line, among its crossings c x e_i with
    # the coordinate lines
    crossings = [(fld.zero, c[2], -c[1]), (-c[2], fld.zero, c[0]), (c[1], -c[0], fld.zero)]
    a = next(q for q in crossings if any(q))
    b = next(q for q in crossings if any(_cross(a, q)))
    plane = [Form(fld, 2, 1, (x, y)) for x, y in zip(a, b)]
    lifted = plane[:2] + [plane[2] * fld.coerce(p) for p in P]
    assert evaluate(phi.map_coefficients(fld.coerce, fld), lifted).is_zero


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


# --- the dichotomy ------------------------------------------------------


def test_action_examples_canonical():
    inst = canonical_instance()
    assert tau_fiber_action(inst, qq(1, 0, 0)).action == SWAPS
    assert tau_fiber_action(inst, qq(1, -1, 0)).action == FIXES
    assert tau_fiber_action(inst, qq(1, 1, 1)).action == SMOOTH_FIBER


def test_action_double_line_on_crossings():
    # over F_11 the canonical crossing points are rational: parametrizing the
    # conic by (u^2, v^2, 2uv) turns the cubic into z^2 + 8z + 1 = 0 for
    # z = (u/v)^3, whose discriminant 60 is a square mod 11, and cube roots
    # are bijective since 11 = 2 mod 3
    inst = canonical_instance(F11)
    inter = intersect_plane_curves(inst.conic_part(), inst.f3)
    pts = [p.coords for p in inter.points if p.domain == inst.domain]
    assert pts, "crossing points should be rational here"
    for pt in pts:
        assert tau_fiber_action(inst, pt).action == DOUBLE_LINE


def test_dichotomy_randomized():
    rng = random.Random(77)
    for seed in (201, 202):
        inst = sample_instance(seed, 10, domain=F101)
        for pt in points_on_cubic_component(inst, rng, 25):
            act = tau_fiber_action(inst, pt)
            assert act.on_cubic_component and act.action == FIXES
        for pt in points_on_conic_component(inst, rng, 25):
            act = tau_fiber_action(inst, pt)
            assert act.on_conic_component and act.action == SWAPS


def test_component_draws_match_evaluate_at_the_big_prime():
    # at p > 2^32 coefficient_matrix holds Python ints; the component draws,
    # which stop once enough points lie off the other curve, return the first
    # points of the full draw from the same rng that evaluate puts off it
    p = 4294967311
    inst = sample_instance(3, 10, domain=PrimeField(p))
    conic = inst.conic_part()
    assert coefficient_matrix([conic], p).dtype == object
    for seed in (0, 1):
        for draw, sample, f, other in (
                (points_on_cubic_component, curve_rational_points, inst.f3, conic),
                (points_on_conic_component, conic_rational_points, conic, inst.f3)):
            want = [pt for pt in sample(f, random.Random(seed), 300) if evaluate(other, pt)]
            assert len(want) >= 100
            assert draw(inst, random.Random(seed), 100) == want[:100]


def test_component_check_sees_a_wrong_filter(monkeypatch):
    # a filter that keeps every point lets a crossing point of the two curves
    # through, and the batched check must object
    field = PrimeField(101)
    inst = next(inst for inst in (sample_instance(s, 10, domain=field) for s in range(50))
                if any(not evaluate(inst.f3, pt) for pt in
                       conic_rational_points(inst.conic_part(), random.Random(0), 10 ** 6)))
    monkeypatch.setattr(roots, "eval_mod", lambda cs, x, modulus: 1)
    with pytest.raises(ArithmeticError):
        points_on_conic_component(inst, random.Random(0), 10 ** 6)


def _dichotomy_on_every_plane_point(p, seed):
    """Check every point of P^2(F_p) on the canonical instance and a sampled
    one: Fixes on the cubic only, Swaps on the conic only, DoubleLine on both,
    SmoothFiber on neither, the components evaluated from the instance's
    parts.  Returns the actions seen and the (action, split over F_p) pairs
    of the split fibers."""
    dom = PrimeField(p)
    seen, split_fields = set(), set()
    for inst in (canonical_instance(dom), sample_instance(seed, 10, domain=dom)):
        conic = inst.conic_part()
        for pt in projective_points_fp(3, p):
            key = (not evaluate(inst.f3, pt), not evaluate(conic, pt))
            act = tau_fiber_action(inst, pt)
            assert act.action == DICHOTOMY[key], (pt, key)
            assert (act.on_cubic_component, act.on_conic_component) == key
            seen.add(act.action)
            if act.action in (FIXES, SWAPS):
                split_fields.add((act.action, _split(_values(inst, pt), dom)[1] == dom))
    return seen, split_fields


DICHOTOMY = {(True, False): FIXES, (False, True): SWAPS,
             (True, True): DOUBLE_LINE, (False, False): SMOOTH_FIBER}
# each kind of split fiber splits over F_p at some point and needs F_p(sqrt D)
# at another
SPLIT_FIELDS = {(a, over_fp) for a in (FIXES, SWAPS) for over_fp in (True, False)}


@pytest.mark.parametrize("p, seed", ((11, 601), (13, 600)))
def test_dichotomy_on_every_plane_point(p, seed):
    # each sampled instance here has a crossing point over F_p
    assert _dichotomy_on_every_plane_point(p, seed) == (set(DICHOTOMY.values()), SPLIT_FIELDS)


@pytest.mark.sweep
@pytest.mark.parametrize("p", (7, 11, 13))
def test_dichotomy_on_every_plane_point_sweep(p):
    seen, split_fields = set(), set()
    for seed in range(600, 610):
        s, f = _dichotomy_on_every_plane_point(p, seed)
        seen |= s
        split_fields |= f
    assert (seen, split_fields) == (set(DICHOTOMY.values()), SPLIT_FIELDS)


def test_fiber_preserved_setwise():
    inst = sample_instance(205, 10, domain=F101)
    rng = random.Random(5)
    for pt in points_on_conic_component(inst, rng, 10):
        act = tau_fiber_action(inst, pt)
        assert act.action in (FIXES, SWAPS, DOUBLE_LINE)


def _exact(x):
    """A field element as residues or fractions: a + b sqrt(D) as the pair (a, b)."""
    if isinstance(x, QuadElem):
        return (_exact(x.a), _exact(x.b))
    return x.residue if isinstance(x, FpElem) else str(x)


def _action_digest(cases):
    """sha256 of the fiber at each (instance, point): the action and both
    component flags ``tau_fiber_action`` returns, and the field, double flag
    and exact forms of the line pair ``_split`` gives, a double line repeated."""
    lines = []
    for inst, pt in cases:
        act = tau_fiber_action(inst, pt)
        split = _split(_values(inst, pt), inst.domain)
        if split is not None:
            forms, fld = _line_forms(inst.domain, split)
            split = (repr(fld), len(forms) == 1,
                     [[_exact(c) for c in line] for line in (forms[0], forms[-1])])
        lines.append(repr((act.action, act.on_conic_component, act.on_cubic_component, split)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pin_cases(case):
    """The (instance, point) pairs of one pinned case."""
    if case == "qq":
        inst = canonical_instance()
        grid = [qq(*c) for c in product(range(-2, 3), repeat=3) if any(c)]
        return [(inst, pt) for pt in [qq(1, 0, 0), qq(1, -1, 0), qq(1, 1, 1)] + grid]
    if case == "fp101":
        rng = random.Random(18)
        cases = []
        for seed in (900, 205):
            inst = sample_instance(seed, 10, domain=F101)
            cases += [(inst, pt) for pt in points_on_cubic_component(inst, rng, 50)
                      + points_on_conic_component(inst, rng, 50)]
        return cases
    p, which = case
    dom = PrimeField(p)
    inst = canonical_instance(dom) if which == "canonical" else sample_instance(600 + p, 10,
                                                                                 domain=dom)
    return [(inst, pt) for pt in projective_points_fp(3, p)]


# Pins the action, the component flags, the line pair's field and its exact
# line forms, in order, at every point of P^2(F_p) for p = 7, 11, 13 on the
# canonical and one sampled instance, at 200 component points of two sampled
# instances over F_101 and at small points of the canonical instance over Q.
ACTION_DIGESTS = {
    (7, "canonical"):
        "ee223ceb867a420acb63888662cafd52f837e4963dd1f1842d5904f511ce68a4",
    (7, "sampled"):
        "437445f9a6902e45102f1aa81227f4cc01f072e8509d14739001301b2368c3d6",
    (11, "canonical"):
        "e7fd1adcdfe8a874fda05ff46ed425fd3b9954dbf62158e053d33a9b783d0452",
    (11, "sampled"):
        "6db6754ebc53e88559c7e5cf06506ceb576ddb1a594dff471feee3893de8c4c1",
    (13, "canonical"):
        "fc5c6daf21ac46a396ba8a87b5c504f31c1a183b8838a3a3a58940491c8b2994",
    (13, "sampled"):
        "72ee3829cf56ed4a18c34a65949a4ee82c9a6a2422568079c98cea944fae95fe",
    "fp101":
        "48fd1dc2ce961130d1827d4e7a22afd6fd74fe85481936ba1e96c8c0abd67cda",
    "qq":
        "e58d99395dfe89cb6deb880ae7a1878941d17320d168d50e1b230ea16a3ca500",
}


@pytest.mark.parametrize("case", list(ACTION_DIGESTS), ids=str)
def test_fiber_action_outputs_pinned(case):
    assert _action_digest(_pin_cases(case)) == ACTION_DIGESTS[case]


@pytest.mark.parametrize("domain", [F13, QQ], ids=["F13", "QQ"])
def test_proportional_reads_the_product_of_the_im_parts(domain):
    # forms re + sqrt(2) im over F_13(sqrt 2) and Q(sqrt 2) whose im parts are
    # not parallel: (1 + sqrt 2) c is proportional to c only through the
    # d (im x im) term, and sqrt 2 s, sqrt 2 r are not proportional only
    # through it
    r, s, zero = (1, 2, 0), (0, 1, 3), (0, 0, 0)
    c = (r, s)
    e = (tuple(x + 2 * y for x, y in zip(r, s)), tuple(x + y for x, y in zip(r, s)))
    same = lambda u, v: discriminant._proportional(u, v, 2, domain.reduce)
    assert same(c, e) and same(e, c)
    assert not same((zero, s), (zero, r))
    assert same((zero, s), (zero, tuple(5 * x for x in s)))


def test_tau_line_negates_c0_and_c1_of_both_parts():
    # (c0, c1, -c2) is the same line up to -1, so only the form itself, not a
    # proportionality check, tells it from the documented (-c0, -c1, c2)
    c = ((1, 2, 3), (4, 5, 6))
    assert discriminant._tau_line(c) == ((-1, -2, 3), (-4, -5, 6))
    assert discriminant._tau_line(discriminant._tau_line(c)) == c


# --- the element oracle of the plain fiber route -------------------------
#
# The fiber route as it stood before the family table and ``plain_sqrt``: the
# family forms summed term by term, and ``_split`` with its square root taken
# by ``quad_sqrt`` on field elements.  The plain route must agree with it.


def _oracle_values(family, P):
    """(alpha, beta, gamma, delta) at the plain point P, each form summed over
    its nonzero terms."""
    dom = family.f3.domain
    x, y, z = ((1, c, c * c, c * c * c) for c in P)
    return tuple(dom.reduce(sum(dom.plain(c) * x[i] * y[j] * z[k]
                                for (i, j, k), c in zip(monomials(3, f.degree), f.coeffs) if c))
                 for f in (family.l00, family.l11, family.l01, family.f3))


def _oracle_split(values, domain):
    """``_split`` by the element route, and the branch it took."""
    alpha, beta, gamma, delta = values
    reduce, inverse = domain.reduce, domain.inverse
    g01 = reduce(gamma * inverse(2))
    det_a = reduce(alpha * beta - g01 * g01)
    if det_a and delta:
        return None, "smooth"
    if det_a:
        vertex = (0, 0, det_a)
    elif alpha or gamma:
        vertex = (reduce(g01 * delta), reduce(-alpha * delta), 0)
    else:
        vertex = (reduce(beta * delta), 0, 0)
    zero = (0, 0, 0)
    if not any(vertex):
        row = (alpha, g01, 0) if alpha or gamma else (0, beta, 0) if beta else (0, 0, delta)
        return ([(row, zero)], domain, 0), "rank-1 row " + "abd"[next(i for i in range(3) if row[i])]
    m = next(i for i in range(3) if vertex[i])
    u, v = (i for i in range(3) if i != m)
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ku, kv = _cross(vertex, unit[u]), _cross(vertex, unit[v])
    line = lambda x, y: tuple(reduce(x * p + y * q) for p, q in zip(ku, kv))
    a, b, c = (alpha, beta, delta)[u], gamma if v == 1 else 0, (alpha, beta, delta)[v]
    if not a:
        return ([(line(1, 0), zero), (line(-c * inverse(b), 1), zero)], domain, 0), "a = 0"
    s, field = quad_sqrt(b * b - 4 * a * c, domain)
    s0, s1, d = ((domain.plain(s), 0, 0) if field is domain else
                 (domain.plain(s.a), domain.plain(s.b), domain.plain(field.d)))
    w = inverse(2 * a)
    return ([(line((s0 - b) * w, 1), line(s1 * w, 0)),
             (line((-s0 - b) * w, 1), line(-s1 * w, 0))], field, d), (
        "square" if field is domain else "non-square")


def _oracle_proportional(c, e, d, reduce):
    (cr, ci), (er, ei) = c, e
    return not any(reduce(cr[i] * er[j] - cr[j] * er[i] + d * (ci[i] * ei[j] - ci[j] * ei[i]))
                   or reduce(cr[i] * ei[j] - cr[j] * ei[i] + ci[i] * er[j] - ci[j] * er[i])
                   for i, j in ((0, 1), (0, 2), (1, 2)))


def _oracle_action(values, domain):
    """(action, on_conic, on_cubic) of the fiber with these values, by the
    element route; None where the involution moves the pair elsewhere."""
    alpha, beta, gamma, delta = values
    flags = (not domain.reduce(4 * alpha * beta - gamma * gamma), not delta)
    split, _branch = _oracle_split(values, domain)
    if split is None:
        return (SMOOTH_FIBER, *flags)
    lines, _field, d = split
    if len(lines) == 1:
        return (DOUBLE_LINE, *flags)
    plus, minus = lines
    tau = lambda c: tuple((-x, -y, z) for x, y, z in c)
    same = lambda c, e: _oracle_proportional(c, e, d, domain.reduce)
    if same(tau(plus), plus) and same(tau(minus), minus):
        return (FIXES, *flags)
    if same(tau(plus), minus) and same(tau(minus), plus):
        return (SWAPS, *flags)
    return None


ORACLE_DOMAINS = [QQ, F11, F101, PrimeField(103), PrimeField(4294967311)]
SPLIT_BRANCHES = {"smooth", "rank-1 row a", "rank-1 row b", "rank-1 row d", "a = 0", "square",
                  "non-square"}


def _plain_draw(domain, rng):
    """A random plain number of the domain, zero one time in three."""
    if rng.randrange(3) == 0:
        return domain.reduce(0)
    if domain == QQ:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 5))
    return rng.randrange(1, domain.p)


def _fiber_values(domain, rng):
    """Random fiber values (alpha, beta, gamma, delta): every other draw lies
    over the conic component, alpha, gamma, beta = k t^2, 2 k t u, k u^2."""
    draw = lambda: _plain_draw(domain, rng)
    delta = draw()
    if rng.randrange(2):
        return draw(), draw(), draw(), delta
    k, t, u = draw(), draw(), draw()
    return tuple(domain.reduce(v) for v in (k * t * t, k * u * u, 2 * k * t * u, delta))


def _instance_with_values(domain, values, rng):
    """A tau instance with random forms whose family has ``values`` at (1 : 0 : 0)."""
    def form(degree, head):
        coeffs = [head] + [_plain_draw(domain, rng) for _ in monomials(3, degree)[1:]]
        return Form(domain, 3, degree, tuple(map(domain.coerce, coeffs)))
    alpha, beta, gamma, delta = values
    return TauInstance(domain, form(1, alpha), form(1, beta), form(1, gamma), form(3, delta), ())


@pytest.mark.parametrize("domain", ORACLE_DOMAINS, ids=str)
def test_family_table_values_match_the_term_sums(domain):
    rng = random.Random(41)
    for _ in range(20):
        inst = _instance_with_values(domain, [_plain_draw(domain, rng) for _ in range(4)], rng)
        for _ in range(5):
            P = [_plain_draw(domain, rng) for _ in range(3)]
            assert inst.family.values(P) == _oracle_values(inst.family, P)


@pytest.mark.parametrize("domain", ORACLE_DOMAINS, ids=str)
def test_plain_split_and_action_match_the_element_oracle(domain):
    # every branch of _split, at random values: smooth, the three rank-1 rows,
    # a = 0, and square and non-square discriminants
    rng = random.Random(43)
    branches = set()
    one, zero = domain.coerce(1), domain.coerce(0)
    for _ in range(300):
        values = _fiber_values(domain, rng)
        if not any(values):
            continue
        want, branch = _oracle_split(values, domain)
        branches.add(branch)
        assert _split(values, domain) == want, (values, branch)
        act = tau_fiber_action(_instance_with_values(domain, values, rng), (one, zero, zero))
        assert (act.action, act.on_conic_component, act.on_cubic_component) == _oracle_action(
            values, domain)
    assert branches == SPLIT_BRANCHES


@pytest.mark.parametrize("domain", ORACLE_DOMAINS, ids=str)
def test_plain_proportional_matches_the_element_oracle(domain):
    # pairs of line forms proportional up to one perturbed entry, at d = 0 and d != 0
    rng = random.Random(47)
    seen = set()
    for _ in range(200):
        d = rng.choice([0, _plain_draw(domain, rng)])
        c = tuple(tuple(_plain_draw(domain, rng) for _ in range(3)) for _ in range(2))
        lam = _plain_draw(domain, rng) or 1
        e = [[domain.reduce(lam * x) for x in part] for part in c]
        if rng.randrange(2):
            e[rng.randrange(2)][rng.randrange(3)] = _plain_draw(domain, rng)
        e = tuple(map(tuple, e))
        want = _oracle_proportional(c, e, d, domain.reduce)
        seen.add(want)
        assert discriminant._proportional(c, e, d, domain.reduce) == want
    assert seen == {True, False}


def test_fiber_action_over_fp_builds_no_field_elements():
    # over F_101 component points are classified on residues: no quad_sqrt
    # call and no element of F_101(sqrt d), though some splits need it
    inst = sample_instance(205, 10, domain=F101)
    rng = random.Random(5)
    pts = points_on_cubic_component(inst, rng, 50) + points_on_conic_component(inst, rng, 50)
    assert any(_split(_values(inst, pt), F101)[1] != F101 for pt in pts)
    watched = {quad_sqrt.__code__: "quad_sqrt", QuadElem.__init__.__code__: "QuadElem",
               QuadElem._of.__func__.__code__: "QuadElem"}
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        actions = Counter(tau_fiber_action(inst, pt).action for pt in pts)
    finally:
        sys.setprofile(None)
    assert actions[FIXES] and actions[SWAPS]
    assert not calls, calls


# --- discriminant quintic -----------------------------------------------


def test_discriminant_canonical():
    inst = canonical_instance()
    dd = discriminant_quintic(inst)
    assert dd.conic_part == Form.from_terms(3, 2, {(1, 1, 0): 4, (0, 0, 2): -1}, QQ)
    assert dd.cubic_part == inst.f3
    assert dd.quintic.degree == 5
    assert dd.intersection.total_multiplicity == 6
    assert dd.transversal


def test_discriminant_transversal_reads_the_jacobian_over_fp(monkeypatch):
    # over F_101 the crossing points lift (two over F_101(sqrt 2)), so the
    # Jacobian check sees them; over Q none lift and only Bezout is left
    inst = sample_instance(1, 10, domain=F101)
    dd = discriminant_quintic(inst)
    points = dd.intersection.points
    assert len(points) == 3
    assert {repr(pp.domain) for pp in points} == {repr(F101), repr(quad_sqrt(2, F101)[1])}
    assert dd.intersection.distinct and dd.transversal
    monkeypatch.setattr(discriminant, "jacobian_rank", lambda *args: 1)
    assert not discriminant_quintic(inst).transversal
    assert discriminant_quintic(canonical_instance()).transversal


def test_discriminant_factorization_random():
    for seed, domain in ((301, QQ), (302, F101)):
        inst = sample_instance(seed, 10, domain=domain)
        dd = discriminant_quintic(inst)
        assert exact_divide(dd.quintic, dd.conic_part) == dd.cubic_part
        assert exact_divide(dd.quintic, dd.cubic_part) == dd.conic_part


def test_family_gram_determinant_identity():
    for seed, domain in ((303, QQ), (304, F101)):
        inst = sample_instance(seed, 10, domain=domain)
        four_det = inst.family.gram().det().scale(domain.coerce(4))
        assert four_det == discriminant_quintic(inst).quintic
        assert four_det == inst.conic_part() * inst.f3


def test_factorization_check_sees_invariant_perturbation(monkeypatch):
    # the family reads the tau-invariant x0^2 x3 into l00 while conic_part()
    # and f3 come from the unchanged parts, so the quintic read off the cubic
    # is not conic * cubic
    original = TauInstance.cubic
    monkeypatch.setattr(TauInstance, "cubic", lambda self: original(self) + Form.from_terms(
        5, 3, {(2, 0, 0, 1, 0): 1}, self.domain))
    report = run_suite(SuiteConfig(suites=("discriminant",), samples=2, seed=0))
    entries = [e for e in report.entries if e.instance_id != "aggregate"]
    assert len(entries) == 4
    for e in entries:
        statuses = {c.name: c.status for c in e.checks}
        assert statuses["factorization_exact"] == "fail", e.instance_id


def test_family_shape_check_rejects_non_invariant_cubic(monkeypatch):
    original = TauInstance.cubic
    monkeypatch.setattr(TauInstance, "cubic", lambda self: original(self) + Form.from_terms(
        5, 3, {(3, 0, 0, 0, 0): 1}, self.domain))
    for domain in (QQ, F101):
        inst = canonical_instance(domain)
        with pytest.raises(ArithmeticError):
            discriminant_quintic(inst)
        with pytest.raises(ArithmeticError):
            tau_fiber_action(inst, (domain.one, domain.zero, domain.zero))


def test_degenerate_conic_part_rejected():
    inst = canonical_instance()
    x2 = inst.l00
    bad = TauInstance(QQ, x2, x2, Form.zero_form(3, 1, QQ), inst.f3, inst.quadrics)
    with pytest.raises(DegenerateConicPart):
        discriminant_quintic(bad)


# --- lines through points of the fixed line ------------------------------


def test_lines_count_and_bruteforce():
    for p, seed in ((11, 401), (13, 402)):
        dom = PrimeField(p)
        inst = sample_instance(seed, 10, domain=dom)
        checked = 0
        t1 = 0
        while checked < 3 and t1 < p:
            try:
                rep = lines_through_point_of_ltau(inst, (dom.one, dom.coerce(t1)))
            except InfinitelyMany:
                t1 += 1
                continue
            t1 += 1
            checked += 1
            assert rep.total_multiplicity == 6
            assert rep.contains_fixed_line
            brute = lines_through_point_brute(inst, (dom.one, dom.coerce(t1 - 1)))
            elim = {projective_key(d, dom) for d, _m, lbl in rep.rational_directions
                    if lbl == f"F{p}"}
            assert elim == {projective_key(d, dom) for d in brute}
        assert checked == 3


def test_lines_fixed_line_always_solution():
    inst = sample_instance(403, 10, domain=F11)
    rep = lines_through_point_of_ltau(inst, (F11.one, F11.coerce(4)))
    fixed_dirs = [d for d, _m, _l in rep.rational_directions if not any(d[2:])]
    assert len(fixed_dirs) == 1


def _direction_key(q):
    """A line direction scaled so its first nonzero coordinate is 1, as exact parts."""
    inv = 1 / next(c for c in q if c)
    return tuple(_exact(c * inv) for c in q)


def _line_digest(p):
    """sha256 of the line outputs at every point (1 : t) and (0 : 1) of the fixed
    line over F_p, for the instances of seeds 0-4: the total multiplicity, the
    sorted (direction, multiplicity, field label) triples, whether the fixed
    line is among them, and the brute-force directions."""
    dom = PrimeField(p)
    lines = []
    for seed in range(5):
        inst = sample_instance(seed, 10, domain=dom)
        for T in [(dom.one, dom.coerce(t)) for t in range(p)] + [(dom.zero, dom.one)]:
            brute = sorted(_direction_key(d) for d in lines_through_point_brute(inst, T))
            try:
                rep = lines_through_point_of_ltau(inst, T)
            except InfinitelyMany:
                lines.append(repr(("InfinitelyMany", brute)))
                continue
            found = sorted(((_direction_key(d), m, label)
                            for d, m, label in rep.rational_directions), key=repr)
            lines.append(repr((rep.total_multiplicity, found, rep.contains_fixed_line, brute)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


LINE_DIGESTS = {
    11: "32a85a3e54f0c31433ae492973269b89bd271a8e3fe318887a5f0359529bf2c7",
    13: "97e80cacdb6356b3202aeb151e0671fde85de1edd2d0df2a2df386b58b052506",
}


@pytest.mark.parametrize("p", list(LINE_DIGESTS))
def test_line_outputs_pinned(p):
    assert _line_digest(p) == LINE_DIGESTS[p]


def _eliminated_lines(inst, T):
    """The former lines route, kept as a reference: on the slice {x_drop = 0},
    solve g1 for its last variable, meet the eliminated g2 and g3 with
    ``intersect_plane_curves`` and lift the points.  Returns the total and the
    projective keys of the F_p directions, or None for infinitely many lines."""
    dom = inst.domain
    T, *forms = _condition_forms(inst, T)
    drop = 0 if T[0] else 1
    g1r, g2r, g3r = (drop_variable(g, drop) for g in forms)
    if g1r.is_zero or g2r.is_zero or g3r.is_zero:
        return None
    lin = list(g1r.coeffs)
    j = next(i for i in range(3, -1, -1) if lin[i])
    keep = [i for i in range(4) if i != j]
    rows = [[-lin[k] / lin[j] for k in keep] if i == j else
            [dom.one if k == i else dom.zero for k in keep] for i in range(4)]
    g2s, g3s = compose_linear(g2r, rows), compose_linear(g3r, rows)
    if g2s.is_zero or g3s.is_zero:
        return None
    try:
        inter = intersect_plane_curves(g2s, g3s)
    except CommonComponent:
        return None
    keys = set()
    for pp in inter.points:
        if pp.domain == dom:
            q4 = [sum((r * y for r, y in zip(row, pp.coords)), dom.zero) for row in rows]
            keys.add(projective_key(q4[:drop] + [dom.zero] + q4[drop:], dom))
    return inter.total_multiplicity, keys


@pytest.mark.parametrize("p", [11, 13])
def test_lines_agree_with_the_elimination_and_the_jacobian(p):
    # at every point of the fixed line for seeds 0-4: the same F_p directions
    # and total as the elimination, and multiplicity 1 exactly where the
    # condition forms meet transversally (Jacobian rank 3 on the slice)
    dom = PrimeField(p)
    simple = multiple = 0
    for seed in range(5):
        inst = sample_instance(seed, 10, domain=dom)
        for T in [(dom.one, dom.coerce(t)) for t in range(p)] + [(dom.zero, dom.one)]:
            reference = _eliminated_lines(inst, T)
            try:
                rep = lines_through_point_of_ltau(inst, T)
            except InfinitelyMany:
                assert reference is None, (seed, T)
                continue
            rational = [(d, m) for d, m, label in rep.rational_directions if label == f"F{p}"]
            assert reference == (rep.total_multiplicity,
                                 {projective_key(d, dom) for d, _m in rational}), (seed, T)
            _, *forms = _condition_forms(inst, T)
            drop = 0 if T[0] else 1
            grads = [[partial_derivative(drop_variable(g, drop), i) for i in range(4)]
                     for g in forms]
            for d, m in rational:
                assert (m == 1) == (jacobian_rank(grads, d[:drop] + d[drop + 1:], dom) == 3)
                simple += m == 1
                multiple += m > 1
    assert simple and multiple


@pytest.mark.parametrize("name, ts", [("lines_overcount_p11_seed1.json", [6]),
                                      ("lines_overcount_p13_seed4.json", [0, 1])])
def test_lines_multiplicities_sum_to_the_total(name, ts):
    # the elimination gave one direction at each of these points multiplicity
    # 2, because two simple directions shared a projection under its shear; all
    # six lines are rational there, so no cluster carries weight
    inst = load_instance(str(Path(__file__).parent / "fixtures" / name))
    dom = inst.domain
    for t in ts:
        rep = lines_through_point_of_ltau(inst, (dom.one, dom.coerce(t)))
        mults = [m for _d, m, label in rep.rational_directions if label == f"F{dom.p}"]
        assert mults == [1] * 6
        assert sum(m for _d, m, _label in rep.rational_directions) == rep.total_multiplicity == 6


def _mutant_condition_forms(mutant):
    """``_condition_forms`` with g1 missing its t0 t1 l01 term ("g1"), with
    t1 l11 in place of 2 t1 l11 in g2 ("g2"), or unchanged (None)."""
    def forms(inst, T):
        dom = inst.domain
        t0, t1 = (dom.coerce(c) for c in T[:2])
        l00, l01, l11 = inst.l00, inst.l01, inst.l11
        g1 = l00.scale(t0 * t0) + l11.scale(t1 * t1)
        if mutant != "g1":
            g1 = g1 + l01.scale(t0 * t1)
        g2 = (embed_with_x01(l00.scale(t0 + t0) + l01.scale(t1), 1, 0)
              + embed_with_x01(l01.scale(t0) + l11.scale(t1 if mutant == "g2" else t1 + t1),
                               0, 1))
        return (t0, t1, dom.zero, dom.zero, dom.zero), embed_with_x01(g1, 0, 0), g2, inst.cubic()
    return forms


@pytest.mark.parametrize("mutant", [None, "g1", "g2"])
def test_lines_suite_sees_a_wrong_condition_form(monkeypatch, mutant):
    # both routes share the condition forms; the check of every found line on
    # the cubic itself is what turns a wrong form into a fail
    monkeypatch.setattr(discriminant, "_condition_forms", _mutant_condition_forms(mutant))
    report = run_suite(SuiteConfig(suites=("lines",), samples=4, primes=(11, 13)))
    failed = [e.instance_id for e in report.entries for c in e.checks if c.status == "fail"]
    assert bool(failed) == (mutant is not None)


def _on_cubic_by_evaluate(inst, T, q):
    """The former check of a found direction, kept as an oracle: ``evaluate`` on
    the cubic's Form at T + u Q for u = 1, 2, 3."""
    phi = inst.cubic()
    return not any(evaluate(phi, [a + u * b for a, b in zip(T, q)]) for u in range(1, 4))


@pytest.mark.parametrize("p", [11, 13, 17])
def test_on_cubic_check_matches_evaluate(p):
    # every direction found at every point of the fixed line for seeds 0-4 is
    # on the cubic for both checks.  With one coordinate moved, in its F_p part
    # or, over F_p(sqrt d), in its sqrt d part, the two checks agree, and the
    # plain-number one raises where the line is off the cubic.  A move in the
    # plane of T and Q gives the same line; about 1 in p of the others lands
    # on another line through T.
    dom = PrimeField(p)
    moved = {"F_p": 0, "F_p(sqrt d), F_p part": 0, "F_p(sqrt d), sqrt d part": 0}
    on_lines = 0      # moves onto another line through T
    for seed in range(5):
        inst = sample_instance(seed, 10, domain=dom)
        for T in [(dom.one, dom.coerce(t)) for t in range(p)] + [(dom.zero, dom.one)]:
            try:
                rep = lines_through_point_of_ltau(inst, T)
            except InfinitelyMany:
                continue
            T = T + (dom.zero,) * 3
            for q, _m, _label in rep.rational_directions:
                assert _on_cubic_by_evaluate(inst, T, q), (seed, T, q)
                discriminant._check_on_cubic(inst, T, [q])
                i = sum(moved.values()) % 5
                if isinstance(q[i], QuadElem):
                    field = q[i].ext
                    steps = {"F_p(sqrt d), F_p part": field.one,
                             "F_p(sqrt d), sqrt d part": field.sqrt_d}
                else:
                    field, steps = dom, {"F_p": dom.one}
                for kind, step in steps.items():
                    off = q[:i] + (q[i] + step,) + q[i + 1:]
                    if _on_cubic_by_evaluate(inst, T, off):
                        discriminant._check_on_cubic(inst, T, [off])
                        on_lines += linalg.rank([T, q, off], field) == 3
                        continue
                    with pytest.raises(ArithmeticError):
                        discriminant._check_on_cubic(inst, T, [off])
                    moved[kind] += 1
    assert all(moved.values()) and on_lines < sum(moved.values()) / 4, (moved, on_lines)


# sample_instance(0, 10, QQ): at each (t0 : t1), the directions found, each
# scaled to a leading 1 (``_direction_key``), its multiplicity and its field
QQ_LINES = {
    (1, 2): [(("0", "1", "0", "0", "0"), 1, "Q"),
             ((("0", "0"), ("1", "0"), ("0", "42/1186487"), ("0", "1356/5932435"),
               ("0", "-528/5932435")), 1, "Q(sqrt -1186487)"),
             ((("0", "0"), ("1", "0"), ("0", "-42/1186487"), ("0", "-1356/5932435"),
               ("0", "528/5932435")), 1, "Q(sqrt -1186487)")],
    (1, 0): [(("0", "1", "0", "0", "0"), 1, "Q"),
             ((("0", "0"), ("1", "0"), ("0", "-210/287089"), ("0", "372/287089"),
               ("0", "-336/287089")), 1, "Q(sqrt -861267)"),
             ((("0", "0"), ("1", "0"), ("0", "210/287089"), ("0", "-372/287089"),
               ("0", "336/287089")), 1, "Q(sqrt -861267)")],
    (0, 1): [(("1", "0", "0", "0", "0"), 1, "Q"),
             ((("1", "0"), ("0", "0"), ("0", "-30/1300651"), ("0", "516/1300651"),
               ("0", "-48/1300651")), 1, "Q(sqrt -3901953)"),
             ((("1", "0"), ("0", "0"), ("0", "30/1300651"), ("0", "-516/1300651"),
               ("0", "48/1300651")), 1, "Q(sqrt -3901953)")],
}


def test_lines_over_q_pinned():
    # the route over Q, its check on Fractions and pairs of Fractions included
    inst = sample_instance(0, 10, QQ)
    for T, directions in QQ_LINES.items():
        rep = lines_through_point_of_ltau(inst, qq(*T))
        assert rep.total_multiplicity == 6 and rep.contains_fixed_line
        assert [(_direction_key(d), m, label)
                for d, m, label in rep.rational_directions] == directions


def test_lines_suite_evaluates_the_cubic_at_every_probed_point(monkeypatch):
    # the route checks each probed T on the cubic's Form with ``evaluate``,
    # the calls the benchmark's line-oracles workload expects to see
    calls = []

    def counted_evaluate(f, pt):
        calls[-1] += 1
        return evaluate(f, pt)

    def counted_route(inst, T, route=discriminant.lines_through_point_of_ltau):
        calls.append(0)
        return route(inst, T)

    monkeypatch.setattr(discriminant, "evaluate", counted_evaluate)
    monkeypatch.setattr(discriminant, "lines_through_point_of_ltau", counted_route)
    run_suite(SuiteConfig(suites=("lines",), samples=2, primes=(11,)))
    assert calls and all(calls), calls


# --- cone geometry ------------------------------------------------------


def test_cone_canonical():
    inst = canonical_instance()
    rep = cone_and_singular_member(inst)
    assert rep.singular_locus_is_fixed_line
    assert len(rep.line_points) == 2
    assert rep.line_point_field.d == -1
    assert rep.line_points_singular
    assert rep.probe_count > 0 and rep.probes_all_smooth


def test_cone_gradient_matches_expected():
    # K = 4 x2 x3 - x4^2 has gradient (0, 0, 4x3, 4x2, -2x4)
    inst = canonical_instance()
    from taucubic.forms import partial_derivative
    from taucubic.tau import embed_with_x01
    K = embed_with_x01(inst.conic_part(), 0, 0)
    grads = [partial_derivative(K, i) for i in range(5)]
    assert grads[0].is_zero and grads[1].is_zero
    assert grads[2] == Form.from_terms(5, 1, {(0, 0, 0, 1, 0): 4}, QQ)
    assert grads[3] == Form.from_terms(5, 1, {(0, 0, 1, 0, 0): 4}, QQ)
    assert grads[4] == Form.from_terms(5, 1, {(0, 0, 0, 0, 1): -2}, QQ)


def test_cone_sampled_instances():
    for seed, domain in ((501, QQ), (502, F101)):
        inst = sample_instance(seed, 10, domain=domain)
        rep = cone_and_singular_member(inst)
        assert rep.singular_locus_is_fixed_line
        assert len(rep.line_points) == 2
        assert rep.line_points_singular
        assert rep.probes_all_smooth


def test_cone_probes_when_line_quadratic_lacks_x0_squared():
    # a00 = 0: the pencil quadric has no x0^2 term, so its fibres over the
    # conic cannot be solved for x0 alone
    inst = load_instance(str(Path(__file__).parent / "fixtures" / "cone_a00_zero.json"))
    assert not inst.quadrics[0].a00
    rep = cone_and_singular_member(inst, probe_prime=101)
    assert rep.probe_count == 8
    assert rep.probes_all_smooth


def test_cone_probes_undecided_when_conic_drops_rank_mod_probe_prime():
    # a valid rational instance whose conic part has rank 2 mod 101: the reduced
    # cone is singular over the conic's vertex, which says nothing about S
    path = str(Path(__file__).parent / "fixtures" / "cone_conic_rank2_mod101.json")
    inst = load_instance(path)
    assert linalg.rank(SymMatrix3.gram_of_ternary(inst.conic_part()).entries, QQ) == 3
    rep = cone_and_singular_member(inst, probe_prime=101)
    assert rep.probe_undecided == "the conic part drops rank mod 101"
    assert rep.probe_count == 0 and rep.singular_locus_is_fixed_line
    assert cone_and_singular_member(inst, probe_prime=103).probe_undecided == ""
    report = run_suite(SuiteConfig(suites=("cone",), instance_path=path))
    statuses = {c.name: c.status for c in report.entries[0].checks}
    assert statuses["off_line_probes_smooth"] == "inconclusive"
    assert "fail" not in statuses.values()
