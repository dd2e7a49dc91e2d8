"""Involution geometry: invariant series, sampling gate, base locus, two-point
cubics, eigen split, fixed points, and F_p surface points."""

import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from taucubic import linalg
from taucubic.bruteforce import (coefficient_matrix, common_projective_zeros,
                                 projective_points_fp, random_order)
from taucubic.forms import (SINGULAR_CERTIFIED, SMOOTH_CERTIFIED, Form, ResultantIndeterminate,
                            compose_linear, evaluate, is_smooth_hypersurface,
                            macaulay_resultant, monomials, partial_derivative, reduce_form)
from taucubic.harness import projective_key
from taucubic.intersect import conic_rational_points, curve_rational_points
from taucubic.roots import binary_quadratic_roots, fp_binary_quadratic_roots
from taucubic.scalars import PrimeField, QQ, QuadraticExtension
from taucubic.tau import (GenericityExhausted, QuadricPart, TauInstance,
                          UnsupportedDegree, canonical_instance, embed_with_x01,
                          fixed_points_on_S, genericity_report, invariant_basis,
                          invariant_coordinates, random_points_on_surface,
                          sample_instance, surface_points, sym2_eigensplit, tau_form,
                          two_point_analysis, two_point_subspace, verify_base_locus)
import taucubic.intersect as intersect_mod
import taucubic.tau as tau_mod

F101 = PrimeField(101)


def test_basis_sizes():
    assert len(invariant_basis(2)) == 9
    assert len(invariant_basis(3)) == 19


def test_basis_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        invariant_basis(4)


def test_basis_forms_are_invariant():
    for d in (2, 3):
        for f in invariant_basis(d):
            assert tau_form(f) == f


def test_bases_linearly_independent():
    b3 = invariant_basis(3)
    assert linalg.rank([invariant_coordinates(f) for f in b3], QQ) == 19


# the involution as a coordinate change: x0, x1 negated, x2, x3, x4 fixed
TAU_ROWS = [[QQ.coerce(-1 if i < 2 else 1) if i == j else QQ.zero for j in range(5)]
            for i in range(5)]


def test_involution_is_itself_a_substitution():
    rng = random.Random(2)
    terms = {m: QQ.coerce(rng.randint(-4, 4)) for m in monomials(5, 3)}
    f = Form.from_terms(5, 3, terms, QQ)
    via_matrix = compose_linear(f, TAU_ROWS)
    assert via_matrix == tau_form(f)
    assert compose_linear(via_matrix, TAU_ROWS) == f  # involution squares to identity


# --- sampling -----------------------------------------------------------


def test_canonical_instance_passes_gate():
    rep = genericity_report(canonical_instance())
    assert rep["passed"], rep


def test_gate_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug inside the certificate")
    monkeypatch.setattr(tau_mod, "is_smooth_hypersurface", broken)
    with pytest.raises(TypeError, match="bug inside the certificate"):
        genericity_report(canonical_instance(F101))


def test_gate_rejects_only_a_common_component(monkeypatch):
    # CommonComponent is a ValueError; any other ValueError is a fault, not a verdict
    def broken(*args, **kwargs):
        raise ValueError("bug inside the intersection")
    monkeypatch.setattr(tau_mod, "intersect_plane_curves", broken)
    with pytest.raises(ValueError, match="bug inside the intersection"):
        genericity_report(canonical_instance())


def test_gate_verdicts_draw_nothing_from_the_rng():
    # the sampled instance is the first draw of Random(s) that passes the gate,
    # so the shears the gate tries cannot shift the later draws; at s = 1 over
    # F_13 the first draw is rejected by its f2 and f3 intersection
    from taucubic.harness import encode_instance
    domain, rng = PrimeField(13), random.Random(1)
    rejected = tau_mod._draw_instance(rng, 10, domain)
    assert not genericity_report(rejected)["surface_plane_points_distinct"]
    first = tau_mod._draw_instance(rng, 10, domain)
    assert genericity_report(first)["passed"]
    assert encode_instance(sample_instance(1, 10, domain)) == encode_instance(first)


def test_gate_threefold_key_is_the_conjunction_of_the_others():
    # X's smoothness follows from the conic, the plane cubic and their six
    # distinct points, so the key is False exactly when another key is.  Over
    # Q every draw passes; over F_11 both outcomes occur.
    verdicts = []
    for domain in (QQ, PrimeField(11)):
        rng = random.Random(16)
        for i in range(40):
            inst = tau_mod._draw_instance(rng, 10, domain)
            rep = genericity_report(inst)
            others = [v for k, v in rep.items()
                      if k not in ("cubic_hypersurface_smooth", "passed")]
            assert rep["cubic_hypersurface_smooth"] == all(others) == rep["passed"]
            verdicts.append(rep["passed"])
            if domain == QQ and i in (7, 11, 31):
                # bad reduction mod 101 or 103 used to reject these; mod 107 X is smooth
                assert rep["passed"]
                verdict = is_smooth_hypersurface(reduce_form(inst.cubic(), 107))
                assert verdict.status == SMOOTH_CERTIFIED
    assert 0 < sum(verdicts) < len(verdicts)   # both outcomes occur among the draws


def _old_cubic_key(f3):
    # the gate's former inline certificate of the plane cubic
    try:
        return bool(macaulay_resultant([partial_derivative(f3, i) for i in range(3)]))
    except ResultantIndeterminate:
        return False


@pytest.mark.parametrize("p", [11, 13, 101])
def test_gate_cubic_key_matches_the_inline_resultant(p):
    rng = random.Random(p)
    domain = PrimeField(p)
    keys = []
    for _ in range(40):
        inst = tau_mod._draw_instance(rng, 10, domain)
        key = genericity_report(inst)["cubic_smooth"]
        assert key == _old_cubic_key(inst.f3)
        keys.append(key)
    assert any(keys)


def test_structural_verdict_agrees_with_the_certificate_of_X():
    # the oracle is the Macaulay certificate of the assembled cubic over F_11,
    # with its exhaustive scan of P^4(F_11) for a singular witness
    p = 11
    rng = random.Random(11)
    seen = set()
    for _ in range(60):
        inst = tau_mod._draw_instance(rng, 10, PrimeField(p))
        smooth = genericity_report(inst)["cubic_hypersurface_smooth"]
        oracle = is_smooth_hypersurface(inst.cubic())
        vanished = oracle.resultants == {p: 0}
        if smooth:
            assert oracle.status != SINGULAR_CERTIFIED and not vanished
        if vanished:
            assert not smooth
        seen.add((smooth, oracle.status))
    assert (True, SMOOTH_CERTIFIED) in seen and (False, SINGULAR_CERTIFIED) in seen


def test_gate_rejects_a_conic_tangent_to_the_cubic():
    # C = 4 x2 x3 - 4 x4^2 and f3 = x3^3 + x4^3 - x2^2 x3 are both smooth and
    # share the tangent x3 = 0 at (1 : 0 : 0); (0 : 1 : 1 : 0 : 0) is singular on X
    f11 = PrimeField(11)

    def ternary(terms):
        return Form.from_terms(3, sum(next(iter(terms))), {m: f11.coerce(c)
                                                           for m, c in terms.items()}, f11)
    inst = TauInstance(f11, ternary({(1, 0, 0): 1}), ternary({(0, 1, 0): 1}),
                       ternary({(0, 0, 1): 2}),
                       ternary({(0, 3, 0): 1, (0, 0, 3): 1, (2, 1, 0): -1}),
                       canonical_instance(f11).quadrics)
    rep = genericity_report(inst)
    assert rep["conic_rank3"] and rep["cubic_smooth"]
    assert not rep["six_points_distinct"] and not rep["passed"]
    cubic = inst.cubic()
    partials = [partial_derivative(cubic, i) for i in range(5)]
    assert all(not evaluate(d, [f11.coerce(c) for c in (0, 1, 1, 0, 0)]) for d in partials)
    verdict = is_smooth_hypersurface(cubic)
    assert verdict.status == SINGULAR_CERTIFIED
    assert all(not evaluate(d, verdict.witness) for d in partials)


def test_sampler_deterministic():
    a = sample_instance(0, 5)
    b = sample_instance(0, 5)
    assert a == b


def test_sampled_cubic_is_invariant():
    inst = sample_instance(4, 6)
    phi = inst.cubic()
    assert tau_form(phi) == phi
    assert compose_linear(compose_linear(phi, TAU_ROWS), TAU_ROWS) == phi
    for q in inst.quadrics:
        F = dataclasses.replace(inst, quadrics=(q,)).quadric()
        assert tau_form(F) == F
        assert compose_linear(compose_linear(F, TAU_ROWS), TAU_ROWS) == F


def test_sampler_matches_frozen_fixture():
    import json
    from taucubic.harness import encode_instance
    with open("tests/fixtures/sampled_seed0_bound5.json") as fh:
        frozen = json.load(fh)
    assert encode_instance(sample_instance(0, 5)) == frozen


def test_degenerate_draw_exhausts_gate(monkeypatch):
    x2 = Form.from_terms(3, 1, {(1, 0, 0): QQ.one}, QQ)
    zero1 = Form.zero_form(3, 1, QQ)
    fermat3 = Form.from_terms(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, QQ)
    f2 = Form.from_terms(3, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, QQ)
    degenerate = TauInstance(QQ, zero1, zero1, zero1, fermat3,
                             (QuadricPart(QQ.one, QQ.one, QQ.zero, f2),))
    monkeypatch.setattr(tau_mod, "_draw_instance",
                        lambda rng, bound, domain: degenerate)
    with pytest.raises(GenericityExhausted):
        sample_instance(0, 5, retries=8)


def test_small_characteristic_rejected():
    with pytest.raises(ValueError, match="characteristic > 6"):
        sample_instance(0, 5, domain=PrimeField(5))
    draw = tau_mod._draw_instance(random.Random(1), 4, PrimeField(5))
    with pytest.raises(ValueError, match="characteristic > 6"):
        genericity_report(draw)


# --- base locus ---------------------------------------------------------


def test_base_locus_is_the_fixed_line():
    verdict = verify_base_locus(invariant_basis(3))
    assert verdict.line_in_base_locus
    assert verdict.ok


def test_base_locus_special_point():
    basis = invariant_basis(3)
    p0 = tuple(QQ.coerce(1) for _ in range(5))
    assert any(evaluate(f, p0) for f in basis)


def test_base_locus_plane_witness():
    basis = invariant_basis(3)
    pt = (QQ.zero, QQ.zero, QQ.one, QQ.zero, QQ.zero)
    cube = Form.from_terms(5, 3, {(0, 0, 3, 0, 0): QQ.one}, QQ)
    assert cube in basis or any(f == cube for f in basis)
    assert any(evaluate(f, pt) for f in basis)


# --- two-point cubics ---------------------------------------------------


def test_quotient_dimensions():
    inst = canonical_instance()
    _, w_rank, complement = two_point_subspace(inst)
    assert w_rank == 4
    assert len(complement) == 15  # projectively a P^14


def test_two_points_over_prime_field():
    inst = sample_instance(11, 10, domain=F101)
    rng = random.Random(5)
    pts = random_points_on_surface(inst, rng, 2)
    assert len(pts) == 2
    res = two_point_analysis(inst, pts[0], pts[1])
    assert not evaluate(res.form, pts[0])
    assert not evaluate(res.form, pts[1])
    assert res.solution_projective_dim >= 12
    assert not res.form.is_zero


def test_two_points_equal_point():
    inst = sample_instance(11, 10, domain=F101)
    rng = random.Random(6)
    (pt,) = random_points_on_surface(inst, rng, 1)
    res = two_point_analysis(inst, pt, pt)
    assert res.solution_projective_dim >= 13
    assert not evaluate(res.form, pt)


def test_two_points_canonical_gaussian():
    # the canonical surface meets the fixed line in (1 : +-i : 0 : 0 : 0)
    inst = canonical_instance()
    ext = QuadraticExtension(QQ, Fraction(-1))
    i = ext.sqrt_d
    P = (ext.one, i, ext.zero, ext.zero, ext.zero)
    Q = (ext.one, -i, ext.zero, ext.zero, ext.zero)
    form = two_point_analysis(inst, P, Q).form
    assert not evaluate(form, P) and not evaluate(form, Q)


def test_two_points_rejects_off_surface_point():
    inst = canonical_instance()
    bad = tuple(QQ.coerce(c) for c in (1, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        two_point_analysis(inst, bad, bad)


def test_two_point_cubic_outside_fixed_subspace():
    inst = sample_instance(13, 10, domain=F101)
    rng = random.Random(7)
    pts = random_points_on_surface(inst, rng, 2)
    res = two_point_analysis(inst, pts[0], pts[1])
    gens, _, _ = two_point_subspace(inst)
    stacked = [invariant_coordinates(g) for g in gens]
    base_rank = linalg.rank(stacked, F101)
    assert linalg.rank(stacked + [invariant_coordinates(res.form)], F101) == base_rank + 1


# --- eigen split --------------------------------------------------------


def test_sym2_eigensplit_values():
    s = sym2_eigensplit()
    assert (s.dim_sym2_minus, s.dim_mixed, s.dim_sym2_plus) == (3, 6, 6)
    assert s.invariant_total == 9
    assert s.anti_invariant_total == 6
    assert s.grand_total == 15


# --- fixed points on the surface ----------------------------------------


def test_fixed_points_canonical():
    rep = fixed_points_on_S(canonical_instance())
    assert rep.total_multiplicity == 8
    assert len(rep.line_points) == 2
    assert rep.line_field.d == -1  # the two line points live in Q(sqrt(-1))
    for pt, mult in rep.line_points:
        assert mult == 1
        assert pt[0] * pt[0] + pt[1] * pt[1] == rep.line_field.zero
    assert rep.plane.total_multiplicity == 6
    assert rep.plane.distinct


def test_fixed_points_sampled_instances():
    for seed in range(4):
        inst = sample_instance(seed + 100, 10, domain=F101)
        rep = fixed_points_on_S(inst)
        assert rep.total_multiplicity == 8


def test_fixed_points_degenerate_line_quadric():
    from taucubic.tau import DegenerateOnLine
    inst = canonical_instance()
    f2 = inst.quadrics[0].f2
    bad = TauInstance(QQ, inst.l00, inst.l11, inst.l01, inst.f3,
                      (QuadricPart(QQ.zero, QQ.zero, QQ.zero, f2),))
    with pytest.raises(DegenerateOnLine):
        fixed_points_on_S(bad)


def test_fixed_points_common_component():
    from taucubic.intersect import CommonComponent
    inst = canonical_instance()
    x2 = Form.from_terms(3, 1, {(1, 0, 0): QQ.one}, QQ)
    x3 = Form.from_terms(3, 1, {(0, 1, 0): QQ.one}, QQ)
    quad = Form.from_terms(3, 2, {(2, 0, 0): QQ.one, (0, 2, 0): QQ.one,
                                  (0, 0, 2): QQ.one}, QQ)
    shared = TauInstance(QQ, inst.l00, inst.l11, inst.l01, x2 * quad,
                         (QuadricPart(QQ.one, QQ.one, QQ.zero, x2 * x3),))
    with pytest.raises(CommonComponent):
        fixed_points_on_S(shared)


# --- F_p point enumeration ----------------------------------------------


def _assert_same_points(got, want, field):
    keys = [projective_key(pt, field) for pt in got]
    assert len(keys) == len(set(keys)), "a point was emitted twice"
    assert set(keys) == {projective_key(pt, field) for pt in want}


@pytest.mark.parametrize("p", [11, 13])
def test_plane_enumeration_is_complete(p):
    field = PrimeField(p)
    everything = p * p + p + 1
    for seed in (1, 2):
        inst = sample_instance(seed, 10, domain=field)
        for f in (inst.f3, inst.conic_part()):
            want = [pt for pt in projective_points_fp(3, p) if not evaluate(f, pt)]
            for enumerate_points in (curve_rational_points, conic_rational_points):
                _assert_same_points(enumerate_points(f, random.Random(0), everything), want, field)


@pytest.mark.parametrize("p", [11, 13])
def test_surface_enumeration_is_complete(p):
    field = PrimeField(p)
    for seed in (1, 2):
        inst = sample_instance(seed, 10, domain=field)
        F = inst.quadric()
        on_F = common_projective_zeros([F], p)
        K = embed_with_x01(inst.conic_part(), 0, 0)
        for G in (inst.cubic(), K):
            want = [pt for pt in on_F if not evaluate(G, pt)]
            _assert_same_points(list(surface_points(G, F)), want, field)
        # the walk takes one point from every fibre over the fixed plane that has one
        on_S = [pt for pt in on_F if not evaluate(inst.cubic(), pt)]
        walk = random_points_on_surface(inst, random.Random(3), 10 ** 6)
        assert {projective_key(pt, field) for pt in walk} <= {projective_key(pt, field) for pt in on_S}
        bases = {projective_key(pt[2:], field) for pt in walk}
        assert len(bases) == len(walk)
        assert bases == {projective_key(pt[2:], field) for pt in on_S if any(pt[2:])}


def _plain_restriction(G, P):
    # G(x0, x1, P) = a x0^2 + m x0 x1 + b x1^2 + c from four scalar evaluations
    zero, one = G.domain.zero, G.domain.one
    c = evaluate(G, (zero, zero) + P)
    a = evaluate(G, (one, zero) + P) - c
    b = evaluate(G, (zero, one) + P) - c
    m = evaluate(G, (one, one) + P) - c - a - b
    return [a.residue, m.residue, b.residue, c.residue]


# The fibre solver on field elements, which the residue solver replaced: the
# oracle of the residue one.  Its rational roots come from
# ``binary_quadratic_roots`` and its square roots from ``sqrt_or_none``.


def _element_value(q, u, v):
    return q[0] * u * u + q[1] * u * v + q[2] * v * v


def _element_rational_roots(q, domain):
    roots, fld = binary_quadratic_roots(q[0], q[1], q[2], domain)
    return [r for r, _mult in roots] if fld == domain else []


def _element_affine_conic_points(q, c, domain):
    a, m, b = q
    for x0 in (domain.coerce(t) for t in range(domain.p)):
        coeffs = (b, m * x0, a * x0 * x0 + c)
        if not any(coeffs):
            yield from ((x0, domain.coerce(t)) for t in range(domain.p))
        else:
            yield from ((x0, x1 / w) for x1, w in _element_rational_roots(coeffs, domain) if w)


class _ElementCone:
    def __init__(self, roots, domain):
        self.roots, self.domain = roots, domain

    def __len__(self):
        return 1 + len(self.roots) * (self.domain.p - 1)

    def __getitem__(self, i):
        if not i:
            return (self.domain.zero, self.domain.zero)
        k, s = divmod(i - 1, self.domain.p - 1)
        (u, v), s = self.roots[k], self.domain.coerce(s + 1)
        return (s * u, s * v)


def _element_fibre_solutions(rG, rH, domain):
    *qG, cG = map(domain.coerce, rG)
    *qH, cH = map(domain.coerce, rH)
    E = tuple(cH * g - cG * h for g, h in zip(qG, qH))
    if any(E):
        xs = []
        for u, v in _element_rational_roots(E, domain):
            val, c = _element_value(qG, u, v), cG
            if not val:
                val, c = _element_value(qH, u, v), cH
            s = domain.sqrt_or_none(-c / val) if val else None
            if s:
                xs += [(s * u, s * v), (-s * u, -s * v)]
        return xs
    if cG or cH:
        return _element_affine_conic_points(*((qG, cG) if cG else (qH, cH)), domain)
    if any(qG) or any(qH):
        q, other = (qG, qH) if any(qG) else (qH, qG)
        common = [r for r in _element_rational_roots(q, domain) if not _element_value(other, *r)]
    else:
        common = list(projective_points_fp(2, domain.p))
    return _ElementCone(common, domain)


def _plain_walk(inst, rng, count):
    # the reference walk: one fixed-plane point at a time, restricted by scalar
    # evaluate and solved on field elements; it takes the indices of
    # random_order in the walk's batch sizes, twice the points still wanted
    # plus 8, so that both draw from rng alike
    field = inst.domain
    phi, F = inst.cubic(), inst.quadric()
    order = random_order(rng, field.p ** 2 + field.p + 1)
    out = []
    while len(out) < count:
        batch = list(itertools.islice(order, 2 * (count - len(out)) + 8))
        if not batch:
            break
        for k in batch:
            if len(out) >= count:
                break
            P = tuple(map(field.coerce, tau_mod._fixed_plane_point(k, field.p)))
            xs = _element_fibre_solutions(_plain_restriction(phi, P), _plain_restriction(F, P),
                                          field)
            fibre = [x + P for x in xs]
            if fibre:
                out.append(rng.choice(fibre))
    return out


@pytest.mark.parametrize("p", [7, 11, 13, 101])
def test_batched_walk_equals_plain_walk(p):
    field = PrimeField(p)
    inst = sample_instance(p, 10, domain=field)
    counts = (2, 15, 45, 105) + ((10 ** 6,) if p <= 13 else ())
    for count in counts:
        for seed in (0, 1, 2):
            got = random_points_on_surface(inst, random.Random(seed), count)
            assert got == _plain_walk(inst, random.Random(seed), count)


def test_batch_check_sees_a_wrong_restriction(monkeypatch):
    # drop the first nonzero coefficient of the x0, x1-free part: the fibres
    # are solved from wrong restrictions and the full-form check must object
    split = tau_mod._tau_split

    def dropped(G):
        *head, f = split(G)
        i = next(i for i, c in enumerate(f.coeffs) if c)
        coeffs = f.coeffs[:i] + (f.domain.zero,) + f.coeffs[i + 1:]
        return (*head, Form(f.domain, 3, f.degree, coeffs))

    inst = sample_instance(13, 10, domain=PrimeField(13))
    monkeypatch.setattr(tau_mod, "_tau_split", dropped)
    with pytest.raises(ArithmeticError):
        random_points_on_surface(inst, random.Random(0), 10 ** 6)


def test_fibre_points_python_int_path():
    # at p > 2^32 the products overflow int64, so the restriction and the
    # check take Python ints
    p = 4294967311
    field = PrimeField(p)
    big = p // 3

    def ternary(degree, coeffs):
        return Form.from_terms(3, degree, dict(zip(monomials(3, degree), coeffs)), field)

    G = (embed_with_x01(ternary(1, [big, 2, big + 7]), 2, 0)
         + embed_with_x01(ternary(1, [5, big - 1, 3]), 1, 1)
         + embed_with_x01(ternary(1, [big + 1, 1, big]), 0, 2)
         + embed_with_x01(ternary(3, [big - 3 * t for t in range(10)]), 0, 0))
    H = (Form.from_terms(5, 2, {(2, 0, 0, 0, 0): big, (1, 1, 0, 0, 0): 3,
                                (0, 2, 0, 0, 0): big + 2}, field)
         + embed_with_x01(ternary(2, [big + t for t in range(6)]), 0, 0))
    assert coefficient_matrix([G], p).dtype == object
    found = []
    for k in range(40):
        P = tau_mod._fixed_plane_point(k * 7919, p)
        Pe = tuple(map(field.coerce, P))
        rG, rH = _plain_restriction(G, Pe), _plain_restriction(H, Pe)
        system = tau_mod.FibreSystem(G, H)
        assert system.restrictions([P]) == [(rG, rH)]
        got = list(system.points(Pe))
        assert got == [x + Pe for x in _element_fibre_solutions(rG, rH, field)]
        found += got
    assert found, "no fixed-plane point had a rational fibre"


def test_rational_roots_match_binary_quadratic_roots():
    # every nonzero binary quadratic over F_7 and F_11: the residue solver
    # returns what the solver over F_p(sqrt D) gives once its irrational roots
    # are dropped, in its order, a double root once
    for p in (7, 11):
        field = PrimeField(p)
        for q in itertools.product(range(p), repeat=3):
            if any(q):
                roots, fld = binary_quadratic_roots(*q, field)
                want = [(u.residue, v.residue) for (u, v), _m in roots] if fld == field else []
                assert fp_binary_quadratic_roots(*q, p) == want, q


def _random_restrictions(rng, p, kind):
    """Restrictions (a, m, b, c) of G and H whose fibre takes the branch
    ``kind`` of ``_fibre_solutions``; entries lean to 0, 1 and -1 so that
    vanishing leading terms, double roots and shared roots come up."""
    def r():
        return rng.choice((0, 0, 1, p - 1, rng.randrange(p)))

    qG, qH = [r() for _ in range(3)], [r() for _ in range(3)]
    cG, cH = r(), r()
    if kind == "proportional":    # E = 0, and a nonzero constant
        lam, cG = rng.randrange(p), rng.randrange(1, p)
        if p > 200:   # a general q, q = 0, or q = k l^2 for l = al x0 + be x1
            shape = rng.choice(("general", "zero", "square", "square"))
            if shape == "general":
                qG = [rng.randrange(p) for _ in range(3)]
            elif shape == "zero":
                qG = [0, 0, 0]
            else:
                k, be = rng.randrange(1, p), rng.choice((0, rng.randrange(1, p)))
                al = rng.randrange(0 if be else 1, p)
                qG = [k * al * al % p, 2 * k * al * be % p, k * be * be % p]
        qH, cH = [lam * g % p for g in qG], lam * cG % p
        if rng.random() < 0.5:
            (qG, cG), (qH, cH) = (qH, cH), (qG, cG)
    elif kind == "cone":          # both constants zero
        cG = cH = 0
        if rng.random() < 0.5:    # q_H = (u x1 - v x0) (linear) shares a root with q_G
            u, v = r(), r()
            w0, w1 = r(), r()
            qH = [-v * w0 % p, (u * w0 - v * w1) % p, u * w1 % p]
    elif kind == "zero":
        qG = qH = [0, 0, 0]
        cG = cH = 0
    return qG + [cG], qH + [cH]


def _branch(rG, rH, p):
    *qG, cG = rG
    *qH, cH = rH
    if any((cH * g - cG * h) % p for g, h in zip(qG, qH)):
        return "E"
    if cG or cH:
        a, m, b = qG if cG else qH
        return "degenerate" if (m * m - 4 * a * b) % p == 0 else "proportional"
    return "cone" if any(qG) or any(qH) else "zero"


def _assert_closed_form(got, rG, rH, p):
    """A fibre that the element solver takes O(p) steps for, against its
    closed form.  Both restrictions zero: the cone over all of P^1, p^2
    points.  A degenerate affine conic q + c = 0, q = lam l^2: no point when
    q = 0 or -c/lam is a non-square, else the lines l = +-s by ascending x0."""
    if not any(rG) and not any(rH):
        assert isinstance(got, tau_mod._Cone) and got.size == p * p
        assert len(got.roots) == p + 1 and got.roots[p] == (0, 1)
        assert [got.roots[k] for k in (0, 1, p - 1)] == [(1, 0), (1, 1), (1, p - 1)]
        assert [got[i] for i in (0, 1, p - 1, p, p * p - 1)] == [
            (0, 0), (1, 0), (p - 1, 0), (1, 1), (0, p - 1)]
        with pytest.raises(IndexError):
            got[p * p]
        return
    (a, m, b), c = (rG[:3], rG[3]) if rG[3] else (rH[:3], rH[3])
    head = list(itertools.islice(got, 20))
    lam = b or a   # b l^2 with l = x1 + m x0 / 2b, or a x0^2
    if not lam or pow(-c * pow(lam, -1, p) % p, (p - 1) // 2, p) != 1:
        assert head == []
        return
    assert len(set(head)) == 20
    assert all((a * x0 * x0 + m * x0 * x1 + b * x1 * x1 + c) % p == 0 for x0, x1 in head)
    if b:   # two points over each x0 = 0, 1, ..., in the element solver's order
        field = PrimeField(p)
        want = itertools.islice(_element_affine_conic_points((a, m, b), c, field), 20)
        assert head == [(u.residue, v.residue) for u, v in want]
    else:   # the line x0 = r, r the lesser root of a r^2 = -c, then the other
        r = PrimeField(p).sqrt_or_none(-c * pow(a, -1, p)).residue
        assert head == [(min(r, p - r), x1) for x1 in range(20)]


@pytest.mark.parametrize("p", [7, 11, 101, 4294967311])
def test_fibre_solutions_match_the_element_solver(p):
    # the residue solver against the element one on random restrictions, in
    # every branch: the same solutions in the same order; an affine conic
    # compared over its first points, a cone by its length, its roots and some
    # of its indices.  At the big prime the element solver scans p values of
    # x0 for a degenerate affine conic and lists all p + 1 points of P^1 when
    # both restrictions vanish, so there those two branches are checked
    # against their closed form instead
    field = PrimeField(p)
    rng = random.Random(p)
    kinds = ("E", "proportional", "cone", "zero")
    seen = Counter()
    for trial in range(400):
        rG, rH = _random_restrictions(rng, p, kinds[trial % len(kinds)])
        branch = _branch(rG, rH, p)
        seen[branch] += 1
        got = tau_mod._fibre_solutions(rG, rH, p)
        if p > 200 and branch in ("degenerate", "zero"):
            _assert_closed_form(got, rG, rH, p)
            continue
        want = _element_fibre_solutions(rG, rH, field)
        if isinstance(want, _ElementCone):
            assert isinstance(got, tau_mod._Cone) and len(got) == len(want)
            assert list(got.roots) == [(u.residue, v.residue) for u, v in want.roots]
            for i in {i for i in (0, 1, p - 1, p, len(want) - 1) if i < len(want)}:
                assert got[i] == tuple(c.residue for c in want[i])
            continue
        n = None if p < 200 else 20
        got, want = list(itertools.islice(got, n)), list(itertools.islice(want, n))
        assert got == [(u.residue, v.residue) for u, v in want]
    assert set(seen) == set(kinds) | {"degenerate"}, seen


def _random_conic(rng, field):
    return Form.from_terms(3, 2, {m: rng.randint(-2, 2) for m in monomials(3, 2)}, field)


@pytest.mark.parametrize("p", [5, 7])
def test_pencil_pair_enumeration_is_complete(p):
    # x0^2 + g2 and x1^2 + h2, including zero, equal and low-rank conics
    field = PrimeField(p)
    rng = random.Random(100 + p)
    zero = Form.zero_form(3, 2, field)
    rank1 = Form.from_terms(3, 2, {(2, 0, 0): 1}, field)
    pairs = [(zero, zero), (zero, rank1), (rank1, rank1)]
    for i in range(20):
        g2 = _random_conic(rng, field)
        pairs.append((g2, g2 if i % 4 == 0 else _random_conic(rng, field)))
    for g2, h2 in pairs:
        G = Form.from_terms(5, 2, {(2, 0, 0, 0, 0): 1}, field) + embed_with_x01(g2, 0, 0)
        H = Form.from_terms(5, 2, {(0, 2, 0, 0, 0): 1}, field) + embed_with_x01(h2, 0, 0)
        _assert_same_points(list(surface_points(G, H)), common_projective_zeros([G, H], p),
                            field)


@pytest.mark.parametrize("p", [5, 7])
def test_invariant_pair_enumeration_is_complete(p):
    # general invariant quadrics; every other pair has proportional x0, x1 parts,
    # so whole fibres reduce to one affine conic
    field = PrimeField(p)
    rng = random.Random(200 + p)

    def quadric(head):
        terms = {(2, 0, 0, 0, 0): head[0], (1, 1, 0, 0, 0): head[1], (0, 2, 0, 0, 0): head[2]}
        return (Form.from_terms(5, 2, terms, field)
                + embed_with_x01(_random_conic(rng, field), 0, 0))

    for i in range(20):
        head = [rng.randint(-2, 2) for _ in range(3)]
        other = [2 * h for h in head] if i % 2 else [rng.randint(-2, 2) for _ in range(3)]
        G, H = quadric(head), quadric(other)
        _assert_same_points(list(surface_points(G, H)), common_projective_zeros([G, H], p),
                            field)


def test_enumeration_is_seed_deterministic():
    inst = sample_instance(11, 10, domain=F101)
    for seed in (0, 1):
        assert (random_points_on_surface(inst, random.Random(seed), 30)
                == random_points_on_surface(inst, random.Random(seed), 30))
        assert (curve_rational_points(inst.f3, random.Random(seed), 30)
                == curve_rational_points(inst.f3, random.Random(seed), 30))
        assert (conic_rational_points(inst.conic_part(), random.Random(seed), 30)
                == conic_rational_points(inst.conic_part(), random.Random(seed), 30))


# --- lazy draws ------------------------------------------------------------


def test_random_order_is_a_seeded_permutation():
    for n in (0, 1, 2, 7, 100):
        for seed in (0, 1, 2):
            drawn = list(random_order(random.Random(seed), n))
            assert sorted(drawn) == list(range(n))
            assert drawn == list(random_order(random.Random(seed), n))
    # a prefix costs what it draws, whatever n is
    head = list(itertools.islice(random_order(random.Random(0), 2 ** 64), 5))
    assert len(set(head)) == 5 and all(0 <= k < 2 ** 64 for k in head)


def _ternary(field, terms):
    degree = sum(next(iter(terms)))
    return Form.from_terms(3, degree, terms, field)


def _plane_curves(field):
    """A conic, a smooth cubic, a cubic through (1 : 0 : 0) and a cubic that
    contains the line x3 = 2 x4 through (1 : 0 : 0), in (x2, x3, x4)."""
    conic = _ternary(field, {(2, 0, 0): 1, (0, 1, 1): 1, (0, 0, 2): 2})
    fermat = _ternary(field, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    weierstrass = _ternary(field, {(2, 1, 0): 1, (0, 0, 3): -1, (0, 2, 1): -1,
                                   (0, 3, 0): -1})
    line = _ternary(field, {(0, 1, 0): 1, (0, 0, 1): -2})
    return [conic, fermat, weierstrass, line * conic]


@pytest.mark.parametrize("p", [11, 13])
def test_curve_draws_are_the_curve_points(p):
    field = PrimeField(p)
    for f in _plane_curves(field):
        want = common_projective_zeros([f], p)
        for seed in (0, 1):
            for sample in (curve_rational_points, conic_rational_points):
                got = sample(f, random.Random(seed), len(want) + seed)
                _assert_same_points(got, want, field)
                for count in (1, 5, len(want) - 1):
                    got = sample(f, random.Random(seed), count)
                    assert len(got) == count
                    keys = {projective_key(pt, field) for pt in got}
                    assert len(keys) == count
                    assert keys <= {projective_key(pt, field) for pt in want}


def test_curve_check_sees_a_wrong_slice(monkeypatch):
    # shift the constant coefficient of every drawn slice: its roots are then
    # off the curve and the batched check must object
    slice_residues = intersect_mod._slice_residues

    def shifted(residues, degree, x3, x4, p):
        cs = slice_residues(residues, degree, x3, x4, p) or [0]
        return [(cs[0] + 1) % p] + cs[1:]

    field = PrimeField(13)
    monkeypatch.setattr(intersect_mod, "_slice_residues", shifted)
    for f in _plane_curves(field):
        with pytest.raises(ArithmeticError):
            curve_rational_points(f, random.Random(0), 10 ** 6)


def test_cone_fibre_is_indexed_not_listed():
    # f2 and f3 both vanish at P = (1 : 0 : 0) of the fixed plane, and the
    # x0, x1-parts of the cubic and the quadric share the root (0 : 1): the
    # fibre over P is x = 0 plus a whole line, p points at p > 2^32
    p = 4294967311
    field = PrimeField(p)

    def linear(*cs):
        return _ternary(field, dict(zip([(1, 0, 0), (0, 1, 0), (0, 0, 1)], cs)))

    f3 = _ternary(field, {(2, 1, 0): 3, (0, 3, 0): 1, (1, 0, 2): p - 5, (0, 0, 3): 7})
    f2 = _ternary(field, {(1, 1, 0): 2, (0, 2, 0): 1, (0, 0, 2): p - 1})
    inst = TauInstance(field, linear(1, 2, 3), linear(0, 1, 1), linear(4, 0, 1), f3,
                       (QuadricPart(field.one, field.zero, field.coerce(5), f2),))
    P = (field.one, field.zero, field.zero)
    system = tau_mod.FibreSystem(inst.cubic(), inst.quadric())
    zero = field.zero
    assert list(itertools.islice(system.points(P), 3)) == [
        (zero, zero) + P, (zero, field.one) + P, (zero, field.coerce(2)) + P]
    ((Q, xs),) = tau_mod._fibres(system, [(1, 0, 0)])
    assert Q == (1, 0, 0) and len(xs) == p
    assert xs[p - 1] == (0, p - 1)
    for seed in range(5):
        system.check([random.Random(seed).choice(xs) + Q])


def test_plane_fibre_is_indexed_not_listed():
    # every part of the cubic and the quadric vanishes at P = (1 : 0 : 0): the
    # fibre over P is the whole (x0, x1)-plane, p^2 points at p > 2^32, over
    # all p + 1 points of P^1, and neither the solver nor the check lists them
    p = 4294967311
    field = PrimeField(p)

    def linear(*cs):
        return _ternary(field, dict(zip([(1, 0, 0), (0, 1, 0), (0, 0, 1)], cs)))

    f3 = _ternary(field, {(2, 1, 0): 3, (0, 3, 0): 1, (1, 0, 2): p - 5, (0, 0, 3): 7})
    f2 = _ternary(field, {(1, 1, 0): 2, (0, 2, 0): 1, (0, 0, 2): p - 1})
    zero = field.zero
    inst = TauInstance(field, linear(0, 2, 3), linear(0, 1, 1), linear(0, 0, 1), f3,
                       (QuadricPart(zero, zero, zero, f2),))
    system = tau_mod.FibreSystem(inst.cubic(), inst.quadric())
    P = (field.one, zero, zero)
    assert list(itertools.islice(system.points(P), 3)) == [
        (zero, zero) + P, (field.one, zero) + P, (field.coerce(2), zero) + P]
    ((Q, xs),) = tau_mod._fibres(system, [(1, 0, 0)], wanted=1)
    assert Q == (1, 0, 0) and xs and xs.size == p * p
    assert isinstance(xs.roots, tau_mod._ProjectiveLine)
    assert xs[xs.size - 1] == (0, p - 1)
    for seed in range(5):
        system.check([xs[random.Random(seed).randrange(xs.size)] + Q])


def test_surface_walk_draws_scale_with_count(monkeypatch):
    # the fixed plane has p^2 + p + 1 ~ 10^8 points at p = 10007: the walk
    # restricts and draws O(count) of them instead of listing the plane
    class CountingRandom(random.Random):
        draws = 0

        def getrandbits(self, k):
            self.draws += 1
            return super().getrandbits(k)

    inst = sample_instance(1, 10, domain=PrimeField(10007))
    rows = []
    restrictions = tau_mod.FibreSystem.restrictions

    def counted(self, Ps):
        rows.append(len(Ps))
        return restrictions(self, Ps)

    monkeypatch.setattr(tau_mod.FibreSystem, "restrictions", counted)
    rng = CountingRandom(0)
    assert len(random_points_on_surface(inst, rng, 2)) == 2
    assert sum(rows) <= 3 * (2 * 2 + 8)
    assert rng.draws <= 100
