"""Involution geometry: invariant series, sampling gate, base locus, two-point
cubics, eigen split, fixed points, and the pencil condition."""

import random
from fractions import Fraction

import pytest

from taucubic import linalg
from taucubic.bruteforce import common_projective_zeros, projective_points_fp
from taucubic.forms import Form, evaluate, monomials, substitute_linear
from taucubic.harness import _dir_key
from taucubic.intersect import conic_rational_points, curve_rational_points
from taucubic.scalars import PrimeField, QQ, QuadraticExtension
from taucubic.tau import (FixedLoci, GenericityExhausted, QuadricPart,
                          TauInstance, UnsupportedDegree, canonical_instance,
                          check_pencil_condition, cubic_through_points,
                          embed_with_x01, fixed_points_on_S, genericity_report,
                          invariant_basis, invariant_coordinates,
                          random_points_on_surface, sample_instance, surface_points,
                          sym2_eigensplit, tau_form, tau_matrix, two_point_analysis,
                          two_point_subspace, verify_base_locus)
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


def test_involution_is_itself_a_substitution():
    rng = random.Random(2)
    terms = {m: QQ.coerce(rng.randint(-4, 4)) for m in monomials(5, 3)}
    f = Form.from_terms(5, 3, terms, QQ)
    via_matrix = substitute_linear(f, tau_matrix(QQ))
    assert via_matrix == tau_form(f)
    assert substitute_linear(via_matrix, tau_matrix(QQ)) == f  # involution squares to identity


def test_fixed_loci_membership():
    loci = FixedLoci()
    one, zero = QQ.one, QQ.zero
    assert loci.on_line((one, one, zero, zero, zero))
    assert loci.on_plane((zero, zero, one, QQ.coerce(2), zero))
    assert not loci.is_fixed((one, zero, one, zero, zero))


def test_only_loci_points_are_fixed():
    # over F_7 check the fixed-point set of the involution exhaustively
    from taucubic.bruteforce import projective_points_fp
    from taucubic.tau import tau_point
    loci = FixedLoci()
    f7 = PrimeField(7)
    for pt in projective_points_fp(5, 7):
        moved = tau_point(pt)
        fixed = all(pt[i] * moved[j] == pt[j] * moved[i]
                    for i in range(5) for j in range(i + 1, 5))
        assert fixed == loci.is_fixed(pt)


# --- sampling -----------------------------------------------------------


def test_canonical_instance_passes_gate():
    rep = genericity_report(canonical_instance())
    assert rep["passed"], rep


def test_gate_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug inside the certificate")
    monkeypatch.setattr(tau_mod, "is_smooth_hypersurface", broken)
    with pytest.raises(TypeError, match="bug inside the certificate"):
        genericity_report(canonical_instance())


def test_sampler_deterministic():
    a = sample_instance(0, 5)
    b = sample_instance(0, 5)
    assert a == b


def test_sampled_cubic_is_invariant():
    inst = sample_instance(4, 6)
    phi = inst.cubic()
    assert tau_form(phi) == phi
    assert substitute_linear(substitute_linear(phi, tau_matrix(QQ)), tau_matrix(QQ)) == phi
    for k in range(len(inst.quadrics)):
        F = inst.quadric(k)
        assert tau_form(F) == F
        assert substitute_linear(substitute_linear(F, tau_matrix(QQ)), tau_matrix(QQ)) == F


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
                        lambda rng, bound, domain, n_quadrics: degenerate)
    with pytest.raises(GenericityExhausted):
        sample_instance(0, 5, retries=8)


def test_small_characteristic_rejected():
    with pytest.raises(ValueError):
        sample_instance(0, 5, domain=PrimeField(5))


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
    form = cubic_through_points(inst, P, Q)
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


# --- pencil condition ---------------------------------------------------


def _conic(terms):
    return Form.from_terms(3, 2, terms, QQ)


def test_pencil_condition_transversal_pair():
    # frozen oracle find: smooth conics crossing transversally in 4 points
    g2 = _conic({(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): -2, (0, 1, 1): 2, (0, 0, 2): 1})
    h2 = _conic({(2, 0, 0): 1, (1, 0, 1): 1, (0, 1, 1): 2, (0, 0, 2): -1})
    verdict = check_pencil_condition(g2, h2)
    assert verdict.rhs_holds
    assert verdict.surface_misses_line
    assert verdict.lhs_probed is True
    assert verdict.agree


def test_pencil_condition_tangent_pair():
    # the two Fermat-like conics are tangent at (0:1:+-1): both sides fail,
    # and the probe exhibits the singular point
    g2 = _conic({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    h2 = _conic({(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): 1})
    verdict = check_pencil_condition(g2, h2)
    assert verdict.g2_smooth and verdict.h2_smooth
    assert not verdict.four_transversal_points and not verdict.rhs_holds
    assert verdict.surface_misses_line
    assert verdict.lhs_probed is False
    assert verdict.agree
    assert verdict.counterexample is not None


def test_pencil_condition_common_component():
    g2 = _conic({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    verdict = check_pencil_condition(g2, g2)
    assert not verdict.rhs_holds
    if verdict.lhs_probed is not None:
        assert verdict.agree
        assert verdict.counterexample is not None


def test_pencil_condition_degenerate_conic():
    g2 = _conic({(2, 0, 0): 1, (0, 2, 0): 1})  # rank 2
    h2 = _conic({(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): 1})
    verdict = check_pencil_condition(g2, h2)
    assert not verdict.g2_smooth
    assert not verdict.rhs_holds


# --- F_p point enumeration ----------------------------------------------


def _assert_same_points(got, want, field):
    keys = [_dir_key(pt, field) for pt in got]
    assert len(keys) == len(set(keys)), "a point was emitted twice"
    assert set(keys) == {_dir_key(pt, field) for pt in want}


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
        F = inst.quadric(0)
        on_F = common_projective_zeros([F], p)
        K = embed_with_x01(inst.conic_part(), 0, 0)
        for G in (inst.cubic(), K):
            want = [pt for pt in on_F if not evaluate(G, pt)]
            _assert_same_points(list(surface_points(G, F)), want, field)
        # the walk takes one point from every fibre over the fixed plane that has one
        on_S = [pt for pt in on_F if not evaluate(inst.cubic(), pt)]
        walk = random_points_on_surface(inst, random.Random(3), 10 ** 6)
        assert {_dir_key(pt, field) for pt in walk} <= {_dir_key(pt, field) for pt in on_S}
        bases = {_dir_key(pt[2:], field) for pt in walk}
        assert len(bases) == len(walk)
        assert bases == {_dir_key(pt[2:], field) for pt in on_S if any(pt[2:])}


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
        G, H = tau_mod._special_quadric(g2, 0), tau_mod._special_quadric(h2, 1)
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
