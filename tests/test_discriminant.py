"""Projection geometry: fiber conics, the quintic factorization, line splitting
and the involution dichotomy, line counts, and the cone report."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from taucubic.discriminant import (DOUBLE_LINE, FIXES, SMOOTH_FIBER, SWAPS,
                                   DegenerateConicPart, InfinitelyMany, ZeroConic,
                                   cone_and_singular_member, directional_expansion,
                                   discriminant_quintic, family_gram, fiber_conic,
                                   lines_through_point_brute,
                                   lines_through_point_of_ltau,
                                   points_on_both_components,
                                   points_on_conic_component,
                                   points_on_cubic_component, split_conic,
                                   split_normal_form, tau_fiber_action)
from taucubic.forms import Form, SymMatrix3, evaluate, exact_divide
from taucubic.harness import SuiteConfig, load_instance, run_suite
from taucubic.scalars import PrimeField, QQ
from taucubic.tau import TauInstance, canonical_instance, sample_instance

F101 = PrimeField(101)
F11 = PrimeField(11)
F13 = PrimeField(13)


def qq(*cs):
    return tuple(QQ.coerce(c) for c in cs)


# --- fiber conics -------------------------------------------------------


def test_fiber_coefficients_canonical():
    inst = canonical_instance()
    fc = fiber_conic(inst, qq(1, 0, 0))
    assert fc.coefficients() == (1, 0, 0, 1)
    fc = fiber_conic(inst, qq(1, -1, 0))
    assert fc.coefficients() == (1, -1, 0, 0)


def test_fiber_accepts_five_coordinates():
    inst = canonical_instance()
    fc = fiber_conic(inst, qq(0, 0, 1, 2, 3))
    assert fc.base_point == qq(1, 2, 3)


def test_fiber_restriction_identity_random():
    # the restriction identity is asserted inside fiber_conic; exercise it
    inst = sample_instance(21, 8)
    rng = random.Random(3)
    for _ in range(10):
        pt = qq(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 5))
        fiber_conic(inst, pt)


def test_gram_determinant_relation():
    inst = canonical_instance()
    fc = fiber_conic(inst, qq(2, 3, 1))
    det = fc.gram.det()
    expected = fc.delta * (fc.alpha * fc.beta - fc.gamma * fc.gamma / 4)
    assert det == expected


def test_directional_expansion_matches_direct_evaluation():
    inst = sample_instance(22, 6)
    phi = inst.cubic()
    T = qq(1, 2, 0, 0, 0)
    expansion = directional_expansion(phi, T)
    rng = random.Random(9)
    for _ in range(5):
        Q = qq(*[rng.randint(-4, 4) for _ in range(5)])
        for u in (Fraction(1), Fraction(2), Fraction(-3)):
            shifted = tuple(t + u * q for t, q in zip(T, Q))
            direct = evaluate(phi, shifted)
            series = sum(u ** k * evaluate(g, Q) for k, g in expansion.items())
            assert direct == series


# --- splitting ----------------------------------------------------------


def _fc(alpha, beta, gamma, delta, base=(1, 0, 0)):
    inst = canonical_instance()
    fc = fiber_conic(inst, qq(*base))
    fc.alpha, fc.beta, fc.gamma, fc.delta = (QQ.coerce(alpha), QQ.coerce(beta),
                                             QQ.coerce(gamma), QQ.coerce(delta))
    half = QQ.one / QQ.coerce(2)
    from taucubic.forms import SymMatrix3
    fc.gram = SymMatrix3.from_rows([[fc.alpha, fc.gamma * half, QQ.zero],
                                    [fc.gamma * half, fc.beta, QQ.zero],
                                    [QQ.zero, QQ.zero, fc.delta]])
    return fc


def test_split_rank2_gaussian():
    pair = split_conic(_fc(1, 0, 0, 1))  # x0^2 + s^2
    assert pair is not None and not pair.double
    assert pair.domain.d == -1
    # both lines satisfy x0 = +-i s: check containment of witness points
    i = pair.domain.sqrt_d
    assert any(ln.contains((i, pair.domain.zero, pair.domain.one, pair.domain.zero,
                            pair.domain.zero)) for ln in pair.as_set())


def test_split_difference_of_squares():
    pair = split_conic(_fc(1, -1, 0, 0))  # x0^2 - x1^2
    assert pair is not None and not pair.double
    assert pair.domain is QQ
    one, zero = QQ.one, QQ.zero
    # lines x0 = x1 and x0 = -x1 in the plane, through the fiber base point
    assert any(ln.plane_span and _on_plane_line(ln, (one, one, zero)) for ln in pair.as_set())
    assert any(_on_plane_line(ln, (one, -one, zero)) for ln in pair.as_set())


def _on_plane_line(line, pt3):
    from taucubic import linalg
    a, b = line.plane_span
    return linalg.rank([list(a), list(b), list(pt3)], line.domain) == 2


def test_split_double_line():
    pair = split_conic(_fc(1, 0, 0, 0))  # x0^2
    assert pair is not None and pair.double


def test_split_smooth_conic_returns_none():
    assert split_conic(_fc(1, 1, 0, 1)) is None


def test_split_zero_conic_raises():
    with pytest.raises(ZeroConic):
        split_conic(_fc(0, 0, 0, 0))


def test_split_normal_form_reconstructs_conic():
    inst = sample_instance(31, 9, domain=F101)
    rng = random.Random(8)
    for pt in points_on_conic_component(inst, rng, 5):
        fc = fiber_conic(inst, pt)
        assert fc.delta  # off the cubic component
        b0, b1, fld = split_normal_form(fc)
        # delta * (s + b0 x0 + b1 x1)(s - b0 x0 - b1 x1) == alpha x0^2 + ...
        d = fld.coerce(fc.delta)
        a, b, g = fld.coerce(fc.alpha), fld.coerce(fc.beta), fld.coerce(fc.gamma)
        assert -d * b0 * b0 == a
        assert -d * b1 * b1 == b
        assert -2 * d * b0 * b1 == g


def test_line_pair_product_recovers_conic():
    # the two plane line forms multiply back to the fiber conic (up to scale)
    rng = random.Random(31415)
    inst = sample_instance(900, 10, domain=F101)
    pts = (points_on_conic_component(inst, rng, 10)
           + points_on_cubic_component(inst, rng, 10))
    for P in pts:
        fc = fiber_conic(inst, P)
        pair = split_conic(fc)
        fld = pair.domain

        def line_form(ln):
            (a0, a1, a2), (b0, b1, b2) = ln.plane_span
            return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)

        l1, l2 = line_form(pair.plus), line_form(pair.minus)
        prod = {(2, 0, 0): l1[0] * l2[0], (0, 2, 0): l1[1] * l2[1],
                (0, 0, 2): l1[2] * l2[2],
                (1, 1, 0): l1[0] * l2[1] + l1[1] * l2[0],
                (1, 0, 1): l1[0] * l2[2] + l1[2] * l2[0],
                (0, 1, 1): l1[1] * l2[2] + l1[2] * l2[1]}
        conic = {(2, 0, 0): fld.coerce(fc.alpha), (0, 2, 0): fld.coerce(fc.beta),
                 (0, 0, 2): fld.coerce(fc.delta), (1, 1, 0): fld.coerce(fc.gamma),
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
    inst = sample_instance(31, 9, domain=F101)
    rng = random.Random(12)
    phi = inst.cubic()
    pts = points_on_conic_component(inst, rng, 4) + points_on_cubic_component(inst, rng, 4)
    for pt in pts:
        pair = split_conic(fiber_conic(inst, pt))
        assert pair is not None
        for line in pair.as_set():
            _assert_line_on_form(phi, line)


def _assert_line_on_form(phi, line):
    from taucubic.forms import PolyDict
    fld = line.domain
    p, q = line.span
    coords = []
    for a, b in zip(p, q):
        terms = {}
        if a:
            terms[(1, 0)] = a
        if b:
            terms[(0, 1)] = b
        coords.append(PolyDict(2, fld, terms))
    phi_f = phi if phi.domain is fld else phi.map_coefficients(fld.coerce, fld)
    val = evaluate(phi_f, coords)
    from taucubic.forms import PolyDict as PD
    assert not isinstance(val, PD) or val.is_zero


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
    rng = random.Random(3)
    pts = points_on_both_components(inst, rng)
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


def test_fiber_preserved_setwise():
    inst = sample_instance(205, 10, domain=F101)
    rng = random.Random(5)
    for pt in points_on_conic_component(inst, rng, 10):
        act = tau_fiber_action(inst, pt)
        assert act.action in (FIXES, SWAPS, DOUBLE_LINE)


# --- discriminant quintic -----------------------------------------------


def test_discriminant_canonical():
    inst = canonical_instance()
    dd = discriminant_quintic(inst)
    assert dd.conic_part == Form.from_terms(3, 2, {(1, 1, 0): 4, (0, 0, 2): -1}, QQ)
    assert dd.cubic_part == inst.f3
    assert dd.quintic.degree == 5
    assert dd.intersection.total_multiplicity == 6
    assert dd.transversal


def test_discriminant_factorization_random():
    for seed, domain in ((301, QQ), (302, F101)):
        inst = sample_instance(seed, 10, domain=domain)
        dd = discriminant_quintic(inst)
        assert exact_divide(dd.quintic, dd.conic_part) == dd.cubic_part
        assert exact_divide(dd.quintic, dd.cubic_part) == dd.conic_part


def test_family_gram_determinant_identity():
    for seed, domain in ((303, QQ), (304, F101)):
        inst = sample_instance(seed, 10, domain=domain)
        four_det = family_gram(inst).det().scale(domain.coerce(4))
        assert four_det == discriminant_quintic(inst).quintic


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
        rng = random.Random(seed)
        checked = 0
        t1 = 0
        while checked < 3 and t1 < p:
            try:
                rep = lines_through_point_of_ltau(inst, (dom.one, dom.coerce(t1)), rng)
            except InfinitelyMany:
                t1 += 1
                continue
            t1 += 1
            checked += 1
            assert rep.total_multiplicity == 6
            assert rep.contains_fixed_line
            brute = lines_through_point_brute(inst, (dom.one, dom.coerce(t1 - 1)))
            elim = {_nkey(d, dom) for d, _m, lbl in rep.rational_directions
                    if lbl == f"F{p}"}
            assert elim == {_nkey(d, dom) for d in brute}
        assert checked == 3


def _nkey(pt, dom):
    lead = next(c for c in pt if c)
    inv = dom.one / lead
    return tuple((c * inv).residue for c in pt)


def test_lines_fixed_line_always_solution():
    inst = sample_instance(403, 10, domain=F11)
    rep = lines_through_point_of_ltau(inst, (F11.one, F11.coerce(4)))
    fixed_dirs = [d for d, _m, _l in rep.rational_directions if not any(d[2:])]
    assert len(fixed_dirs) == 1


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
    assert SymMatrix3.gram_of_ternary(inst.conic_part()).rank(QQ) == 3
    rep = cone_and_singular_member(inst, probe_prime=101)
    assert rep.probe_undecided == "the conic part drops rank mod 101"
    assert rep.probe_count == 0 and rep.singular_locus_is_fixed_line
    assert cone_and_singular_member(inst, probe_prime=103).probe_undecided == ""
    report = run_suite(SuiteConfig(suites=("cone",), instance_path=path))
    statuses = {c.name: c.status for c in report.entries[0].checks}
    assert statuses["off_line_probes_smooth"] == "inconclusive"
    assert "fail" not in statuses.values()
