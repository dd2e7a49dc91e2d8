"""Quotient surface: the bidegree-(2,3) equation, given by its three plane
cubics, the branch sextic, and the pointwise cross-checks against the defining
forms."""

import random

import pytest

from taucubic.forms import Form, evaluate
from taucubic.quotient import (IdenticallyZero, branch_sextic, quotient_equation,
                               sextic_squarefree_probe)
from taucubic.scalars import PrimeField, QQ, quad_sqrt
from taucubic.tau import (QuadricPart, TauInstance, canonical_instance, embed_with_x01,
                          reduce_instance, sample_instance)

F101 = PrimeField(101)


def _quotient_value(abc, x01, P):
    """A(P) x0^2 + B(P) x0 x1 + C(P) x1^2 for the cubics abc = (A, B, C)."""
    (x0, x1), (a, b, c) = x01, (evaluate(f, P) for f in abc)
    return a * x0 * x0 + b * x0 * x1 + c * x1 * x1


def test_bidegree():
    # three coefficients of a quadratic in (x0, x1), each a plane cubic
    abc = quotient_equation(canonical_instance())
    assert len(abc) == 3
    assert all((f.num_vars, f.degree) == (3, 3) for f in abc)


def test_canonical_coefficients():
    inst = canonical_instance()
    a_coef, b_coef, c_coef = quotient_equation(inst)
    f2, f3 = inst.quadrics[0].f2, inst.f3
    x2 = Form.from_terms(3, 1, {(1, 0, 0): 1}, QQ)
    x3 = Form.from_terms(3, 1, {(0, 1, 0): 1}, QQ)
    x4 = Form.from_terms(3, 1, {(0, 0, 1): 1}, QQ)
    assert a_coef == x2 * f2 - f3
    assert b_coef == x4 * f2
    assert c_coef == x3 * f2 - f3


def test_sign_flip_on_first_factor_fixes_biform():
    # only even (x0, x1) monomial patterns occur, so negating (x0, x1) is inert
    inst = sample_instance(600, 8, domain=F101)
    abc = quotient_equation(inst)
    rng = random.Random(1)
    for _ in range(20):
        x0, x1 = F101.coerce(rng.randrange(101)), F101.coerce(rng.randrange(101))
        P = tuple(F101.coerce(rng.randrange(101)) for _ in range(3))
        if not any(P):
            continue
        assert _quotient_value(abc, (x0, x1), P) == _quotient_value(abc, (-x0, -x1), P)


def test_branch_degree_six():
    for seed, domain in ((601, QQ), (602, F101)):
        inst = sample_instance(seed, 10, domain=domain)
        assert branch_sextic(inst).degree == 6


def test_branch_with_zero_f2_is_scaled_cubic_square():
    # with f2 = 0 the discriminant collapses to (a01^2 - 4 a00 a11) * f3^2
    inst = canonical_instance()
    q = QuadricPart(QQ.coerce(2), QQ.coerce(3), QQ.coerce(1), Form.zero_form(3, 2, QQ))
    bad = TauInstance(QQ, inst.l00, inst.l11, inst.l01, inst.f3, (q,))
    sext = branch_sextic(bad)
    scale = q.a01 * q.a01 - 4 * q.a00 * q.a11
    assert sext == (inst.f3 * inst.f3).scale(scale)
    assert sext.degree == 6
    assert sextic_squarefree_probe(reduce_instance(bad, 101), random.Random(0x5EC71C)) is False


def test_branch_identically_zero():
    inst = canonical_instance()
    q = QuadricPart(QQ.one, QQ.one, QQ.coerce(2), Form.zero_form(3, 2, QQ))
    bad = TauInstance(QQ, inst.l00, inst.l11, inst.l01, inst.f3, (q,))
    with pytest.raises(IdenticallyZero):
        branch_sextic(bad)  # a01^2 = 4 a00 a11 and f2 = 0


def test_squarefree_probe_generic():
    inst = sample_instance(603, 10, domain=F101)
    assert sextic_squarefree_probe(inst, random.Random(0x5EC71C)) is True


def test_pullback_identity_random_points():
    inst = sample_instance(604, 10, domain=F101)
    rng = random.Random(604)
    phi, F, q = inst.cubic(), inst.quadric(), inst.quadrics[0]
    abc = quotient_equation(inst)
    for _ in range(100):
        x0, x1 = F101.coerce(rng.randrange(101)), F101.coerce(rng.randrange(101))
        P = tuple(F101.coerce(rng.randrange(101)) for _ in range(3))
        if not any(P) or (not x0 and not x1):
            continue
        lhs = _quotient_value(abc, (x0, x1), P)
        pt5 = (x0, x1) + P
        rhs = evaluate(phi, pt5) * evaluate(q.f2, P) - evaluate(F, pt5) * evaluate(inst.f3, P)
        assert lhs == rhs


def test_sextic_zeros_match_degenerate_fibers():
    inst = sample_instance(605, 10, domain=F101)
    rng = random.Random(605)
    sext = branch_sextic(inst)
    abc = quotient_equation(inst)
    hits = 0
    for _ in range(60):
        P = tuple(F101.coerce(rng.randrange(101)) for _ in range(3))
        if not any(P):
            continue
        hits += 1
        a, b, c = (evaluate(f, P) for f in abc)
        disc = b * b - 4 * a * c
        assert (not evaluate(sext, P)) == (not disc)
    assert hits >= 50


def test_membership_equivalence():
    inst = sample_instance(606, 10, domain=F101)
    rng = random.Random(606)
    phi, F, q = inst.cubic(), inst.quadric(), inst.quadrics[0]
    abc = quotient_equation(inst)
    probed = 0
    while probed < 50:
        x0, x1 = F101.coerce(rng.randrange(101)), F101.coerce(rng.randrange(101))
        P = tuple(F101.coerce(rng.randrange(101)) for _ in range(3))
        if not any(P) or (not x0 and not x1):
            continue
        f2v = evaluate(q.f2, P)
        quad_f = q.a00 * x0 * x0 + q.a01 * x0 * x1 + q.a11 * x1 * x1
        if not f2v or not quad_f:
            continue
        probed += 1
        qval = _quotient_value(abc, (x0, x1), P)
        t, fld = quad_sqrt(-quad_f / f2v, F101)
        lift = (fld.coerce(x0), fld.coerce(x1)) + tuple(fld.coerce(c) * t for c in P)
        on_surface = (not evaluate(phi, lift)) and (not evaluate(F, lift))
        assert on_surface == (not qval)


def test_quotient_cubics_reassemble_the_pullback():
    # A x0^2 + B x0 x1 + C x1^2 = cubic * f2 - quadric * f3 as forms on P^4
    for inst in (canonical_instance(), sample_instance(607, 10, domain=F101)):
        a_coef, b_coef, c_coef = quotient_equation(inst)
        lifted = (embed_with_x01(a_coef, 2, 0) + embed_with_x01(b_coef, 1, 1)
                  + embed_with_x01(c_coef, 0, 2))
        f2, f3 = (embed_with_x01(f, 0, 0) for f in (inst.quadrics[0].f2, inst.f3))
        assert lifted == inst.cubic() * f2 - inst.quadric() * f3
