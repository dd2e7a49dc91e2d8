"""Plane-curve intersection: one kept shear, the ledger and points on demand."""

import pytest

from taucubic import intersect
from taucubic.forms import Form, evaluate
from taucubic.intersect import CommonComponent, intersect_plane_curves
from taucubic.scalars import QQ, PrimeField
from taucubic.tau import canonical_instance, sample_instance


def _form(deg, terms, domain=QQ):
    return Form.from_terms(3, deg, {m: domain.coerce(c) for m, c in terms.items()}, domain)


def test_distinct_needs_no_root_ledger(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the verdict computed a root ledger")
    monkeypatch.setattr(intersect, "binary_form_roots", forbidden)
    inst = canonical_instance()
    inter = intersect_plane_curves(inst.conic_part(), inst.f3)
    assert inter.distinct


def test_points_reuse_the_verdict_shear(monkeypatch):
    calls = []
    original = intersect.sylvester_resultant

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(intersect, "sylvester_resultant", counted)
    # over F_101 three of the six crossing points have coordinates over the
    # field or F_101(sqrt 2), so they are lifted
    inst = sample_instance(1, 10, domain=PrimeField(101))
    conic, cubic = inst.conic_part(), inst.f3
    inter = intersect_plane_curves(conic, cubic)
    assert inter.distinct
    verdict_calls = len(calls)
    assert verdict_calls >= 1
    assert inter.total_multiplicity == 6
    assert len(inter.points) == 3
    for pp in inter.points:
        assert not evaluate(conic, pp.coords) and not evaluate(cubic, pp.coords)
        assert pp.mult == 1
    assert len(calls) == verdict_calls


def test_tangent_conics_have_a_double_point():
    # x^2 + y^2 - z^2 and x^2 - y^2 + z^2 are tangent at (0 : 1 : +-1)
    g2 = _form(2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    h2 = _form(2, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): 1})
    inter = intersect_plane_curves(g2, h2)
    assert not inter.distinct
    assert inter.ledger.total_multiplicity == 4
    assert any(e.mult == 2 for e in inter.ledger.entries)
    assert sorted(pp.mult for pp in inter.points) == [2, 2]


@pytest.mark.parametrize("domain", [QQ, PrimeField(101)], ids=["QQ", "F101"])
def test_shared_component_raises(domain):
    # x*y and x*z share the line x = 0
    f = _form(2, {(1, 1, 0): 1}, domain)
    g = _form(2, {(1, 0, 1): 1}, domain)
    with pytest.raises(CommonComponent):
        intersect_plane_curves(f, g)
