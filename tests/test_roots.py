"""Univariate root engine: F_p ledgers against brute-force scans of F_p and
F_p(sqrt D0), the rational-root scan it replaced, and rational roots over Q
with large coefficients."""

import random
from fractions import Fraction

import pytest

from taucubic import roots as uv
from taucubic.scalars import PrimeField, QQ, QuadElem, quad_sqrt


def _poly_product(factors, domain):
    out = [domain.one]
    for f in factors:
        out = uv.mul(out, f, domain)
    return out


def _scan_roots(cs, field, elems):
    """{root: multiplicity} over the listed field elements, by evaluation and deflation."""
    out = {}
    for x in elems:
        k, rest = 0, cs
        while not uv.eval_poly(rest, x, field):
            rest = uv.divmod_poly(rest, [-x, field.one], field)[0]
            k += 1
        if k:
            out[x] = k
    return out


def _has_root(cs, fp):
    return any(not uv.eval_poly(cs, fp.coerce(r), fp) for r in range(fp.p))


def _random_irreducible(rng, fp, deg):
    """A random monic irreducible polynomial of degree 2 or 3 (no root in F_p)."""
    while True:
        cs = [fp.coerce(rng.randrange(fp.p)) for _ in range(deg)] + [fp.one]
        if not _has_root(cs, fp):
            return cs


def _random_product(rng, fp):
    """A product of linear factors (some repeated), irreducible quadratics and
    irreducible cubics of total degree 1..8, with the cubics' multiplicities."""
    target = rng.randint(1, 8)
    factors, cubics, deg = [], {}, 0
    while deg < target:
        room = target - deg
        kind = rng.choice([k for k in (1, 2, 3) if k <= room])
        if kind == 1:
            if factors and rng.random() < 0.4:
                lin = rng.choice([f for f in factors if len(f) == 2] or [[fp.zero, fp.one]])
            else:
                lin = [fp.coerce(rng.randrange(fp.p)), fp.one]
            factors.append(lin)
        else:
            f = _random_irreducible(rng, fp, kind)
            factors.append(f)
            if kind == 3:
                key = tuple(c.residue for c in f)
                cubics[key] = cubics.get(key, 0) + 1
        deg += kind
    lead = fp.coerce(rng.randrange(1, fp.p))
    return uv.scale(_poly_product(factors, fp), lead), sorted(cubics.values())


@pytest.mark.parametrize("p", [11, 13])
def test_fp_ledger_matches_bruteforce(p):
    fp = PrimeField(p)
    _, ext = quad_sqrt(fp.coerce(next(d for d in range(2, p) if fp.sqrt_or_none(d) is None)), fp)
    ext_elems = [QuadElem(a, b, ext) for a in range(p) for b in range(1, p)]
    rng = random.Random(p)
    for _ in range(60):
        cs, cubic_mults = _random_product(rng, fp)
        drop = rng.choice([0, 0, 1, 2])  # degree drop in t: the point (1:0)
        d = uv.degree(cs) + drop
        ledger = uv.binary_form_roots(cs + [fp.zero] * drop, fp)
        assert ledger.total_degree == d and ledger.total_multiplicity == d
        infinity = [e.mult for e in ledger.entries if e.point == (fp.one, fp.zero)]
        assert infinity == ([drop] if drop else [])

        rational = [(e.point[0], e.mult) for e in ledger.entries
                    if e.domain == fp and e.point is not None and e.point[1] == fp.one]
        scan = _scan_roots(cs, fp, [fp.coerce(r) for r in range(p)])
        # entries come per squarefree part (multiplicity), ascending inside each
        assert rational == sorted(scan.items(), key=lambda rm: (rm[1], rm[0].residue))
        assert all(e.field_label == f"F{p}" for e in ledger.entries if e.domain == fp)

        quad = [e for e in ledger.entries if e.domain == ext]
        assert all(e.field_label == f"F{p}(sqrt {ext.d})" for e in quad)
        assert {e.point[0]: e.mult for e in quad} == _scan_roots(
            [ext.coerce(c) for c in cs], ext, ext_elems)
        # each orbit is a conjugate pair; orbits ascend by their monic factor
        keys = []
        for e1, e2 in zip(quad[::2], quad[1::2]):
            alpha = e1.point[0]
            assert e2.point[0] == alpha.conjugate() and e1.mult == e2.mult
            keys.append([(alpha * alpha.conjugate()).a.residue, (-2 * alpha.a).residue])
        assert keys == sorted(keys)

        clusters = [e for e in ledger.entries if e.point is None]
        assert all(e.residue_degree == 3 for e in clusters)
        assert sorted(e.mult for e in clusters) == cubic_mults


def _scan_rational_roots(cs, p):
    """The residue scan with deflation that fp_rational_roots must agree with."""
    fp = PrimeField(p)
    out = []
    for r in range(p):
        x = fp.coerce(r)
        mult = 0
        while not uv.eval_poly(cs, x, fp):
            cs = uv.divmod_poly(cs, [-x, fp.one], fp)[0]
            mult += 1
        if mult:
            out.append((x, mult))
    return out, cs


@pytest.mark.parametrize("p", [11, 13, 101])
def test_fp_rational_roots_match_residue_scan(p):
    fp = PrimeField(p)
    rng = random.Random(1000 + p)
    for trial in range(80):
        if trial % 2:
            cs = uv.trim([fp.coerce(rng.randrange(p)) for _ in range(rng.randint(2, 9))])
        else:
            roots = [rng.randrange(p) for _ in range(rng.randint(1, 5))]
            roots += roots[:rng.randint(0, 2)]
            extra = [fp.coerce(rng.randrange(p)) for _ in range(rng.randint(0, 3))] + [fp.one]
            cs = uv.scale(_poly_product([[fp.coerce(-r), fp.one] for r in roots] + [extra], fp),
                          fp.coerce(rng.randrange(1, p)))
        if uv.degree(cs) < 0:
            continue
        assert uv.fp_rational_roots(cs, p) == _scan_rational_roots(cs, p)


def test_qq_root_beyond_trial_division_reach():
    # 20011 * 20021 has two prime factors above 20,000
    cs = _poly_product([[Fraction(-20011), Fraction(5)],
                        [Fraction(20021), Fraction(1), Fraction(1)]], QQ)
    ledger = uv.binary_form_roots(cs, QQ)
    assert ledger.entries[0].point == (Fraction(20011, 5), QQ.one)
    assert ledger.entries[0].field_label == "Q"
    assert [e.field_label for e in ledger.entries[1:]] == ["Q(sqrt -80083)"] * 2
    assert ledger.total_multiplicity == 3 and ledger.squarefree


def test_qq_rational_roots_complete_and_ordered():
    rng = random.Random(5)
    for _ in range(30):
        want = {Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
                for _ in range(rng.randint(1, 4))}
        if rng.random() < 0.3:
            want.add(Fraction(0))
        factors = [[-r, QQ.one] for r in want]
        factors.append([Fraction(rng.randint(1, 10 ** 9)), Fraction(rng.randint(-9, 9)),
                        Fraction(1)] if rng.random() < 0.5 else [Fraction(7), QQ.zero, QQ.zero,
                                                                QQ.one])  # t^3 + 7
        cs = uv.scale(_poly_product(factors, QQ), Fraction(rng.randint(1, 50), rng.randint(1, 50)))
        ledger = uv.binary_form_roots(cs, QQ)
        found = [e.point[0] for e in ledger.entries if e.domain == QQ and e.point is not None]
        assert found == sorted(want, key=lambda t: (abs(t.numerator), t.denominator, t < 0))
        assert ledger.total_multiplicity == uv.degree(cs)


def test_quad_sqrt_fp_uses_least_non_residue():
    f13 = PrimeField(13)  # residues mod 13: 1, 3, 4, 9, 10, 12; least non-residue 2
    for d in (2, 5, 6, 7, 8, 11):
        root, fld = quad_sqrt(d, f13)
        assert fld.d == 2 and not root.a
        assert root * root == fld.coerce(d)
