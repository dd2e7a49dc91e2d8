"""Univariate root engine: F_p ledgers against brute-force scans of F_p and
F_p(sqrt D0), the rational-root scan it replaced, powers modulo a polynomial
against the list route, rational roots over Q with large coefficients, and
squarefreeness over Q, F_p and F_p(sqrt D0) against the gcd on field elements.

The engine runs one arithmetic on plain coefficient lists; the element route
it replaced (``_divmod_poly``, ``_gcd``, ``_scale``, ``_derivative`` below)
stays here as the reference it is compared against."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from taucubic import roots as uv
from taucubic.discriminant import points_on_cubic_component
from taucubic.scalars import FpElem, PrimeField, QQ, QuadElem, QuadraticExtension, quad_sqrt
from taucubic.tau import sample_instance


# --- the element route: polynomial arithmetic on field elements -----------


def _scale(a, c):
    return uv.trim([x * c for x in a])


def _divmod_poly(a, b, domain):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [domain.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = domain.one / b[-1]
    while r and len(r) >= len(b):
        c = r[-1] * inv_lead
        k = len(r) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] = r[k + i] - c * bc
        uv.trim(r)
    return uv.trim(q), r


def _gcd(a, b, domain):
    a, b = uv.trim(list(a)), uv.trim(list(b))
    while b:
        a, b = b, _divmod_poly(a, b, domain)[1]
    if a:
        a = _scale(a, domain.one / a[-1])
    return a


def _derivative(cs):
    return uv.trim([c * k for k, c in enumerate(cs)][1:])


def _poly_product(factors, domain):
    out = [domain.one]
    for f in factors:
        prod = [domain.zero] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] = prod[i + j] + x * y
        out = uv.trim(prod)
    return out


def _scan_roots(cs, field, elems):
    """{root: multiplicity} over the listed field elements, by evaluation and deflation."""
    out = {}
    for x in elems:
        k, rest = 0, cs
        while not uv.eval_poly(rest, x, field):
            rest = _divmod_poly(rest, [-x, field.one], field)[0]
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
    return _scale(_poly_product(factors, fp), lead), sorted(cubics.values())


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
        assert all(e.field_label == f"F{p}(sqrt {ext.d.residue})" for e in quad)
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
            cs = _divmod_poly(cs, [-x, fp.one], fp)[0]
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
            cs = _scale(_poly_product([[fp.coerce(-r), fp.one] for r in roots] + [extra], fp),
                        fp.coerce(rng.randrange(1, p)))
        if uv.degree(cs) < 0:
            continue
        assert uv.fp_rational_roots(cs, p) == _scan_rational_roots(cs, p)


def _oracle_low_degree_roots(cs, p):
    """Roots of a polynomial of degree <= 2 by evaluation at every residue, a
    root being double where the derivative vanishes too, and the cofactor by
    division."""
    fp = PrimeField(p)
    cs = uv.trim([fp.coerce(c) for c in cs])
    if uv.degree(cs) <= 0:
        return [], cs
    dcs = _derivative(cs)
    roots = [(x, 1 + (not uv.eval_poly(dcs, x, fp))) for x in map(fp.coerce, range(p))
             if not uv.eval_poly(cs, x, fp)]
    rest = cs
    for x, mult in roots:
        for _ in range(mult):
            rest, rem = _divmod_poly(rest, [-x, fp.one], fp)
            assert not rem
    return roots, rest


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_low_degree_roots_match_evaluation(p):
    # every coefficient triple: roots, multiplicities, ascending order and
    # cofactor; at p = 5 and 7 also every cubic, whose Frobenius and
    # Cantor-Zassenhaus powers run modulo a cubic
    fp = PrimeField(p)
    for cs in itertools.product(range(p), repeat=3):
        assert uv.fp_rational_roots(list(cs), p) == _oracle_low_degree_roots(cs, p), cs
        for lead in range(1, p) if p <= 7 else ():
            cubic = list(cs) + [lead]
            assert uv.fp_rational_roots(cubic, p) == _scan_rational_roots(
                [fp.coerce(c) for c in cubic], p), cubic


def test_fp_rational_roots_coerce_their_input():
    # an element of another field is refused, not read by its residue
    with pytest.raises(ValueError):
        uv.fp_rational_roots([FpElem(1, 7), FpElem(0, 7), FpElem(1, 7)], 11)
    roots, rest = uv.fp_rational_roots([-1, 0, 1], 11)
    assert [(r.residue, m) for r, m in roots] == [(1, 1), (10, 1)] and rest == [1]


def test_fp_rational_roots_beyond_machine_words():
    # residue products overflow 64 bits: the engine must stay on Python ints
    p = 4294967311
    fp = PrimeField(p)
    d = next(d for d in range(2, p) if fp.sqrt_or_none(d) is None)
    quadratic = [fp.coerce(-d), fp.zero, fp.one]
    planted = {5: 2, 77777: 1, p - 3: 3, 2 ** 31 + 11: 2}
    factors = [quadratic] + [[fp.coerce(-r), fp.one] for r, m in planted.items() for _ in range(m)]
    cs = _scale(_poly_product(factors, fp), fp.coerce(987654321))
    roots, rest = uv.fp_rational_roots(cs, p)
    assert [(r.residue, m) for r, m in roots] == sorted(planted.items())
    assert _scale(rest, fp.one / rest[-1]) == quadratic
    # one cubic of each shape; p = 1 mod 3, so x^3 - k is irreducible for a non-cube k
    assert p % 3 == 1
    k = next(k for k in range(2, p) if pow(k, (p - 1) // 3, p) != 1)
    lin = {r: [fp.coerce(-r), fp.one] for r in (5, 77777, p - 3)}
    shapes = [
        ([lin[5], lin[77777], lin[p - 3]], [(5, 1), (77777, 1), (p - 3, 1)], [fp.one]),
        ([lin[p - 3], lin[5], lin[p - 3]], [(5, 1), (p - 3, 2)], [fp.one]),
        ([lin[77777]] * 3, [(77777, 3)], [fp.one]),
        ([lin[p - 3], quadratic], [(p - 3, 1)], quadratic),
        ([[fp.coerce(-k), fp.zero, fp.zero, fp.one]], [], [fp.coerce(-k), fp.zero, fp.zero, fp.one]),
    ]
    for factors, want, monic_rest in shapes:
        roots, rest = uv.fp_rational_roots(_scale(_poly_product(factors, fp), fp.coerce(3)), p)
        assert [(r.residue, m) for r, m in roots] == want
        assert _scale(rest, fp.one / rest[-1]) == monic_rest


def _list_powmod(base, e, mod, fp):
    """base^e modulo mod by square-and-multiply on residue lists, reducing with
    ``_divmod`` after every product: the route every modulus took before the
    cubic kernel, and the oracle of ``_powmod``."""
    result = [1]
    base = uv._divmod(base, mod, fp)[1]
    while e:
        if e & 1:
            result = uv._divmod(uv._mul(result, base, fp), mod, fp)[1]
        base = uv._divmod(uv._mul(base, base, fp), mod, fp)[1]
        e >>= 1
    return result


@pytest.mark.parametrize("p", [7, 11, 101, 2 ** 31 - 1, 4294967311])
def test_rpowmod_matches_the_list_route(p):
    # moduli of degree 1-6, monic and not; bases zero, x, reduced and
    # unreduced; the exponents of the Frobenius and Cantor-Zassenhaus steps
    rng, fp = random.Random(p), PrimeField(p)
    for deg in range(1, 7):
        for trial in range(4):
            mod = [rng.randrange(p) for _ in range(deg)] + [1 if trial % 2 else rng.randrange(2, p)]
            reduced = uv.trim([rng.randrange(p) for _ in range(deg)])
            unreduced = [rng.randrange(p) for _ in range(deg + rng.randint(0, 3))] + [
                rng.randrange(1, p)]
            for base in ([], [0, 1], reduced, unreduced):
                for e in (0, 1, p, (p - 1) // 2, (p * p - 1) // 2):
                    assert uv._powmod(base, e, mod, fp) == _list_powmod(base, e, mod, fp), (
                        base, e, mod)


def test_cubic_slices_multiply_no_lists(monkeypatch):
    # the cubic component's slices are cubics in x2: their Frobenius and
    # Cantor-Zassenhaus powers run on residue triples, not on list products
    calls = Counter()
    mul, roots = uv._mul, uv.fp_rational_roots

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    monkeypatch.setattr(uv, "_mul", counted("_mul", mul))
    monkeypatch.setattr(uv, "fp_rational_roots", counted("roots", roots))
    inst = sample_instance(1, 10, domain=PrimeField(101))
    assert len(points_on_cubic_component(inst, random.Random(0), 100)) == 100
    assert calls["roots"] > 0 and calls["_mul"] == 0, calls


def _engine_digest(p):
    """sha256 of the reprs of fp_rational_roots and binary_form_roots on seeded
    polynomials over F_p: repeated roots, irreducible quadratic and cubic
    factors, degree >= p (fp_rational_roots only) and degree drops at (1:0)."""
    fp = PrimeField(p)
    rng = random.Random(500 + p)
    lines = []
    for trial in range(30):
        if trial % 5 == 4:
            deg = rng.randint(p, p + 4)
            cs = [fp.coerce(rng.randrange(p)) for _ in range(deg)] + [fp.coerce(rng.randrange(1, p))]
        elif trial % 5 == 3:
            roots = rng.sample(range(p), min(p, 8)) + [rng.randrange(p)] * 2
            cs = _poly_product([[fp.coerce(-r), fp.one] for r in roots], fp)
        else:
            cs, _ = _random_product(rng, fp)
        lines.append(repr(uv.fp_rational_roots(cs, p)))
        drop = rng.choice([0, 1, 2])
        if uv.degree(cs) + drop < p:
            lines.append(repr(uv.binary_form_roots(cs + [fp.zero] * drop, fp)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Pins roots, multiplicities, cofactors and the order of roots and ledger
# entries.  The factors found, hence these digests, do not depend on the
# Cantor-Zassenhaus draws.
ENGINE_DIGESTS = {
    5: "ab10238a4f1abac6a314d14ff7705dd0ab0c61bafe27d9a9658b50b3eaabab20",
    7: "fa722008504429d5afc4f2e6af907a710d6c7624401e5f3012137059912932ad",
    11: "5aa8fa1b63e07e68f55d9e5e5785a249d1ee34fd0803359f19712987e4e59645",
    13: "0898c66b4f522a05ff860753dcb27f638fd0323d3072056147ac3a8caa9852c2",
    101: "e2a86769be7cf0ba151bcfe4f86191d3e56c7b9ca7ac6d9c26ebcc936a8fb9eb",
}


@pytest.mark.parametrize("p", sorted(ENGINE_DIGESTS))
def test_engine_outputs_pinned(p):
    assert _engine_digest(p) == ENGINE_DIGESTS[p]


def test_qq_root_beyond_trial_division_reach():
    # 20011 * 20021 has two prime factors above 20,000
    cs = _poly_product([[Fraction(-20011), Fraction(5)],
                        [Fraction(20021), Fraction(1), Fraction(1)]], QQ)
    ledger = uv.binary_form_roots(cs, QQ)
    assert ledger.entries[0].point == (Fraction(20011, 5), QQ.one)
    assert ledger.entries[0].field_label == "Q"
    assert [e.field_label for e in ledger.entries[1:]] == ["Q(sqrt -80083)"] * 2
    assert ledger.total_multiplicity == 3 and all(e.mult == 1 for e in ledger.entries)


def test_field_label_names_the_radicand():
    assert [uv._field_label(quad_sqrt(2, k)[1]) for k in (PrimeField(101), QQ)] == [
        "F101(sqrt 2)", "Q(sqrt 2)"]


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
        cs = _scale(_poly_product(factors, QQ), Fraction(rng.randint(1, 50), rng.randint(1, 50)))
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


# --- squarefreeness over Q certified at one prime, against the exact gcd ----


def _exact_distinct_root_count(cs, domain):
    """deg f - deg gcd(f, f') by the gcd on field elements."""
    return uv.degree(cs) - uv.degree(_gcd(cs, _derivative(cs), domain))


def _yun(cs, domain):
    """Yun's squarefree decomposition by the gcd on field elements."""
    out = []
    g = _gcd(cs, _derivative(cs), domain)
    w = _divmod_poly(cs, g, domain)[0]
    i = 1
    while uv.degree(w) > 0:
        y = _gcd(w, g, domain)
        z = _divmod_poly(w, y, domain)[0]
        if uv.degree(z) > 0:
            out.append((_scale(z, domain.one / z[-1]), i))
        w, g = y, _divmod_poly(g, y, domain)[0]
        i += 1
    return out


def _random_qq_poly(rng, squared):
    """A product of degree 1-7 of random factors of degree 1-3 with Fraction
    coefficients; with ``squared``, one factor appears twice."""
    target = rng.randint(2 if squared else 1, 7)
    factors = []
    while sum(len(f) - 1 for f in factors) < target:
        room = target - sum(len(f) - 1 for f in factors)
        if squared and not factors:
            f = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(min(room // 2, 2))]
            factors += [f + [QQ.one]] * 2
            continue
        f = [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
             for _ in range(rng.randint(1, min(room, 3)))]
        factors.append(f + [Fraction(rng.randint(1, 9), rng.randint(1, 9))])
    return _poly_product(factors, QQ)


def test_squarefree_certificate_matches_exact_gcd():
    rng = random.Random(71)
    certified = repeated = 0
    for trial in range(400):
        cs = _random_qq_poly(rng, squared=trial % 3 == 0)
        want = _exact_distinct_root_count(cs, QQ)
        assert uv.distinct_root_count(cs, QQ) == want, cs
        assert uv.is_squarefree(cs, QQ) == (want == uv.degree(cs))
        assert uv.squarefree_decomposition(cs, QQ) == _yun(cs, QQ), cs
        certified += uv._squarefree_at_prime(cs)
        repeated += want < uv.degree(cs)
    # every squarefree draw is certified, and no draw with a repeated factor
    assert repeated >= 133 and certified + repeated == 400


def test_squarefree_certificate_falls_back_to_exact_gcd():
    P = uv.SQUAREFREE_PRIME
    x_minus_1, x_minus_1_p = [Fraction(-1), QQ.one], [Fraction(-1 - P), QQ.one]
    cases = {
        # P divides the leading coefficient: P x^2 + 1, and P (x - 1)^2
        "lc": ([QQ.one, QQ.zero, Fraction(P)], 2),
        "lc, repeated": (_scale(_poly_product([x_minus_1] * 2, QQ), Fraction(P)), 1),
        # (x - 1)(x - 1 - P) is (x - 1)^2 mod P, and squarefree over Q
        "square mod P": (_poly_product([x_minus_1, x_minus_1_p], QQ), 2),
        "square mod P, repeated": (_poly_product([x_minus_1] * 2 + [x_minus_1_p], QQ), 2),
    }
    for name, (cs, distinct) in cases.items():
        assert not uv._squarefree_at_prime(cs), name
        assert uv.distinct_root_count(cs, QQ) == distinct == _exact_distinct_root_count(cs, QQ)
        assert uv.squarefree_decomposition(cs, QQ) == _yun(cs, QQ), name
    assert uv._squarefree_at_prime([Fraction(1, 3), QQ.zero, QQ.one])


@pytest.mark.parametrize("p", [11, 101])
def test_fp_distinct_root_count_matches_exact_gcd(p):
    fp, rng = PrimeField(p), random.Random(73)
    for _ in range(100):
        cs, _cubics = _random_product(rng, fp)
        assert uv.distinct_root_count(cs, fp) == _exact_distinct_root_count(cs, fp), cs


# --- the extension route: the same list arithmetic on QuadElem lists -------


def _fp_ext(p):
    """F_p(sqrt D0), D0 the least non-residue mod p."""
    fp = PrimeField(p)
    return quad_sqrt(fp.coerce(next(d for d in range(2, p) if fp.sqrt_or_none(d) is None)), fp)[1]


ORACLE_DOMAINS = {
    "Q": QQ,
    "F101": PrimeField(101),
    "F11(sqrt D0)": _fp_ext(11),
    "F101(sqrt D0)": _fp_ext(101),
    "Q(sqrt -1)": QuadraticExtension(QQ, Fraction(-1)),
}


def _nonzero(rng, domain):
    while True:
        c = domain.random(rng, 9)
        if c:
            return c


def _random_factors(rng, domain, target, repeat):
    """Factors of degree 1-3 and total degree ``target`` with random
    coefficients and a random nonzero lead; with ``repeat`` and a target of at
    least 2, the first one appears two or three times."""
    factors = []
    while sum(len(f) - 1 for f in factors) < target:
        room = target - sum(len(f) - 1 for f in factors)
        times = min(rng.randint(2, 3), room) if repeat and not factors and room >= 2 else 1
        f = [domain.random(rng, 9) for _ in range(rng.randint(1, min(room // times, 3)))]
        f.append(_nonzero(rng, domain))
        factors += [f] * times
    return factors


@pytest.mark.parametrize("name", ["F11(sqrt D0)", "F101(sqrt D0)", "Q(sqrt -1)"])
def test_extension_squarefree_matches_the_element_route(name):
    ext, rng = ORACLE_DOMAINS[name], random.Random(79)
    repeated = 0
    for trial in range(60):
        cs = _poly_product(_random_factors(rng, ext, rng.randint(2, 8), trial % 2 == 0), ext)
        want = _exact_distinct_root_count(cs, ext)
        assert uv.distinct_root_count(cs, ext) == want, cs
        assert uv.squarefree_decomposition(cs, ext) == _yun(cs, ext), cs
        repeated += want < uv.degree(cs)
    # every other draw has a repeated factor
    assert repeated >= 30


@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_gcd_edge_matches_the_element_gcd(name):
    # a shared factor of degree 0-4 (repeated factors included) times two
    # random cofactors, and the gcd with the zero list, which is f made monic
    domain, rng = ORACLE_DOMAINS[name], random.Random(83)
    for trial in range(40):
        common = _random_factors(rng, domain, rng.randint(0, 4), trial % 3 == 0)
        a, b = (_poly_product(common + _random_factors(rng, domain, rng.randint(0, 4), False),
                              domain) for _ in range(2))
        want = _gcd(a, b, domain)
        assert uv.gcd(a, b, domain) == want, (a, b)
        assert uv.degree(want) >= sum(len(f) - 1 for f in common)
        assert uv.gcd(a, [], domain) == _gcd(a, [], domain) == _scale(a, domain.one / a[-1])
