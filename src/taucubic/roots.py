"""Univariate polynomial helpers over the exact domains.

Polynomials are plain coefficient lists in ascending order.  The main
consumers are the plane-curve eliminants: a binary form of degree d is turned
into a root ledger whose entries are either explicit points (rational over
the working field or over one quadratic extension) or conjugate clusters of
higher degree, each with its intersection multiplicity.  Multiplicity totals
and squarefreeness never require leaving the base field.

Roots over F_p come from one distinct-degree loop (gcd with x^(p^k) - x) and
a Cantor-Zassenhaus equal-degree split; rational roots over Q from Hensel
lifting the roots mod a good prime, rational reconstruction and an exact
check.  Every factor of degree <= 2 is solved by ``binary_quadratic_roots``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .scalars import (ExtensionTower, PrimeField, QQ, QuadraticExtension, RationalField,
                      is_prime, quad_sqrt)


def trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def degree(cs) -> int:
    return len(cs) - 1


def add(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else None
        y = b[i] if i < len(b) else None
        out.append(y if x is None else (x if y is None else x + y))
    return trim(out)


def sub(a, b, domain):
    return add(a, [-c for c in b]) if a else trim([-c for c in b])


def mul(a, b, domain):
    if not a or not b:
        return []
    out = [domain.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return trim(out)


def scale(a, c):
    return trim([x * c for x in a])


def divmod_poly(a, b, domain):
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
        trim(r)
    return trim(q), r


def gcd(a, b, domain):
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, divmod_poly(a, b, domain)[1]
    if a:
        a = scale(a, domain.one / a[-1])
    return a


def derivative(cs, domain):
    return trim([c * k for k, c in enumerate(cs)][1:])


def eval_poly(cs, x, domain):
    total = domain.zero
    for c in reversed(cs):
        total = total * x + c
    return total


def powmod(base, e: int, mod, domain):
    """base^e modulo a univariate polynomial."""
    result = [domain.one]
    base = divmod_poly(base, mod, domain)[1]
    while e:
        if e & 1:
            result = divmod_poly(mul(result, base, domain), mod, domain)[1]
        base = divmod_poly(mul(base, base, domain), mod, domain)[1]
        e >>= 1
    return result


def is_squarefree(cs, domain) -> bool:
    """gcd(f, f') constant; valid in characteristic 0 or p > deg f."""
    if degree(cs) <= 0:
        return True
    if domain.char and domain.char <= degree(cs):
        raise ValueError(f"squarefreeness test needs characteristic > {degree(cs)}")
    return degree(gcd(cs, derivative(cs, domain), domain)) == 0


def squarefree_decomposition(cs, domain):
    """Yun's algorithm: list of (squarefree factor, multiplicity).

    Requires characteristic 0 or p > deg.
    """
    d = degree(cs)
    if domain.char and domain.char <= d:
        raise ValueError(f"multiplicity analysis needs characteristic > {d}")
    out = []
    g = gcd(cs, derivative(cs, domain), domain)
    w = divmod_poly(cs, g, domain)[0]
    i = 1
    while degree(w) > 0:
        y = gcd(w, g, domain)
        z = divmod_poly(w, y, domain)[0]
        if degree(z) > 0:
            out.append((scale(z, domain.one / z[-1]), i))
        w, g = y, divmod_poly(g, y, domain)[0]
        i += 1
    return out


# ---------------------------------------------------------------------------
# root extraction: distinct-degree and Cantor-Zassenhaus splitting over F_p,
# Hensel lifting with rational reconstruction over Q, and one quadratic solver


def _frobenius_gcd(f, frob, domain):
    """gcd(frob - x, f) for frob = x^(p^k) mod f: the product of the distinct
    irreducible factors of f whose degree divides k."""
    return gcd(sub(frob, [domain.zero, domain.one], domain), f, domain)


def _distinct_degree(f, domain):
    """Pairs (k, g_k) for a monic squarefree f over F_p: g_k is the product of
    the irreducible factors of degree k."""
    frob, k = [domain.zero, domain.one], 0
    while degree(f) > 0:
        k += 1
        if 2 * k > degree(f):
            yield degree(f), f
            return
        frob = powmod(frob, domain.p, f, domain)
        g = _frobenius_gcd(f, frob, domain)
        if degree(g) > 0:
            yield k, g
            f = divmod_poly(f, g, domain)[0]
            frob = divmod_poly(frob, f, domain)[1]


def _equal_degree_split(g, k, domain):
    """Cantor-Zassenhaus: split a monic g whose irreducible factors all have
    degree k (1 or 2) into monic factors of degree <= 2.

    The random splitting polynomials come from a private fixed-seed generator,
    so the factors found do not depend on any caller's random state.
    """
    rng = random.Random(0)
    p = domain.p
    e = (p ** k - 1) // 2
    work, done = [g], []
    while work:
        h = work.pop()
        if degree(h) <= 2:
            done.append(h)
            continue
        while True:
            a = trim([domain.coerce(rng.randrange(p)) for _ in range(degree(h))])
            if degree(a) < 1:
                continue
            s = gcd(add(powmod(a, e, h, domain), [-domain.one]), h, domain)
            if 0 < degree(s) < degree(h):
                work += [s, divmod_poly(h, s, domain)[0]]
                break
    return done


def low_degree_roots(h, domain):
    """[(point, field)] for the roots of a squarefree h of degree 1 or 2; empty
    when they would need an extension of an extension."""
    if degree(h) == 1:
        return [((-h[0] / h[1], domain.one), domain)]
    try:
        roots, fld = binary_quadratic_roots(h[2], h[1], h[0], domain)
    except ExtensionTower:
        return []
    return [(pt, fld) for pt, _mult in roots]


def _split_rational_roots(g, domain):
    """The roots of a monic g over F_p that splits into distinct linear factors,
    ascending by residue."""
    if degree(g) < 1:
        return []
    roots = [pt[0] for h in _equal_degree_split(g, 1, domain)
             for pt, _fld in low_degree_roots(h, domain)]
    return sorted(roots, key=lambda r: r.residue)


def fp_rational_roots(cs, p: int):
    """Roots in F_p with multiplicities, ascending by residue, and the cofactor
    left after dividing them out."""
    domain = PrimeField(p)
    cs = trim(list(cs))
    if degree(cs) <= 0:
        return [], cs
    frob = powmod([domain.zero, domain.one], p, cs, domain)
    out = []
    for r in _split_rational_roots(_frobenius_gcd(cs, frob, domain), domain):
        mult = 0
        while not eval_poly(cs, r, domain):
            cs = divmod_poly(cs, [-r, domain.one], domain)[0]
            mult += 1
        out.append((r, mult))
    return out, cs


def _rational_reconstruction(x: int, modulus: int, n_bound: int, m_bound: int):
    """The fraction n/m = x mod modulus with |n| <= n_bound and 0 < m <= m_bound,
    or None; unique when 2 * n_bound * m_bound < modulus."""
    r0, t0, r1, t1 = modulus, 0, x % modulus, 1
    while r1 > n_bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    return Fraction(r1, t1) if 0 < t1 <= m_bound else None


def _eval_mod(cs, x: int, modulus: int) -> int:
    total = 0
    for c in reversed(cs):
        total = (total * x + c) % modulus
    return total


def _qq_rational_roots(f):
    """Rational roots of a squarefree f over Q, ordered by (|n|, m, negative last).

    The roots mod the first prime p > deg f that keeps the degree and the
    squarefreeness are Newton-lifted until p^k > 2 |a_0 a_d| for the cleared
    integer coefficients a_i, reconstructed as n/m with |n| <= |a_0| and
    0 < m <= |a_d| (the bounds of the rational root theorem), and verified
    exactly.  Every rational root is found.
    """
    den = lcm(*(c.denominator for c in f))
    a = [int(c * den) for c in f]
    out = []
    if not a[0]:  # squarefree: t divides f once
        out.append(QQ.zero)
        a = a[1:]
    if len(a) < 2:
        return out
    p = max(5, len(a))  # p > deg f
    while True:
        if is_prime(p) and a[-1] % p:
            fp = PrimeField(p)
            abar = [fp.coerce(c) for c in a]
            if is_squarefree(abar, fp):
                break
        p += 1
    da = [k * c for k, c in enumerate(a)][1:]
    bound = 2 * abs(a[0] * a[-1])
    for r, _mult in fp_rational_roots(abar, p)[0]:
        x, modulus = r.residue, p
        while modulus <= bound:
            modulus *= modulus
            x = (x - _eval_mod(a, x, modulus) * pow(_eval_mod(da, x, modulus), -1, modulus)) % modulus
        cand = _rational_reconstruction(x, modulus, abs(a[0]), abs(a[-1]))
        if cand is not None and not eval_poly(f, cand, QQ):
            out.append(cand)
    return sorted(out, key=lambda t: (abs(t.numerator), t.denominator, t < 0))


@dataclass
class RootEntry:
    """One Galois orbit of roots of a binary form.

    ``point`` is a projective pair when the orbit is expressible over the
    working field or one quadratic extension, otherwise None; ``residue_degree``
    is the degree of the orbit over the working field; ``mult`` its
    multiplicity.  The orbit contributes residue_degree * mult to the total.
    """

    point: tuple | None
    mult: int
    residue_degree: int
    field_label: str
    domain: object = None

    @property
    def weight(self):
        return self.mult * self.residue_degree


@dataclass
class BinaryRootLedger:
    entries: list[RootEntry] = field(default_factory=list)
    total_degree: int = 0

    @property
    def total_multiplicity(self):
        return sum(e.weight for e in self.entries)

    @property
    def squarefree(self):
        return all(e.mult == 1 for e in self.entries)


def _field_label(domain):
    if isinstance(domain, RationalField):
        return "Q"
    if isinstance(domain, PrimeField):
        return f"F{domain.p}"
    if isinstance(domain, QuadraticExtension):
        return f"{_field_label(domain.base)}(sqrt {domain.d})"
    return repr(domain)


def binary_form_roots(coeffs_asc, domain) -> BinaryRootLedger:
    """Root ledger of a binary form f(x, y) = sum c_i x^i y^(d-i).

    Input is the list [c_0, ..., c_d] (ascending in x).  The point (1:0) is
    handled through the y-degree drop; finite roots come from f(t, 1).
    """
    cs = trim(list(coeffs_asc))
    if not cs:
        raise ValueError("zero binary form has no root ledger")
    d = len(coeffs_asc) - 1
    ledger = BinaryRootLedger(total_degree=d)
    m = degree(cs)
    if m < d:
        ledger.entries.append(RootEntry((domain.one, domain.zero), d - m, 1,
                                        _field_label(domain), domain))
    for factor, mult in squarefree_decomposition(cs, domain):
        ledger.entries += _squarefree_entries(factor, mult, domain)
    return ledger


def _squarefree_entries(f, mult, domain):
    """Ledger entries of a monic squarefree factor f of multiplicity mult.

    Over F_p every orbit of degree <= 2 is explicit: rational roots ascending
    by residue, then quadratic orbits in F_p(sqrt D0) ordered by their monic
    factor, then clusters by degree.  Over Q the rational roots are explicit
    and so are the roots of a quadratic remainder; over an extension only
    factors of degree <= 2 are solved.
    """
    if isinstance(domain, PrimeField):
        out = []
        for k, g in _distinct_degree(f, domain):
            if k == 1:
                out += [RootEntry((r, domain.one), mult, 1, _field_label(domain), domain)
                        for r in _split_rational_roots(g, domain)]
            elif k == 2:
                out += [RootEntry(pt, mult, 1, _field_label(fld), fld)
                        for h in sorted(_equal_degree_split(g, 2, domain),
                                        key=lambda q: [c.residue for c in q])
                        for pt, fld in low_degree_roots(h, domain)]
            else:
                out += [RootEntry(None, mult, k, _field_label(domain), domain)
                        for _ in range(degree(g) // k)]
        return out
    rest, out = f, []
    if isinstance(domain, RationalField):
        for r in _qq_rational_roots(f):
            out.append(RootEntry((r, QQ.one), mult, 1, _field_label(domain), domain))
            rest = divmod_poly(rest, [-r, QQ.one], QQ)[0]
    pts = low_degree_roots(rest, domain) if 1 <= degree(rest) <= 2 else []
    out += [RootEntry(pt, mult, 1, _field_label(fld), fld) for pt, fld in pts]
    if degree(rest) > 0 and not pts:
        out.append(RootEntry(None, mult, degree(rest), _field_label(domain), domain))
    return out


def binary_quadratic_roots(a, b, c, domain):
    """Projective roots of a*x0^2 + b*x0*x1 + c*x1^2, over domain or one extension.

    Returns (list of ((x0, x1), mult), field).
    """
    a, b, c = domain.coerce(a), domain.coerce(b), domain.coerce(c)
    if not a and not b and not c:
        raise ValueError("identically zero binary quadratic")
    if not a:
        if not b:
            return [((domain.one, domain.zero), 2)], domain
        return [((domain.one, domain.zero), 1), ((-c / b, domain.one), 1)], domain
    disc = b * b - 4 * a * c
    if not disc:
        return [((-b / (2 * a), domain.one), 2)], domain
    s, fld = quad_sqrt(disc, domain)
    two_a = fld.coerce(2 * a)
    mb = fld.coerce(-b)
    roots = [(((mb + s) / two_a, fld.one), 1), (((mb - s) / two_a, fld.one), 1)]
    return roots, fld
