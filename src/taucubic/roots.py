"""Univariate polynomial helpers over the exact domains.

Polynomials are coefficient lists in ascending order.  The main consumers are
the plane-curve eliminants: a binary form of degree d is turned into a root
ledger whose entries are either explicit points (rational over the working
field or over one quadratic extension) or conjugate clusters of higher
degree, each with its intersection multiplicity.  Multiplicity totals and
squarefreeness never require leaving the base field.  Over Q squarefreeness
is first certified at the one prime P = 2^31 - 1 (``_squarefree_at_prime``),
and only a failed certificate runs the gcd.

One arithmetic serves every domain: product, division, monic gcd, square
part and powers modulo a polynomial (``_mul``, ``_divmod``, ``_gcd``,
``_square_part``, ``_powmod``) act on the domain's plain lists through its
``reduce`` and ``inverse``: int residues in [0, p) over F_p, Fractions over Q
and the elements themselves over an extension.  ``squarefree_decomposition``,
``distinct_root_count`` and the element gcd ``gcd`` convert with
``plain_list`` on entry and build elements with ``from_plain`` on exit.

Roots over F_p come from one distinct-degree loop (gcd with x^(p^k) - x) and
a Cantor-Zassenhaus equal-degree split, except that ``fp_rational_roots``
solves degree <= 2 directly; rational roots over Q from Hensel
lifting the roots mod a good prime, rational reconstruction and an exact
check.  A factor of degree <= 2 with roots in F_p is solved on residues by
``fp_binary_quadratic_roots``, every other one by ``binary_quadratic_roots``.

The F_p engine (Frobenius powers, the gcds, the splits, the rational roots of
the split factors and their deflation) runs on residues.  ``FpElem`` enters
only as a coefficient that is not an int, and leaves only in the results: the
roots and cofactor of ``fp_rational_roots``, the ledger points of
``binary_form_roots`` and the quadratic factors solved over F_p(sqrt D0).
``fp_binary_quadratic_roots`` takes and returns residues.  Powers modulo a
cubic, the x^p and the splitting powers of every cubic slice, run on residue
triples (``_cubic_powmod``) instead of list products.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import (ExtensionTower, PrimeField, QQ, QuadraticExtension, RationalField,
                      _sqrt_mod_p, is_prime, quad_sqrt)


def trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def degree(cs) -> int:
    return len(cs) - 1


def eval_poly(cs, x, domain):
    total = domain.zero
    for c in reversed(cs):
        total = total * x + c
    return total


# ---------------------------------------------------------------------------
# one arithmetic on plain coefficient lists (residues in [0, p) over F_p,
# Fractions over Q, elements over an extension), through the domain's
# ``reduce`` and ``inverse``


def _mul(a, b, domain):
    """Product of two trimmed plain lists over the domain."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return [domain.reduce(c) for c in out]


def _divmod(a, b, domain):
    """Quotient and remainder of plain lists over the domain, for a trimmed nonzero b."""
    n = len(b) - 1
    r = list(a)
    q = [0] * max(0, len(r) - n)
    inv_lead = domain.inverse(b[-1])
    for i in range(len(q) - 1, -1, -1):
        c = domain.reduce(r[i + n] * inv_lead)
        q[i] = c
        if c:
            for j in range(n):
                r[i + j] -= c * b[j]
    return q, trim([domain.reduce(c) for c in r[:n]])


def _monic(a, domain):
    """A nonzero trimmed plain list over the domain divided by its leading coefficient."""
    inv_lead = domain.inverse(a[-1])
    return [domain.reduce(c * inv_lead) for c in a]


def _gcd(a, b, domain):
    """Monic gcd of two trimmed plain lists over the domain."""
    while b:
        a, b = b, _divmod(a, b, domain)[1]
    return _monic(a, domain) if a else a


def _square_part(f, domain):
    """gcd(f, f') of a trimmed plain list f over the domain."""
    return _gcd(f, trim([domain.reduce(i * c) for i, c in enumerate(f)][1:]), domain)


def _powmod(base, e: int, mod, domain):
    """base^e modulo a plain list mod over F_p; a cubic mod takes
    ``_cubic_powmod``."""
    if len(base) >= len(mod):
        base = _divmod(base, mod, domain)[1]
    if len(mod) == 4 and e:
        return _cubic_powmod(base, e, mod, domain.p)
    result = [1]
    while e:
        if e & 1:
            result = _divmod(_mul(result, base, domain), mod, domain)[1]
        base = _divmod(_mul(base, base, domain), mod, domain)[1]
        e >>= 1
    return result


SQUAREFREE_PRIME = 2 ** 31 - 1  # the prime that certifies squarefreeness over Q
_CERTIFYING_FIELD = PrimeField(SQUAREFREE_PRIME)


def _squarefree_at_prime(cs) -> bool:
    """Whether a rational f of degree >= 1 is certified squarefree: P =
    ``SQUAREFREE_PRIME`` keeps the degree of the cleared f, and so of f' (every
    degree here is below P), and gcd(f, f') mod P is constant, so disc f is
    nonzero mod P and over Q.  False decides nothing."""
    a = [c % SQUAREFREE_PRIME for c in QQ.plain_list(cs)[0]]
    return bool(a[-1]) and len(_square_part(a, _CERTIFYING_FIELD)) == 1


def distinct_root_count(cs, domain) -> int:
    """deg f - deg gcd(f, f'), the number of distinct roots of f over the
    algebraic closure; valid in characteristic 0 or p > deg f.  Over Q a
    ``_squarefree_at_prime`` certificate gives deg f."""
    if degree(cs) <= 0:
        return 0
    if domain.char and domain.char <= degree(cs):
        raise ValueError(f"squarefreeness test needs characteristic > {degree(cs)}")
    if isinstance(domain, RationalField) and _squarefree_at_prime(cs):
        return degree(cs)
    return degree(cs) - degree(_square_part(trim(domain.plain_list(cs)[0]), domain))


def is_squarefree(cs, domain) -> bool:
    """gcd(f, f') constant; valid in characteristic 0 or p > deg f."""
    return distinct_root_count(cs, domain) == max(degree(cs), 0)


def squarefree_decomposition(cs, domain):
    """Yun's algorithm: list of (squarefree factor, multiplicity).

    Requires characteristic 0 or p > deg.
    """
    d = degree(cs)
    if domain.char and domain.char <= d:
        raise ValueError(f"multiplicity analysis needs characteristic > {d}")
    if d <= 0:
        return []
    certified = isinstance(domain, RationalField) and _squarefree_at_prime(cs)
    f = _monic(trim(domain.plain_list(cs)[0]), domain)
    if certified:
        return [(domain.from_plain(f), 1)]
    out = []
    g = _square_part(f, domain)
    w = _divmod(f, g, domain)[0]
    i = 1
    while degree(w) > 0:
        y = _gcd(w, g, domain)
        z = _divmod(w, y, domain)[0]
        if degree(z) > 0:
            out.append((domain.from_plain(z), i))
        w, g = y, _divmod(g, y, domain)[0]
        i += 1
    return out


def gcd(a, b, domain):
    """The monic gcd of two element lists over ``domain``, as elements."""
    a, b = (trim(domain.plain_list(h)[0]) for h in (a, b))
    return domain.from_plain(_gcd(a, b, domain))


# ---------------------------------------------------------------------------
# root extraction: distinct-degree and Cantor-Zassenhaus splitting over F_p,
# Hensel lifting with rational reconstruction over Q, and one quadratic solver


def _cubic_powmod(base, e: int, mod, p):
    """base^e modulo a cubic residue list mod, for a reduced base and e >= 1:
    square-and-multiply on the residue triple (r0, r1, r2) of r0 + r1 x + r2 x^2,
    the products folded by x^3 = -(a x^2 + b x + c) with mod made monic once."""
    inv = pow(mod[3], -1, p)
    c, b, a = (k * inv % p for k in mod[:3])
    s0, s1, s2 = base + [0] * (3 - len(base))
    r0, r1, r2 = s0, s1, s2
    for bit in bin(e)[3:]:
        t4 = r2 * r2
        t3 = 2 * r1 * r2 - a * t4
        r0, r1, r2 = ((r0 * r0 - c * t3) % p, (2 * r0 * r1 - c * t4 - b * t3) % p,
                      (2 * r0 * r2 + r1 * r1 - b * t4 - a * t3) % p)
        if bit == "1":
            t4 = r2 * s2
            t3 = r1 * s2 + r2 * s1 - a * t4
            r0, r1, r2 = ((r0 * s0 - c * t3) % p, (r0 * s1 + r1 * s0 - c * t4 - b * t3) % p,
                          (r0 * s2 + r1 * s1 + r2 * s0 - b * t4 - a * t3) % p)
    return trim([r0, r1, r2])


def _frobenius_gcd(f, frob, field):
    """gcd(frob - x, f) for frob = x^(p^k) mod f: the product of the distinct
    irreducible factors of f whose degree divides k."""
    h = frob + [0] * (2 - len(frob))
    h[1] = field.reduce(h[1] - 1)
    return _gcd(trim(h), f, field)


def _distinct_degree(f, field):
    """Pairs (k, g_k) for a monic squarefree residue list f over F_p: g_k is
    the product of the irreducible factors of degree k."""
    frob, k = [0, 1], 0
    while degree(f) > 0:
        k += 1
        if 2 * k > degree(f):
            yield degree(f), f
            return
        frob = _powmod(frob, field.p, f, field)
        g = _frobenius_gcd(f, frob, field)
        if degree(g) > 0:
            yield k, g
            f = _divmod(f, g, field)[0]
            frob = _divmod(frob, f, field)[1]


def _equal_degree_split(g, k, field):
    """Cantor-Zassenhaus: split a monic residue list g over F_p whose
    irreducible factors all have degree k (1 or 2) into monic factors of
    degree <= 2.

    The random splitting polynomials come from a private fixed-seed generator,
    so the factors found do not depend on any caller's random state; it is
    built at the first split.
    """
    rng, p = None, field.p
    e = (p ** k - 1) // 2
    work, done = [g], []
    while work:
        h = work.pop()
        if degree(h) <= 2:
            done.append(h)
            continue
        rng = rng or random.Random(0)
        while True:
            a = trim([rng.randrange(p) for _ in range(degree(h))])
            if degree(a) < 1:
                continue
            t = _powmod(a, e, h, field) or [0]
            t[0] = field.reduce(t[0] - 1)
            s = _gcd(trim(t), h, field)
            if 0 < degree(s) < degree(h):
                work += [s, _divmod(h, s, field)[0]]
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


def _split_rational_roots(g, field):
    """The residues of the roots of a monic residue list g over F_p that
    splits into distinct linear factors, ascending; a linear factor h is read
    as the binary quadratic h[1] u v + h[0] v^2, whose root (1 : 0) is
    dropped."""
    if degree(g) < 1:
        return []
    return sorted(u for h in _equal_degree_split(g, 1, field)
                  for u, v in fp_binary_quadratic_roots(*reversed((h + [0])[:3]), field.p) if v)


def fp_rational_roots(cs, p: int):
    """Roots in F_p with multiplicities, ascending by residue, and the cofactor
    left after dividing them out.  Degree <= 2 is solved directly: a linear
    solve, or ``fp_binary_quadratic_roots``."""
    field = PrimeField(p)
    f = trim(field.plain_list(cs)[0])
    if degree(f) <= 0:
        return [], field.from_plain(f)
    if degree(f) == 1:
        return [(field.coerce(-f[0] * pow(f[1], -1, p)), 1)], field.from_plain(f[1:])
    if degree(f) == 2:
        rs = sorted(u for u, _v in fp_binary_quadratic_roots(f[2], f[1], f[0], p))
        return [(field.coerce(r), 3 - len(rs)) for r in rs], field.from_plain(f[2:] if rs else f)
    out = []
    for r in _split_rational_roots(_frobenius_gcd(f, _powmod([0, 1], p, f, field), field), field):
        mult = 0
        while True:
            q, rem = _divmod(f, [-r % p, 1], field)
            if rem:
                break
            f, mult = q, mult + 1
        out.append((field.coerce(r), mult))
    return out, field.from_plain(f)


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


def eval_mod(cs, x: int, modulus: int) -> int:
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
    a = QQ.plain_list(f)[0]
    out = []
    if not a[0]:  # squarefree: t divides f once
        out.append(QQ.zero)
        a = a[1:]
    if len(a) < 2:
        return out
    p = max(5, len(a))  # p > deg f
    while True:
        if is_prime(p) and a[-1] % p:
            abar = [c % p for c in a]
            if is_squarefree(abar, PrimeField(p)):
                break
        p += 1
    da = [k * c for k, c in enumerate(a)][1:]
    bound = 2 * abs(a[0] * a[-1])
    for r, _mult in fp_rational_roots(abar, p)[0]:
        x, modulus = PrimeField(p).plain(r), p
        while modulus <= bound:
            modulus *= modulus
            x = (x - eval_mod(a, x, modulus) * pow(eval_mod(da, x, modulus), -1, modulus)) % modulus
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


def _field_label(domain):
    if isinstance(domain, RationalField):
        return "Q"
    if isinstance(domain, PrimeField):
        return f"F{domain.p}"
    if isinstance(domain, QuadraticExtension):
        return f"{_field_label(domain.base)}(sqrt {domain.base.plain(domain.d)})"
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
        for k, g in _distinct_degree(trim(domain.plain_list(f)[0]), domain):
            if k == 1:
                out += [RootEntry((r, domain.one), mult, 1, _field_label(domain), domain)
                        for r in domain.from_plain(_split_rational_roots(g, domain))]
            elif k == 2:
                out += [RootEntry(pt, mult, 1, _field_label(fld), fld)
                        for h in sorted(_equal_degree_split(g, 2, domain))
                        for pt, fld in low_degree_roots(domain.from_plain(h), domain)]
            else:
                out += [RootEntry(None, mult, k, _field_label(domain), domain)
                        for _ in range(degree(g) // k)]
        return out
    rest, out = f, []
    if isinstance(domain, RationalField):
        for r in _qq_rational_roots(f):
            out.append(RootEntry((r, QQ.one), mult, 1, _field_label(domain), domain))
            rest = _divmod(rest, [-r, 1], domain)[0]
    pts = low_degree_roots(rest, domain) if 1 <= degree(rest) <= 2 else []
    out += [RootEntry(pt, mult, 1, _field_label(fld), fld) for pt, fld in pts]
    if degree(rest) > 0 and not pts:
        out.append(RootEntry(None, mult, degree(rest), _field_label(domain), domain))
    return out


def fp_binary_quadratic_roots(a, b, c, p: int):
    """The distinct F_p-rational projective roots (u : v), as residue pairs, of
    the nonzero binary quadratic a u^2 + b u v + c v^2 with residues a, b, c;
    in the order of ``binary_quadratic_roots``: (1 : 0) first when a = 0, then
    (-b + s) / 2a before (-b - s) / 2a, s the square root of b^2 - 4ac that
    ``_sqrt_mod_p`` gives.  Empty when a != 0 and b^2 - 4ac is a non-square."""
    if not a:
        return [(1, 0)] + ([(-c * pow(b, -1, p) % p, 1)] if b else [])
    s = _sqrt_mod_p(b * b - 4 * a * c, p)
    if s is None:
        return []
    w = pow(2 * a, -1, p)
    return [((s - b) * w % p, 1)] + ([((-s - b) * w % p, 1)] if s else [])


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
