"""Univariate polynomial helpers over the exact domains.

Polynomials are plain coefficient lists in ascending order.  The main
consumers are the plane-curve eliminants: a binary form of degree d is turned
into a root ledger whose entries are either explicit points (rational over
the working field or over one quadratic extension) or conjugate clusters of
higher degree, each with its intersection multiplicity.  Multiplicity totals
and squarefreeness never require leaving the base field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .scalars import (FpElem, PrimeField, QQ, QuadElem, QuadraticExtension,
                      RationalField, quad_sqrt, _sqrt_mod_p)


def trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def degree(cs) -> int:
    return len(cs) - 1


def is_zero(cs) -> bool:
    return not cs


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
# root extraction


def fp_rational_roots(cs, p: int):
    """Roots in F_p with multiplicities, by scanning and deflating."""
    domain = PrimeField(p)
    cs = trim(list(cs))
    out = []
    for r in range(p):
        x = FpElem(r, p)
        if eval_poly(cs, x, domain):
            continue
        mult = 0
        while not eval_poly(cs, x, domain):
            cs = divmod_poly(cs, [-x, domain.one], domain)[0]
            mult += 1
        out.append((x, mult))
        if degree(cs) <= 0:
            break
    return out, cs


def canonical_quadratic_ext(p: int) -> QuadraticExtension:
    """F_p(sqrt(D)) for the smallest positive non-residue D."""
    fp = PrimeField(p)
    d = 2
    while _sqrt_mod_p(d, p) is not None:
        d += 1
    return QuadraticExtension(fp, d)


def _equal_degree_split_quadratics(cs, p: int, rng: random.Random):
    """Split a squarefree product of irreducible quadratics over F_p."""
    domain = PrimeField(p)
    work = [scale(cs, domain.one / cs[-1])]
    done = []
    while work:
        h = work.pop()
        if degree(h) == 2:
            done.append(h)
            continue
        while True:
            a = [domain.coerce(rng.randrange(p)) for _ in range(degree(h))]
            a = trim(a)
            if degree(a) < 1:
                continue
            t = powmod(a, (p * p - 1) // 2, h, domain)
            t = add(t, [-domain.one])
            g = gcd(t, h, domain)
            if 0 < degree(g) < degree(h):
                work.append(g)
                work.append(divmod_poly(h, g, domain)[0])
                break
    return done


def solve_monic_quadratic_fp(b, c, ext: QuadraticExtension):
    """Roots of x^2 + b x + c (b, c in F_p) inside F_p(sqrt(D))."""
    fp = ext.base
    p = fp.p
    disc = b * b - 4 * c
    if not disc:
        r = -b / fp.coerce(2)
        return [ext.coerce(r)]
    s = _sqrt_mod_p(disc.residue, p)
    if s is not None:
        sq = ext.coerce(FpElem(s, p))
    else:
        # disc/D is then a residue; sqrt(disc) = sqrt(disc/D) * sqrt(D)
        ratio = (disc / ext.d).residue
        s2 = _sqrt_mod_p(ratio, p)
        sq = QuadElem(fp.zero, FpElem(s2, p), ext)
    half = ext.coerce(fp.one / fp.coerce(2))
    mb = ext.coerce(-b)
    return [(mb + sq) * half, (mb - sq) * half]


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


def binary_form_roots(coeffs_asc, domain, rng: random.Random | None = None) -> BinaryRootLedger:
    """Root ledger of a binary form f(x, y) = sum c_i x^i y^(d-i).

    Input is the list [c_0, ..., c_d] (ascending in x).  The point (1:0) is
    handled through the y-degree drop; finite roots come from f(t, 1).
    """
    rng = rng or random.Random(1)
    cs = trim(list(coeffs_asc))
    if not cs:
        raise ValueError("zero binary form has no root ledger")
    d = len(coeffs_asc) - 1
    ledger = BinaryRootLedger(total_degree=d)
    m = degree(cs)
    if m < d:
        ledger.entries.append(RootEntry((domain.one, domain.zero), d - m, 1,
                                        _field_label(domain), domain))
    if m == 0:
        return ledger
    for factor, mult in squarefree_decomposition(cs, domain):
        _collect_roots_of_squarefree(factor, mult, domain, ledger, rng)
    return ledger


def _collect_roots_of_squarefree(f, mult, domain, ledger, rng):
    label = _field_label(domain)
    if isinstance(domain, PrimeField):
        p = domain.p
        rational, rest = fp_rational_roots(f, p)
        for r, k in rational:
            ledger.entries.append(RootEntry((r, domain.one), mult * k, 1, label, domain))
        if degree(rest) <= 0:
            return
        # quadratic-orbit part: factors dividing x^(p^2) - x
        frob2 = powmod([domain.zero, domain.one], p * p, rest, domain)
        quad_part = gcd(sub(frob2, [domain.zero, domain.one], domain), rest, domain)
        residual = divmod_poly(rest, quad_part, domain)[0] if degree(quad_part) > 0 else rest
        if degree(quad_part) > 0:
            ext = canonical_quadratic_ext(p)
            for q in _equal_degree_split_quadratics(quad_part, p, rng):
                b, c = q[1] / q[2], q[0] / q[2]
                for root in solve_monic_quadratic_fp(b, c, ext):
                    ledger.entries.append(RootEntry((root, ext.one), mult, 1,
                                                    _field_label(ext), ext))
        if degree(residual) > 0:
            for deg_k, count in _distinct_degree_profile(residual, p):
                for _ in range(count):
                    ledger.entries.append(RootEntry(None, mult, deg_k, label, domain))
        return
    if isinstance(domain, RationalField):
        rest = list(f)
        for r, k in _rational_roots_qq(rest):
            ledger.entries.append(RootEntry((r, domain.one), mult * k, 1, label, domain))
            for _ in range(k):
                rest = divmod_poly(rest, [-r, QQ.one], domain)[0]
        if degree(rest) <= 0:
            return
        if degree(rest) == 2:
            a, b, c = rest[2], rest[1], rest[0]
            disc = b * b - 4 * a * c
            root, fld = quad_sqrt(disc, QQ)
            if fld is QQ:
                # squarefree input: disc = 0 cannot happen here
                for sgn in (root, -root):
                    t = (-b + sgn) / (2 * a)
                    ledger.entries.append(RootEntry((t, QQ.one), mult, 1, label, QQ))
            else:
                half = fld.one / fld.coerce(2)
                inv_a = fld.coerce(QQ.one / a)
                for sgn in (root, -root):
                    t = (fld.coerce(-b) + sgn) * half * inv_a
                    ledger.entries.append(RootEntry((t, fld.one), mult, 1,
                                                    _field_label(fld), fld))
            return
        ledger.entries.append(RootEntry(None, mult, degree(rest), label, domain))
        return
    # quadratic extensions: explicit roots only for degree <= 2 remainders
    rest = list(f)
    changed = True
    while degree(rest) >= 1 and changed:
        changed = False
        if degree(rest) == 1:
            r = -rest[0] / rest[1]
            ledger.entries.append(RootEntry((r, domain.one), mult, 1, label, domain))
            return
        if degree(rest) == 2:
            a, b, c = rest[2], rest[1], rest[0]
            disc = b * b - 4 * a * c
            s = domain.sqrt_or_none(disc)
            if s is not None:
                half = domain.one / domain.coerce(2)
                for sgn in (s, -s):
                    t = (-b + sgn) * half / a
                    ledger.entries.append(RootEntry((t, domain.one), mult, 1, label, domain))
                return
            ledger.entries.append(RootEntry(None, mult, 2, label, domain))
            return
    if degree(rest) > 0:
        ledger.entries.append(RootEntry(None, mult, degree(rest), label, domain))


def _distinct_degree_profile(f, p: int):
    """[(degree, count)] of irreducible factors of a squarefree poly over F_p."""
    domain = PrimeField(p)
    f = scale(list(f), domain.one / f[-1])
    x = [domain.zero, domain.one]
    frob = x
    out = []
    k = 0
    while degree(f) > 0:
        k += 1
        if 2 * k > degree(f):
            out.append((degree(f), 1))
            break
        frob = powmod(frob, p, f, domain) if k > 1 else powmod(x, p, f, domain)
        g = gcd(sub(frob, x, domain), f, domain)
        if degree(g) > 0:
            out.append((k, degree(g) // k))
            f = divmod_poly(f, g, domain)[0]
            frob = divmod_poly(frob, f, domain)[1] if degree(f) > 0 else frob
    return out


def _divisors(n: int, cap: int = 20000):
    """Divisors of n; best effort for huge n (trial division stops at cap).

    Beyond the cap the enumeration may miss divisors with two large prime
    factors; callers treat root extraction as best effort and fall back to
    cluster entries, so totals stay correct.
    """
    n = abs(n)
    if n == 0:
        return []
    factors = {}
    d = 2
    while d * d <= n and d <= cap:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for prime, mult in factors.items():
        divs = [dv * prime ** k for dv in divs for k in range(mult + 1)]
    return sorted(divs)


def _rational_roots_qq(cs):
    """Rational roots with multiplicities via the rational root theorem."""
    from math import lcm

    cs = trim(list(cs))
    if degree(cs) <= 0:
        return []
    den = lcm(*[c.denominator for c in cs])
    ints = [int(c * den) for c in cs]
    # strip powers of t
    shift = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        shift += 1
    out = []
    if shift:
        out.append((QQ.zero, shift))
    if not ints or len(ints) == 1:
        return out
    from fractions import Fraction
    for num in _divisors(ints[0]):
        for dnm in _divisors(ints[-1]):
            for s in (1, -1):
                cand = Fraction(s * num, dnm)
                if eval_poly(cs, cand, QQ):
                    continue
                k = 0
                probe = list(cs)
                while not eval_poly(probe, cand, QQ):
                    probe = divmod_poly(probe, [-cand, QQ.one], QQ)[0]
                    k += 1
                    if degree(probe) < 0:
                        break
                if k and all(r != cand for r, _ in out):
                    out.append((cand, k))
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
