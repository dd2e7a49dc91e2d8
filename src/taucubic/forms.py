"""Dense homogeneous multivariate polynomial algebra.

A Form is a homogeneous polynomial in a fixed variable set, stored as the
dense coefficient vector over all monomials of its degree in graded
lexicographic order with x0 > x1 > x2 > x3 > x4.  That order is the one wire
format: every serialized coefficient vector uses it.

The elimination machinery (Sylvester resultants, the Macaulay resultant, and
the smoothness certificate over F_p built on it) lives here too, on the same
dense forms: Form is the package's one polynomial type.  The genericity gate
certifies plane cubics over F_p with it.

``sylvester_resultant``, ``compose_linear`` and products of forms take
their coefficients to plain numbers once (the domain's ``plain_list``), run
on coefficient lists, and build one Form at the end (``from_plain``): over Q
integers cleared of denominators, over F_p residues reduced once per step,
over a quadratic extension the elements themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import itertools
import random

import numpy as np

from . import linalg
from .scalars import PrimeField, reduce_mod_prime


class DimensionMismatch(ValueError):
    """Wrong number of variables or coordinates."""


class NotDivisible(ArithmeticError):
    """No exact polynomial quotient exists."""


class ZeroForm(ValueError):
    """Operation undefined on the zero form."""


class ResultantIndeterminate(ArithmeticError):
    """Macaulay quotient 0/0 persisted through coordinate-change retries."""


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, graded-lex descending."""
    if nvars <= 0:
        raise DimensionMismatch("need at least one variable")
    if nvars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> dict:
    return {m: i for i, m in enumerate(monomials(nvars, degree))}


@lru_cache(maxsize=None)
def _product_index(nvars: int, d1: int, d2: int) -> tuple[tuple[int, ...], ...]:
    """Row i lists where monomial i of degree d1 times each monomial of degree
    d2 lands among the monomials of degree d1 + d2."""
    idx = monomial_index(nvars, d1 + d2)
    return tuple(tuple(idx[tuple(a + b for a, b in zip(m1, m2))] for m2 in monomials(nvars, d2))
                 for m1 in monomials(nvars, d1))


def _add_product(acc, a, da, b, db, nvars):
    """Add to ``acc`` the product of the coefficient lists ``a`` (degree da)
    and ``b`` (degree db) in ``nvars`` variables; ``b`` is given as its
    nonzero (index, value) pairs."""
    for row, x in zip(_product_index(nvars, da, db), a):
        if x:
            for k, y in b:
                acc[row[k]] += x * y


def _times(a, da, b, db, nvars, p):
    """The product of two coefficient lists, reduced mod p when p is given."""
    acc = [0] * len(monomials(nvars, da + db))
    _add_product(acc, a, da, [(k, y) for k, y in enumerate(b) if y], db, nvars)
    return [v % p for v in acc] if p else acc


@dataclass(frozen=True)
class Form:
    """Homogeneous polynomial: dense coefficients in graded-lex monomial order."""

    domain: object
    num_vars: int
    degree: int
    coeffs: tuple

    def __post_init__(self):
        expected = len(monomials(self.num_vars, self.degree))
        if len(self.coeffs) != expected:
            raise DimensionMismatch(
                f"degree-{self.degree} form in {self.num_vars} variables needs "
                f"{expected} coefficients, got {len(self.coeffs)}")

    @classmethod
    def from_terms(cls, nvars, degree, terms, domain):
        """Build from {exponent_tuple: coefficient}; missing monomials are zero."""
        idx = monomial_index(nvars, degree)
        coeffs = [domain.zero] * len(idx)
        for e, c in terms.items():
            if len(e) != nvars or sum(e) != degree:
                raise DimensionMismatch(f"monomial {e} not of degree {degree} in {nvars} vars")
            coeffs[idx[e]] = domain.coerce(c)
        return cls(domain, nvars, degree, tuple(coeffs))

    @classmethod
    def zero_form(cls, nvars, degree, domain):
        return cls(domain, nvars, degree, tuple([domain.zero] * len(monomials(nvars, degree))))

    @property
    def is_zero(self):
        return all(not c for c in self.coeffs)

    def coefficient(self, exps):
        return self.coeffs[monomial_index(self.num_vars, self.degree)[exps]]

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if (other.num_vars, other.degree) != (self.num_vars, self.degree):
            raise DimensionMismatch("adding forms of different shape")
        return Form(self.domain, self.num_vars, self.degree,
                    tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if (other.num_vars, other.degree) != (self.num_vars, self.degree):
            raise DimensionMismatch("subtracting forms of different shape")
        return Form(self.domain, self.num_vars, self.degree,
                    tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Form(self.domain, self.num_vars, self.degree,
                    tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Form):
            if other.num_vars != self.num_vars:
                raise DimensionMismatch("multiplying forms in different rings")
            domain, n = self.domain, self.num_vars
            (a, sa), (b, sb) = domain.plain_list(self.coeffs), domain.plain_list(other.coeffs)
            product = _times(a, self.degree, b, other.degree, n, domain.modulus)
            return Form(domain, n, self.degree + other.degree,
                        tuple(domain.from_plain(product, sa * sb)))
        return Form(self.domain, self.num_vars, self.degree,
                    tuple(c * other for c in self.coeffs))

    def __rmul__(self, other):
        return self * other

    def scale(self, c):
        return Form(self.domain, self.num_vars, self.degree,
                    tuple(v * c for v in self.coeffs))

    def map_coefficients(self, func, new_domain):
        return Form(new_domain, self.num_vars, self.degree,
                    tuple(func(c) for c in self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        names = [f"x{i}" for i in range(self.num_vars)]
        parts = []
        for m, c in zip(monomials(self.num_vars, self.degree), self.coeffs):
            if not c:
                continue
            mon = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                           for i, e in enumerate(m) if e)
            parts.append(f"({c})" + (f"*{mon}" if mon else ""))
        return " + ".join(parts)


def evaluate(f: Form, point):
    """Value of f at a coordinate vector.

    Coordinates may live in the coefficient domain or an extension of it.
    """
    if len(point) != f.num_vars:
        raise DimensionMismatch(
            f"form in {f.num_vars} variables evaluated at {len(point)} coordinates")
    # cache coordinate powers up to the degree
    powers = []
    for x in point:
        row = [None, x]
        for _ in range(2, f.degree + 1):
            row.append(row[-1] * x)
        powers.append(row)
    total = None
    for m, c in zip(monomials(f.num_vars, f.degree), f.coeffs):
        if not c:
            continue
        term = c
        for i, e in enumerate(m):
            if e:
                term = term * powers[i][e]
        total = term if total is None else total + term
    if total is None:
        return f.domain.zero
    return total


def compose_linear(f: Form, rows) -> Form:
    """f with each old variable replaced by a linear combination of new ones.

    ``rows`` has one row per old variable; row length is the new variable
    count (rectangular rows restrict to a linear subspace).  The run is on
    plain numbers (``plain_list``): over Q, f is cleared by its L_f and all
    rows by one common L, so the result is divided by L_f * L^deg(f).  The
    powers of each substituted linear form are built once as coefficient
    lists, and each monomial's term is added into one list.
    """
    if len(rows) != f.num_vars:
        raise DimensionMismatch("substitution needs one row per variable")
    domain, m_new, degree = f.domain, len(rows[0]), f.degree
    p = domain.modulus
    cs, scale = domain.plain_list(f.coeffs)
    flat, row_scale = domain.plain_list([c for row in rows for c in row])
    powers = []
    for i in range(len(rows)):
        lin = flat[i * m_new:(i + 1) * m_new]
        pw = [None, lin]
        for e in range(2, degree + 1):
            pw.append(_times(pw[-1], e - 1, lin, 1, m_new, p))
        powers.append(pw)
    out = [0] * len(monomials(m_new, degree))
    for m, c in zip(monomials(f.num_vars, degree), cs):
        if not c:
            continue
        term, d = [1], 0
        for i, e in enumerate(m):
            if e:
                term = powers[i][e] if not d else _times(term, d, powers[i][e], e, m_new, p)
                d += e
        for k, v in enumerate(term):
            if v:
                out[k] += c * v
    if p:
        out = [v % p for v in out]
    coeffs = domain.from_plain(out, scale * row_scale ** degree)
    return Form(domain, m_new, degree, tuple(coeffs))


def partial_derivative(f: Form, var_index: int) -> Form:
    if not 0 <= var_index < f.num_vars:
        raise DimensionMismatch(f"variable index {var_index} out of range")
    if f.degree == 0:
        return f
    terms = {}
    for m, c in zip(monomials(f.num_vars, f.degree), f.coeffs):
        e = m[var_index]
        if not c or e == 0:
            continue
        new = list(m)
        new[var_index] -= 1
        terms[tuple(new)] = c * e
    return Form.from_terms(f.num_vars, f.degree - 1, terms, f.domain)


def exact_divide(f: Form, g: Form) -> Form:
    """Quotient q with f = g*q, or NotDivisible.

    The leading term of a form is its first nonzero coefficient in
    ``monomials`` order; each step cancels the remainder's leading term, so
    the next one comes later in that order.
    """
    if g.is_zero:
        raise ZeroForm("division by the zero form")
    if f.num_vars != g.num_vars:
        raise DimensionMismatch("dividing forms in different rings")
    if f.is_zero:
        raise NotDivisible("zero form has no well-defined homogeneous quotient here")
    if f.degree < g.degree:
        raise NotDivisible("degree of divisor exceeds degree of dividend")
    n, dq = f.num_vars, f.degree - g.degree
    lead = next(i for i, c in enumerate(g.coeffs) if c)
    ge, gc = monomials(n, g.degree)[lead], g.coeffs[lead]
    g_terms = [(k, b) for k, b in enumerate(g.coeffs) if b]
    table, q_index = _product_index(n, dq, g.degree), monomial_index(n, dq)
    r = list(f.coeffs)
    q = [f.domain.zero] * len(q_index)
    for k, re in enumerate(monomials(n, f.degree)):
        if not r[k]:
            continue
        diff = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in diff):
            raise NotDivisible("leading term not divisible")
        i = q_index[diff]
        q[i] = t = r[k] / gc
        for j, b in g_terms:
            r[table[i][j]] -= t * b
    return Form(f.domain, n, dq, tuple(q))


def _coeffs_in_var(values, f: Form, var: int) -> dict:
    """{k: coefficient list of x_var^k, a form in the other variables} for the
    plain coefficients ``values`` of f; only the nonzero lists are kept."""
    nv, out = f.num_vars - 1, {}
    for m, c in zip(monomials(f.num_vars, f.degree), values):
        if c:
            k = m[var]
            if k not in out:
                out[k] = [0] * len(monomials(nv, f.degree - k))
            out[k][monomial_index(nv, f.degree - k)[m[:var] + m[var + 1:]]] = c
    return out


def sylvester_resultant(f: Form, g: Form, eliminated_var: int) -> Form:
    """Resultant eliminating one variable; a form in the remaining variables.

    Convention: Res(f, g) = lc(f)^deg(g) * product of g over the roots of f,
    both degrees taken in the eliminated variable.

    The determinant of the Sylvester matrix, whose entries are forms in the
    remaining variables, is a Laplace expansion row by row over the column
    subsets, on plain coefficient lists (``plain_list``), reduced mod p once
    per row.  Over Q, f and g are cleared by L_f and L_g, so the result is
    divided by L_f^n * L_g^m for m, n their degrees in the eliminated variable.
    """
    if f.is_zero or g.is_zero:
        raise ZeroForm("resultant of a zero form")
    if f.num_vars != g.num_vars:
        raise DimensionMismatch("resultant of forms in different rings")
    domain, var, nv = f.domain, eliminated_var, f.num_vars - 1
    p = domain.modulus
    fv, f_scale = domain.plain_list(f.coeffs)
    gv, g_scale = domain.plain_list(g.coeffs)
    fc, gc = _coeffs_in_var(fv, f, var), _coeffs_in_var(gv, g, var)
    m, n = max(fc), max(gc)
    if m == 0 or n == 0:
        raise ZeroForm("form has degree zero in the eliminated variable")
    # row r: (column, degree, nonzero pairs, their negatives) of each nonzero
    # entry; the n rows of f and the m rows of g hold descending powers
    rows = []
    for shifts, coeffs, top, h in ((n, fc, m, f), (m, gc, n, g)):
        for i in range(shifts):
            row = []
            for k in range(top + 1):
                if top - k in coeffs:
                    nz = [(j, c) for j, c in enumerate(coeffs[top - k]) if c]
                    row.append((i + k, h.degree - top + k, nz, [(j, -c) for j, c in nz]))
            rows.append(row)
    minors = {0: (0, [1])}  # column set as a bit mask -> (degree, coefficients)
    for r, row in enumerate(rows):
        new: dict = {}
        for cols, (deg, val) in minors.items():
            for c, edeg, pos, neg in row:
                bit = 1 << c
                if cols & bit:
                    continue
                key = cols | bit
                if key not in new:
                    new[key] = (deg + edeg, [0] * len(monomials(nv, deg + edeg)))
                odd = (r + (cols & (bit - 1)).bit_count()) & 1
                _add_product(new[key][1], val, deg, neg if odd else pos, edeg, nv)
        minors = {}
        for key, (deg, acc) in new.items():
            if p:
                acc = [v % p for v in acc]
            if any(acc):
                minors[key] = (deg, acc)
    det = minors.get((1 << (m + n)) - 1)
    if det is None:
        return Form.zero_form(nv, f.degree * g.degree, domain)
    coeffs = domain.from_plain(det[1], f_scale ** n * g_scale ** m)
    return Form(domain, nv, det[0], tuple(coeffs))


@lru_cache(maxsize=None)
def _macaulay_plan(degrees: tuple, nvars: int):
    """Where the coefficients of forms of these degrees land in their Macaulay
    matrix: ``(size, rows, cols, src, keep)``, built once per shape.

    Row r belongs to the r-th monomial x^m of degree D = sum(d_i - 1) + 1: it
    holds form i times x^m / x_i^(d_i), for the first i with x_i^(d_i)
    dividing x^m.  Entry ``(rows[t], cols[t])`` is entry ``src[t]`` of the
    forms' coefficient vectors laid end to end.  ``keep`` lists the rows with
    more than one such i (the non-reduced ones), which index the minor.
    """
    big_d = sum(d - 1 for d in degrees) + 1
    idx = monomial_index(nvars, big_d)
    offsets = list(itertools.accumulate((len(monomials(nvars, d)) for d in degrees),
                                        initial=0))
    rows, cols, src, keep = [], [], [], []
    for r, mon in enumerate(monomials(nvars, big_d)):
        hits = [i for i, d in enumerate(degrees) if mon[i] >= d]
        i = hits[0]
        if len(hits) > 1:
            keep.append(r)
        shift = list(mon)
        shift[i] -= degrees[i]
        for k, m in enumerate(monomials(nvars, degrees[i])):
            rows.append(r)
            cols.append(idx[tuple(a + b for a, b in zip(m, shift))])
            src.append(offsets[i] + k)
    arrays = [np.array(v, dtype=np.intp) for v in (rows, cols, src, keep)]
    for v in arrays:
        v.flags.writeable = False
    return (len(idx), *arrays)


def _macaulay_quotient(fs: list[Form]):
    """det(M) / det(minor) for the Macaulay matrix M of fs, or None when the
    minor vanishes, in which case det(M) is never computed.  Over a prime
    field both are ``det_mod_p`` of residue arrays; over Q or an extension
    field, ``linalg.det`` of field elements."""
    size, rows, cols, src, keep = _macaulay_plan(tuple(f.degree for f in fs), fs[0].num_vars)
    domain = fs[0].domain
    p = domain.modulus
    if p:
        vals = np.array(domain.plain_list([c for f in fs for c in f.coeffs])[0],
                        dtype=linalg.residue_dtype(p))
        mat = np.zeros((size, size), dtype=vals.dtype)

        def det(m):
            return domain.coerce(linalg.det_mod_p(m, p))
    else:
        vals = np.array([c for f in fs for c in f.coeffs], dtype=object)
        mat = np.full((size, size), domain.zero, dtype=object)

        def det(m):
            return linalg.det(m.tolist(), domain)
    mat[rows, cols] = vals[src]
    d_minor = det(mat[np.ix_(keep, keep)]) if keep.size else domain.one
    if not d_minor:
        return None
    return det(mat) / d_minor


def macaulay_resultant(forms: list[Form]):
    """Classical Macaulay resultant of n forms in n variables.

    Zero exactly when the forms share a nonzero common solution over the
    algebraic closure.  The resultant is det(M) / det(minor) for the Macaulay
    matrix M and its non-reduced minor.  The minor's determinant comes first:
    when it vanishes, det(M) is skipped and the forms are retried after a
    random invertible change of variables A drawn from ``Random(0x5EED)``
    (the resultant picks up the factor det(A)^(product of the degrees), which
    is divided back out).
    """
    if not forms:
        raise DimensionMismatch("no forms given")
    nvars = forms[0].num_vars
    if len(forms) != nvars:
        raise DimensionMismatch(f"need exactly {nvars} forms in {nvars} variables")
    if any(f.num_vars != nvars for f in forms):
        raise DimensionMismatch("forms live in different rings")
    if any(f.degree < 1 for f in forms):
        raise DimensionMismatch("all forms must have positive degree")
    domain = forms[0].domain
    if any(f.is_zero for f in forms):
        # the resultant is homogeneous of positive degree in each form's
        # coefficients, so it vanishes on the zero form
        return domain.zero
    quotient = _macaulay_quotient(forms)
    if quotient is not None:
        return quotient
    rng = random.Random(0x5EED)
    deg_product = 1
    for f in forms:
        deg_product *= f.degree
    for _ in range(8):
        mat = [[domain.coerce(rng.randint(-3, 3)) for _ in range(nvars)]
               for _ in range(nvars)]
        det_a = linalg.det(mat, domain)
        if not det_a:
            continue
        quotient = _macaulay_quotient([compose_linear(f, mat) for f in forms])
        if quotient is not None:
            return quotient / det_a ** deg_product
    raise ResultantIndeterminate("Macaulay minor vanished for every tried coordinate change")


SMOOTH_CERTIFIED = "SmoothCertified"
SINGULAR_CERTIFIED = "SingularCertified"
INCONCLUSIVE = "Inconclusive"


@dataclass
class SmoothnessVerdict:
    status: str
    witness: tuple | None = None
    resultants: dict | None = None


def is_smooth_hypersurface(f: Form) -> SmoothnessVerdict:
    """Certified smoothness of the projective hypersurface f = 0 over F_p.

    The Macaulay resultant of the partials, computed in F_p itself, decides:
    SmoothCertified when it is nonzero.  When it vanishes (or stays 0/0) and
    P^(n-1)(F_p) has at most 25,000 points, the witness is the first common
    zero of the partials in ``projective_points_fp`` order, from the scan
    ``common_projective_zeros``; without one the verdict is Inconclusive.  A
    singular verdict always carries an exact witness where every partial
    vanishes.  Any other domain raises TypeError.  The genericity gate certifies
    its plane cubic f3 over F_p with it; X itself needs no certificate there
    (``tau.genericity_report``), and the tests use it as X's oracle.
    """
    if f.is_zero or f.degree < 1:
        raise ZeroForm("smoothness needs a nonzero form of positive degree")
    domain = f.domain
    if not isinstance(domain, PrimeField):
        raise TypeError(f"smoothness certificate not defined over {domain!r}")
    if f.degree == 1:
        return SmoothnessVerdict(SMOOTH_CERTIFIED, resultants={})
    p = domain.p
    partials = [partial_derivative(f, i) for i in range(f.num_vars)]
    try:
        res = macaulay_resultant(partials)
    except ResultantIndeterminate:
        res = None
    if res:
        return SmoothnessVerdict(SMOOTH_CERTIFIED, resultants={p: domain.plain(res)})
    resultants = {p: 0 if res is not None else None}
    if sum(p ** k for k in range(f.num_vars)) <= 25000:
        from .bruteforce import common_projective_zeros  # bruteforce imports this module
        witness = common_projective_zeros(partials, p, limit=1)
        if witness:
            return SmoothnessVerdict(SINGULAR_CERTIFIED, witness=witness[0],
                                     resultants=resultants)
    return SmoothnessVerdict(INCONCLUSIVE, resultants=resultants)


def jacobian_rank(gradients, point, domain) -> int:
    """Rank over ``domain`` of the Jacobian matrix at ``point`` of the forms
    whose gradients, lists of partial derivatives, are given."""
    return linalg.rank([[evaluate(g, point) for g in grad] for grad in gradients], domain)


@dataclass(frozen=True)
class SymMatrix3:
    """3x3 symmetric Gram matrix; entries are scalars or Forms.

    Convention q(v) = v^T M v, so off-diagonal entries are half the mixed
    coefficients.
    """

    entries: tuple

    def __post_init__(self):
        if len(self.entries) != 3 or any(len(r) != 3 for r in self.entries):
            raise DimensionMismatch("SymMatrix3 needs a 3x3 entry grid")
        for i in range(3):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("matrix is not symmetric")

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def gram_of_ternary(cls, q: Form):
        """Gram matrix of a quadratic form in 3 variables."""
        if q.num_vars != 3 or q.degree != 2:
            raise DimensionMismatch("expected a ternary quadratic form")
        half = q.domain.one / q.domain.coerce(2)

        def coef(i, j):
            e = [0, 0, 0]
            e[i] += 1
            e[j] += 1
            c = q.coefficient(tuple(e))
            return c if i == j else c * half

        return cls.from_rows([[coef(i, j) for j in range(3)] for i in range(3)])

    def det(self):
        ((a, b, c), (_, d, e), (_, _, f)) = self.entries
        return a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)


def is_smooth_conic(q: Form) -> bool:
    """Whether q = 0 is a smooth conic: its Gram matrix has rank 3, det != 0."""
    return bool(SymMatrix3.gram_of_ternary(q).det())


def reduce_form(f: Form, p: int) -> Form:
    """Coefficient-wise reduction of a rational form mod p."""
    return f.map_coefficients(lambda c: reduce_mod_prime(c, p), PrimeField(p))
