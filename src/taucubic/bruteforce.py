"""Exhaustive projective search over small finite fields.

Over a prime field ``common_projective_zeros`` is the production scan: it
walks P^(n-1)(F_p) a slice at a time and evaluates every form through
``form_values``, the table of all monomials of one degree at every point
(``monomial_values``) times the forms' coefficients.  It finds the smoothness
certificate's singular witness and the brute-force line directions; the table
also fills the Koszul evaluation matrix, and ``form_values`` evaluates the
fibre restrictions of the surface walk in ``tau``.  Over the
extension fields F_(p^k) (k <= 3), modelled minimally for the cross-checks of
the elimination machinery, the search goes point by point.
"""

from __future__ import annotations

from functools import lru_cache
import itertools

import numpy as np

from . import linalg
from .forms import Form, evaluate, monomials
from .scalars import FpElem, PrimeField


class GFq:
    """F_(p^k) as polynomials mod a rootless monic polynomial of degree k."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.modulus = self._find_modulus(p, k)

    @staticmethod
    def _find_modulus(p: int, k: int):
        if k == 1:
            return (0, 1)
        # a quadratic or cubic with no roots in F_p is irreducible
        for tail in itertools.product(range(p), repeat=k):
            coeffs = tail + (1,)
            if all(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p
                   for x in range(p)):
                return coeffs
        raise ArithmeticError(f"no irreducible degree-{k} polynomial found over F_{p}")

    def elem(self, coeffs):
        c = tuple(int(x) % self.p for x in coeffs)
        return GFqElem(c + (0,) * (self.k - len(c)), self)

    @property
    def zero(self):
        return self.elem(())

    @property
    def one(self):
        return self.elem((1,))

    def all_elements(self):
        for tup in itertools.product(range(self.p), repeat=self.k):
            yield self.elem(tup)


class GFqElem:
    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field: GFq):
        self.coeffs = coeffs
        self.field = field

    def _lift(self, other):
        if isinstance(other, GFqElem):
            return other
        if isinstance(other, int):
            return self.field.elem((other,))
        if isinstance(other, FpElem):
            if other.p != self.field.p:
                raise ValueError("mixed characteristics")
            return self.field.elem((other.residue,))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return GFqElem(tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return GFqElem(tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)), self.field)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        p, k, mod = self.field.p, self.field.k, self.field.modulus
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    prod[i + j] = (prod[i + j] + a * b) % p
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for j in range(k):
                    prod[top - k + j] = (prod[top - k + j] - c * mod[j]) % p
        return GFqElem(tuple(prod[:k]), self.field)

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.field.p, self.field.modulus))

    def __repr__(self):
        return f"GF({self.field.p}^{self.field.k}){self.coeffs}"


def projective_points_gfq(nvars: int, field: GFq):
    """One representative per point of P^(nvars-1) over the extension field."""
    elems = list(field.all_elements())
    one = field.one
    zero = field.zero
    for lead in range(nvars):
        for tail in itertools.product(elems, repeat=nvars - lead - 1):
            yield tuple([zero] * lead + [one] + list(tail))


def projective_points_fp(nvars: int, p: int):
    field = PrimeField(p)
    one = field.one
    for lead in range(nvars):
        zeros = [field.zero] * lead
        for tail in itertools.product(range(p), repeat=nvars - lead - 1):
            yield tuple(zeros + [one] + [FpElem(t, p) for t in tail])


def projective_point_slices(nvars: int, p: int):
    """The points of ``projective_points_fp(nvars, p)``, in its order, as int64
    arrays of residues, one point per row and at most p^(nvars-2) rows each."""
    for lead in range(nvars):
        free = nvars - lead - 1
        fixed = max(free - max(nvars - 2, 0), 0)   # leading free coordinates held per slice
        grid = np.array(list(itertools.product(range(p), repeat=free - fixed)),
                        dtype=np.int64).reshape(p ** (free - fixed), free - fixed)
        for head in itertools.product(range(p), repeat=fixed):
            pts = np.zeros((len(grid), nvars), dtype=np.int64)
            pts[:, lead] = 1
            pts[:, lead + 1:lead + 1 + fixed] = head
            pts[:, lead + 1 + fixed:] = grid
            yield pts


@lru_cache(maxsize=None)
def _exponent_rows(nvars: int, degree: int):
    """``monomials(nvars, degree)`` as an index array, one row per monomial;
    built on first use."""
    return np.array(monomials(nvars, degree), dtype=np.intp).reshape(-1, nvars)


def monomial_values(pts, degree: int, p: int):
    """The table of every degree-``degree`` monomial, in ``monomials`` order, at
    every row of the integer point array ``pts``, mod p: entry (t, k) is
    pts[t]^m_k.  int64 while a product of two residues fits in it
    (``linalg.residue_dtype``), else Python ints."""
    dtype = linalg.residue_dtype(p)
    if degree == 0:
        return np.ones((len(pts), 1), dtype=dtype)
    pts = np.array(pts, dtype=dtype) % p
    exps = _exponent_rows(pts.shape[1], degree)
    powers = [np.ones_like(pts)]
    for _ in range(degree):
        powers.append(powers[-1] * pts % p)
    powers = np.stack(powers, axis=2)          # powers[t, i, e] = x_i^e at point t
    table = powers[:, 0, exps[:, 0]]
    for i in range(1, pts.shape[1]):
        table = table * powers[:, i, exps[:, i]] % p
    return table


def coefficient_matrix(fs: list[Form], p: int):
    """The coefficients of the same-degree forms ``fs`` as residues mod p, one
    column per form: int64 when nterms * (p - 1)^2 < 2^63, so that no entry of
    ``monomial_values @ matrix`` overflows, else Python ints."""
    field = PrimeField(p)
    rows = [[field.coerce(c).residue for c in f.coeffs] for f in fs]
    fits = len(rows[0]) * (p - 1) ** 2 < 2 ** 63
    return np.array(rows, dtype=np.int64 if fits else object).T


def form_values(pts, degree: int, coeffs, p: int):
    """The value mod p of every form whose coefficients are a column of
    ``coeffs`` (``coefficient_matrix``) at every row of the point array
    ``pts``: one row per point, one column per form."""
    return monomial_values(pts, degree, p).astype(coeffs.dtype, copy=False) @ coeffs % p


def common_projective_zeros(fs: list[Form], p: int, ext_degree: int = 1, limit=None):
    """The common projective zeros of ``fs`` over F_(p^ext_degree), by
    enumeration, at most ``limit`` of them.

    Over F_p the forms may have mixed degrees; the zeros come as ``FpElem``
    tuples in ``projective_points_fp`` order.  Each slice of
    ``projective_point_slices`` keeps the rows where every form's value
    (``form_values``) is 0.
    """
    nvars = fs[0].num_vars
    if ext_degree > 1:
        hits = (pt for pt in projective_points_gfq(nvars, GFq(p, ext_degree))
                if all(not evaluate(f, pt) for f in fs))
        return list(itertools.islice(hits, limit))
    by_degree: dict = {}
    for f in fs:
        by_degree.setdefault(f.degree, []).append(f)
    systems = [(d, coefficient_matrix(group, p)) for d, group in by_degree.items()]
    out = []
    for pts in projective_point_slices(nvars, p):
        for d, coeffs in systems:
            pts = pts[~form_values(pts, d, coeffs, p).any(axis=1)]
        out += [tuple(FpElem(v, p) for v in row) for row in pts.tolist()]
        if limit is not None and len(out) >= limit:
            return out[:limit]
    return out


def has_common_projective_zero(fs: list[Form], p: int, max_ext_degree: int = 3) -> bool:
    """Does the system vanish anywhere over F_q, F_(q^2), ..., F_(q^max)?"""
    for k in range(1, max_ext_degree + 1):
        if common_projective_zeros(fs, p, k, limit=1):
            return True
    return False
