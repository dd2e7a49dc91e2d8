"""Exhaustive projective search over small finite fields.

Over a prime field ``common_projective_zeros`` is the production scan: it
walks P^(n-1)(F_p) a slice at a time and evaluates every form through
``monomial_values``, the table of all monomials of one degree at every point.
It finds the smoothness certificate's singular witness and the brute-force
line directions; the table also fills the Koszul evaluation matrix.  Over the
extension fields F_(p^k) (k <= 3), modelled minimally for the cross-checks of
the elimination machinery, the search goes point by point.
"""

from __future__ import annotations

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


def monomial_values(pts, degree: int, p: int):
    """The table of every degree-``degree`` monomial, in ``monomials`` order, at
    every row of the integer point array ``pts``, mod p: entry (t, k) is
    pts[t]^m_k.  int64 while a product of two residues fits in it
    (``linalg.residue_dtype``), else Python ints."""
    dtype = linalg.residue_dtype(p)
    pts = np.array(pts, dtype=dtype) % p
    exps = np.array(monomials(pts.shape[1], degree), dtype=np.intp)
    powers = [np.ones_like(pts)]
    for _ in range(degree):
        powers.append(powers[-1] * pts % p)
    powers = np.stack(powers, axis=2)          # powers[t, i, e] = x_i^e at point t
    table = np.ones((len(pts), len(exps)), dtype=dtype)
    for i in range(pts.shape[1]):
        table = table * powers[:, i, exps[:, i]] % p
    return table


def common_projective_zeros(fs: list[Form], p: int, ext_degree: int = 1, limit=None):
    """The common projective zeros of ``fs`` over F_(p^ext_degree), by
    enumeration, at most ``limit`` of them.

    Over F_p the forms may have mixed degrees; the zeros come as ``FpElem``
    tuples in ``projective_points_fp`` order.  Each slice of
    ``projective_point_slices`` keeps the rows where every form's value,
    ``monomial_values @ coefficients`` mod p, is 0; the product is taken in
    int64 when nterms * (p - 1)^2 < 2^63, else in Python ints.
    """
    nvars = fs[0].num_vars
    if ext_degree > 1:
        hits = (pt for pt in projective_points_gfq(nvars, GFq(p, ext_degree))
                if all(not evaluate(f, pt) for f in fs))
        return list(itertools.islice(hits, limit))
    field = PrimeField(p)
    by_degree: dict = {}
    for f in fs:
        by_degree.setdefault(f.degree, []).append([field.coerce(c).residue for c in f.coeffs])
    systems = []
    for d, rows in by_degree.items():
        fits = len(rows[0]) * (p - 1) ** 2 < 2 ** 63
        systems.append((d, np.array(rows, dtype=np.int64 if fits else object).T))
    out = []
    for pts in projective_point_slices(nvars, p):
        for d, coeffs in systems:
            values = monomial_values(pts, d, p).astype(coeffs.dtype, copy=False) @ coeffs
            pts = pts[~(values % p).any(axis=1)]
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
