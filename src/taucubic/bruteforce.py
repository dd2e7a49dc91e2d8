"""Exhaustive projective search oracles over small finite fields.

These are the independent cross-checks for the elimination machinery: they
enumerate P^(n-1)(F_q^k) directly, with a minimal tuple-based model of the
extension fields F_(p^k) (k <= 3) that exists purely for the oracle's sake.
"""

from __future__ import annotations

import itertools

import numpy as np

from .forms import Form, evaluate
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


def common_projective_zeros(fs: list[Form], p: int, ext_degree: int = 1, limit=None):
    """All common projective zeros over F_(p^ext_degree), by enumeration."""
    nvars = fs[0].num_vars
    out = []
    if ext_degree == 1:
        points = projective_points_fp(nvars, p)
    else:
        points = projective_points_gfq(nvars, GFq(p, ext_degree))
    for pt in points:
        if all(not evaluate(f, pt) for f in fs):
            out.append(pt)
            if limit is not None and len(out) >= limit:
                break
    return out


def has_common_projective_zero(fs: list[Form], p: int, max_ext_degree: int = 3) -> bool:
    """Does the system vanish anywhere over F_q, F_(q^2), ..., F_(q^max)?"""
    for k in range(1, max_ext_degree + 1):
        if common_projective_zeros(fs, p, k, limit=1):
            return True
    return False
