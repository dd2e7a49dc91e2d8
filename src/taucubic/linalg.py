"""Exact linear algebra over any of the coefficient domains.

Small dense matrices only (the largest exact case is 36x36 over Q).  Row
reduction and ranks are plain Gauss with first-nonzero pivoting.  ``det`` is
fraction-free (Bareiss): over Q it runs on integers, each row cleared of its
denominators once by the domain's ``plain_list``.  Determinants of the big
Macaulay matrices and ranks of sampled evaluation matrices are taken mod p by
one numpy forward elimination with delayed reduction.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .scalars import RationalField


def rref(rows, domain):
    """Reduced row echelon form; returns (matrix, pivot_column_list)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = domain.one / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows, domain) -> int:
    return len(rref(rows, domain)[1])


def nullspace(rows, domain):
    """Basis of the right kernel, as a list of coordinate vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, domain)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [domain.zero] * ncols
        v[fc] = domain.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def proportional(u, v) -> bool:
    """Whether the vectors u and v are proportional: every 2x2 minor vanishes."""
    return all(not (u[i] * v[j] - u[j] * v[i])
               for i in range(len(u)) for j in range(i + 1, len(u)))


def det(rows, domain):
    """Determinant by fraction-free (Bareiss) elimination with first-nonzero
    pivoting.

    Step k replaces each entry below and right of the pivot by the 2x2 minor
    with the pivot, divided exactly by the previous pivot.  Over Q each row is
    first cleared by the domain's ``plain_list``, the loop divides integers
    with ``//``, and the result is divided by the product of the row scales;
    over any other field the loop divides the elements with ``/``.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if not n:
        return domain.one
    rational = isinstance(domain, RationalField)
    if rational:
        m, scales = map(list, zip(*map(domain.plain_list, rows)))
    else:
        m = [[domain.coerce(x) for x in r] for r in rows]
    div = operator.floordiv if rational else operator.truediv
    negate, prev = False, 1
    for k in range(n):
        pr = next((i for i in range(k, n) if m[i][k]), None)
        if pr is None:
            return domain.zero
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            negate = not negate
        piv, tail = m[k][k], m[k][k + 1:]
        for i in range(k + 1, n):
            row, a = m[i], m[i][k]
            row[k + 1:] = [div(piv * x - a * y, prev) for x, y in zip(row[k + 1:], tail)]
        prev = piv
    value = -prev if negate else prev
    return Fraction(value, math.prod(scales)) if rational else value


def residue_dtype(p: int):
    """int64 while a product of two residues mod p fits in it (p < 2^31), else
    Python ints."""
    return np.int64 if p < 2 ** 31 else object


def _residue_array(mat, p: int):
    return np.asarray(mat, dtype=residue_dtype(p)) % p


def _headroom(p: int) -> int:
    """Elimination steps an int64 entry in [0, p) survives unreduced: each step
    subtracts a product of two residues, at most (p - 1)^2."""
    return max(1, (2 ** 63 - p) // (p - 1) ** 2)


def _echelon_pivots(a, p: int):
    """Forward Gaussian elimination of the residue array ``a`` mod p, in place.

    Yields ``(column, pivot, swapped)`` for each pivot before eliminating below
    it, so a caller may stop early.  Each step reduces only the pivot column
    and the pivot row; the trailing block is reduced only when one more
    unreduced step could overflow int64 (the same schedule keeps the Python
    ints of p >= 2^31 small).
    """
    nrows, ncols = a.shape
    headroom = _headroom(p)
    pending = 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            return
        col = a[r:, c] % p
        a[r:, c] = col
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        yield c, int(a[r, c]), i != r
        if r + 1 < nrows and c + 1 < ncols:
            a[r, c + 1:] %= p
            factors = a[r + 1:, c] * pow(int(a[r, c]), -1, p) % p
            rows = np.flatnonzero(factors)
            if rows.size:
                if pending == headroom:
                    a[r + 1:, c + 1:] %= p
                    pending = 0
                a[r + 1 + rows, c + 1:] -= np.outer(factors[rows], a[r, c + 1:])
                pending += 1
        r += 1


def det_mod_p(mat, p: int) -> int:
    """Determinant mod p of an integer matrix, by one forward elimination.

    Entries are reduced lazily: each step reduces the pivot column and row,
    and the trailing block only when another step could overflow int64,
    after about 2^63 / (p - 1)^2 steps (never, for a 210x210 matrix mod 101).
    """
    a = _residue_array(mat, p)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    detval, pivots = 1, 0
    for c, piv, swapped in _echelon_pivots(a, p):
        if c != pivots:
            return 0
        detval = (-detval if swapped else detval) * piv % p
        pivots += 1
    return detval if pivots == n else 0


def rank_mod_p(mat, p: int) -> int:
    """Rank mod p of an integer matrix: the pivot count of one forward elimination."""
    a = _residue_array(mat, p)
    if a.size == 0:
        return 0
    return sum(1 for _ in _echelon_pivots(a, p))
