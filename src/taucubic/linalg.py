"""Exact linear algebra over any of the coefficient domains.

Small dense matrices only (the largest exact case is 36x36 over Q); the
elimination is plain Gauss with first-nonzero pivoting.  Determinants of the
big Macaulay matrices are taken mod p through the numpy fast path.
"""

from __future__ import annotations

import numpy as np


def _clone(rows):
    return [list(r) for r in rows]


def rref(rows, domain):
    """Reduced row echelon form; returns (matrix, pivot_column_list)."""
    m = _clone(rows)
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


def det(rows, domain):
    """Determinant by fraction-full Gaussian elimination."""
    m = _clone(rows)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    result = domain.one
    for k in range(n):
        pr = next((i for i in range(k, n) if m[i][k]), None)
        if pr is None:
            return domain.zero
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            result = -result
        piv = m[k][k]
        result = result * piv
        inv = domain.one / piv
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return result


def solve(rows, rhs, domain):
    """One solution of A x = b, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, domain)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [domain.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def _residue_array(mat, p: int):
    """Residues mod p as an int64 array while a product of two residues fits in
    int64 (p < 2^31), else as an array of Python ints."""
    return np.asarray(mat, dtype=np.int64 if p < 2 ** 31 else object) % p


def det_mod_p(mat, p: int) -> int:
    """Determinant mod p of an integer matrix, vectorized elimination."""
    a = _residue_array(mat, p)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    detval = 1
    for k in range(n):
        nz = np.nonzero(a[k:, k])[0]
        if nz.size == 0:
            return 0
        i = k + int(nz[0])
        if i != k:
            a[[k, i]] = a[[i, k]]
            detval = -detval
        piv = int(a[k, k])
        detval = detval * piv % p
        if k + 1 < n:
            factors = a[k + 1:, k] * pow(piv, -1, p) % p
            a[k + 1:, k:] = (a[k + 1:, k:] - np.outer(factors, a[k, k:])) % p
    return detval % p


def rank_mod_p(mat, p: int) -> int:
    a = _residue_array(mat, p)
    if a.size == 0:
        return 0
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        r += 1
        if r == nrows:
            break
    return r
