"""Exhaustive projective search over small finite fields.

``common_projective_zeros`` is the one exhaustive scan: it walks
P^(n-1)(F_q), q = p^k with k <= 3, a slice at a time and evaluates every form
at every point of a slice as the table of all monomials of one degree times
the forms' coefficients, until no point is left; the table is built a
degree at a time.  Over F_p the table is ``monomial_values`` and the
product ``form_values``; the scan finds the smoothness certificate's singular
witness and the brute-force line directions, the table fills the Koszul
evaluation matrix, and ``form_values`` evaluates the fibre restrictions of
the surface walk in ``tau`` and every form of the quotient spot checks in
``harness``.  Over F_(p^2) and F_(p^3), used by the
cross-checks of the elimination machinery, an element is the int vector of
its coefficients in a power basis and the products are taken with the field's
multiplication tensor (``_extension``).  The random samplers draw fixed-plane
points and curve slices in ``random_order``, only as many as they use.
"""

from __future__ import annotations

from functools import lru_cache
import itertools

import numpy as np

from . import linalg
from .forms import Form, monomial_index, monomials
from .scalars import FpElem, PrimeField


def projective_points_fp(nvars: int, p: int):
    field = PrimeField(p)
    one = field.one
    for lead in range(nvars):
        zeros = [field.zero] * lead
        for tail in itertools.product(range(p), repeat=nvars - lead - 1):
            yield tuple(zeros + [one] + [FpElem(t, p) for t in tail])


def random_order(rng, n: int):
    """range(n) in a uniformly random order drawn from ``rng`` as it is
    consumed: a sparse Fisher-Yates shuffle, which swaps entry
    j = rng.randrange(i, n) into place i and keeps only the moved entries in a
    dict, so that k draws cost O(k) time and memory whatever n is.  A
    generator; it ends after n draws."""
    moved = {}
    for i in range(n):
        j = rng.randrange(i, n)
        drawn = moved.get(j, j)
        moved[j] = moved.pop(i, i)
        yield drawn


def projective_point_slices(nvars: int, p: int):
    """The points of ``projective_points_fp(nvars, p)``, in its order, as int64
    arrays of residues, one point per row and at most p^max(nvars-2, 1) rows
    each.  Called with q = p^k, the same walk lists P^(nvars-1)(F_q) in
    element indices (``_extension``), the leading one being index 1."""
    for lead in range(nvars):
        free = nvars - lead - 1
        fixed = max(free - max(nvars - 2, 1), 0)   # leading free coordinates held per slice
        grid = np.indices((p,) * (free - fixed), dtype=np.int64)
        grid = grid.reshape(free - fixed, p ** (free - fixed)).T
        for head in itertools.product(range(p), repeat=fixed):
            pts = np.zeros((len(grid), nvars), dtype=np.int64)
            pts[:, lead] = 1
            pts[:, lead + 1:lead + 1 + fixed] = head
            pts[:, lead + 1 + fixed:] = grid
            yield pts


@lru_cache(maxsize=None)
def _monomial_steps(nvars: int, degree: int):
    """For each monomial of ``monomials(nvars, degree)``, degree >= 1, the index
    in ``monomials(nvars, degree - 1)`` of the monomial it comes from and the
    variable it adds, its first one: two index arrays, built on first use."""
    lower = monomial_index(nvars, degree - 1)
    steps = []
    for m in monomials(nvars, degree):
        i = next(i for i, e in enumerate(m) if e)
        steps.append((lower[m[:i] + (m[i] - 1,) + m[i + 1:]], i))
    return tuple(np.array(col, dtype=np.intp) for col in zip(*steps))


def monomial_values(pts, degree: int, p: int):
    """The table of every degree-``degree`` monomial, in ``monomials`` order, at
    every row of the integer point array ``pts``, mod p: entry (t, k) is
    pts[t]^m_k.  It is built a degree at a time, each monomial as the one it
    comes from (``_monomial_steps``) times the variable it adds.  int64 while
    a product of two residues fits in it (``linalg.residue_dtype``), else
    Python ints."""
    dtype = linalg.residue_dtype(p)
    table = np.ones((len(pts), 1), dtype=dtype)
    if degree:
        pts = np.array(pts, dtype=dtype) % p
    for k in range(1, degree + 1):
        parents, variables = _monomial_steps(pts.shape[1], k)
        table = table[:, parents] * pts[:, variables] % p
    return table


def coefficient_matrix(fs: list[Form], p: int):
    """The coefficients of the same-degree forms ``fs`` as residues mod p, one
    column per form: int64 when nterms * (p - 1)^2 < 2^63, so that no entry of
    ``monomial_values @ matrix`` overflows, else Python ints."""
    rows = [PrimeField(p).plain_list(f.coeffs)[0] for f in fs]
    fits = len(rows[0]) * (p - 1) ** 2 < 2 ** 63
    return np.array(rows, dtype=np.int64 if fits else object).T


def form_values(pts, degree: int, coeffs, p: int):
    """The value mod p of every form whose coefficients are a column of
    ``coeffs`` (``coefficient_matrix``) at every row of the point array
    ``pts``: one row per point, one column per form."""
    return monomial_values(pts, degree, p).astype(coeffs.dtype, copy=False) @ coeffs % p


@lru_cache(maxsize=None)
def _extension(p: int, k: int):
    """F_(p^k), k = 2 or 3, in the power basis mod the first rootless monic
    polynomial of degree k (lower coefficients in ``itertools.product`` order),
    which is irreducible since k <= 3; built on first use.

    Returns the q x k int64 array of the elements, element i holding the
    base-p digits of i least significant first, so that 0 and 1 are elements
    0 and 1; and the k^2 x k multiplication tensor, row k a + b holding x^(a+b)
    reduced mod the polynomial."""
    low = next(low for low in itertools.product(range(p), repeat=k)
               if all((x ** k + sum(c * x ** i for i, c in enumerate(low))) % p
                      for x in range(p)))
    powers = list(np.eye(k, dtype=np.int64))               # x^e for e < k
    while len(powers) < 2 * k - 1:                         # x^k = -sum low[i] x^i
        top = powers[-1]
        powers.append((np.concatenate(([0], top[:-1])) - top[-1] * np.array(low)) % p)
    tensor = np.array([powers[a + b] for a in range(k) for b in range(k)])
    elems = np.arange(p ** k)[:, None] // p ** np.arange(k) % p
    return elems, tensor


def _extension_product(a, b, tensor, p: int):
    """The product of F_(p^k) arrays of the same shape (..., k), mod p."""
    k = a.shape[-1]
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (k * k,)) @ tensor % p


def _extension_form_values(xs, degree: int, coeffs, p: int, tensor):
    """The value of every form whose coefficients are a column of ``coeffs``
    at every point of the F_(p^k) array ``xs`` (points, nvars, k): one row per
    point, one column per basis coordinate of each form's value."""
    table = np.broadcast_to(np.eye(1, xs.shape[2], dtype=np.int64), (len(xs), 1, xs.shape[2]))
    for k in range(1, degree + 1):
        parents, variables = _monomial_steps(xs.shape[1], k)
        table = _extension_product(table[:, parents], xs[:, variables], tensor, p)
    values = table.transpose(0, 2, 1).astype(coeffs.dtype, copy=False) @ coeffs % p
    return values.reshape(len(xs), xs.shape[2] * coeffs.shape[1])


def common_projective_zeros(fs: list[Form], p: int, ext_degree: int = 1, limit=None):
    """The common projective zeros of the F_p forms ``fs`` over
    F_q, q = p^ext_degree with ext_degree <= 3, by enumeration, at most
    ``limit`` of them.

    The forms may have mixed degrees.  Each slice of
    ``projective_point_slices(nvars, q)`` keeps the rows where every form's
    value is 0.  Over F_p the zeros come as ``FpElem`` tuples in
    ``projective_points_fp`` order; over F_q as tuples of k-tuples of residues
    (``_extension``), in the order of the element indices.
    """
    if ext_degree not in (1, 2, 3):
        raise ValueError(f"F_(p^k) is modelled for k = 1, 2, 3, not k = {ext_degree}")
    nvars = fs[0].num_vars
    by_degree: dict = {}
    for f in fs:
        by_degree.setdefault(f.degree, []).append(f)
    systems = [(d, coefficient_matrix(group, p)) for d, group in by_degree.items()]
    if ext_degree == 1:
        def values(rows, d, coeffs):
            return form_values(rows, d, coeffs, p)

        def point(row):
            return tuple(FpElem(v, p) for v in row)
    else:
        if ext_degree ** 2 * (p - 1) ** 3 >= 2 ** 63:
            raise ValueError(f"products in F_({p}^{ext_degree}) overflow int64")
        elems, tensor = _extension(p, ext_degree)
        elements = [tuple(e) for e in elems.tolist()]

        def values(rows, d, coeffs):
            return _extension_form_values(elems[rows], d, coeffs, p, tensor)

        def point(row):
            return tuple(elements[i] for i in row)
    out = []
    for rows in projective_point_slices(nvars, p ** ext_degree):
        for d, coeffs in systems:
            rows = rows[~values(rows, d, coeffs).any(axis=1)]
            if not len(rows):
                break
        out += [point(row) for row in rows.tolist()]
        if limit is not None and len(out) >= limit:
            return out[:limit]
    return out


def has_common_projective_zero(fs: list[Form], p: int, max_ext_degree: int = 3) -> bool:
    """Does the system vanish anywhere over F_p, F_(p^2), ..., F_(p^max),
    max <= 3?"""
    for k in range(1, max_ext_degree + 1):
        if common_projective_zeros(fs, p, k, limit=1):
            return True
    return False
