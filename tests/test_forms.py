"""Polynomial algebra: evaluation, substitution, division, resultants,
smoothness certificates, and their randomized property suites."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from taucubic import linalg
from taucubic.bruteforce import (common_projective_zeros, has_common_projective_zero,
                                 monomial_values, projective_points_fp)
from taucubic.forms import (DimensionMismatch, Form, NotDivisible, SymMatrix3, ZeroForm,
                            _product_index, compose_linear, evaluate, exact_divide,
                            is_smooth_conic, is_smooth_hypersurface, macaulay_resultant,
                            monomials, partial_derivative, reduce_form, sylvester_resultant,
                            SMOOTH_CERTIFIED, SINGULAR_CERTIFIED, INCONCLUSIVE)
from taucubic.scalars import PrimeField, QQ, QuadraticExtension
from taucubic.tau import _draw_instance


def f_of(nvars, degree, terms, domain=QQ):
    return Form.from_terms(nvars, degree, terms, domain)


def rand_form(rng, nvars, degree, domain=QQ, bound=5, sparse=False):
    terms = {}
    for m in monomials(nvars, degree):
        if sparse and rng.random() < 0.5:
            continue
        terms[m] = domain.coerce(rng.randint(-bound, bound))
    return Form.from_terms(nvars, degree, terms, domain)


CONIC = f_of(3, 2, {(1, 1, 0): 4, (0, 0, 2): -1})          # 4*x2*x3 - x4^2
FERMAT3 = f_of(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})


# --- evaluation ---------------------------------------------------------


def test_evaluate_gaussian_point():
    ext = QuadraticExtension(QQ, Fraction(-1))
    f = f_of(2, 2, {(2, 0): 1, (0, 2): 1})
    assert not evaluate(f, (ext.one, ext.sqrt_d))


def test_evaluate_fermat_symmetry():
    f = f_of(5, 3, {(0, 0, 3, 0, 0): 1, (0, 0, 0, 3, 0): 1, (0, 0, 0, 0, 3): 1})
    pt = tuple(QQ.coerce(c) for c in (0, 0, 1, -1, 0))
    assert not evaluate(f, pt)


def test_evaluate_conic():
    # 4*1*1 - 2^2 = 0
    pt = tuple(QQ.coerce(c) for c in (0, 0, 2))
    assert evaluate(CONIC, (QQ.coerce(1), QQ.coerce(1), QQ.coerce(2))) == 0


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(CONIC, (QQ.one, QQ.one))


def test_homogeneity_scaling():
    rng = random.Random(3)
    f = rand_form(rng, 4, 3)
    pt = tuple(QQ.coerce(rng.randint(-4, 4)) for _ in range(4))
    lam = Fraction(3, 2)
    scaled = tuple(lam * c for c in pt)
    assert evaluate(f, scaled) == lam ** 3 * evaluate(f, pt)


# --- substitution -------------------------------------------------------


def _identity(n):
    return [[QQ.one if i == j else QQ.zero for j in range(n)] for i in range(n)]


def test_substitute_identity():
    rng = random.Random(5)
    f = rand_form(rng, 5, 2)
    assert compose_linear(f, _identity(5)) == f


def test_substitute_swap():
    f = f_of(5, 2, {(2, 0, 0, 0, 0): 1})
    m = _identity(5)
    m[0], m[1] = m[1], m[0]
    assert compose_linear(f, m) == f_of(5, 2, {(0, 2, 0, 0, 0): 1})


def test_substitute_involution_fixes_x0x1():
    f = f_of(5, 2, {(1, 1, 0, 0, 0): 1})
    tau = [[QQ.coerce(-1 if i < 2 else 1) if i == j else QQ.zero for j in range(5)]
           for i in range(5)]
    assert compose_linear(f, tau) == f


def test_substitute_composition_law():
    rng = random.Random(11)
    f = rand_form(rng, 3, 3)
    m = [[QQ.coerce(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    n = [[QQ.coerce(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    mn = [[sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert compose_linear(compose_linear(f, m), n) == compose_linear(f, mn)


# --- products and substitution against pointwise evaluation -------------


def _least_nonresidue_extension(fld):
    return QuadraticExtension(fld, next(d for d in range(2, fld.p)
                                        if fld.sqrt_or_none(d) is None))


F11 = PrimeField(11)
F101 = PrimeField(101)
F101_EXT = _least_nonresidue_extension(F101)
# (domain of the form's coefficients, domain of the point's coordinates)
KERNEL_DOMAINS = {"QQ": (QQ, QQ), "F101": (F101, F101), "F101 at F101(sqrt D0)": (F101, F101_EXT),
                  "F101(sqrt D0)": (F101_EXT, F101_EXT)}


def _kernel_form(rng, nvars, degree, domain):
    """A random form, with about half its coefficients zero every other draw."""
    sparse = rng.random() < 0.5
    return Form(domain, nvars, degree,
                tuple(domain.zero if sparse and rng.random() < 0.5 else domain.random(rng, 9)
                      for _ in monomials(nvars, degree)))


@pytest.mark.parametrize("domains", KERNEL_DOMAINS.values(), ids=KERNEL_DOMAINS.keys())
def test_product_matches_pointwise(domains):
    fdom, xdom = domains
    rng = random.Random(31)
    for nvars in range(2, 7):
        for d1, d2 in ((0, 0), (0, 2), (1, 1), (2, 1), (1, 3), (3, 3)):
            f, g = _kernel_form(rng, nvars, d1, fdom), _kernel_form(rng, nvars, d2, fdom)
            x = [xdom.random(rng, 50) for _ in range(nvars)]
            assert evaluate(f * g, x) == evaluate(f, x) * evaluate(g, x), (nvars, d1, d2)


@pytest.mark.parametrize("domains", KERNEL_DOMAINS.values(), ids=KERNEL_DOMAINS.keys())
def test_compose_linear_matches_pointwise(domains):
    # rows of A are old variables, columns new ones: A is n_old x n_new
    fdom, xdom = domains
    rng = random.Random(37)
    for n_old, n_new in ((5, 6), (5, 3), (3, 2), (2, 2), (4, 4), (6, 5)):
        for degree in range(4):
            f = _kernel_form(rng, n_old, degree, fdom)
            A = [[fdom.random(rng, 9) for _ in range(n_new)] for _ in range(n_old)]
            if degree % 2:
                A[rng.randrange(n_old)] = [fdom.zero] * n_new
            y = [xdom.random(rng, 50) for _ in range(n_new)]
            x = [sum((a * v for a, v in zip(row, y)), xdom.zero) for row in A]
            g = compose_linear(f, A)
            assert (g.num_vars, g.degree) == (n_new, degree)
            assert evaluate(g, y) == evaluate(f, x), (n_old, n_new, degree)


# --- derivatives --------------------------------------------------------


def test_partial_cube():
    f = f_of(5, 3, {(3, 0, 0, 0, 0): 1})
    assert partial_derivative(f, 0) == f_of(5, 2, {(2, 0, 0, 0, 0): 3})


def test_partial_absent_variable():
    f = f_of(5, 3, {(0, 0, 3, 0, 0): 1, (0, 0, 0, 3, 0): 1, (0, 0, 0, 0, 3): 1})
    assert partial_derivative(f, 0).is_zero


def euler_sum(f):
    total = None
    for i in range(f.num_vars):
        e = tuple(1 if j == i else 0 for j in range(f.num_vars))
        xi = Form.from_terms(f.num_vars, 1, {e: f.domain.one}, f.domain)
        term = xi * partial_derivative(f, i)
        total = term if total is None else total + term
    return total


def test_euler_identity_conic():
    three_vars_conic = CONIC
    assert euler_sum(three_vars_conic) == three_vars_conic * 2


def test_euler_identity_randomized():
    rng = random.Random(17)
    for k in range(200):
        nvars = rng.choice([2, 3, 4, 5])
        degree = rng.choice([1, 2, 3, 4])
        if k % 3 == 0:
            domain = PrimeField(101)
        else:
            domain = QQ
        f = rand_form(rng, nvars, degree, domain, sparse=True)
        if f.is_zero:
            continue
        assert euler_sum(f) == f * degree


# --- exact division -----------------------------------------------------


def test_exact_divide_product():
    prod = CONIC * FERMAT3
    assert exact_divide(prod, CONIC) == FERMAT3
    assert exact_divide(prod, FERMAT3) == CONIC


def test_divide_by_self():
    q = exact_divide(CONIC, CONIC)
    assert q.degree == 0 and q.coeffs[0] == 1


def test_not_divisible():
    f = f_of(3, 5, {(5, 0, 0): 1})
    g = f_of(3, 1, {(0, 1, 0): 1})
    with pytest.raises(NotDivisible):
        exact_divide(f, g)


def test_divide_by_zero_form():
    with pytest.raises(ZeroForm):
        exact_divide(CONIC, Form.zero_form(3, 1, QQ))


# --- Sylvester resultant ------------------------------------------------


def test_resultant_linear_convention():
    # f = x - a, g = x - b in variables (x, a, b): the convention fixes a - b
    f = f_of(3, 1, {(1, 0, 0): 1, (0, 1, 0): -1})
    g = f_of(3, 1, {(1, 0, 0): 1, (0, 0, 1): -1})
    res = sylvester_resultant(f, g, 0)
    assert res == f_of(2, 1, {(1, 0): 1, (0, 1): -1})


def test_resultant_of_equal_forms_vanishes():
    assert sylvester_resultant(CONIC, CONIC, 0).is_zero


def test_resultant_conic_cubic_degree_six():
    res = sylvester_resultant(CONIC, FERMAT3, 0)
    # frozen from the rational-function elimination: x2 = x4^2/(4 x3) gives
    # (4 x3)^3 * (x3^3 + x4^3 + x4^6/(64 x3^3)) = 64 x3^6 + 64 x3^3 x4^3 + x4^6
    assert res == f_of(2, 6, {(6, 0): 64, (3, 3): 64, (0, 6): 1})


def test_resultant_zero_form_rejected():
    with pytest.raises(ZeroForm):
        sylvester_resultant(Form.zero_form(3, 2, QQ), FERMAT3, 0)


def test_resultant_multiplicativity():
    rng = random.Random(23)
    done = 0
    while done < 200:
        domain = PrimeField(101) if done % 2 else QQ
        f = rand_form(rng, 3, rng.choice([1, 2]), domain, bound=4)
        g = rand_form(rng, 3, rng.choice([1, 2]), domain, bound=4)
        h = rand_form(rng, 3, rng.choice([1, 2]), domain, bound=4)
        try:
            lhs = sylvester_resultant(f, g * h, 0)
            rg = sylvester_resultant(f, g, 0)
            rh = sylvester_resultant(f, h, 0)
        except (ZeroForm, ValueError):
            continue
        done += 1
        rhs = rg * rh
        assert lhs == rhs or (lhs.is_zero and rhs.is_zero)


def test_reduction_commutes_with_operations():
    rng = random.Random(29)
    p = 101
    done = 0
    while done < 200:
        f = rand_form(rng, 3, rng.choice([1, 2, 3]), QQ, bound=6)
        g = rand_form(rng, 3, rng.choice([1, 2]), QQ, bound=6)
        if f.is_zero or g.is_zero:
            continue
        done += 1
        # evaluate
        pt = tuple(QQ.coerce(rng.randint(-5, 5)) for _ in range(3))
        from taucubic.scalars import reduce_mod_prime
        lhs = reduce_mod_prime(evaluate(f, pt), p)
        rhs = evaluate(reduce_form(f, p), tuple(reduce_mod_prime(c, p) for c in pt))
        assert lhs == rhs
        # exact divide
        prod = f * g
        assert reduce_form(exact_divide(prod, g), p) == exact_divide(
            reduce_form(prod, p), reduce_form(g, p))
        # resultant
        try:
            res_q = sylvester_resultant(f, g, 0)
            res_p = sylvester_resultant(reduce_form(f, p), reduce_form(g, p), 0)
        except ZeroForm:
            continue
        assert reduce_form(res_q, p) == res_p


# --- Macaulay resultant and smoothness ----------------------------------


def fermat(nvars, degree, domain=QQ):
    return Form.from_terms(
        nvars, degree,
        {tuple(degree if j == i else 0 for j in range(nvars)): domain.one
         for i in range(nvars)}, domain)


def test_macaulay_fermat_quadric_partials():
    parts = [partial_derivative(fermat(5, 2), i) for i in range(5)]
    assert macaulay_resultant(parts) == 32  # det of 2*identity


def test_macaulay_degenerate_cone():
    f = f_of(5, 3, {(3, 0, 0, 0, 0): 1})
    parts = [partial_derivative(f, i) for i in range(5)]
    assert macaulay_resultant(parts) == 0  # common zeros exist (the cone vertex plane)


def test_macaulay_fermat_cubic_partials_nonzero():
    # independent oracle: no common projective zero over F_7 or F_11 closures
    for p in (7, 11):
        parts = [reduce_form(partial_derivative(fermat(5, 3), i), p) for i in range(5)]
        assert not common_projective_zeros(parts, p, 1, limit=1)
    res = macaulay_resultant([partial_derivative(fermat(5, 3), i) for i in range(5)])
    assert res != 0


def test_macaulay_matches_bruteforce():
    # (nvars, q) pairs keep the exhaustive extension scans affordable
    shapes = [(2, 5, 3), (2, 7, 3), (2, 11, 3), (2, 13, 3), (3, 5, 2), (3, 7, 2)]
    rng = random.Random(31)
    done = 0
    while done < 200:
        nvars, q, max_ext = rng.choice(shapes)
        planted = done % 2 == 1
        domain = PrimeField(q)
        degs = [rng.choice([1, 2, 3] if nvars == 2 else [1, 2]) for _ in range(nvars)]
        if planted:
            # plant a common zero so the resultant must vanish
            pt = tuple(domain.coerce(rng.randrange(1, q)) for _ in range(nvars))
            fs = [_form_through(rng, nvars, d, domain, pt) for d in degs]
        else:
            fs = [rand_form(rng, nvars, d, domain, bound=q) for d in degs]
        if any(f.is_zero for f in fs):
            continue
        try:
            res = macaulay_resultant(fs)
        except Exception:
            continue
        done += 1
        if planted:
            assert res == 0
            continue
        found = has_common_projective_zero(fs, q, max_ext)
        if res != 0:
            assert not found
        elif nvars == 2:
            # binary forms: a vanishing resultant forces a shared root of
            # degree <= min(deg) <= 3, visible within the scanned extensions
            assert has_common_projective_zero(fs, q, 3)


def _form_through(rng, nvars, degree, domain, pt):
    """A random form vanishing at the given point."""
    mons = list(monomials(nvars, degree))
    while True:
        terms = {m: domain.coerce(rng.randint(-4, 4)) for m in mons[1:]}
        f = Form.from_terms(nvars, degree, terms, domain)
        val = evaluate(f, pt)
        lead_val = domain.one
        for c, e in zip(pt, mons[0]):
            lead_val = lead_val * c ** e if e else lead_val
        if lead_val:
            terms[mons[0]] = -val / lead_val
            f = Form.from_terms(nvars, degree, terms, domain)
            if not evaluate(f, pt):
                return f


def test_smooth_fermat_quadric():
    for p in (5, 7):
        v = is_smooth_hypersurface(reduce_form(fermat(5, 2), p))
        assert v.status == SMOOTH_CERTIFIED


def test_singular_with_witness():
    # x0^2 x1 is singular along a plane; the scan over P^4(F_7) finds a witness
    f = reduce_form(f_of(5, 3, {(2, 1, 0, 0, 0): 1}), 7)
    v = is_smooth_hypersurface(f)
    assert v.status == SINGULAR_CERTIFIED
    assert v.witness is not None
    for i in range(5):
        assert not evaluate(partial_derivative(f, i), v.witness)


def test_smoothness_certificate_rejects_rational_forms():
    # a rational form is certified through its reductions mod primes
    with pytest.raises(TypeError):
        is_smooth_hypersurface(fermat(5, 2))


CANONICAL_CUBIC = f_of(5, 3, {(2, 0, 1, 0, 0): 1, (0, 2, 0, 1, 0): 1,
                              (1, 1, 0, 0, 1): 1, (0, 0, 3, 0, 0): 1,
                              (0, 0, 0, 3, 0): 1, (0, 0, 0, 0, 3): 1})


def test_smoothness_canonical_cubic_good_primes():
    # frozen oracle run: the certificate residues mod 7 and 11 are nonzero
    for p, residue in ((7, 1), (11, 9)):
        v = is_smooth_hypersurface(reduce_form(CANONICAL_CUBIC, p))
        assert v.status == SMOOTH_CERTIFIED
        assert v.resultants == {p: residue}


def test_smoothness_canonical_cubic_bad_prime_five():
    # frozen oracle run: 5 divides the certificate integer, and the scan of
    # P^4(F_5) finds no singular point, so F_5 alone stays inconclusive while
    # 7 and 11 certify
    verdicts = {p: is_smooth_hypersurface(reduce_form(CANONICAL_CUBIC, p)) for p in (5, 7, 11)}
    assert {p: v.status for p, v in verdicts.items()} == {
        5: INCONCLUSIVE, 7: SMOOTH_CERTIFIED, 11: SMOOTH_CERTIFIED}
    assert verdicts[5].resultants == {5: 0} and verdicts[5].witness is None


def _slice_sizes(nvars, q, width):
    """Row counts of the slices of P^(nvars-1)(F_q) when a slice holds
    q^width rows or all the points with one leading coordinate, if fewer."""
    return [q ** min(free, width) for free in reversed(range(nvars))
            for _ in range(q ** max(free - width, 0))]


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_point_slices_follow_projective_points_fp(nvars):
    # nvars = 4 at p = 13 is the shape of the brute-force line directions:
    # 4 slices, the largest 13^3 rows.  A slice holds p^j rows, j the largest
    # with p^j <= max(p^max(nvars-2, 1), 4096)
    from taucubic.bruteforce import projective_point_slices
    p = 13 if nvars == 4 else 5
    slices = list(projective_point_slices(nvars, p))
    assert all(s.dtype == np.int64 and s.shape[1] == nvars for s in slices)
    width = max(j for j in range(64) if p ** j <= max(p ** max(nvars - 2, 1), 4096))
    assert [len(s) for s in slices] == _slice_sizes(nvars, p, width)
    assert nvars != 4 or len(slices) == 4
    assert [tuple(row) for s in slices for row in s.tolist()] == \
        [tuple(c.residue for c in pt) for pt in projective_points_fp(nvars, p)]


@pytest.mark.parametrize("nvars, q", [(3, 101), (4, 49), (4, 11), (5, 7)])
def test_point_slices_never_shrink(nvars, q):
    # against slices of q^max(nvars-2, 1) rows: P^2(F_101), the gate's witness
    # scan, keeps its 101-row slices and P^3(F_(7^2)) its 49^2-row ones;
    # P^3(F_11) and P^4(F_7) merge theirs
    from taucubic.bruteforce import projective_point_slices
    sizes = [len(s) for s in projective_point_slices(nvars, q)]
    before = _slice_sizes(nvars, q, max(nvars - 2, 1))
    assert sum(sizes) == sum(before)
    # every slice is a run of whole slices of the former rule, in order
    assert set(itertools.accumulate(sizes)) <= set(itertools.accumulate(before))
    assert (sizes == before) == (q ** (max(nvars - 2, 1) + 1) > 4096)


def _stacked_monomial_values(pts, degree, p):
    """The former ``monomial_values``, kept as an oracle: every coordinate's
    powers stacked per point, then one gather and product per variable."""
    dtype = linalg.residue_dtype(p)
    if degree == 0:
        return np.ones((len(pts), 1), dtype=dtype)
    pts = np.array(pts, dtype=dtype) % p
    exps = np.array(monomials(pts.shape[1], degree), dtype=np.intp).reshape(-1, pts.shape[1])
    powers = [np.ones_like(pts)]
    for _ in range(degree):
        powers.append(powers[-1] * pts % p)
    powers = np.stack(powers, axis=2)          # powers[t, i, e] = x_i^e at point t
    table = powers[:, 0, exps[:, 0]]
    for i in range(1, pts.shape[1]):
        table = table * powers[:, i, exps[:, i]] % p
    return table


@pytest.mark.parametrize("p", [7, 101, 4294967311])
def test_monomial_values_match_stacked_powers(p):
    # the degree-by-degree table against the stacked powers, on points with
    # coordinates outside [0, p) and a row of p - 1; 4294967311 takes the
    # Python-int path
    rng = random.Random(p)
    for nvars in range(1, 6):
        pts = [[rng.randrange(-p, 2 * p) for _ in range(nvars)] for _ in range(12)]
        pts.append([p - 1] * nvars)
        for degree in range(5):
            table, oracle = monomial_values(pts, degree, p), _stacked_monomial_values(pts, degree, p)
            assert table.dtype == oracle.dtype and table.shape == oracle.shape
            assert table.tolist() == oracle.tolist()


def _plain_common_zeros(fs, p, limit=None):
    """The common zeros of fs over F_p, one point and one form at a time."""
    out = []
    for pt in projective_points_fp(fs[0].num_vars, p):
        if all(not evaluate(f, pt) for f in fs):
            out.append(pt)
            if len(out) == limit:
                break
    return out


@pytest.mark.parametrize("p", [5, 7, 11])
def test_common_zero_scan_matches_plain_loop(p):
    # mixed-degree systems in 2-5 variables, every other one with a planted
    # common zero; the scan must give the plain loop's points in its order
    rng = random.Random(500 + p)
    domain = PrimeField(p)
    for k in range(16):
        nvars = 2 + k % 4
        if nvars == 5 and p == 11:
            nvars = 4                      # keeps the plain loop to 1,464 points
        degs = [rng.randint(1, 3) for _ in range(rng.randint(1, min(nvars, 3)))]
        if k % 2:
            pt = tuple(domain.coerce(rng.randrange(1, p)) for _ in range(nvars))
            fs = [_form_through(rng, nvars, d, domain, pt) for d in degs]
        else:
            fs = [rand_form(rng, nvars, d, domain, bound=p) for d in degs]
        plain = _plain_common_zeros(fs, p)
        if k % 2:
            assert plain
        assert common_projective_zeros(fs, p) == plain
        for limit in (1, 3):
            assert common_projective_zeros(fs, p, limit=limit) == plain[:limit]


def _rootless_low(p, k):
    """The lower coefficients of the first monic degree-k polynomial over F_p
    with no root there, in itertools.product order: irreducible for k <= 3."""
    return next(low for low in itertools.product(range(p), repeat=k)
                if all((x ** k + sum(c * x ** i for i, c in enumerate(low))) % p
                       for x in range(p)))


@functools.lru_cache(maxsize=None)
def _gf_mul(a, b, low, p):
    """The product of two coefficient tuples of F_(p^k) = F_p[x]/(x^k + low)."""
    k = len(low)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(2 * k - 2, k - 1, -1):
        for i in range(k):
            prod[top - k + i] -= prod[top] * low[i]
    return tuple(c % p for c in prod[:k])


def _gf_monomial_values(pt, nvars, degree, low, p):
    out = []
    for m in monomials(nvars, degree):
        v = (1,) + (0,) * (len(low) - 1)
        for x, e in zip(pt, m):
            for _ in range(e):
                v = _gf_mul(v, x, low, p)
        out.append(v)
    return out


def _plain_extension_zeros(fs, p, k):
    """The common zeros of fs over F_(p^k), one point and one form at a time;
    element i has the base-p digits of i, least significant first."""
    low = _rootless_low(p, k)
    elems = [tuple(reversed(t)) for t in itertools.product(range(p), repeat=k)]
    nvars = fs[0].num_vars
    out = []
    for lead in range(nvars):
        for tail in itertools.product(elems, repeat=nvars - lead - 1):
            pt = (elems[0],) * lead + (elems[1],) + tail
            if all(not any(sum(c.residue * v[i] for c, v in
                               zip(f.coeffs, _gf_monomial_values(pt, nvars, f.degree, low, p)))
                           % p for i in range(k)) for f in fs):
                out.append(pt)
    return out


@pytest.mark.parametrize("p, k, nvars", [(5, 2, 2), (5, 3, 2), (7, 2, 2), (7, 3, 2),
                                         (5, 2, 3), (5, 3, 3), (7, 2, 3)])
def test_extension_scan_matches_plain_loop(p, k, nvars):
    # nvars forms of degree <= 5 - nvars, as in criterion 13, every other system
    # through a planted point with coordinates drawn from F_(p^k); (7, 3, 3) is
    # left out, its 117,993 points are too many for the plain loop
    rng = random.Random(100 * p + 10 * k + nvars)
    domain = PrimeField(p)
    low = _rootless_low(p, k)
    found = 0
    for s in range(4):
        if s % 2:
            pt = ((1,) + (0,) * (k - 1),) + tuple(
                tuple(rng.randrange(p) for _ in range(k)) for _ in range(nvars - 1))
            fs = []
            for _ in range(nvars):
                d = rng.choice([d for d in (1, 2, 3)[:5 - nvars]
                                if len(monomials(nvars, d)) > k])
                vals = _gf_monomial_values(pt, nvars, d, low, p)
                basis = linalg.nullspace([[domain.coerce(v[i]) for v in vals] for i in range(k)],
                                         domain)
                weights = [rng.randrange(1, p) for _ in basis]
                coeffs = [sum((w * b[j] for w, b in zip(weights, basis)), domain.zero)
                          for j in range(len(vals))]
                fs.append(Form(domain, nvars, d, tuple(coeffs)))
        else:
            fs = [rand_form(rng, nvars, rng.randint(1, 5 - nvars), domain, bound=p)
                  for _ in range(nvars)]
        if any(f.is_zero for f in fs):
            continue
        plain = _plain_extension_zeros(fs, p, k)
        if s % 2:
            assert plain
        found += bool(plain)
        assert common_projective_zeros(fs, p, k) == plain
        assert common_projective_zeros(fs, p, k, limit=1) == plain[:1]
    assert found


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("k", [2, 3])
def test_extension_is_a_field(p, k):
    # x^(q-1) = 1 for every nonzero element, by square and multiply over the
    # whole element array: a reducible modulus would leave zero divisors
    from taucubic.bruteforce import _extension, _extension_product
    elems, tensor = _extension(p, k)
    q = p ** k
    assert elems.tolist() == [list(reversed(t)) for t in itertools.product(range(p), repeat=k)]
    power, base, e = np.broadcast_to(elems[1], elems.shape), elems, q - 1
    while e:
        if e & 1:
            power = _extension_product(power, base, tensor, p)
        base = _extension_product(base, base, tensor, p)
        e >>= 1
    assert power.tolist() == [[0] * k] + [elems[1].tolist()] * (q - 1)


def test_extension_scan_refuses_unmodelled_fields():
    forms = [f_of(2, 1, {(1, 0): 1}, PrimeField(5))]
    for k in (0, 4):
        # a rootless quartic can be reducible: x^4 + 1 over F_5
        with pytest.raises(ValueError):
            common_projective_zeros(forms, 5, k)
    p = 1048583                 # 9 (p - 1)^3 > 2^63: a product would wrap in int64
    with pytest.raises(ValueError):
        common_projective_zeros([f_of(2, 1, {(1, 0): 1}, PrimeField(p))], p, 3)


def test_monomial_values_beyond_int64_products():
    # p^2 > 2^63: the table is held in Python ints
    p = 4294967311
    rng = random.Random(4)
    pts = [[rng.randrange(p) for _ in range(3)] for _ in range(6)] + [[p - 1] * 3]
    for degree in (1, 3):
        table = monomial_values(pts, degree, p)
        assert table.tolist() == [[math.prod(pow(x, e, p) for x, e in zip(pt, m)) % p
                                   for m in monomials(3, degree)] for pt in pts]


@pytest.mark.parametrize("p", [7, 11])
def test_prime_field_witness_is_first_bruteforce_zero(p):
    # the witness is the first common zero of the partials in
    # projective_points_fp order, as a plain point-by-point loop finds it
    rng = random.Random(p)
    domain = PrimeField(p)
    for _ in range(40):
        cubic = _draw_instance(rng, 3, domain).cubic()
        verdict = is_smooth_hypersurface(cubic)
        if verdict.status == SMOOTH_CERTIFIED:
            # a nonzero resultant excludes common zeros over the closure
            # (test_macaulay_matches_bruteforce); the loop below would find none
            continue
        zeros = _plain_common_zeros([partial_derivative(cubic, i) for i in range(5)], p,
                                    limit=1)
        assert verdict.witness == (zeros[0] if zeros else None)
        assert verdict.status == (SINGULAR_CERTIFIED if zeros else INCONCLUSIVE)


def test_vanishing_minor_skips_full_determinant(monkeypatch):
    from taucubic import forms, linalg
    calls = []
    det_mod_p = linalg.det_mod_p

    def counted(mat, p):
        calls.append(len(mat))
        return det_mod_p(mat, p)
    monkeypatch.setattr(forms.linalg, "det_mod_p", counted)
    parts = [reduce_form(partial_derivative(CANONICAL_CUBIC, i), 101) for i in range(5)]
    assert forms._macaulay_quotient(parts) is None
    assert calls == [130]


def test_smoothness_over_prime_field_decides():
    f101 = PrimeField(101)
    f = fermat(5, 3, f101)
    assert is_smooth_hypersurface(f).status == SMOOTH_CERTIFIED


# --- Gram matrices ------------------------------------------------------


def test_resultant_matches_numeric_sylvester():
    # evaluate the symbolic eliminant at random points and compare with the
    # determinant of the scalar Sylvester matrix assembled at that point
    from taucubic.linalg import det
    rng = random.Random(2024)
    done = 0
    while done < 100:
        f = rand_form(rng, 3, rng.choice([1, 2, 3]), bound=4)
        g = rand_form(rng, 3, rng.choice([1, 2, 3]), bound=4)
        if f.is_zero or g.is_zero:
            continue
        try:
            res = sylvester_resultant(f, g, 0)
        except ZeroForm:
            continue
        done += 1
        pt = [QQ.coerce(rng.randint(-5, 5)) for _ in range(2)]

        def coeffs_in_x0(h):
            # {k: value at pt of the coefficient of x0^k}, nonzero coefficients only
            out = {}
            for e, c in zip(monomials(3, h.degree), h.coeffs):
                if c:
                    out[e[0]] = out.get(e[0], QQ.zero) + c * pt[0] ** e[1] * pt[1] ** e[2]
            return out

        fc, gc = coeffs_in_x0(f), coeffs_in_x0(g)
        m, n = max(fc), max(gc)
        size = m + n
        mat = [[QQ.zero] * size for _ in range(size)]
        for i in range(n):
            for k in range(m + 1):
                mat[i][i + k] = fc.get(m - k, QQ.zero)
        for i in range(m):
            for k in range(n + 1):
                mat[n + i][i + k] = gc.get(n - k, QQ.zero)
        lhs = evaluate(res, pt) if not res.is_zero else QQ.zero
        assert lhs == det(mat, QQ)


def test_macaulay_agrees_with_sylvester_on_binary_forms():
    # for binary forms of full degree in x0 the two resultant routes coincide
    # up to sign (with a degree drop they differ by the classical leading
    # coefficient factor, which is a convention boundary, not a bug)
    rng = random.Random(2025)
    done = 0
    while done < 150:
        dom = PrimeField(101) if done % 2 else QQ
        f = rand_form(rng, 2, rng.choice([1, 2, 3]), dom)
        g = rand_form(rng, 2, rng.choice([1, 2, 3]), dom)
        if f.is_zero or g.is_zero or not f.coeffs[0] or not g.coeffs[0]:
            continue
        try:
            mac = macaulay_resultant([f, g])
            syl = sylvester_resultant(f, g, 0)
        except Exception:
            continue
        done += 1
        sval = syl.coeffs[0] if not syl.is_zero else dom.zero
        assert mac == sval or mac == -sval


def test_gram_of_conic():
    g = SymMatrix3.gram_of_ternary(CONIC)
    assert g.entries[0][1] == 2 and g.entries[1][0] == 2
    assert g.entries[2][2] == -1
    assert linalg.rank(g.entries, QQ) == 3
    assert g.det() == 4


def test_gram_rank_degenerate():
    g = SymMatrix3.gram_of_ternary(f_of(3, 2, {(2, 0, 0): 1}))
    assert linalg.rank(g.entries, QQ) == 1


def _conic_rank_oracle(q):
    """The rank route of is_smooth_conic: q is nonzero and its Gram matrix has rank 3."""
    return not q.is_zero and linalg.rank(SymMatrix3.gram_of_ternary(q).entries, q.domain) == 3


@pytest.mark.parametrize("domain", [QQ, F11, F101_EXT],
                         ids=["QQ", "F11", "F101(sqrt D0)"])
def test_smooth_conic_matches_rank_oracle(domain):
    # sum of r squares of the rows of an invertible A: Gram rank r
    rng = random.Random(67)
    assert not is_smooth_conic(Form.zero_form(3, 2, domain))
    seen = set()
    for trial in range(120):
        r = trial % 4
        c = [domain.random(rng, 9) or domain.one for _ in range(r)] + [domain.zero] * (3 - r)
        diag = Form.from_terms(3, 2, {(2, 0, 0): c[0], (0, 2, 0): c[1], (0, 0, 2): c[2]}, domain)
        A = [[domain.random(rng, 9) for _ in range(3)] for _ in range(3)]
        q = compose_linear(diag, A)
        if linalg.det(A, domain):
            assert linalg.rank(SymMatrix3.gram_of_ternary(q).entries, domain) == r
            seen.add(r)
        assert is_smooth_conic(q) == _conic_rank_oracle(q), (trial, q)
    assert seen == {0, 1, 2, 3}


# --- modular linear algebra ---------------------------------------------


def test_mod_p_elimination_beyond_int64_products():
    # residues near 2^32 overflow int64 when two of them are multiplied
    from taucubic import linalg
    p = 4294967311
    fp = PrimeField(p)
    rng = random.Random(1)
    mat = [[rng.randrange(p) for _ in range(30)] for _ in range(30)]
    assert linalg.det_mod_p(mat, p) == linalg.det(
        [[fp.coerce(v) for v in row] for row in mat], fp).residue
    low_rank = [row[:] for row in mat[:20]]
    low_rank += [[(a + 3 * b) % p for a, b in zip(mat[i], mat[i + 1])] for i in range(10)]
    assert linalg.rank_mod_p(low_rank, p) == 20


def _mod_p_case(kind, p, n=30):
    rng = random.Random(p)
    mat = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(n)]
    if kind == "growth":
        # M = L U, both unit triangular with every off-diagonal entry -1: each
        # elimination step subtracts (p - 1)^2 from every trailing entry
        lower = [[1 if i == k else (p - 1 if i > k else 0) for k in range(n)] for i in range(n)]
        upper = [[1 if k == j else (p - 1 if j > k else 0) for j in range(n)] for k in range(n)]
        mat = [[sum(lower[i][k] * upper[k][j] for k in range(n)) % p for j in range(n)]
               for i in range(n)]
    elif kind == "swaps":
        # no pivot on the diagonal of the first columns until rows are swapped
        for i in range(n // 2):
            for j in range(i + 1):
                mat[i][j] = p * rng.randint(-2, 2)
    elif kind == "singular":
        mat[-1] = [a - 2 * b + p for a, b in zip(mat[0], mat[1])]
    return mat


def _headroom_primes(steps):
    """The largest prime whose int64 headroom covers `steps` unreduced
    elimination steps, and the smallest prime whose headroom does not."""
    from taucubic import linalg
    from taucubic.scalars import is_prime
    s = math.isqrt(2 ** 63 // steps)   # the headroom falls with p past `steps` in [s, s + 2]
    below = next(q for q in range(s + 2, 0, -1) if is_prime(q) and linalg._headroom(q) >= steps)
    above = next(q for q in range(s, 2 * s) if is_prime(q) and linalg._headroom(q) < steps)
    return below, above


@pytest.mark.parametrize("kind", ["random", "growth", "swaps", "singular"])
@pytest.mark.parametrize("p", [*_headroom_primes(29), 2 ** 31 - 1, 4294967311])
def test_mod_p_elimination_matches_exact(p, kind):
    # a 30x30 elimination takes 29 steps: the first prime never reduces the
    # trailing block, the second must (or "growth" overflows), 2^31 - 1 does
    # so every other step, and 4294967311 runs on Python ints
    from taucubic import linalg
    fp = PrimeField(p)
    mat = _mod_p_case(kind, p)
    exact = [[fp.coerce(v) for v in row] for row in mat]
    assert linalg.det_mod_p(mat, p) == linalg.det(exact, fp).residue
    assert linalg.rank_mod_p(mat, p) == linalg.rank(exact, fp)
    if kind == "singular":
        assert linalg.det_mod_p(mat, p) == 0 and linalg.rank_mod_p(mat, p) == 29


# --- plain-number elimination against element-wise oracles --------------
#
# sylvester_resultant, compose_linear, products of forms and linalg.det run
# on plain numbers: integers cleared of denominators over Q, residues over
# F_p.  The oracles below are the element-wise versions they replaced.

F_BIG = PrimeField(4294967311)


def _random_scalar(rng, domain):
    """A Fraction with denominator 2-9 over Q, a full-range residue over F_p,
    and a + b*sqrt(D) with such parts over an extension."""
    if domain == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(2, 9))
    if isinstance(domain, PrimeField):
        return domain.coerce(rng.randrange(domain.p))
    return domain.coerce(_random_scalar(rng, domain.base)) + domain.sqrt_d * _random_scalar(
        rng, domain.base)


def _random_form(rng, nvars, degree, domain):
    return Form(domain, nvars, degree, tuple(
        domain.zero if rng.random() < 0.3 else _random_scalar(rng, domain)
        for _ in monomials(nvars, degree)))


def _laplace_det(mat, nvars, domain):
    """Determinant of a matrix of Form entries (None for a zero entry) by
    Laplace expansion over column subsets, with Form arithmetic throughout;
    None when it vanishes."""
    n = len(mat)
    minors = {(): Form(domain, nvars, 0, (domain.one,))}
    for r in range(n):
        new = {}
        for cols, val in minors.items():
            if val.is_zero:
                continue
            for c in range(n):
                if c in cols or mat[r][c] is None:
                    continue
                pos = sum(1 for x in cols if x < c)
                term = mat[r][c] * val if (r + pos) % 2 == 0 else -(mat[r][c] * val)
                key = tuple(sorted(cols + (c,)))
                new[key] = new[key] + term if key in new else term
        minors = new
    det = minors.get(tuple(range(n)))
    return None if det is None or det.is_zero else det


def _sylvester_oracle(f, g, var):
    """The Sylvester resultant as a Form-valued Laplace expansion."""
    def coeffs_in_var(h):
        buckets = {}
        for m, c in zip(monomials(h.num_vars, h.degree), h.coeffs):
            if c:
                buckets.setdefault(m[var], {})[m[:var] + m[var + 1:]] = c
        return {k: Form.from_terms(h.num_vars - 1, h.degree - k, terms, h.domain)
                for k, terms in buckets.items()}

    fc, gc = coeffs_in_var(f), coeffs_in_var(g)
    m, n = max(fc), max(gc)
    if m == 0 or n == 0:
        raise ZeroForm("form has degree zero in the eliminated variable")
    mat = [[None] * (m + n) for _ in range(m + n)]
    for i in range(n):
        for k in range(m + 1):
            mat[i][i + k] = fc.get(m - k)
    for i in range(m):
        for k in range(n + 1):
            mat[n + i][i + k] = gc.get(n - k)
    det = _laplace_det(mat, f.num_vars - 1, f.domain)
    return Form.zero_form(f.num_vars - 1, f.degree * g.degree, f.domain) if det is None else det


def _without_top_power(h, var):
    """h with its coefficient of x_var^deg(h) set to zero."""
    coeffs = list(h.coeffs)
    coeffs[monomials(h.num_vars, h.degree).index(
        tuple(h.degree if i == var else 0 for i in range(h.num_vars)))] = h.domain.zero
    return Form(h.domain, h.num_vars, h.degree, tuple(coeffs))


@pytest.mark.parametrize("domain", [QQ, F101, F_BIG], ids=["QQ", "F101", "F4294967311"])
@pytest.mark.parametrize("nvars", [2, 3])
def test_sylvester_matches_laplace_oracle(domain, nvars):
    rng = random.Random(41 + nvars)
    compared = dropped = fractional = 0
    for trial in range(60):
        var = trial % nvars
        f = _random_form(rng, nvars, rng.randint(1, 4), domain)
        g = _random_form(rng, nvars, rng.randint(1, 3), domain)
        if trial % 3 == 0:  # a zero leading coefficient in the eliminated variable
            f = _without_top_power(f, var)
            dropped += 1
        if f.is_zero or g.is_zero:
            continue
        try:
            want = _sylvester_oracle(f, g, var)
        except ZeroForm:
            with pytest.raises(ZeroForm):
                sylvester_resultant(f, g, var)
            continue
        assert sylvester_resultant(f, g, var) == want, (trial, f, g)
        compared += 1
        fractional += domain == QQ and any(c.denominator > 1 for c in f.coeffs + g.coeffs)
    assert compared >= 30 and dropped == 20
    assert fractional == (compared if domain == QQ else 0)


def _compose_oracle(f, rows):
    """f composed with the linear rows through products of Forms."""
    domain, m_new = f.domain, len(rows[0])
    one = Form(domain, m_new, 0, (domain.one,))
    powers = []
    for row in rows:
        lin = Form(domain, m_new, 1, tuple(domain.coerce(c) for c in row))
        pw = [one, lin]
        for _ in range(2, f.degree + 1):
            pw.append(pw[-1] * lin)
        powers.append(pw)
    total = Form.zero_form(m_new, f.degree, domain)
    for m, c in zip(monomials(f.num_vars, f.degree), f.coeffs):
        if c:
            term = one
            for i, e in enumerate(m):
                term = term * powers[i][e]
            total = total + term.scale(c)
    return total


@pytest.mark.parametrize("domain", [QQ, F101, F101_EXT], ids=["QQ", "F101", "F101(sqrt D0)"])
@pytest.mark.parametrize("n_old, n_new", [(4, 2), (3, 2), (5, 3)])
@pytest.mark.parametrize("degree", [0, 3, 6])
def test_compose_linear_matches_product_oracle(domain, n_old, n_new, degree):
    # the rows are a kernel basis from linalg.nullspace, as on the former lines
    # route (``_element_lines`` in tests/test_discriminant.py)
    # (over Q with Fraction entries), or plain random rows with one zero row
    rng = random.Random(100 * n_old + 10 * n_new + degree)
    for kind in ("nullspace", "random"):
        if kind == "nullspace":
            equations = [[_random_scalar(rng, domain) for _ in range(n_old)]
                         for _ in range(n_old - n_new)]
            basis = linalg.nullspace(equations, domain)
            assert len(basis) == n_new
            rows = [list(r) for r in zip(*basis)]
        else:
            rows = [[_random_scalar(rng, domain) for _ in range(n_new)] for _ in range(n_old)]
            rows[rng.randrange(n_old)] = [domain.zero] * n_new
        f = _random_form(rng, n_old, degree, domain)
        assert compose_linear(f, rows) == _compose_oracle(f, rows), kind


def _product_oracle(f, g):
    """f * g on field elements: each coefficient the sum of the products of two
    nonzero coefficients landing on it, zero where none lands."""
    out = [None] * len(monomials(f.num_vars, f.degree + g.degree))
    for row, a in zip(_product_index(f.num_vars, f.degree, g.degree), f.coeffs):
        for k, b in enumerate(g.coeffs):
            if a and b:
                out[row[k]] = a * b if out[row[k]] is None else out[row[k]] + a * b
    return Form(f.domain, f.num_vars, f.degree + g.degree,
                tuple(f.domain.zero if v is None else v for v in out))


@pytest.mark.parametrize("domain", [QQ, F11, F101, F101_EXT],
                         ids=["QQ", "F11", "F101", "F101(sqrt D0)"])
def test_product_matches_elementwise_oracle(domain):
    rng = random.Random(61)
    for nvars in range(1, 6):
        for d1, d2 in ((0, 0), (0, 3), (1, 1), (2, 1), (2, 2), (3, 2), (1, 4)):
            f, g = _random_form(rng, nvars, d1, domain), _random_form(rng, nvars, d2, domain)
            if d1 == 2:
                f = Form.zero_form(nvars, d1, domain)
            got, want = f * g, _product_oracle(f, g)
            assert got == want, (nvars, d1, d2)
            assert all(type(x) is type(y) for x, y in zip(got.coeffs, want.coeffs))


def _gauss_det(rows, domain):
    """Determinant by fraction-full Gaussian elimination on field elements."""
    m = [list(r) for r in rows]
    n = len(m)
    result = domain.one
    for k in range(n):
        pr = next((i for i in range(k, n) if m[i][k]), None)
        if pr is None:
            return domain.zero
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            result = -result
        result = result * m[k][k]
        inv = domain.one / m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return result


def _det_cases(rng, domain, sizes):
    """Random matrices over ``domain``, then for each size one whose first
    pivot is zero, one singular (the last row a combination of two others)
    and one with an all-zero row."""
    def rand(n):
        return [[_random_scalar(rng, domain) for _ in range(n)] for _ in range(n)]
    for n in sizes:
        yield rand(n)
        if n >= 2:
            mat = rand(n)
            mat[0][0] = domain.zero
            yield mat
            mat = rand(n)
            mat[-1] = [a - b * domain.coerce(3) for a, b in zip(mat[0], mat[1])]
            yield mat
        if n >= 1:
            mat = rand(n)
            mat[rng.randrange(n)] = [domain.zero] * n
            yield mat


@pytest.mark.parametrize("domain, sizes", [(QQ, range(16)), (F101, range(7)),
                                           (F101_EXT, range(6))],
                         ids=["QQ", "F101", "F101(sqrt D0)"])
def test_det_matches_fraction_full_oracle(domain, sizes):
    rng = random.Random(59)
    singular = 0
    for mat in _det_cases(rng, domain, sizes):
        want = _gauss_det(mat, domain)
        got = linalg.det(mat, domain)
        assert got == want and type(got) is type(want), mat
        singular += not want
    assert singular >= 2 * (len(sizes) - 2)


def test_det_with_zero_first_pivot_in_every_column():
    # the pivot of each step is found below the diagonal
    mat = [[0, 0, 1], [0, 2, 0], [Fraction(1, 3), 0, 0]]
    assert linalg.det(mat, QQ) == Fraction(-2, 3)
    assert linalg.det([[0, 1], [1, 0]], F101) == F101.coerce(-1)


# sha256 of the reprs of the Macaulay resultants of the partials of f3 over Q,
# for sample_instance(seed, 10) and seeds 0-19; pinned before the determinant
# over Q moved to cleared integers.
MACAULAY_F3_DIGEST = "74764412f8e9ac0d3916861c255d8805230ded422d95e1702098de66ba3dce21"


def test_macaulay_f3_partials_pinned():
    from taucubic.tau import sample_instance
    import hashlib
    values = []
    for seed in range(20):
        f3 = sample_instance(seed, 10, domain=QQ).f3
        values.append(repr(macaulay_resultant([partial_derivative(f3, i) for i in range(3)])))
    assert hashlib.sha256("\n".join(values).encode()).hexdigest() == MACAULAY_F3_DIGEST
