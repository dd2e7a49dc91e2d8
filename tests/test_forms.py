"""Polynomial algebra: evaluation, substitution, division, resultants,
smoothness certificates, and their randomized property suites."""

import random
from fractions import Fraction

import pytest

from taucubic.bruteforce import common_projective_zeros, has_common_projective_zero
from taucubic.forms import (DimensionMismatch, Form, NotDivisible, SingularMatrix,
                            SymMatrix3, ZeroForm, evaluate, exact_divide,
                            is_smooth_hypersurface, macaulay_resultant, monomials,
                            partial_derivative, reduce_form, substitute_linear,
                            sylvester_resultant, SMOOTH_CERTIFIED, SINGULAR_CERTIFIED,
                            INCONCLUSIVE)
from taucubic.scalars import PrimeField, QQ, QuadraticExtension


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
    assert substitute_linear(f, _identity(5)) == f


def test_substitute_swap():
    f = f_of(5, 2, {(2, 0, 0, 0, 0): 1})
    m = _identity(5)
    m[0], m[1] = m[1], m[0]
    assert substitute_linear(f, m) == f_of(5, 2, {(0, 2, 0, 0, 0): 1})


def test_substitute_involution_fixes_x0x1():
    f = f_of(5, 2, {(1, 1, 0, 0, 0): 1})
    tau = [[QQ.coerce(-1 if i < 2 else 1) if i == j else QQ.zero for j in range(5)]
           for i in range(5)]
    assert substitute_linear(f, tau) == f


def test_substitute_composition_law():
    rng = random.Random(11)
    f = rand_form(rng, 3, 3)
    m = [[QQ.coerce(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    n = [[QQ.coerce(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    from taucubic.linalg import det
    if not det(m, QQ) or not det(n, QQ):
        pytest.skip("degenerate random matrices")
    mn = [[sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert substitute_linear(substitute_linear(f, m), n) == substitute_linear(f, mn)


def test_substitute_singular_matrix():
    f = f_of(2, 1, {(1, 0): 1})
    with pytest.raises(SingularMatrix):
        substitute_linear(f, [[QQ.one, QQ.one], [QQ.one, QQ.one]])


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
    v = is_smooth_hypersurface(fermat(5, 2), [5, 7])
    assert v.status == SMOOTH_CERTIFIED


def test_singular_with_witness():
    f = f_of(5, 3, {(2, 1, 0, 0, 0): 1})  # x0^2 x1, singular along a plane
    v = is_smooth_hypersurface(f, [5, 7])
    assert v.status == SINGULAR_CERTIFIED
    assert v.witness is not None
    for i in range(5):
        assert not evaluate(partial_derivative(f, i), v.witness)


CANONICAL_CUBIC = f_of(5, 3, {(2, 0, 1, 0, 0): 1, (0, 2, 0, 1, 0): 1,
                              (1, 1, 0, 0, 1): 1, (0, 0, 3, 0, 0): 1,
                              (0, 0, 0, 3, 0): 1, (0, 0, 0, 0, 3): 1})


def test_smoothness_canonical_cubic_good_primes():
    # frozen oracle run: the certificate integers mod 7 and 11 are nonzero
    v = is_smooth_hypersurface(CANONICAL_CUBIC, [7, 11])
    assert v.status == SMOOTH_CERTIFIED
    assert v.resultants == {7: 1, 11: 9}


def test_smoothness_canonical_cubic_bad_prime_five():
    # frozen oracle run: 5 divides the certificate integer, and no rational
    # singular witness exists, so {5,7,11} stays inconclusive by design
    v = is_smooth_hypersurface(CANONICAL_CUBIC, [5, 7, 11])
    assert v.status == INCONCLUSIVE
    assert v.resultants[5] == 0 and v.resultants[7] == 1


def test_smoothness_over_prime_field_decides():
    f101 = PrimeField(101)
    f = fermat(5, 3, f101)
    assert is_smooth_hypersurface(f, []).status == SMOOTH_CERTIFIED


# --- Gram matrices ------------------------------------------------------


def test_resultant_matches_numeric_sylvester():
    # evaluate the symbolic eliminant at random points and compare with the
    # determinant of the scalar Sylvester matrix assembled at that point
    from taucubic.forms import _coeffs_in_var
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
        fc = _coeffs_in_var(f.to_polydict(), 0)
        gc = _coeffs_in_var(g.to_polydict(), 0)
        m, n = max(fc), max(gc)

        def val(pd):
            total = QQ.zero
            for e, c in pd.terms.items():
                total += c * pt[0] ** e[0] * pt[1] ** e[1]
            return total

        size = m + n
        mat = [[QQ.zero] * size for _ in range(size)]
        for i in range(n):
            for k in range(m + 1):
                mat[i][i + k] = val(fc[m - k]) if (m - k) in fc else QQ.zero
        for i in range(m):
            for k in range(n + 1):
                mat[n + i][i + k] = val(gc[n - k]) if (n - k) in gc else QQ.zero
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
    assert g.rank(QQ) == 3
    assert g.det() == 4


def test_gram_rank_degenerate():
    g = SymMatrix3.gram_of_ternary(f_of(3, 2, {(2, 0, 0): 1}))
    assert g.rank(QQ) == 1


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
