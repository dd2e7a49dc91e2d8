"""Acceptance battery: every numerical and structural target, one test per
criterion, each printing its own pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random

from taucubic import discriminant as disc
from taucubic import ledgers
from taucubic import quotient as quot
from taucubic.forms import (Form, evaluate, exact_divide, monomials,
                            partial_derivative, reduce_form, sylvester_resultant,
                            macaulay_resultant, ZeroForm)
from taucubic.bruteforce import has_common_projective_zero
from taucubic.harness import projective_key
from taucubic.scalars import PrimeField, QQ, reduce_mod_prime
from taucubic.tau import (canonical_instance, fixed_points_on_S, invariant_basis,
                          sample_instance, sym2_eigensplit, two_point_subspace)

F101 = PrimeField(101)


def _report(num, name, ok, detail=""):
    line = f"criterion {num:>2} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# -------------------------------------------------------------------------


def test_criterion_01_dimension_ledger():
    b2, b3 = invariant_basis(2), invariant_basis(3)
    _, w_rank, complement = two_point_subspace(canonical_instance())
    ok = (len(b2) == 9 and len(b3) == 19 and w_rank == 4
          and len(complement) == 15 and len(complement) - 1 == 14)
    _report(1, "dimension ledger", ok,
            f"|S2+|={len(b2)} |S3+|={len(b3)} quotient={len(complement)}")


def _batch_instances(n_each, bound=10):
    out = []
    for i in range(n_each):
        out.append(("qq", sample_instance(10_000 + i, bound, domain=QQ)))
    for i in range(n_each):
        out.append(("f101", sample_instance(20_000 + i, bound, domain=F101)))
    return out


BATCH = None


def _batch():
    global BATCH
    if BATCH is None:
        BATCH = [(label, inst, disc.discriminant_quintic(inst))
                 for label, inst in _batch_instances(100)]
    return BATCH


def test_criterion_02_discriminant_factorization():
    failures = 0
    for label, inst, dd in _batch():
        ok = (dd.quintic.degree == 5
              and exact_divide(dd.quintic, dd.conic_part) == dd.cubic_part
              and exact_divide(dd.quintic, dd.cubic_part) == dd.conic_part)
        failures += 0 if ok else 1
    _report(2, "discriminant factorization", failures == 0,
            f"200 instances, {failures} failures")


def test_criterion_03_six_points():
    totals_ok = all(dd.intersection.total_multiplicity == 6 for _, _, dd in _batch())
    distinct = sum(1 for _, _, dd in _batch() if dd.transversal)
    frac = distinct / len(_batch())
    _report(3, "six intersection points", totals_ok and frac >= 0.95,
            f"all totals 6: {totals_ok}, distinct+transversal {frac:.3f}")


def test_criterion_04_fiber_dichotomy():
    exceptions = 0
    sampled = 0
    for i in range(10):
        inst = sample_instance(30_000 + i, 10, domain=F101)
        rng = random.Random(40_000 + i)
        cubic_pts = disc.points_on_cubic_component(inst, rng, 100)
        conic_pts = disc.points_on_conic_component(inst, rng, 100)
        sampled += len(cubic_pts) + len(conic_pts)
        for pt in cubic_pts:
            if disc.tau_fiber_action(inst, pt).action != disc.FIXES:
                exceptions += 1
        for pt in conic_pts:
            if disc.tau_fiber_action(inst, pt).action != disc.SWAPS:
                exceptions += 1
    _report(4, "fiber-action dichotomy", exceptions == 0 and sampled >= 1800,
            f"{sampled} points, {exceptions} exceptions")


def test_criterion_05_genus_ledger():
    ok = (ledgers.hurwitz_double_cover(0, 6) == 2
          and ledgers.hurwitz_double_cover(1, 6) == 4
          and ledgers.ci_curve_genus([3, 2, 2], 4) == 13)
    _report(5, "genus ledger", ok)


def test_criterion_06_koszul_ledger():
    kl = ledgers.koszul_h01_ledger()
    dims_ok = ((kl.h0_quadrics_ambient, kl.h0_ideal_quadrics, kl.h01_curve) == (15, 2, 13)
               and ledgers.ideal_section_dimension((2, 3), 2, 4) == 1
               and ledgers.ideal_section_dimension((2, 3), 3, 4) == 6)
    inst = sample_instance(50_000, 10, domain=F101)
    rng = random.Random(50_001)
    sampling_ok = all(
        ledgers.ideal_dimension_by_sampling(inst, d, rng)
        == ledgers.ideal_section_dimension((2, 3), d, 4)
        for d in (1, 2, 3))
    _report(6, "Koszul ledger", dims_ok and sampling_ok,
            f"(15,2,13) exact, evaluation matrix agrees for d<=3: {sampling_ok}")


def test_criterion_07_eigen_splits():
    s = sym2_eigensplit()
    j = ledgers.jacobian_tau_split()
    ok = ((s.dim_sym2_minus, s.dim_mixed, s.dim_sym2_plus) == (3, 6, 6)
          and s.invariant_total == 9 and s.anti_invariant_total == 6
          and (j.plus, j.minus) == (7, 6) and j.plus + j.minus == 13)
    _report(7, "eigen splits", ok)


def test_criterion_08_prym_ledger():
    led = ledgers.prym_dimension_ledger()
    ok = ((led.dim_P2, led.dim_P3) == (2, 3)
          and led.dim_P2 + led.dim_P3 == 5 == led.h21_cubic
          and 2 ** led.isogeny_degree_log_bound == 64)
    _report(8, "Prym ledger", ok, "dims (2,3), sum 5, degree bound 2^6")


def test_criterion_09_fixed_points():
    totals_ok = True
    distinct = 0
    n = 30
    for i in range(n):
        domain = QQ if i % 2 == 0 else F101
        inst = sample_instance(60_000 + i, 10, domain=domain)
        rep = fixed_points_on_S(inst)
        if rep.total_multiplicity != 8:
            totals_ok = False
        if rep.all_distinct:
            distinct += 1
    frac = distinct / n
    _report(9, "fixed points", totals_ok and frac >= 0.95,
            f"{n} instances, all totals 8: {totals_ok}, distinct {frac:.3f}")


def test_criterion_10_lines_through_fixed_line():
    checked = failures = 0
    for i in range(10):
        p = 11 if i % 2 == 0 else 13
        dom = PrimeField(p)
        inst = sample_instance(70_000 + i, 10, domain=dom)
        rng = random.Random(71_000 + i)
        probed = 0
        t_vals = list(range(p))
        rng.shuffle(t_vals)
        for t in t_vals:
            if probed >= 5:
                break
            try:
                rep = disc.lines_through_point_of_ltau(inst, (dom.one, dom.coerce(t)))
            except disc.InfinitelyMany:
                continue
            probed += 1
            checked += 1
            brute = disc.lines_through_point_brute(inst, (dom.one, dom.coerce(t)))
            elim = {projective_key(d, dom) for d, _m, lbl in rep.rational_directions
                    if lbl == f"F{p}"}
            if not (rep.total_multiplicity == 6 and rep.contains_fixed_line
                    and elim == {projective_key(d, dom) for d in brute}):
                failures += 1
        assert probed == 5
    _report(10, "lines through the fixed line", failures == 0 and checked == 50,
            f"{checked} point counts, {failures} failures")


def test_criterion_11_cone_geometry():
    ok = True
    for i in range(10):
        domain = QQ if i % 2 == 0 else F101
        inst = sample_instance(80_000 + i, 10, domain=domain)
        rep = disc.cone_and_singular_member(inst, rng=random.Random(81_000 + i))
        ok = ok and rep.singular_locus_is_fixed_line and len(rep.line_points) == 2 \
            and rep.line_points_singular and rep.probes_all_smooth
    _report(11, "cone geometry", ok)


def test_criterion_12_quotient():
    ok = True
    for i in range(10):
        domain = QQ if i % 2 == 0 else F101
        inst = sample_instance(90_000 + i, 10, domain=domain)
        abc = quot.quotient_equation(inst)
        sx = quot.branch_sextic(inst)
        ok = ok and len(abc) == 3 and all(f.degree == 3 for f in abc) and sx.degree == 6
    _report(12, "quotient surface", ok, "bidegree (2,3), branch degree 6")


def test_criterion_13_property_suites():
    rng = random.Random(424242)
    # Euler identity
    euler_fail = 0
    for _ in range(200):
        nvars = rng.choice([3, 4, 5])
        degree = rng.choice([1, 2, 3])
        f = _rand_form(rng, nvars, degree)
        if f.is_zero:
            continue
        if _euler(f) != f * degree:
            euler_fail += 1
    # resultant multiplicativity
    mult_fail = 0
    done = 0
    while done < 200:
        f = _rand_form(rng, 3, rng.choice([1, 2]))
        g = _rand_form(rng, 3, rng.choice([1, 2]))
        h = _rand_form(rng, 3, rng.choice([1, 2]))
        try:
            lhs = sylvester_resultant(f, g * h, 0)
            rhs = sylvester_resultant(f, g, 0) * sylvester_resultant(f, h, 0)
        except (ZeroForm, ValueError):
            continue
        done += 1
        if lhs != rhs and not (lhs.is_zero and rhs.is_zero):
            mult_fail += 1
    # reduction commutation
    red_fail = 0
    done = 0
    while done < 200:
        f = _rand_form(rng, 3, rng.choice([1, 2, 3]))
        g = _rand_form(rng, 3, rng.choice([1, 2]))
        if f.is_zero or g.is_zero:
            continue
        done += 1
        pt = tuple(QQ.coerce(rng.randint(-5, 5)) for _ in range(3))
        if reduce_mod_prime(evaluate(f, pt), 101) != evaluate(
                reduce_form(f, 101), tuple(reduce_mod_prime(c, 101) for c in pt)):
            red_fail += 1
        prod = f * g
        if reduce_form(exact_divide(prod, g), 101) != exact_divide(
                reduce_form(prod, 101), reduce_form(g, 101)):
            red_fail += 1
    # Macaulay vs brute force
    mac_fail = 0
    done = 0
    shapes = [(2, 5, 3), (2, 7, 3), (2, 11, 3), (2, 13, 3), (3, 5, 2), (3, 7, 2)]
    while done < 200:
        nvars, q, max_ext = shapes[done % len(shapes)]
        domain = PrimeField(q)
        degs = [rng.choice([1, 2, 3] if nvars == 2 else [1, 2]) for _ in range(nvars)]
        fs = [_rand_form(rng, nvars, d, domain) for d in degs]
        if any(f.is_zero for f in fs):
            continue
        try:
            res = macaulay_resultant(fs)
        except Exception:
            continue
        done += 1
        if res and has_common_projective_zero(fs, q, max_ext):
            mac_fail += 1
        if not res and nvars == 2 and not has_common_projective_zero(fs, q, 3):
            mac_fail += 1
    ok = euler_fail == mult_fail == red_fail == mac_fail == 0
    _report(13, "property suites", ok,
            f"euler {euler_fail}, multiplicativity {mult_fail}, "
            f"reduction {red_fail}, macaulay-vs-brute {mac_fail} failures")


def _rand_form(rng, nvars, degree, domain=QQ):
    terms = {m: domain.coerce(rng.randint(-5, 5)) for m in monomials(nvars, degree)}
    return Form.from_terms(nvars, degree, terms, domain)


def _euler(f):
    total = None
    for i in range(f.num_vars):
        e = tuple(1 if j == i else 0 for j in range(f.num_vars))
        xi = Form.from_terms(f.num_vars, 1, {e: f.domain.one}, f.domain)
        term = xi * partial_derivative(f, i)
        total = term if total is None else total + term
    return total
