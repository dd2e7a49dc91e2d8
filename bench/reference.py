"""Reference checker: the paper's values and a plain-integer recomputation.

Nothing here calls taucubic's arithmetic.  Report entries are compared with
the values the paper states (never with the report's own ``expected`` or
``status``), and outputs captured by the tracer are recomputed with integer
arithmetic mod p: sampled points are put back into their equations, fiber
verdicts are compared with their closed form, and the F_p-rational lines
through probed points of the fixed line are recounted over P^3(F_p).

Coefficient vectors are read in the package's documented wire format: dense,
graded-lexicographic with x0 > x1 > ... (ternary forms in x2, x3, x4).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# the paper's values, per suite and check name


def _is(value):
    return lambda c, _entry: c == value


def _at_least(bound):
    return lambda c, _entry: isinstance(c, (int, float)) and not isinstance(c, bool) and c >= bound


def _one_of(*values):
    return lambda c, _entry: any(c == v and type(c) is type(v) for v in values)


def _samples(c, _entry):
    # harness asks for 100 points per component and accepts no fewer than 50
    return isinstance(c, int) and 50 <= c <= 100


def _all_tally(action, count_check):
    return lambda c, entry: c == {action: entry.get(count_check)}


def _repeated(value, count_check="points_probed"):
    return lambda c, entry: c == [value] * entry.get(count_check, -1)


_BOOL = _one_of(True, False)
SPOT_CHECKS = 50      # quotient spot checks the harness runs per instance
LINE_PROBES = 5       # fixed-line points probed per lines instance

PAPER = {
    "discriminant": {
        "quintic_degree": _is(5),
        "conic_factor_degree": _is(2),
        "cubic_factor_degree": _is(3),
        "factorization_exact": _is(True),
        "six_point_total": _is(6),
        "distinct_transversal": _BOOL,
    },
    "discriminant/aggregate": {"distinct_transversal_fraction": _at_least(0.95)},
    "fixed-points": {
        "line_point_total": _is(2),
        "plane_point_total": _is(6),
        "grand_total": _is(8),
        "all_distinct": _BOOL,
    },
    "fixed-points/aggregate": {"distinct_fraction": _at_least(0.95)},
    "quotient": {
        "bidegree": _is([2, 3]),
        "branch_degree": _is(6),
        "branch_squarefree_probe": _one_of(True, False, None),
        "pullback_identity_samples": _is(SPOT_CHECKS),
        "fiber_membership_samples": _is(SPOT_CHECKS),
        "branch_genus": lambda c, _e: True,
    },
    "cone": {
        "singular_locus_is_fixed_line": _is(True),
        "line_intersection_count": _is(2),
        "line_points_singular": _is(True),
        "off_line_probes_smooth": _is(True),
    },
    "fiber-action": {
        "cubic_component_samples": _samples,
        "conic_component_samples": _samples,
        "cubic_component_all_fix": _all_tally("Fixes", "cubic_component_samples"),
        "conic_component_all_swap": _all_tally("Swaps", "conic_component_samples"),
    },
    "koszul/ledger": {
        "ambient_quadric_sections": _is(15),
        "ideal_quadrics_of_base_curve": _is(2),
        "base_curve_h01": _is(13),
        "surface_ideal_quadrics": _is(1),
        "surface_ideal_cubics": _is(6),
        "surface_ideal_cubics_projective": _is(5),
    },
    # h^0(I_S(d)) = 0, 1, 6 for d = 1, 2, 3
    "koszul/sampling": {
        "evaluation_matrix_d1": _is(0),
        "evaluation_matrix_d2": _is(1),
        "evaluation_matrix_d3": _is(6),
    },
    "two-points": {
        "cubic_vanishes_at_P": _is(True),
        "cubic_vanishes_at_Q": _is(True),
        "quotient_affine_dim": _is(15),
        "solution_projective_dim_bound": _at_least(12),
    },
    "lines": {
        "points_probed": _is(LINE_PROBES),
        "total_with_multiplicity": _repeated(6),
        "fixed_line_always_present": _repeated(True),
        "brute_force_agreement": _repeated(True),
    },
}


def _table_for(entry):
    suite, iid = entry["suite"], entry["instance_id"]
    if suite == "koszul":
        return PAPER["koszul/ledger" if iid == "ledger" else "koszul/sampling"]
    if iid == "aggregate":
        return PAPER[f"{suite}/aggregate"]
    return PAPER[suite]


def judge_entry(entry):
    """(failed, silently_wrong, reasons) for one report entry given as JSON.

    The entry fails when a check reports ``fail`` (error entries carry a
    failing ``no_error`` check), or when a paper value is missing or differs.
    It is silently wrong when a check reported ``pass`` on a value that
    differs from the paper's.
    """
    checks = {c["name"]: c for c in entry["checks"]}
    computed = {name: c["computed"] for name, c in checks.items()}
    reasons, wrong = [], False
    for name, c in checks.items():
        if c["status"] == "fail":
            reasons.append(f"{name}: reported fail ({c['computed']!r})")
    for name, want in _table_for(entry).items():
        if name not in checks:
            reasons.append(f"{name}: missing")
        elif not want(computed[name], computed):
            reasons.append(f"{name}: computed {computed[name]!r} disagrees with the paper")
            wrong = wrong or checks[name]["status"] == "pass"
    return bool(reasons), wrong, reasons


# ---------------------------------------------------------------------------
# plain-integer polynomial arithmetic mod p


@lru_cache(maxsize=None)
def grlex(nvars, degree):
    """Exponent vectors of one degree, graded-lex descending (x0 > x1 > ...)."""
    exps = (e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree)
    return tuple(sorted(exps, reverse=True))


def residues(values):
    """Plain residues of prime-field scalars; None if one is not in a prime field."""
    try:
        return [int(v.residue) for v in values]
    except AttributeError:
        return None


def eval_poly(coeffs, nvars, degree, X, p):
    """Values mod p of a dense form at every row of the integer array X."""
    mons = grlex(nvars, degree)
    if len(coeffs) != len(mons):
        raise ValueError(f"{len(coeffs)} coefficients for {len(mons)} monomials")
    powers = [[np.ones(len(X), dtype=np.int64)] for _ in range(nvars)]
    for i in range(nvars):
        for _ in range(degree):
            powers[i].append(powers[i][-1] * X[:, i] % p)
    total = np.zeros(len(X), dtype=np.int64)
    for c, m in zip(coeffs, mons):
        if c % p:
            term = np.full(len(X), c % p, dtype=np.int64)
            for i, e in enumerate(m):
                if e:
                    term = term * powers[i][e] % p
            total = (total + term) % p
    return total


class PlainInstance:
    """An instance's coefficients as residues, with its equations evaluated
    from the tau-invariant shape

        cubic   = l00 x0^2 + l11 x1^2 + l01 x0 x1 + f3(x2, x3, x4)
        quadric = a00 x0^2 + a11 x1^2 + a01 x0 x1 + f2(x2, x3, x4).
    """

    def __init__(self, inst):
        self.p = inst.domain.p
        self.l00, self.l11, self.l01 = (residues(f.coeffs) for f in (inst.l00, inst.l11, inst.l01))
        self.f3 = residues(inst.f3.coeffs)
        self.quadrics = [(residues((q.a00, q.a11, q.a01)), residues(q.f2.coeffs))
                         for q in inst.quadrics]

    def _ternary(self, coeffs, deg, P):
        return eval_poly(coeffs, 3, deg, P, self.p)

    def f3_at(self, P):
        return self._ternary(self.f3, 3, P)

    def conic_at(self, P):
        """4 l00 l11 - l01^2 at plane points P."""
        a, b, c = (self._ternary(f, 1, P) for f in (self.l00, self.l11, self.l01))
        return (4 * a % self.p * b - c * c) % self.p

    def cubic_at(self, X):
        p, P = self.p, X[:, 2:]
        a, b, c = (self._ternary(f, 1, P) for f in (self.l00, self.l11, self.l01))
        x0, x1 = X[:, 0], X[:, 1]
        return (a * (x0 * x0 % p) + b * (x1 * x1 % p) + c * (x0 * x1 % p) + self.f3_at(P)) % p

    def quadric_at(self, X, index=0):
        p, P = self.p, X[:, 2:]
        (a00, a11, a01), f2 = self.quadrics[index]
        x0, x1 = X[:, 0], X[:, 1]
        return (a00 * x0 * x0 + a11 * x1 * x1 + a01 * x0 * x1 + self._ternary(f2, 2, P)) % p


def normalize(pt, p):
    """Projective representative with first nonzero coordinate 1."""
    lead = next(c for c in pt if c % p)
    inv = pow(lead, -1, p)
    return tuple(c * inv % p for c in pt)


def _point_array(points, nvars):
    rows = [residues(pt) for pt in points]
    if any(r is None or len(r) != nvars for r in rows):
        return None
    return np.array(rows, dtype=np.int64).reshape(len(rows), nvars)


def check_points(points, equations, nvars, p, label):
    """Problems with sampled points: not F_p-rational, zero, off an equation,
    or projectively repeated."""
    if not points:
        return []
    X = _point_array(points, nvars)
    if X is None:
        return [f"{label}: a point is not an F_{p} point with {nvars} coordinates"]
    X %= p
    if not X.any(axis=1).all():
        return [f"{label}: the zero vector is not a projective point"]
    problems = []
    for eq_name, values in equations(X):
        bad = int(np.count_nonzero(values))
        if bad:
            problems.append(f"{label}: {bad} of {len(X)} points off {eq_name}")
    keys = {normalize(tuple(int(c) for c in row), p) for row in X}
    if len(keys) != len(X):
        problems.append(f"{label}: {len(X) - len(keys)} repeated projective points")
    return problems


def curve_equation(form):
    coeffs, p = residues(form.coeffs), form.domain.p
    return lambda X: [("its curve", eval_poly(coeffs, 3, form.degree, X, p))]


def surface_equations(plain, index):
    return lambda X: [("the cubic", plain.cubic_at(X)),
                      (f"quadric {index}", plain.quadric_at(X, index))]


def expected_action(plain, P):
    """Closed form of the fiber dichotomy over a plane point P."""
    on_cubic = not int(plain.f3_at(P)[0])
    on_conic = not int(plain.conic_at(P)[0])
    if on_cubic and on_conic:
        return "DoubleLine"
    if on_cubic:
        return "Fixes"
    if on_conic:
        return "Swaps"
    return "SmoothFiber"


@lru_cache(maxsize=None)
def projective_space(n, p):
    """One row per point of P^(n-1)(F_p), first nonzero coordinate 1."""
    rows = []
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            rows.append((0,) * lead + (1,) + tail)
    return np.array(rows, dtype=np.int64)


def lines_through(plain, T):
    """Directions q (q[drop] = 0, drop the first nonzero coordinate of T) with
    the whole line T + u q on the cubic, as normalized residue tuples."""
    p = plain.p
    t = [int(c) % p for c in T] + [0] * (5 - len(T))
    drop = 0 if t[0] else 1
    Q = np.insert(projective_space(4, p), drop, 0, axis=1)
    on_all = np.ones(len(Q), dtype=bool)
    # the cubic vanishes at T, so the restriction c1 u + c2 u^2 + c3 u^3 is
    # identically zero iff it vanishes at three distinct nonzero u (p > 3)
    for u in (1, 2, 3):
        X = (np.array(t, dtype=np.int64) + u * Q) % p
        on_all &= plain.cubic_at(X) == 0
    return {tuple(int(c) for c in row) for row in Q[on_all]}


# ---------------------------------------------------------------------------
# the captured outputs of a traced run


class CaptureCheck:
    """Recompute the captured sampler, verdict and line outputs."""

    def __init__(self, captures):
        self.captures = captures
        self.counts = {"points": 0, "verdicts": 0, "line_probes": 0}
        self._plain = {}

    def plain(self, inst):
        key = id(inst)
        if key not in self._plain:
            self._plain[key] = (inst, PlainInstance(inst))
        return self._plain[key][1]

    def sampler_problems(self, name, args, kwargs, points):
        if name == "tau.random_points_on_surface":
            inst = args[0]
            index = args[3] if len(args) > 3 else kwargs.get("quadric_index", 0)
            plain = self.plain(inst)
            return check_points(points, surface_equations(plain, index), 5, plain.p, name)
        form = args[0]
        return check_points(points, curve_equation(form), 3, form.domain.p, name)

    def verdict_problems(self, inst, P, action):
        plain = self.plain(inst)
        coords = residues(P[2:] if len(P) == 5 else P)
        want = expected_action(plain, np.array([coords], dtype=np.int64) % plain.p)
        if action != want:
            return [f"tau_fiber_action at {coords}: {action}, closed form gives {want}"]
        return []

    def line_problems(self, inst, T, directions):
        plain = self.plain(inst)
        p = plain.p
        t = residues(T)
        got = {normalize(tuple(r), p) for r in map(residues, directions)}
        want = lines_through(plain, t)
        if got != want:
            return [f"lines through {t} over F_{p}: brute force found {len(got)}, "
                    f"recount finds {len(want)}"]
        return []

    def run(self):
        problems = []
        for name in ("tau.random_points_on_surface", "intersect.curve_rational_points",
                     "intersect.conic_rational_points"):
            for args, kwargs, points in self.captures[name]:
                problems += self.sampler_problems(name, args, kwargs, points)
                self.counts["points"] += len(points)
        for args, _kw, result in self.captures["discriminant.tau_fiber_action"]:
            problems += self.verdict_problems(args[0], args[1], result.action)
            self.counts["verdicts"] += 1
        for args, _kw, result in self.captures["discriminant.lines_through_point_brute"]:
            problems += self.line_problems(args[0], args[1], result)
            self.counts["line_probes"] += 1
        return problems

    def self_test(self):
        """Corrupt captured outputs and confirm each corruption is reported.

        Returns (cases run, cases missed).
        """
        cases = missed = 0
        for name in ("intersect.curve_rational_points", "intersect.conic_rational_points",
                     "tau.random_points_on_surface"):
            calls = [c for c in self.captures[name] if len(c[2]) >= 2]
            if not calls:
                continue
            args, kwargs, points = calls[0]
            # a repeated point, and a point moved off its equation; a moved
            # point can land on the curve again by chance, so up to three
            # points are moved and one miss in all three counts
            cases += 2
            missed += not self.sampler_problems(name, args, kwargs, points + points[:1])
            moved = [[_shift(pt)] for pt in points[:3]]
            missed += not any(self.sampler_problems(name, args, kwargs, m) for m in moved)
        flips = {"Fixes": "Swaps", "Swaps": "Fixes"}
        for args, _kw, result in self.captures["discriminant.tau_fiber_action"]:
            if result.action in flips:
                cases += 1
                missed += not self.verdict_problems(args[0], args[1], flips[result.action])
                break
        for args, _kw, result in self.captures["discriminant.lines_through_point_brute"]:
            if result:
                cases += 1
                missed += not self.line_problems(args[0], args[1], result[1:])
                break
        return cases, missed


class _Residue:
    def __init__(self, r):
        self.residue = r


def _shift(pt):
    """pt with its first coordinate moved by one."""
    r = residues(pt)
    return tuple(_Residue(c) for c in [r[0] + 1] + r[1:])
