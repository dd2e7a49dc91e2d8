"""Suite orchestration: seeded verification runs with a machine-readable report.

Every suite samples its own instances from sub-seeds derived by a fixed
mixing function, so results are deterministic per (seed, config) and
independent of execution order.  Check entries carry the expected value, the
computed value, and a target note stating the geometric fact being verified;
failures in one entry never abort the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, asdict
from fractions import Fraction

import numpy as np

from . import discriminant as disc
from . import ledgers
from . import quotient as quot
from .bruteforce import coefficient_matrix, form_values, monomial_values
from .forms import Form, evaluate, monomials
from .scalars import BadPrime, FpElem, PrimeField, QQ, QuadElem, is_prime
from .tau import (QuadricPart, TauInstance, canonical_instance,
                  default_witness_points, fixed_points_on_S, invariant_basis,
                  invariant_coordinates, invariant_monomials, random_points_on_surface,
                  reduce_instance, sample_instance, sym2_eigensplit, two_point_analysis,
                  two_point_subspace, verify_base_locus, _tau_split)
from . import linalg


class ConfigError(ValueError):
    """Invalid suite configuration."""


# fiber-action asks each discriminant component for FIBER_POINTS points and
# passes with FIBER_POINTS_NEEDED of them.
FIBER_POINTS, FIBER_POINTS_NEEDED = 100, 50
# The least prime p with p + 1 - 2 sqrt(p) - 6 >= FIBER_POINTS_NEEDED: by Hasse's
# bound a smooth plane cubic over F_p then has that many points off the six it
# shares with the conic.
MIN_SAMPLING_PRIME = 73
# The suites that sample or reduce over F_p at ``SuiteConfig.big_prime()``.
SAMPLING_SUITES = frozenset({"two-points", "discriminant", "fiber-action", "cone", "koszul",
                             "fixed-points", "quotient"})


# The check that stands for a whole entry when a loaded rational instance has
# no reduction mod the entry's prime; aggregates leave such entries out.
REDUCTION_CHECK = "reduces_mod_p"


class InstanceParseError(ValueError):
    """Malformed instance JSON; the message carries the offending field path."""


@dataclass
class SuiteConfig:
    suites: tuple
    samples: int = 1
    seed: int = 0
    primes: tuple = (5, 7, 11, 13, 101, 103)
    bound: int = 10
    instance_path: str | None = None

    def __post_init__(self):
        names = []
        for s in self.suites:
            if s == "all":
                names.extend(SUITE_NAMES)
            elif s in SUITE_NAMES:
                names.append(s)
            else:
                raise ConfigError(f"unknown suite {s!r}; choose from {SUITE_NAMES + ('all',)}")
        if not names:
            raise ConfigError("no suites selected")
        object.__setattr__(self, "suites", tuple(dict.fromkeys(names)))
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        for p in self.primes:
            if p <= 3 or not is_prime(p):
                raise ConfigError(f"primes must be primes > 3, got {p}")
        if self.bound < 2:
            raise ConfigError("coefficient bound must be >= 2")
        if SAMPLING_SUITES.intersection(self.suites):
            self.big_prime()

    def big_prime(self) -> int:
        """The first admitted prime >= ``MIN_SAMPLING_PRIME``, the field of the
        sampling suites; ConfigError when there is none."""
        for p in self.primes:
            if p >= MIN_SAMPLING_PRIME:
                return p
        raise ConfigError(f"the suites {sorted(SAMPLING_SUITES.intersection(self.suites))} "
                          f"sample over F_p for an admitted prime p >= {MIN_SAMPLING_PRIME}; "
                          f"none in {list(self.primes)}")

    def small_primes(self) -> list:
        """Primes for the brute-force line counts; 11 and 13 when admitted.

        The degree-6 eliminant multiplicity analysis needs characteristic > 6,
        so nothing below 7 is ever usable here.
        """
        preferred = [p for p in self.primes if p in (11, 13)]
        usable = [p for p in self.primes if 7 <= p <= 47]
        return preferred or usable or [11, 13]


def mix_seed(seed: int, tag: str) -> int:
    """Stable 63-bit sub-seed for one suite instance."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class CheckResult:
    name: str
    expected: object
    computed: object
    status: str
    target: str = ""


@dataclass
class SuiteEntry:
    suite: str
    instance_id: str
    checks: list
    elapsed_ms: float = 0.0


@dataclass
class VerificationReport:
    config: dict
    entries: list = field(default_factory=list)

    def summary(self) -> dict:
        tally = {"passed": 0, "failed": 0, "inconclusive": 0}
        for e in self.entries:
            for c in e.checks:
                key = {"pass": "passed", "fail": "failed"}.get(c.status, "inconclusive")
                tally[key] += 1
        return tally

    def to_json(self, include_timing: bool = True) -> dict:
        return {
            "config": self.config,
            "entries": [
                {
                    "suite": e.suite,
                    "instance_id": e.instance_id,
                    "checks": [asdict(c) for c in e.checks],
                    **({"elapsed_ms": round(e.elapsed_ms, 3)} if include_timing else {}),
                }
                for e in self.entries
            ],
            "summary": self.summary(),
        }

    def canonical_text(self) -> str:
        """Deterministic serialization (timing excluded) for run comparison."""
        return json.dumps(self.to_json(include_timing=False), sort_keys=True)


def _check(name, expected, computed, target="", ok=None):
    if ok is None:
        ok = expected == computed
    return CheckResult(name, _encoded(expected), _encoded(computed),
                       "pass" if ok else "fail", target)


def _inconclusive(name, expected, computed, target=""):
    return CheckResult(name, _encoded(expected), _encoded(computed), "inconclusive", target)


def _encoded(v):
    if isinstance(v, (Fraction, FpElem, QuadElem)):
        return encode_scalar(v)
    if isinstance(v, tuple):
        return [_encoded(x) for x in v]
    return v


def _error_entry(suite, instance_id, exc) -> SuiteEntry:
    """A failing entry naming the exception and the file:line that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
    return SuiteEntry(suite, instance_id,
                      [CheckResult("no_error", "no exception",
                                   f"{type(exc).__name__}: {exc} at {where}",
                                   "fail", "suite step completed without raising")])


# ---------------------------------------------------------------------------
# instance and report serialization


def encode_scalar(x) -> object:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, FpElem):
        return {"r": x.residue, "p": x.p}
    if isinstance(x, QuadElem):
        return {"a": encode_scalar(x.a), "b": encode_scalar(x.b),
                "D": encode_scalar(x.ext.d)}
    if isinstance(x, int):
        return str(x)
    raise TypeError(f"cannot encode scalar {x!r}")


def decode_scalar(obj, domain, path: str):
    # JSON true and false are ints to Python, and int() truncates a float residue
    try:
        if isinstance(obj, (str, int)) and not isinstance(obj, bool):
            return domain.coerce(Fraction(obj))
        if isinstance(obj, dict) and "r" in obj and "p" in obj:
            if not isinstance(domain, PrimeField) or domain.p != obj["p"]:
                raise InstanceParseError(f"{path}: modulus {obj['p']} does not match the domain")
            r = obj["r"]
            if not isinstance(r, (str, int)) or isinstance(r, bool):
                raise InstanceParseError(f"{path}.r: residue must be an integer, got {r!r}")
            return FpElem(int(r), int(obj["p"]))
    except InstanceParseError:
        raise
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InstanceParseError(f"{path}: bad scalar {obj!r} ({exc})") from exc
    raise InstanceParseError(f"{path}: unrecognized scalar {obj!r}")


def _sniff_domain(data) -> object:
    moduli = set()

    def walk(obj, path):
        if isinstance(obj, dict):
            if "r" in obj and "p" in obj:
                p = obj["p"]
                if type(p) is not int or p <= 3 or not is_prime(p):
                    raise InstanceParseError(f"{path}.p: modulus must be a prime > 3, got {p!r}")
                moduli.add(p)
            else:
                for k, v in obj.items():
                    walk(v, f"{path}.{k}" if path else k)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(v, f"{path}[{i}]")

    walk(data, "")
    if not moduli:
        return QQ
    if len(moduli) > 1:
        raise InstanceParseError(f"mixed moduli in instance file: {sorted(moduli)}")
    return PrimeField(moduli.pop())


def decode_form(obj, nvars, deg, domain, path: str) -> Form:
    coeffs = obj.get("coeffs", []) if isinstance(obj, dict) else obj
    if not isinstance(coeffs, list):
        raise InstanceParseError(f"{path}: expected a list of coefficients, got {coeffs!r}")
    want = len(monomials(nvars, deg))
    if len(coeffs) != want:
        raise InstanceParseError(f"{path}: expected {want} coefficients, got {len(coeffs)}")
    vals = [decode_scalar(c, domain, f"{path}[{i}]") for i, c in enumerate(coeffs)]
    return Form(domain, nvars, deg, tuple(vals))


def encode_instance(inst: TauInstance) -> dict:
    return {
        "l00": [encode_scalar(c) for c in inst.l00.coeffs],
        "l11": [encode_scalar(c) for c in inst.l11.coeffs],
        "l01": [encode_scalar(c) for c in inst.l01.coeffs],
        "f3": [encode_scalar(c) for c in inst.f3.coeffs],
        "quadrics": [
            {"a00": encode_scalar(q.a00), "a11": encode_scalar(q.a11),
             "a01": encode_scalar(q.a01),
             "f2": [encode_scalar(c) for c in q.f2.coeffs]}
            for q in inst.quadrics
        ],
    }


def decode_instance(data) -> TauInstance:
    if not isinstance(data, dict):
        raise InstanceParseError("instance file must hold a JSON object")
    domain = _sniff_domain(data)
    for key in ("l00", "l11", "l01", "f3", "quadrics"):
        if key not in data:
            raise InstanceParseError(f"missing field {key!r}")
    l00 = decode_form(data["l00"], 3, 1, domain, "l00")
    l11 = decode_form(data["l11"], 3, 1, domain, "l11")
    l01 = decode_form(data["l01"], 3, 1, domain, "l01")
    f3 = decode_form(data["f3"], 3, 3, domain, "f3")
    if not isinstance(data["quadrics"], list) or not data["quadrics"]:
        raise InstanceParseError("quadrics: need a non-empty list")
    quadrics = []
    for i, q in enumerate(data["quadrics"]):
        if not isinstance(q, dict):
            raise InstanceParseError(f"quadrics[{i}]: expected an object, got {q!r}")
        quadrics.append(QuadricPart(
            decode_scalar(q.get("a00"), domain, f"quadrics[{i}].a00"),
            decode_scalar(q.get("a11"), domain, f"quadrics[{i}].a11"),
            decode_scalar(q.get("a01"), domain, f"quadrics[{i}].a01"),
            decode_form(q.get("f2", []), 3, 2, domain, f"quadrics[{i}].f2"),
        ))
    return TauInstance(domain, l00, l11, l01, f3, tuple(quadrics))


def load_instance(path) -> TauInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    return decode_instance(data)


def _provenance() -> dict:
    """What produced a report: the package version, the git commit of the
    source tree (``"unknown"`` outside a git checkout), Python and numpy."""
    import subprocess   # only a written report needs it: kept off every run's imports
    from . import __version__
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=os.path.dirname(__file__),
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"version": __version__, "git_sha": sha,
            "python": platform.python_version(), "numpy": np.__version__}


def emit_report(report: VerificationReport, path) -> None:
    """Write the report as JSON with its ``provenance``; the provenance is
    not part of ``canonical_text``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**report.to_json(), "provenance": _provenance()}, fh, sort_keys=True,
                  indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# suites


def _entry(suite: str, instance_id: str, make_checks) -> SuiteEntry:
    """One report entry: ``make_checks()`` timed alone, an exception isolated."""
    start = time.perf_counter()
    try:
        entry = SuiteEntry(suite, instance_id, make_checks())
    except Exception as exc:  # noqa: BLE001 - isolation contract
        entry = _error_entry(suite, instance_id, exc)
    entry.elapsed_ms = _ms_since(start)
    return entry


def _ms_since(start: float) -> float:
    return round((time.perf_counter() - start) * 1000.0, 3)


def _sampled(config: SuiteConfig, loaded, suite: str, slots, body,
             rng_suffix: str = ":rng") -> list:
    """One entry per ``(index, tag, domain)`` slot, checked by ``body(inst, rng)``.

    Without a loaded instance the instance is sampled over the slot's domain
    from the sub-seed of ``tag``.  A loaded rational instance is reduced mod p
    for a prime-field slot; a loaded instance over F_p is checked as it is in
    every slot; when a denominator of the loaded instance is divisible by p,
    the entry is one inconclusive ``REDUCTION_CHECK`` naming it.  The entry is
    named ``<field>-<index>`` after the field of the instance checked; the
    rng is seeded from ``tag + rng_suffix``.
    """
    def checks(tag, domain):
        if loaded is None:
            inst = sample_instance(mix_seed(config.seed, tag), config.bound, domain=domain)
        elif domain == loaded.domain:
            inst = loaded
        else:
            try:
                inst = reduce_instance(loaded, domain.p)
            except BadPrime as exc:
                return [_bad_reduction(domain.p, exc)]
        return body(inst, random.Random(mix_seed(config.seed, tag + rng_suffix)))

    entries = []
    for index, tag, domain in slots:
        if loaded is not None and isinstance(loaded.domain, PrimeField):
            domain = loaded.domain
        label = f"fp{domain.p}" if isinstance(domain, PrimeField) else "qq"
        entries.append(_entry(suite, f"{label}-{index}", lambda: checks(tag, domain)))
    return entries


def _slots(config: SuiteConfig, suite: str, with_qq: bool = False) -> list:
    """Sample i over F_p for the big prime, or over Q when ``with_qq`` and i is even."""
    p = config.big_prime()
    return [(i, f"{suite}:{i}", QQ if with_qq and i % 2 == 0 else PrimeField(p))
            for i in range(config.samples)]


def _bad_reduction(p: int, exc: BadPrime) -> CheckResult:
    return _inconclusive(REDUCTION_CHECK, True, f"bad reduction: {exc}",
                         f"the instance reduces mod {p}")


def _with_fraction(suite: str, entries: list, name: str, target: str) -> list:
    """Append the aggregate entry: at least 95% of the entries pass every check.
    Entries with no reduction mod their prime are not counted; with none
    left, the aggregate is inconclusive."""
    def checks():
        base = [e for e in entries if all(c.name != REDUCTION_CHECK for c in e.checks)]
        if not base:
            return [_inconclusive(name, ">= 0.95", "no entry reduces mod its prime", target)]
        good = sum(all(c.status == "pass" for c in e.checks) for e in base)
        return [_check(name, ">= 0.95", round(good / len(base), 4), target,
                       ok=good >= 0.95 * len(base))]

    return entries + [_entry(suite, "aggregate", checks)]


def _series_checks():
    b2, b3 = invariant_basis(2), invariant_basis(3)
    rank2 = linalg.rank([[f.coefficient(m) for m in invariant_monomials(2)] for f in b2], QQ)
    rank3 = linalg.rank([invariant_coordinates(f) for f in b3], QQ)
    _, w_rank, complement = two_point_subspace(canonical_instance())
    return [
        _check("invariant_quadric_count", 9, len(b2),
               "invariant quadrics form a projective space of dimension 8"),
        _check("invariant_cubic_count", 19, len(b3),
               "invariant cubics form a projective space of dimension 18"),
        _check("invariant_quadric_rank", 9, rank2, "quadric basis is independent"),
        _check("invariant_cubic_rank", 19, rank3, "cubic basis is independent"),
        _check("fixed_subspace_rank", 4, w_rank,
               "cubic together with quadric*(linear) spans 4 dimensions"),
        _check("two_point_quotient_affine", 15, len(complement),
               "residual cubic series has linear dimension 19 - 4 = 15"),
        _check("two_point_quotient_projective", 14, len(complement) - 1,
               "residual cubic series is a projective space of dimension 14"),
    ]


def _base_locus_checks():
    basis = invariant_basis(3)
    verdict = verify_base_locus(basis, default_witness_points(QQ))
    p0 = tuple(QQ.coerce(1) for _ in range(5))
    idx = next((i for i, f in enumerate(basis) if evaluate(f, p0)), None)
    return [
        _check("line_in_base_locus", True, verdict.line_in_base_locus,
               "every invariant cubic vanishes on the fixed line"),
        _check("witnesses_off_line_cut_out", True,
               all(r[2] for r in verdict.witness_results),
               "no point off the fixed line lies on every invariant cubic"),
        _check("diagonal_point_not_in_base_locus", True, idx is not None,
               "the all-ones point is cut out by a proper hyperplane of the series"),
    ]


def _suite_two_points(config: SuiteConfig, loaded):
    def body(inst, rng):
        pts = random_points_on_surface(inst, rng, 2)
        if len(pts) < 2:
            return [_inconclusive("surface_points_found", 2, len(pts),
                                  "needed two rational surface points")]
        res = two_point_analysis(inst, pts[0], pts[1])
        return [
            _check("cubic_vanishes_at_P", True, not evaluate(res.form, pts[0]),
                   "solved cubic passes through the first point"),
            _check("cubic_vanishes_at_Q", True, not evaluate(res.form, pts[1]),
                   "solved cubic passes through the second point"),
            _check("quotient_affine_dim", 15, res.quotient_affine_dim,
                   "solution search runs in the 15-dimensional residual series"),
            _check("solution_projective_dim_bound", ">= 12", res.solution_projective_dim,
                   "two point conditions keep projective dimension at least 12",
                   ok=res.solution_projective_dim >= 12),
        ]

    return _sampled(config, loaded, "two-points", _slots(config, "two-points"), body, ":pts")


def _discriminant_checks(inst: TauInstance, _rng) -> list:
    dd = disc.discriminant_quintic(inst)
    return [
        _check("quintic_degree", 5, dd.quintic.degree,
               "the degenerate-fiber locus is a plane quintic"),
        _check("conic_factor_degree", 2, dd.conic_part.degree,
               "one component is the conic 4*l00*l11 - l01^2"),
        _check("cubic_factor_degree", 3, dd.cubic_part.degree,
               "the other component is the cubic f3"),
        _check("factorization_exact", True, dd.quintic == dd.conic_part * dd.cubic_part,
               "quintic = conic * cubic with zero remainder"),
        _check("six_point_total", 6, dd.intersection.total_multiplicity,
               "components meet in six points counted with multiplicity"),
        CheckResult("distinct_transversal", True, dd.transversal,
                    "pass" if dd.transversal else "inconclusive",
                    "general members cross transversally in six distinct points"),
    ]


def _suite_discriminant(config: SuiteConfig, loaded):
    p = config.big_prime()
    fields = (("qq", QQ), (f"fp{p}", PrimeField(p)))
    if loaded is not None and isinstance(loaded.domain, PrimeField):
        fields = fields[1:]  # an instance over F_p has no check over Q
    slots = [(i, f"discriminant:{label}:{i}", domain)
             for i in range(config.samples) for label, domain in fields]
    return _with_fraction(
        "discriminant", _sampled(config, loaded, "discriminant", slots, _discriminant_checks),
        "distinct_transversal_fraction", "general position holds in at least 95% of gated samples")


def _suite_fiber_action(config: SuiteConfig, loaded):
    def body(inst, rng):
        cubic_pts = disc.points_on_cubic_component(inst, rng, FIBER_POINTS)
        conic_pts = disc.points_on_conic_component(inst, rng, FIBER_POINTS)
        fixes = [disc.tau_fiber_action(inst, pt).action for pt in cubic_pts]
        swaps = [disc.tau_fiber_action(inst, pt).action for pt in conic_pts]
        return [
            _check("cubic_component_samples", FIBER_POINTS, len(cubic_pts),
                   "sampled points on the cubic component",
                   ok=len(cubic_pts) >= FIBER_POINTS_NEEDED),
            _check("conic_component_samples", FIBER_POINTS, len(conic_pts),
                   "sampled points on the conic component",
                   ok=len(conic_pts) >= FIBER_POINTS_NEEDED),
            _check("cubic_component_all_fix", "all Fixes", dict(Counter(fixes)),
                   "fibers over the cubic component keep each line",
                   ok=bool(fixes) and all(a == disc.FIXES for a in fixes)),
            _check("conic_component_all_swap", "all Swaps", dict(Counter(swaps)),
                   "fibers over the conic component swap the lines",
                   ok=bool(swaps) and all(a == disc.SWAPS for a in swaps)),
        ]

    return _sampled(config, loaded, "fiber-action", _slots(config, "fiber-action"), body,
                    ":pts")


LINE_PROBES = 5   # points of the fixed line probed per instance


def _suite_lines(config: SuiteConfig, loaded):
    small = config.small_primes()

    def body(inst, rng):
        domain = inst.domain
        p = domain.p
        if not 7 <= p <= 47:
            raise ValueError(f"the exhaustive line oracle needs 7 <= p <= 47, got p = {p}")
        totals, fixed_flags, brute_ok = [], [], []
        guard = 0
        while len(totals) < LINE_PROBES and guard < LINE_PROBES * 8:
            guard += 1
            T = (domain.one, domain.coerce(rng.randrange(p)))
            try:
                rep = disc.lines_through_point_of_ltau(inst, T)
            except disc.InfinitelyMany:
                continue
            totals.append(rep.total_multiplicity)
            fixed_flags.append(rep.contains_fixed_line)
            brute = disc.lines_through_point_brute(inst, T)
            elim_keys = {projective_key(d, domain) for d, _m, lbl in rep.rational_directions
                         if lbl == f"F{p}"}
            brute_ok.append(elim_keys == {projective_key(d, domain) for d in brute})
        n = len(totals)
        return [
            _check("points_probed", LINE_PROBES, n,
                   "generic points of the fixed line probed"),
            _check("total_with_multiplicity", [6] * n, totals,
                   "six lines through a general point, counted with multiplicity"),
            _check("fixed_line_always_present", [True] * n, fixed_flags,
                   "the fixed line is one of the six"),
            _check("brute_force_agreement", [True] * n, brute_ok,
                   "rational solutions match exhaustive enumeration of the direction space"),
        ]

    slots = [(i, f"lines:{i}", PrimeField(small[i % len(small)]))
             for i in range(config.samples)]
    return _sampled(config, loaded, "lines", slots, body, ":T")


def projective_key(pt, domain) -> tuple:
    """Residues of an F_p point scaled so its first nonzero coordinate is 1."""
    inv = domain.one / next(c for c in pt if c)
    return tuple(domain.plain(c * inv) for c in pt)


def _suite_cone(config: SuiteConfig, loaded):
    p = config.big_prime()

    def body(inst, rng):
        rep = disc.cone_and_singular_member(inst, rng=rng, probe_prime=p)
        probe_target = "sampled points away from the fixed line are smooth"
        probe_check = (
            _inconclusive("off_line_probes_smooth", True, rep.probe_undecided, probe_target)
            if rep.probe_undecided else
            _check("off_line_probes_smooth", True,
                   rep.probes_all_smooth and rep.probe_count > 0, probe_target))
        return [
            _check("singular_locus_is_fixed_line", True, rep.singular_locus_is_fixed_line,
                   "the cone over the conic component is singular exactly on the fixed line"),
            _check("line_intersection_count", 2, len(rep.line_points),
                   "the pencil member meets the fixed line in two points"),
            _check("line_points_singular", True, rep.line_points_singular,
                   "both fixed-line points are singular on the pencil member"),
            probe_check,
        ]

    return _sampled(config, loaded, "cone", _slots(config, "cone", with_qq=True), body, ":probe")


def _genus_checks():
    led = ledgers.prym_dimension_ledger()
    return [
        _check("double_cover_of_conic", 2, ledgers.hurwitz_double_cover(0, 6),
               "genus of a double cover of a rational curve with six branch points"),
        _check("double_cover_of_cubic", 4, ledgers.hurwitz_double_cover(1, 6),
               "genus of a double cover of an elliptic curve with six branch points"),
        _check("conic_genus", 0, ledgers.plane_curve_genus(2), "a smooth conic is rational"),
        _check("cubic_genus", 1, ledgers.plane_curve_genus(3),
               "a smooth plane cubic is elliptic"),
        _check("pencil_base_curve_genus", 13, ledgers.ci_curve_genus([3, 2, 2], 4),
               "genus of the (3,2,2) complete-intersection curve in P^4"),
        _check("line_genus", 0, ledgers.ci_curve_genus([1, 1, 1], 4),
               "a line is rational"),
        _check("prym_conic_dim", 2, led.dim_P2,
               "Prym dimension over the conic component"),
        _check("prym_cubic_dim", 3, led.dim_P3,
               "Prym dimension over the cubic component"),
        _check("prym_sum_is_h21", led.h21_cubic, led.dim_P2 + led.dim_P3,
               "Prym dimensions fill the middle Hodge number of the cubic threefold"),
        _check("isogeny_degree_bound", 64, 2 ** led.isogeny_degree_log_bound,
               "isogeny degree divides 2^6, one factor of 2 per crossing point"),
    ]


def _koszul_ledger_checks():
    kl = ledgers.koszul_h01_ledger()
    return [
        _check("ambient_quadric_sections", 15, kl.h0_quadrics_ambient,
               "quadrics on P^4 form a 15-dimensional space"),
        _check("ideal_quadrics_of_base_curve", 2, kl.h0_ideal_quadrics,
               "exactly the two pencil quadrics contain the base curve"),
        _check("base_curve_h01", 13, kl.h01_curve,
               "15 - 2 = 13 matches the adjunction genus"),
        _check("surface_ideal_quadrics", 1, ledgers.ideal_section_dimension((2, 3), 2, 4),
               "the surface lies on exactly one quadric"),
        _check("surface_ideal_cubics", 6, ledgers.ideal_section_dimension((2, 3), 3, 4),
               "cubics through the surface form a 6-dimensional space"),
        _check("surface_ideal_cubics_projective", 5,
               ledgers.ideal_section_dimension((2, 3), 3, 4) - 1,
               "projectively a 5-dimensional series"),
    ]


def _suite_koszul(config: SuiteConfig, loaded):
    def body(inst, rng):
        return [_check(f"evaluation_matrix_d{d}", ledgers.ideal_section_dimension((2, 3), d, 4),
                       ledgers.ideal_dimension_by_sampling(inst, d, rng),
                       "rank deficiency of the surface evaluation matrix")
                for d in (1, 2, 3)]

    p = config.big_prime()
    slots = [("sampling", "koszul:sampling", PrimeField(p))]
    return ([_entry("koszul", "ledger", _koszul_ledger_checks)]
            + _sampled(config, loaded, "koszul", slots, body))


def _split_checks():
    s = sym2_eigensplit()
    j = ledgers.jacobian_tau_split()
    return [
        _check("sym2_minus_block", 3, s.dim_sym2_minus,
               "quadrics in the two negated coordinates"),
        _check("mixed_block", 6, s.dim_mixed,
               "mixed products, sign-flipped by the involution"),
        _check("sym2_plus_block", 6, s.dim_sym2_plus,
               "quadrics in the three fixed coordinates"),
        _check("invariant_total", 9, s.invariant_total, "invariant quadric monomials"),
        _check("anti_invariant_total", 6, s.anti_invariant_total,
               "anti-invariant quadric monomials"),
        _check("grand_total", math.comb(6, 2), s.grand_total,
               "all quadric monomials in five variables"),
        _check("jacobian_plus", 7, j.plus,
               "invariant block minus the two invariant quadric relations"),
        _check("jacobian_minus", 6, j.minus, "anti-invariant block"),
        _check("jacobian_sum_is_genus", 13, j.plus + j.minus,
               "eigen split fills the base-curve genus"),
    ]


def _suite_fixed_points(config: SuiteConfig, loaded):
    def body(inst, _rng):
        rep = fixed_points_on_S(inst)
        return [
            _check("line_point_total", 2, sum(m for _, m in rep.line_points),
                   "the quadric cuts two points on the fixed line"),
            _check("plane_point_total", 6, rep.plane.total_multiplicity,
                   "the surface meets the fixed plane in six points with multiplicity"),
            _check("grand_total", 8, rep.total_multiplicity,
                   "eight fixed surface points in all"),
            CheckResult("all_distinct", True, rep.all_distinct,
                        "pass" if rep.all_distinct else "inconclusive",
                        "general members have eight distinct fixed points"),
        ]

    slots = _slots(config, "fixed-points", with_qq=True)
    return _with_fraction(
        "fixed-points", _sampled(config, loaded, "fixed-points", slots, body),
        "distinct_fraction", "distinct fixed points in at least 95% of gated samples")


SPOT_CHECKS = 50   # pointwise quotient cross-checks per instance


def _suite_quotient(config: SuiteConfig, loaded):
    p = config.big_prime()

    def body(inst, rng):
        abc = quot.quotient_equation(inst)
        sext = quot.branch_sextic(inst)
        exact = [
            _check("bidegree", [2, 3], [len(abc) - 1] + sorted({f.degree for f in abc}),
                   "quotient equation is quadratic in (x0,x1) with cubic coefficients"),
            _check("branch_degree", 6, sext.degree,
                   "the branch discriminant is a plane sextic"),
        ]
        genus = CheckResult("branch_genus", "degree 6 verified", "genus not computed",
                            "inconclusive",
                            "geometric genus of the singular branch sextic is out of scope")
        try:
            work = reduce_instance(inst, p)
        except BadPrime as exc:
            return exact + [_bad_reduction(p, exc), genus]
        sqfree = quot.sextic_squarefree_probe(work, rng)
        ident_ok, member_ok, probed = _quotient_spot_checks(work, rng, SPOT_CHECKS)
        return exact + [
            CheckResult("branch_squarefree_probe", "squarefree (generic)", sqfree,
                        "pass" if sqfree else "inconclusive",
                        "line sections of the sextic probe squarefreeness over F_p"),
            _spot_check("pullback_identity_samples", ident_ok, probed,
                        "cubic*f2 - quadric*f3 reproduces the quotient equation pointwise"),
            _spot_check("fiber_membership_samples", member_ok, probed,
                        "quotient equation vanishes exactly on images of surface points"),
            genus,
        ]

    return _sampled(config, loaded, "quotient", _slots(config, "quotient", with_qq=True), body)


def _spot_check(name: str, ok: int, probed: int, target: str) -> CheckResult:
    """``ok`` of ``SPOT_CHECKS`` probes agree; inconclusive when fewer than
    ``SPOT_CHECKS`` admissible probes were drawn and all of them agree."""
    if probed < SPOT_CHECKS and ok == probed:
        return _inconclusive(name, SPOT_CHECKS, f"{ok} of only {probed} admissible probes",
                             target)
    return _check(name, SPOT_CHECKS, ok, target)


def _quotient_spot_checks(inst: TauInstance, rng: random.Random, count: int):
    """Pointwise cross-checks of the quotient equation A x0^2 + B x0 x1 + C x1^2
    over F_p at the first ``count`` admissible random probes (x0, x1, P) of at
    most 10 * count draws; returns (ident_ok, member_ok, probed).

    A probe is admissible when P != 0, (x0, x1) != 0, f2(P) != 0 and
    q(x0, x1) != 0, q the (x0, x1)-part of the quadric F.  Write the tau-split
    (l00, l01, l11, c) of G = Phi, F as q_G = l00 x0^2 + l01 x0 x1 + l11 x1^2
    and c_G, so G(x, P) = q_G(x, P) + c_G(P): Phi's split is ``inst.family``,
    F's is read off ``inst.quadric()``, and a monomial odd in (x0, x1) raises
    ArithmeticError.  The identity check compares the quotient equation with
    Phi f2 - F f3 at (x0, x1, P).  The membership check lifts the probe to
    (x0 : x1 : tP), t^2 = s = -q(x0, x1)/f2(P), a point of F, and asks that it
    lie on Phi and F exactly when the quotient equation vanishes.  The l's of
    Phi are linear and c_Phi is cubic in P, those of F constant and quadratic,
    so Phi(x, tP) = t (q_Phi + s c_Phi) and F(x, tP) = q_F + s c_F.  On an
    admissible probe s != 0, so t != 0, and the lift lies on G exactly when
    f2(P) q_G - q(x0, x1) c_G = 0: no square root is taken.  Every form is
    evaluated at all probes in one ``bruteforce.form_values`` table.
    """
    p = inst.domain.p
    dtype = linalg.residue_dtype(p)
    q = inst.quadrics[0]
    q_coeffs = np.array(inst.domain.plain_list((q.a00, q.a01, q.a11))[0], dtype=dtype)
    f2 = coefficient_matrix([q.f2], p)

    def probe_values(draws):
        """(x0, x1), P, the monomials x0^2, x0 x1, x1^2, f2(P) and q(x0, x1)."""
        x, P = draws[:, :2], draws[:, 2:]
        mono = monomial_values(x, 2, p)
        return x, P, mono, form_values(P, 2, f2, p)[:, 0], (mono * q_coeffs % p).sum(axis=1) % p

    # The probes are drawn in chunks, so up to a chunk's worth of draws past the
    # last accepted probe are taken from ``rng``; its caller reads nothing from
    # ``rng`` afterwards, so that changes no output.
    chunks, accepted, drawn = [], 0, 0
    while accepted < count and drawn < 10 * count:
        need = count - accepted
        n = min(need + need // 4 + 1, 10 * count - drawn)
        drawn += n
        draws = np.array([[rng.randrange(p) for _ in range(5)] for _ in range(n)], dtype=dtype)
        x, P, _, f2v, qv = probe_values(draws)
        keep = np.flatnonzero((P != 0).any(axis=1) & (x != 0).any(axis=1)
                              & (f2v != 0) & (qv != 0))[:need]
        chunks.append(draws[keep])
        accepted += len(keep)
    if not accepted:
        return 0, 0, 0
    draws = np.concatenate(chunks)
    x, P, mono, f2v, qv = probe_values(draws)

    def split_values(l00, l01, l11, c):
        """q_G(x0, x1, P) and c_G(P) at every probe."""
        heads = form_values(P, l00.degree, coefficient_matrix([l00, l01, l11], p), p)
        return ((heads * mono % p).sum(axis=1) % p,
                form_values(P, c.degree, coefficient_matrix([c], p), p)[:, 0])

    abcf = form_values(P, 3, coefficient_matrix([*quot.quotient_equation(inst), inst.f3], p), p)
    qval = (abcf[:, :3] * mono % p).sum(axis=1) % p
    fam = inst.family
    phi = split_values(fam.l00, fam.l01, fam.l11, fam.f3)
    F = split_values(*_tau_split(inst.quadric()))
    direct = (sum(phi) % p * f2v % p - sum(F) % p * abcf[:, 3] % p) % p
    ident_ok = int((qval == direct).sum())
    on_surface = np.ones(accepted, dtype=bool)
    for q_g, c_g in (phi, F):
        on_surface &= (f2v * q_g % p - qv * c_g % p) % p == 0
    member_ok = int((on_surface == (qval == 0)).sum())
    return ident_ok, member_ok, accepted


_SUITE_FUNCS = {
    "series": lambda config, loaded: [_entry("series", "structural", _series_checks)],
    "base-locus": lambda config, loaded: [_entry("base-locus", "structural",
                                                 _base_locus_checks)],
    "two-points": _suite_two_points,
    "discriminant": _suite_discriminant,
    "fiber-action": _suite_fiber_action,
    "lines": _suite_lines,
    "cone": _suite_cone,
    "genus": lambda config, loaded: [_entry("genus", "ledger", _genus_checks)],
    "koszul": _suite_koszul,
    "split": lambda config, loaded: [_entry("split", "ledger", _split_checks)],
    "fixed-points": _suite_fixed_points,
    "quotient": _suite_quotient,
}
SUITE_NAMES = tuple(_SUITE_FUNCS)


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute the selected suites; deterministic given (seed, config).

    An ``instance_path`` is parsed once, before any suite runs, and every
    sampling suite checks that instance instead of sampling its own.
    """
    loaded = load_instance(config.instance_path) if config.instance_path else None
    report = VerificationReport(config={
        "suites": list(config.suites), "samples": config.samples, "seed": config.seed,
        "primes": list(config.primes), "bound": config.bound,
        "instance_path": config.instance_path,
    })
    for name in config.suites:
        start = time.perf_counter()
        try:
            report.entries.extend(_SUITE_FUNCS[name](config, loaded))
        except Exception as exc:  # noqa: BLE001 - isolation contract
            entry = _error_entry(name, "suite", exc)
            entry.elapsed_ms = _ms_since(start)
            report.entries.append(entry)
    return report
