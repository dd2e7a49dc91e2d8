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
import random
import time
from dataclasses import dataclass, field, asdict
from fractions import Fraction

from . import discriminant as disc
from . import ledgers
from . import quotient as quot
from .forms import Form, evaluate, exact_divide
from .scalars import (FpElem, PrimeField, QQ, QuadElem, RationalField,
                      is_prime, quad_sqrt)
from .tau import (QuadricPart, TauInstance, canonical_instance,
                  default_witness_points, fixed_points_on_S, invariant_basis,
                  invariant_coordinates, random_points_on_surface, reduce_instance,
                  sample_instance, sym2_eigensplit, two_point_analysis,
                  two_point_subspace, verify_base_locus)
from . import linalg


class ConfigError(ValueError):
    """Invalid suite configuration."""


class InstanceParseError(ValueError):
    """Malformed instance JSON; the message carries the offending field path."""


SUITE_NAMES = ("series", "base-locus", "two-points", "discriminant", "fiber-action",
               "lines", "cone", "genus", "koszul", "split", "fixed-points", "quotient")


@dataclass
class SuiteConfig:
    suites: tuple
    samples: int = 1
    seed: int = 0
    primes: tuple = (5, 7, 11, 13, 101, 103)
    bound: int = 10
    instance_path: str | None = None
    out_path: str | None = None

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
        seen = set()
        ordered = [s for s in names if not (s in seen or seen.add(s))]
        object.__setattr__(self, "suites", tuple(ordered))
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        for p in self.primes:
            if p <= 3 or not is_prime(p):
                raise ConfigError(f"primes must be primes > 3, got {p}")
        if self.bound < 2:
            raise ConfigError("coefficient bound must be >= 2")

    def big_prime(self) -> int:
        cands = [p for p in self.primes if p >= 17]
        return cands[0] if cands else max(self.primes)

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
        out = {
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
        return out

    def canonical_text(self) -> str:
        """Deterministic serialization (timing excluded) for run comparison."""
        return json.dumps(self.to_json(include_timing=False), sort_keys=True)


def _check(name, expected, computed, target="", ok=None):
    if ok is None:
        ok = expected == computed
    return CheckResult(name, _plain(expected), _plain(computed),
                       "pass" if ok else "fail", target)


def _inconclusive(name, expected, computed, target=""):
    return CheckResult(name, _plain(expected), _plain(computed), "inconclusive", target)


def _plain(v):
    if isinstance(v, Fraction):
        return encode_scalar(v)
    if isinstance(v, (FpElem, QuadElem)):
        return encode_scalar(v)
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v


def _error_entry(suite, instance_id, exc) -> SuiteEntry:
    return SuiteEntry(suite, instance_id,
                      [CheckResult("no_error", "no exception", f"{type(exc).__name__}: {exc}",
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
    try:
        if isinstance(obj, str):
            val = Fraction(obj)
            return domain.coerce(val)
        if isinstance(obj, int):
            return domain.coerce(obj)
        if isinstance(obj, dict) and "r" in obj and "p" in obj:
            if not isinstance(domain, PrimeField) or domain.p != obj["p"]:
                raise InstanceParseError(f"{path}: modulus {obj['p']} does not match the domain")
            return FpElem(int(obj["r"]), int(obj["p"]))
    except InstanceParseError:
        raise
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InstanceParseError(f"{path}: bad scalar {obj!r} ({exc})") from exc
    raise InstanceParseError(f"{path}: unrecognized scalar {obj!r}")


def _sniff_domain(data) -> object:
    moduli = set()

    def walk(obj):
        if isinstance(obj, dict):
            if "r" in obj and "p" in obj:
                moduli.add(obj["p"])
            else:
                for v in obj.values():
                    walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(data)
    if not moduli:
        return QQ
    if len(moduli) > 1:
        raise InstanceParseError(f"mixed moduli in instance file: {sorted(moduli)}")
    return PrimeField(moduli.pop())


def encode_form(f: Form) -> dict:
    return {"vars": f.num_vars, "deg": f.degree,
            "coeffs": [encode_scalar(c) for c in f.coeffs]}


def decode_form(obj, nvars, deg, domain, path: str) -> Form:
    if isinstance(obj, dict):
        coeffs = obj.get("coeffs", [])
    else:
        coeffs = obj
    from .forms import monomials
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


def emit_report(report: VerificationReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def discriminant_data_json(dd: disc.DiscriminantData) -> dict:
    inter = []
    for p in dd.intersection.points:
        inter.append({"pt": [encode_scalar(c) for c in p.coords],
                      "mult": p.mult, "field": p.field_label})
    for c in dd.intersection.clusters:
        inter.append({"pt": None, "mult": c.mult, "degree": c.residue_degree,
                      "field": c.field_label})
    return {"quintic": encode_form(dd.quintic),
            "conic_part": encode_form(dd.conic_part),
            "cubic_part": encode_form(dd.cubic_part),
            "intersection": inter,
            "transversal": dd.transversal}


def biform_json(bf: quot.BiForm) -> dict:
    return {"bideg": list(bf.bidegree), "coeffs": [encode_scalar(c) for c in bf.coeffs]}


# ---------------------------------------------------------------------------
# suites


def _instance_for(config: SuiteConfig, tag: str, domain, n_quadrics=2) -> TauInstance:
    if config.instance_path:
        inst = load_instance(config.instance_path)
        if isinstance(domain, PrimeField) and isinstance(inst.domain, RationalField):
            return reduce_instance(inst, domain.p)
        return inst
    seed = mix_seed(config.seed, tag)
    gate_primes = (101, 103) if isinstance(domain, RationalField) else ()
    return sample_instance(seed, config.bound, domain=domain,
                           primes=gate_primes, n_quadrics=n_quadrics)


def _suite_series(config: SuiteConfig):
    checks = []
    b2, b3 = invariant_basis(2), invariant_basis(3)
    checks.append(_check("invariant_quadric_count", 9, len(b2),
                         "invariant quadrics form a projective space of dimension 8"))
    checks.append(_check("invariant_cubic_count", 19, len(b3),
                         "invariant cubics form a projective space of dimension 18"))
    rank2 = linalg.rank([[f.coefficient(m) for m in _inv_mons(2)] for f in b2], QQ)
    rank3 = linalg.rank([invariant_coordinates(f) for f in b3], QQ)
    checks.append(_check("invariant_quadric_rank", 9, rank2, "quadric basis is independent"))
    checks.append(_check("invariant_cubic_rank", 19, rank3, "cubic basis is independent"))
    inst = canonical_instance()
    _, w_rank, complement = two_point_subspace(inst)
    checks.append(_check("fixed_subspace_rank", 4, w_rank,
                         "cubic together with quadric*(linear) spans 4 dimensions"))
    checks.append(_check("two_point_quotient_affine", 15, len(complement),
                         "residual cubic series has linear dimension 19 - 4 = 15"))
    checks.append(_check("two_point_quotient_projective", 14, len(complement) - 1,
                         "residual cubic series is a projective space of dimension 14"))
    return [SuiteEntry("series", "structural", checks)]


def _inv_mons(degree):
    from .tau import invariant_monomials
    return invariant_monomials(degree)


def _suite_base_locus(config: SuiteConfig):
    basis = invariant_basis(3)
    verdict = verify_base_locus(basis, default_witness_points(QQ))
    checks = [
        _check("line_in_base_locus", True, verdict.line_in_base_locus,
               "every invariant cubic vanishes on the fixed line"),
        _check("witnesses_off_line_cut_out", True,
               all(r[2] for r in verdict.witness_results),
               "no point off the fixed line lies on every invariant cubic"),
    ]
    p0 = tuple(QQ.coerce(1) for _ in range(5))
    idx = next((i for i, f in enumerate(basis) if evaluate(f, p0)), None)
    checks.append(_check("diagonal_point_not_in_base_locus", True, idx is not None,
                         "the all-ones point is cut out by a proper hyperplane of the series"))
    return [SuiteEntry("base-locus", "structural", checks)]


def _suite_two_points(config: SuiteConfig):
    entries = []
    p = config.big_prime()
    domain = PrimeField(p)
    for i in range(config.samples):
        tag = f"two-points:{i}"
        try:
            inst = _instance_for(config, tag, domain)
            rng = random.Random(mix_seed(config.seed, tag + ":pts"))
            pts = random_points_on_surface(inst, rng, 2)
            checks = []
            if len(pts) < 2:
                entries.append(SuiteEntry("two-points", f"fp{p}-{i}",
                                          [_inconclusive("surface_points_found", 2, len(pts),
                                                         "needed two rational surface points")]))
                continue
            res = two_point_analysis(inst, pts[0], pts[1])
            checks.append(_check("cubic_vanishes_at_P", True,
                                 not evaluate(res.form, pts[0]),
                                 "solved cubic passes through the first point"))
            checks.append(_check("cubic_vanishes_at_Q", True,
                                 not evaluate(res.form, pts[1]),
                                 "solved cubic passes through the second point"))
            checks.append(_check("quotient_affine_dim", 15, res.quotient_affine_dim,
                                 "solution search runs in the 15-dimensional residual series"))
            checks.append(_check("solution_projective_dim_bound", ">= 12",
                                 res.solution_projective_dim,
                                 "two point conditions keep projective dimension at least 12",
                                 ok=res.solution_projective_dim >= 12))
            entries.append(SuiteEntry("two-points", f"fp{p}-{i}", checks))
        except Exception as exc:  # noqa: BLE001 - isolation contract
            entries.append(_error_entry("two-points", f"fp{p}-{i}", exc))
    return entries


def _discriminant_checks(inst: TauInstance, rng) -> list:
    dd = disc.discriminant_quintic(inst, rng)
    checks = [
        _check("quintic_degree", 5, dd.quintic.degree,
               "the degenerate-fiber locus is a plane quintic"),
        _check("conic_factor_degree", 2, dd.conic_part.degree,
               "one component is the conic 4*l00*l11 - l01^2"),
        _check("cubic_factor_degree", 3, dd.cubic_part.degree,
               "the other component is the cubic f3"),
        _check("factorization_exact", True,
               exact_divide(dd.quintic, dd.conic_part) == dd.cubic_part,
               "quintic = conic * cubic with zero remainder"),
        _check("six_point_total", 6, dd.intersection.total_multiplicity,
               "components meet in six points counted with multiplicity"),
    ]
    return checks + [CheckResult("distinct_transversal", True, dd.transversal,
                                 "pass" if dd.transversal else "inconclusive",
                                 "general members cross transversally in six distinct points")]


def _suite_discriminant(config: SuiteConfig):
    entries = []
    p = config.big_prime()
    frac_hits = []
    for i in range(config.samples):
        for label, domain in (("qq", QQ), (f"fp{p}", PrimeField(p))):
            tag = f"discriminant:{label}:{i}"
            try:
                inst = _instance_for(config, tag, domain)
                rng = random.Random(mix_seed(config.seed, tag + ":rng"))
                checks = _discriminant_checks(inst, rng)
                frac_hits.append(all(c.status == "pass" for c in checks))
                entries.append(SuiteEntry("discriminant", f"{label}-{i}", checks))
            except Exception as exc:  # noqa: BLE001
                frac_hits.append(False)
                entries.append(_error_entry("discriminant", f"{label}-{i}", exc))
    good = sum(frac_hits)
    entries.append(SuiteEntry("discriminant", "aggregate", [
        _check("distinct_transversal_fraction", ">= 0.95",
               round(good / len(frac_hits), 4),
               "general position holds in at least 95% of gated samples",
               ok=good >= 0.95 * len(frac_hits))]))
    return entries


def _suite_fiber_action(config: SuiteConfig, points_per_component: int = 100):
    entries = []
    p = config.big_prime()
    domain = PrimeField(p)
    for i in range(config.samples):
        tag = f"fiber-action:{i}"
        try:
            inst = _instance_for(config, tag, domain)
            rng = random.Random(mix_seed(config.seed, tag + ":pts"))
            checks = []
            cubic_pts = disc.points_on_cubic_component(inst, rng, points_per_component)
            conic_pts = disc.points_on_conic_component(inst, rng, points_per_component)
            fixes = [disc.tau_fiber_action(inst, pt).action for pt in cubic_pts]
            swaps = [disc.tau_fiber_action(inst, pt).action for pt in conic_pts]
            checks.append(_check("cubic_component_samples", points_per_component,
                                 len(cubic_pts), "sampled points on the cubic component",
                                 ok=len(cubic_pts) >= min(points_per_component, 50)))
            checks.append(_check("conic_component_samples", points_per_component,
                                 len(conic_pts), "sampled points on the conic component",
                                 ok=len(conic_pts) >= min(points_per_component, 50)))
            checks.append(_check("cubic_component_all_fix", "all Fixes",
                                 _tally(fixes), "fibers over the cubic component keep each line",
                                 ok=bool(fixes) and all(a == disc.FIXES for a in fixes)))
            checks.append(_check("conic_component_all_swap", "all Swaps",
                                 _tally(swaps), "fibers over the conic component swap the lines",
                                 ok=bool(swaps) and all(a == disc.SWAPS for a in swaps)))
            entries.append(SuiteEntry("fiber-action", f"fp{p}-{i}", checks))
        except Exception as exc:  # noqa: BLE001
            entries.append(_error_entry("fiber-action", f"fp{p}-{i}", exc))
    return entries


def _tally(actions):
    out = {}
    for a in actions:
        out[a] = out.get(a, 0) + 1
    return out


def _suite_lines(config: SuiteConfig, points_per_instance: int = 5):
    entries = []
    small = config.small_primes()
    for i in range(config.samples):
        p = small[i % len(small)]
        domain = PrimeField(p)
        tag = f"lines:{i}"
        try:
            inst = _instance_for(config, tag, domain)
            rng = random.Random(mix_seed(config.seed, tag + ":T"))
            totals, fixed_flags, brute_ok = [], [], []
            t_used = 0
            guard = 0
            while t_used < points_per_instance and guard < points_per_instance * 8:
                guard += 1
                t0 = domain.coerce(1)
                t1 = domain.coerce(rng.randrange(p))
                try:
                    rep = disc.lines_through_point_of_ltau(inst, (t0, t1), rng)
                except disc.InfinitelyMany:
                    continue
                t_used += 1
                totals.append(rep.total_multiplicity)
                fixed_flags.append(rep.contains_fixed_line)
                brute = disc.lines_through_point_brute(inst, (t0, t1))
                elim_keys = {_dir_key(d, domain) for d, _m, lbl in rep.rational_directions
                             if lbl == f"F{p}"}
                brute_keys = {_dir_key(d, domain) for d in brute}
                brute_ok.append(elim_keys == brute_keys)
            checks = [
                _check("points_probed", points_per_instance, t_used,
                       "generic points of the fixed line probed"),
                _check("total_with_multiplicity", [6] * t_used, totals,
                       "six lines through a general point, counted with multiplicity"),
                _check("fixed_line_always_present", [True] * t_used, fixed_flags,
                       "the fixed line is one of the six"),
                _check("brute_force_agreement", [True] * t_used, brute_ok,
                       "rational solutions match exhaustive enumeration of the direction space"),
            ]
            entries.append(SuiteEntry("lines", f"fp{p}-{i}", checks))
        except Exception as exc:  # noqa: BLE001
            entries.append(_error_entry("lines", f"fp{p}-{i}", exc))
    return entries


def _dir_key(pt, domain):
    lead = next(c for c in pt if c)
    inv = domain.one / lead
    return tuple((c * inv).residue for c in pt)


def _suite_cone(config: SuiteConfig):
    entries = []
    p = config.big_prime()
    for i in range(config.samples):
        label, domain = (("qq", QQ) if i % 2 == 0 else (f"fp{p}", PrimeField(p)))
        tag = f"cone:{i}"
        try:
            inst = _instance_for(config, tag, domain)
            rng = random.Random(mix_seed(config.seed, tag + ":probe"))
            rep = disc.cone_and_singular_member(inst, rng=rng, probe_prime=p)
            probe_target = "sampled points away from the fixed line are smooth"
            probe_check = (
                _inconclusive("off_line_probes_smooth", True, rep.probe_undecided, probe_target)
                if rep.probe_undecided else
                _check("off_line_probes_smooth", True,
                       rep.probes_all_smooth and rep.probe_count > 0, probe_target))
            checks = [
                _check("singular_locus_is_fixed_line", True, rep.singular_locus_is_fixed_line,
                       "the cone over the conic component is singular exactly on the fixed line"),
                _check("line_intersection_count", 2, len(rep.line_points),
                       "the pencil member meets the fixed line in two points"),
                _check("line_points_singular", True, rep.line_points_singular,
                       "both fixed-line points are singular on the pencil member"),
                probe_check,
            ]
            entries.append(SuiteEntry("cone", f"{label}-{i}", checks))
        except Exception as exc:  # noqa: BLE001
            entries.append(_error_entry("cone", f"{label}-{i}", exc))
    return entries


def _suite_genus(config: SuiteConfig):
    led = ledgers.prym_dimension_ledger()
    checks = [
        _check("double_cover_of_conic", 2, ledgers.hurwitz_double_cover(0, 6),
               "genus of a double cover of a rational curve with six branch points"),
        _check("double_cover_of_cubic", 4, ledgers.hurwitz_double_cover(1, 6),
               "genus of a double cover of an elliptic curve with six branch points"),
        _check("conic_genus", 0, ledgers.plane_curve_genus(2), "a smooth conic is rational"),
        _check("cubic_genus", 1, ledgers.plane_curve_genus(3), "a smooth plane cubic is elliptic"),
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
    return [SuiteEntry("genus", "ledger", checks)]


def _suite_koszul(config: SuiteConfig):
    entries = []
    kl = ledgers.koszul_h01_ledger()
    checks = [
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
    entries.append(SuiteEntry("koszul", "ledger", checks))
    p = config.big_prime()
    tag = "koszul:sampling"
    try:
        inst = _instance_for(config, tag, PrimeField(p))
        rng = random.Random(mix_seed(config.seed, tag + ":rng"))
        sam_checks = []
        for d in (1, 2, 3):
            want = ledgers.ideal_section_dimension((2, 3), d, 4)
            got = ledgers.ideal_dimension_by_sampling(inst, d, rng)
            sam_checks.append(_check(f"evaluation_matrix_d{d}", want, got,
                                     "rank deficiency of the surface evaluation matrix"))
        entries.append(SuiteEntry("koszul", f"fp{p}-sampling", sam_checks))
    except Exception as exc:  # noqa: BLE001
        entries.append(_error_entry("koszul", f"fp{p}-sampling", exc))
    return entries


def _suite_split(config: SuiteConfig):
    s = sym2_eigensplit()
    j = ledgers.jacobian_tau_split()
    checks = [
        _check("sym2_minus_block", 3, s.dim_sym2_minus,
               "quadrics in the two negated coordinates"),
        _check("mixed_block", 6, s.dim_mixed, "mixed products, sign-flipped by the involution"),
        _check("sym2_plus_block", 6, s.dim_sym2_plus, "quadrics in the three fixed coordinates"),
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
    return [SuiteEntry("split", "ledger", checks)]


def _suite_fixed_points(config: SuiteConfig):
    entries = []
    p = config.big_prime()
    hits = []
    for i in range(config.samples):
        label, domain = (("qq", QQ) if i % 2 == 0 else (f"fp{p}", PrimeField(p)))
        tag = f"fixed-points:{i}"
        try:
            inst = _instance_for(config, tag, domain)
            rng = random.Random(mix_seed(config.seed, tag + ":rng"))
            rep = fixed_points_on_S(inst, rng=rng)
            line_mult = sum(m for _, m in rep.line_points)
            checks = [
                _check("line_point_total", 2, line_mult,
                       "the quadric cuts two points on the fixed line"),
                _check("plane_point_total", 6, rep.plane.total_multiplicity,
                       "the surface meets the fixed plane in six points with multiplicity"),
                _check("grand_total", 8, rep.total_multiplicity,
                       "eight fixed surface points in all"),
            ]
            checks.append(CheckResult("all_distinct", True, rep.all_distinct,
                                      "pass" if rep.all_distinct else "inconclusive",
                                      "general members have eight distinct fixed points"))
            hits.append(rep.all_distinct and rep.total_multiplicity == 8)
            entries.append(SuiteEntry("fixed-points", f"{label}-{i}", checks))
        except Exception as exc:  # noqa: BLE001
            hits.append(False)
            entries.append(_error_entry("fixed-points", f"{label}-{i}", exc))
    good = sum(hits)
    entries.append(SuiteEntry("fixed-points", "aggregate", [
        _check("distinct_fraction", ">= 0.95", round(good / len(hits), 4),
               "distinct fixed points in at least 95% of gated samples",
               ok=good >= 0.95 * len(hits))]))
    return entries


def _suite_quotient(config: SuiteConfig, spot_checks: int = 50):
    entries = []
    p = config.big_prime()
    for i in range(config.samples):
        label, domain = (("qq", QQ) if i % 2 == 0 else (f"fp{p}", PrimeField(p)))
        tag = f"quotient:{i}"
        try:
            inst = _instance_for(config, tag, domain)
            rng = random.Random(mix_seed(config.seed, tag + ":rng"))
            bf = quot.quotient_equation(inst)
            sext = quot.branch_sextic(inst)
            sqfree = quot.sextic_squarefree_probe(inst, p=p, rng=rng)
            work = inst if isinstance(domain, PrimeField) else reduce_instance(inst, p)
            ident_ok, member_ok, probed = _quotient_spot_checks(work, rng, spot_checks)
            checks = [
                _check("bidegree", [2, 3], list(bf.bidegree),
                       "quotient equation is quadratic in (x0,x1) with cubic coefficients"),
                _check("branch_degree", 6, sext.degree,
                       "the branch discriminant is a plane sextic"),
                CheckResult("branch_squarefree_probe", "squarefree (generic)", sqfree,
                            "pass" if sqfree else "inconclusive",
                            "line sections of the sextic probe squarefreeness over F_p"),
                _check("pullback_identity_samples", probed, ident_ok,
                       "cubic*f2 - quadric*f3 reproduces the quotient equation pointwise"),
                _check("fiber_membership_samples", probed, member_ok,
                       "quotient equation vanishes exactly on images of surface points"),
                CheckResult("branch_genus", "degree 6 verified", "genus not computed",
                            "inconclusive",
                            "geometric genus of the singular branch sextic is out of scope"),
            ]
            entries.append(SuiteEntry("quotient", f"{label}-{i}", checks))
        except Exception as exc:  # noqa: BLE001
            entries.append(_error_entry("quotient", f"{label}-{i}", exc))
    return entries


def _quotient_spot_checks(inst: TauInstance, rng: random.Random, count: int):
    """Pointwise cross-checks of the quotient equation over F_p."""
    domain = inst.domain
    p = domain.p
    phi, F = inst.cubic(), inst.quadric(0)
    q = inst.quadrics[0]
    ident_ok = member_ok = probed = 0
    guard = 0
    while probed < count and guard < count * 10:
        guard += 1
        x0 = domain.coerce(rng.randrange(p))
        x1 = domain.coerce(rng.randrange(p))
        P = tuple(domain.coerce(rng.randrange(p)) for _ in range(3))
        if not any(P) or (not x0 and not x1):
            continue
        f2v = evaluate(q.f2, P)
        quad_f = q.a00 * x0 * x0 + q.a01 * x0 * x1 + q.a11 * x1 * x1
        if not f2v or not quad_f:
            continue
        probed += 1
        a, b, c = quot.fiber_quadratic(inst, P)
        qval = a * x0 * x0 + b * x0 * x1 + c * x1 * x1
        pt5 = (x0, x1) + P
        direct = evaluate(phi, pt5) * f2v - evaluate(F, pt5) * evaluate(inst.f3, P)
        if qval == direct:
            ident_ok += 1
        # membership: a lift (x0 : x1 : t*P) on the surface with t != 0 exists
        # exactly when the quotient equation vanishes (given f2(P), quad_f != 0)
        t_sq = -quad_f / f2v
        if not t_sq:
            member_ok += 1 if not qval else 0
            continue
        t, fld = quad_sqrt(t_sq, domain)
        lifted = (fld.coerce(x0), fld.coerce(x1)) + tuple(fld.coerce(c0) * t for c0 in P)
        on_surface = (not evaluate(phi, lifted)) and (not evaluate(F, lifted))
        if on_surface == (not qval):
            member_ok += 1
    return ident_ok, member_ok, probed


_SUITE_FUNCS = {
    "series": _suite_series,
    "base-locus": _suite_base_locus,
    "two-points": _suite_two_points,
    "discriminant": _suite_discriminant,
    "fiber-action": _suite_fiber_action,
    "lines": _suite_lines,
    "cone": _suite_cone,
    "genus": _suite_genus,
    "koszul": _suite_koszul,
    "split": _suite_split,
    "fixed-points": _suite_fixed_points,
    "quotient": _suite_quotient,
}


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute the selected suites; deterministic given (seed, config)."""
    if config.instance_path:
        load_instance(config.instance_path)  # parse errors abort before any suite
    report = VerificationReport(config={
        "suites": list(config.suites), "samples": config.samples, "seed": config.seed,
        "primes": list(config.primes), "bound": config.bound,
        "instance_path": config.instance_path,
    })
    for name in config.suites:
        fn = _SUITE_FUNCS[name]
        start = time.perf_counter()
        try:
            entries = fn(config)
        except Exception as exc:  # noqa: BLE001 - isolation contract
            entries = [_error_entry(name, "suite", exc)]
        elapsed = (time.perf_counter() - start) * 1000.0
        for e in entries:
            if not e.elapsed_ms:
                e.elapsed_ms = round(elapsed / max(1, len(entries)), 3)
        report.entries.extend(entries)
    return report
