"""Harness: configuration validation, instance round trips, report determinism,
and the CLI contract."""

import hashlib
import json
import math
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import taucubic.harness as hz
import taucubic.quotient as quot
from taucubic.forms import Form, evaluate
from taucubic.harness import (FIBER_POINTS_NEEDED, MIN_SAMPLING_PRIME, REDUCTION_CHECK,
                              SAMPLING_SUITES, SPOT_CHECKS, SUITE_NAMES, CheckResult,
                              ConfigError, InstanceParseError, SuiteConfig, SuiteEntry,
                              _quotient_spot_checks, _with_fraction, decode_instance,
                              emit_report, encode_instance, encode_scalar, load_instance,
                              mix_seed, run_suite)
from taucubic.scalars import FpElem, PrimeField, QQ, is_prime, quad_sqrt
from taucubic.tau import (QuadricPart, TauInstance, canonical_instance, reduce_instance,
                          sample_instance)
from fractions import Fraction


def test_config_rejects_empty_suites():
    with pytest.raises(ConfigError):
        SuiteConfig(suites=())


def test_config_rejects_unknown_suite():
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("genus", "nope"))


def test_config_rejects_bad_primes():
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("genus",), primes=(3, 7))
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("genus",), primes=(9,))


@pytest.mark.parametrize("primes", [(5,), (7,), (13,), ()])
def test_config_rejects_primes_too_small_to_sample(primes):
    with pytest.raises(ConfigError, match=str(MIN_SAMPLING_PRIME)):
        SuiteConfig(suites=("fiber-action",), primes=primes)
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("all",), primes=primes)


def test_sampling_prime_is_the_first_admitted_from_the_bound():
    assert SuiteConfig(suites=("all",), primes=(17, 101)).big_prime() == 101
    assert SuiteConfig(suites=("all",)).big_prime() == 101
    assert SuiteConfig(suites=("all",), primes=(11, 73, 101)).big_prime() == 73


def test_min_sampling_prime_from_the_hasse_bound():
    # Hasse: a smooth plane cubic has >= p + 1 - 2 sqrt(p) points, six of them
    # possibly on the conic; the least p leaving FIBER_POINTS_NEEDED off it
    least = next(p for p in range(5, 200)
                 if is_prime(p) and p + 1 - 2 * math.sqrt(p) - 6 >= FIBER_POINTS_NEEDED)
    assert least == MIN_SAMPLING_PRIME


def test_sampling_suites_pass_at_the_least_sampling_prime():
    cfg = SuiteConfig(suites=("fiber-action", "koszul", "two-points"), primes=(73,))
    report = run_suite(cfg)
    assert report.summary()["failed"] == 0
    assert {e.instance_id for e in report.entries} >= {"fp73-0", "fp73-sampling"}


def test_other_suites_need_no_sampling_prime():
    # the lines suite works at 11 and 13, the structural ones at no prime
    others = tuple(s for s in SUITE_NAMES if s not in SAMPLING_SUITES)
    assert set(others) == {"series", "base-locus", "lines", "genus", "split"}
    report = run_suite(SuiteConfig(suites=others, primes=(11, 13)))
    assert report.summary()["failed"] == 0


def test_config_rejects_bad_samples():
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("genus",), samples=0)


def test_config_all_expands_in_order():
    cfg = SuiteConfig(suites=("all",))
    assert cfg.suites[0] == "series" and "quotient" in cfg.suites


def test_mix_seed_stable():
    assert mix_seed(7, "lines:0") == mix_seed(7, "lines:0")
    assert mix_seed(7, "lines:0") != mix_seed(8, "lines:0")
    assert mix_seed(7, "lines:0") != mix_seed(7, "lines:1")


# --- serialization ------------------------------------------------------


def test_scalar_encoding():
    assert encode_scalar(Fraction(3, 2)) == "3/2"
    assert encode_scalar(Fraction(5)) == "5"
    assert encode_scalar(FpElem(9, 11)) == {"r": 9, "p": 11}


def test_instance_roundtrip_rational():
    inst = sample_instance(1, 6)
    assert decode_instance(encode_instance(inst)) == inst


def test_instance_roundtrip_prime_field():
    inst = sample_instance(2, 9, domain=PrimeField(101))
    assert decode_instance(encode_instance(inst)) == inst


def test_canonical_fixture_loads():
    inst = load_instance("tests/fixtures/canonical_instance.json")
    assert inst == canonical_instance()


def test_zero_denominator_rejected(tmp_path):
    data = encode_instance(canonical_instance())
    data["l00"][0] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceParseError) as err:
        load_instance(path)
    assert "l00[0]" in str(err.value)


def test_wrong_length_rejected(tmp_path):
    data = encode_instance(canonical_instance())
    data["f3"] = data["f3"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceParseError) as err:
        load_instance(path)
    assert "f3" in str(err.value)


def _load_with_scalar(tmp_path, inst, field, index, value):
    data = encode_instance(inst)
    data[field][index] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return load_instance(path)


# Python reads a JSON true as the int 1, and int(2.7) truncates to 2
@pytest.mark.parametrize("p, field, value, where", [
    (None, "l00", True, "l00[0]"),
    (101, "l00", {"r": False, "p": 101}, "l00[0].r"),
    (101, "f3", {"r": 2.7, "p": 101}, "f3[0].r"),
], ids=["boolean-scalar", "boolean-residue", "non-integral-residue"])
def test_malformed_scalar_rejected(tmp_path, p, field, value, where):
    inst = canonical_instance() if p is None else sample_instance(2, 9, domain=PrimeField(p))
    with pytest.raises(InstanceParseError) as err:
        _load_with_scalar(tmp_path, inst, field, 0, value)
    assert where in str(err.value)


def test_integer_string_scalars_load(tmp_path):
    inst = sample_instance(2, 9, domain=PrimeField(101))
    loaded = _load_with_scalar(tmp_path, inst, "l00", 0, {"r": "7", "p": 101})
    assert loaded.l00.coeffs[0] == FpElem(7, 101)
    loaded = _load_with_scalar(tmp_path, canonical_instance(), "l00", 0, "7")
    assert loaded.l00.coeffs[0] == 7


def test_mixed_moduli_rejected(tmp_path):
    data = encode_instance(sample_instance(2, 9, domain=PrimeField(101)))
    data["l00"][0] = {"r": 1, "p": 103}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceParseError):
        load_instance(path)


# --- report runs --------------------------------------------------------


def test_run_deterministic():
    cfg = SuiteConfig(suites=("genus", "split", "fixed-points"), samples=2, seed=5)
    a = run_suite(cfg)
    b = run_suite(cfg)
    assert a.canonical_text() == b.canonical_text()
    # each entry is timed alone: the aggregate costs far less than an instance
    fixed = {e.instance_id: e.elapsed_ms for e in a.entries if e.suite == "fixed-points"}
    assert fixed["aggregate"] < min(fixed["qq-0"], fixed["fp101-1"])


def test_run_deterministic_across_processes():
    code = ("import hashlib; from taucubic.harness import SuiteConfig, run_suite; "
            "cfg = SuiteConfig(suites=('fixed-points', 'quotient'), samples=1, seed=9); "
            "print(hashlib.sha256(run_suite(cfg).canonical_text().encode()).hexdigest())")
    digests = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True).stdout.strip() for _ in range(2)}
    assert len(digests) == 1


def test_report_bytes_match_fixture():
    # a change that moves a sampled point regenerates the fixture and says why
    fixture = Path(__file__).parent / "fixtures" / "report_all_samples1_seed0.txt"
    report = run_suite(SuiteConfig(suites=("all",), samples=1, seed=0))
    assert report.canonical_text() == fixture.read_text()


# sha256 of canonical_text() for each F_p sampling suite at samples=3, seeds 0-2:
# any change to what the point samplers draw from the rng, or to the points they
# return, moves a digest
SAMPLER_DIGESTS = {
    "fiber-action": (
        "b7b75b540f9bce15d7d9af410ec80b138e68f5308fec7447e456c7c19531aa26",
        "7c48769b5a2a0c4e198d0def080329d2e516226414daf99ceb848fb26c2d6112",
        "27bcda0f0181fa43b64cd2f1766f20fe0b672bb5fc11f19959d5c8d558e9f7e3"),
    "koszul": (
        "fa3c81f6e02a0213a1f55a154b0191f01e14e36c68c183df03bbae7d294ac842",
        "24cdc9ac2a9eafbb67fce4f9b3687d83e501eb898a54679e5a1cbdd815a2f966",
        "1993f681d8d55489729e2d39210576adda1a22afa0ac009af507f403b247b9ee"),
    "two-points": (
        "1efba9d07c5040962140bc911431c13742e6a5cef3cfe317e7be2ed379e17ac6",
        "763f954b196ce116e7e41aa2d3d2f6cef8d26e0275fb1d80d1e1e87697f09a19",
        "e0e4b2631378b4863f515e4dbd35088d612783992da607e64c3e34b978af9e6f"),
}


@pytest.mark.parametrize("suite", sorted(SAMPLER_DIGESTS))
def test_sampler_report_bytes_pinned(suite):
    for seed, want in enumerate(SAMPLER_DIGESTS[suite]):
        text = run_suite(SuiteConfig(suites=(suite,), samples=3, seed=seed)).canonical_text()
        assert hashlib.sha256(text.encode()).hexdigest() == want, (suite, seed)


# sha256 of canonical_text() for every suite at samples=2, seeds 0-9: a change
# that keeps every verdict and every sampled point keeps these bytes
ALL_SUITES_DIGESTS = (
    "e068712d50ec526351e3d246ce0b5c6752ca3419536bf39a69b84404a4fa2488",
    "ed8fdd6ac3dfbb4c929d7767b4666b93f223b786beb5ea4f62c8a3612b73c2fc",
    "43746da7a18084f99144dbd980d0e721ddf40991386df5f2bbddab1edd94352f",
    "3cc7bb87585cb704f0bc24054b34733d97f80780bc9c1b2262ddaac14974fc5e",
    "a162c6247b92ac9f4bb495212e6a02904baa9b949b4af261159f65f271573e69",
    "77d7125e413c3e2e6c2e6ebc36f3880938e353e894def1a302e46de60afbed6c",
    "49cf599a841fb87db41f0c23b00390e1d9a9c2b7a6c88e7d927c30c5ab574d4f",
    "c517da414b5fd5413ccb422c8afdc57a8d4cab7b8df6bb5f497422ab7f6ffae4",
    "fc8301cb315f4ba2b5445566141178779bbcffdb6b2617e8c7ea3b90d2ca0fad",
    "c8fd3472ab0cb581e9a5fb8bf30c05494d35541040eef5ac30841d67b1bb46eb",
)


@pytest.mark.parametrize("seed", [0, 1] + [pytest.param(s, marks=pytest.mark.sweep)
                                           for s in range(2, 10)])
def test_all_suites_report_bytes_pinned(seed):
    text = run_suite(SuiteConfig(suites=("all",), samples=2, seed=seed)).canonical_text()
    assert hashlib.sha256(text.encode()).hexdigest() == ALL_SUITES_DIGESTS[seed]


def test_failing_check_does_not_abort_others(monkeypatch):
    import taucubic.harness as hz

    def boom(config, loaded):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(hz._SUITE_FUNCS, "genus", boom)
    cfg = SuiteConfig(suites=("genus", "split"), samples=1, seed=0)
    report = run_suite(cfg)
    suites_seen = {e.suite for e in report.entries}
    assert suites_seen == {"genus", "split"}
    assert report.summary()["failed"] >= 1
    (error,) = [c for e in report.entries if e.suite == "genus" for c in e.checks]
    raise_line = boom.__code__.co_firstlineno + 1
    assert error.computed == f"RuntimeError: synthetic failure at test_harness.py:{raise_line}"
    split_checks = [c for e in report.entries if e.suite == "split" for c in e.checks]
    assert split_checks and all(c.status == "pass" for c in split_checks)


def test_emit_report_and_reload(tmp_path):
    cfg = SuiteConfig(suites=("genus",), samples=1, seed=3)
    report = run_suite(cfg)
    out = tmp_path / "report.json"
    emit_report(report, out)
    data = json.loads(out.read_text())
    assert data["summary"]["failed"] == 0
    assert all("target" in c for e in data["entries"] for c in e["checks"])


def test_report_file_has_provenance_outside_canonical_text(tmp_path):
    import numpy
    import platform
    from taucubic import __version__
    report = run_suite(SuiteConfig(suites=("split",), samples=1, seed=0))
    out = tmp_path / "report.json"
    assert _run_cli("verify", "--suite", "split", "--out", str(out)).returncode == 0
    prov = json.loads(out.read_text())["provenance"]
    assert set(prov) == {"version", "git_sha", "python", "numpy"}
    assert (prov["version"], prov["python"], prov["numpy"]) == (
        __version__, platform.python_version(), numpy.__version__)
    assert prov["git_sha"] == "unknown" or len(prov["git_sha"]) == 40
    assert "provenance" not in report.canonical_text()
    assert prov["git_sha"] not in report.canonical_text()


def test_loaded_instance_used_by_suites(tmp_path):
    for p, suites in ((101, ("fixed-points", "quotient")), (11, ("lines",))):
        inst = sample_instance(3, 8, domain=PrimeField(p))
        path = tmp_path / f"inst{p}.json"
        path.write_text(json.dumps(encode_instance(inst)))
        cfg = SuiteConfig(suites=suites, samples=2, seed=0, instance_path=str(path))
        report = run_suite(cfg)
        assert report.summary()["failed"] == 0, suites


def test_bad_reduction_is_inconclusive_with_its_reason(tmp_path):
    # 1/101 in f3: every entry that reduces mod 101 cannot be decided, and the
    # aggregates count only the entries checked over Q
    data = json.loads((Path(__file__).parent / "fixtures" / "canonical_instance.json").read_text())
    data["f3"][1] = "1/101"
    path = tmp_path / "bad101.json"
    path.write_text(json.dumps(data))
    report = run_suite(SuiteConfig(suites=("all",), samples=2, seed=0, instance_path=str(path)))
    assert report.summary()["failed"] == 0
    undecided = {(e.suite, e.instance_id): [c for c in e.checks if c.status == "inconclusive"]
                 for e in report.entries}
    bad = {key for key, checks in undecided.items()
           if any("divisible by 101" in str(c.computed) for c in checks)}
    assert bad == {("two-points", "fp101-0"), ("two-points", "fp101-1"),
                   ("discriminant", "fp101-0"), ("discriminant", "fp101-1"),
                   ("fiber-action", "fp101-0"), ("fiber-action", "fp101-1"),
                   ("cone", "qq-0"), ("cone", "fp101-1"), ("koszul", "fp101-sampling"),
                   ("fixed-points", "fp101-1"), ("quotient", "qq-0"), ("quotient", "fp101-1")}
    for key, checks in undecided.items():
        assert all(c.computed for c in checks), key
    aggregates = {e.suite: e.checks[0] for e in report.entries if e.instance_id == "aggregate"}
    assert {s: (c.status, c.computed) for s, c in aggregates.items()} == {
        "discriminant": ("pass", 1.0), "fixed-points": ("pass", 1.0)}


def test_aggregate_with_no_reducible_entry_is_inconclusive():
    entries = [SuiteEntry("fixed-points", f"fp101-{i}",
                          [CheckResult(REDUCTION_CHECK, True, "bad reduction", "inconclusive")])
               for i in range(2)]
    aggregate = _with_fraction("fixed-points", entries, "distinct_fraction", "")[-1]
    assert [c.status for c in aggregate.checks] == ["inconclusive"]


# the slots' own fields: Q (for some suites), F_103 and F_11 / F_13 (lines)
_LABEL_PRIMES = (11, 13, 103)
_RATIONAL_FILE_IDS = {
    "two-points": ["fp103-0", "fp103-1"],
    "discriminant": ["qq-0", "fp103-0", "qq-1", "fp103-1"],
    "fiber-action": ["fp103-0", "fp103-1"],
    "lines": ["fp11-0", "fp13-1"],
    "cone": ["qq-0", "fp103-1"],
    "koszul": ["fp103-sampling"],
    "fixed-points": ["qq-0", "fp103-1"],
    "quotient": ["qq-0", "fp103-1"],
}


@pytest.mark.parametrize("suite", sorted(_RATIONAL_FILE_IDS))
def test_instance_file_entries_named_by_checked_field(tmp_path, suite):
    # an instance over F_101 is checked as it is in every slot, so every entry
    # is named fp101-<i>; a rational one keeps the slot names, qq-<i> where it
    # is checked over Q and fp<p>-<i> where it is reduced mod p
    path = tmp_path / "inst101.json"
    path.write_text(json.dumps(encode_instance(sample_instance(3, 8, domain=PrimeField(101)))))
    rational = str(Path(__file__).parent / "fixtures" / "canonical_instance.json")
    fp101_ids = ["fp101-sampling"] if suite == "koszul" else ["fp101-0", "fp101-1"]
    for inst_path, want in ((str(path), fp101_ids), (rational, _RATIONAL_FILE_IDS[suite])):
        cfg = SuiteConfig(suites=(suite,), samples=2, seed=0, primes=_LABEL_PRIMES,
                          instance_path=inst_path)
        ids = [e.instance_id for e in run_suite(cfg).entries
               if e.instance_id not in ("aggregate", "ledger")]
        assert ids == want, inst_path


# --- quotient spot checks -----------------------------------------------


def _pointwise_spot_checks(inst, rng, count):
    """Reference oracle for ``_quotient_spot_checks``: one probe and one
    ``evaluate`` call per form at a time, the lift (x0 : x1 : tP) taken in
    F_p(sqrt(t^2)) by ``quad_sqrt`` when t^2 is not a square mod p."""
    domain = inst.domain
    p = domain.p
    phi, F = inst.cubic(), inst.quadric()
    q = inst.quadrics[0]
    abc = quot.quotient_equation(inst)
    ident_ok = member_ok = probed = guard = 0
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
        a, b, c = (evaluate(f, P) for f in abc)
        qval = a * x0 * x0 + b * x0 * x1 + c * x1 * x1
        pt5 = (x0, x1) + P
        direct = evaluate(phi, pt5) * f2v - evaluate(F, pt5) * evaluate(inst.f3, P)
        ident_ok += qval == direct
        t, fld = quad_sqrt(-quad_f / f2v, domain)
        lifted = (fld.coerce(x0), fld.coerce(x1)) + tuple(fld.coerce(c0) * t for c0 in P)
        on_surface = (not evaluate(phi, lifted)) and (not evaluate(F, lifted))
        member_ok += on_surface == (not qval)
    return ident_ok, member_ok, probed


_QUOTIENT_EQUATION = quot.quotient_equation


def _bent_quotient_equation(inst):
    """The quotient equation with x2^3 added to A: wrong at most probes."""
    a, b, c = _QUOTIENT_EQUATION(inst)
    return a + Form.from_terms(3, 3, {(3, 0, 0): 1}, inst.domain), b, c


_BIG_PRIME = 4294967311   # > 2^32: residues are Python ints (dtype=object)


def _spot_check_instances():
    for p in (11, 13, 101, 1009):
        for s in range(2):
            yield p, s, sample_instance(s, 10, domain=PrimeField(p))
    for s in range(2):
        yield _BIG_PRIME, s, reduce_instance(sample_instance(s, 10), _BIG_PRIME)


# (p, seed): (ident, member, probed) of the instance and of the bent quotient
# equation, both with rng Random(seed) and 50 probes
SPOT_CHECK_PINS = {
    (11, 0): ((50, 50, 50), (6, 44, 50)),
    (11, 1): ((50, 50, 50), (7, 44, 50)),
    (13, 0): ((50, 50, 50), (6, 45, 50)),
    (13, 1): ((50, 50, 50), (9, 43, 50)),
    (101, 0): ((50, 50, 50), (0, 49, 50)),
    (101, 1): ((50, 50, 50), (1, 48, 50)),
    (1009, 0): ((50, 50, 50), (0, 50, 50)),
    (1009, 1): ((50, 50, 50), (0, 50, 50)),
    (_BIG_PRIME, 0): ((50, 50, 50), (0, 50, 50)),
    (_BIG_PRIME, 1): ((50, 50, 50), (0, 50, 50)),
}


def test_quotient_spot_checks_pinned(monkeypatch):
    got = {}
    for p, s, inst in _spot_check_instances():
        true = _quotient_spot_checks(inst, random.Random(s), SPOT_CHECKS)
        with monkeypatch.context() as m:
            m.setattr(quot, "quotient_equation", _bent_quotient_equation)
            bent = _quotient_spot_checks(inst, random.Random(s), SPOT_CHECKS)
        got[p, s] = (true, bent)
    assert got == SPOT_CHECK_PINS


def test_quotient_spot_checks_stop_after_ten_draws_per_probe():
    # with q(x0, x1) = 0 no draw is admissible
    inst = sample_instance(0, 10, domain=PrimeField(13))
    zero = PrimeField(13).zero
    flat = replace(inst, quadrics=(QuadricPart(zero, zero, zero, inst.quadrics[0].f2),))
    assert _quotient_spot_checks(flat, random.Random(0), SPOT_CHECKS) == (0, 0, 0)


@pytest.mark.parametrize("p", [11, 13])
def test_quotient_spot_checks_match_the_pointwise_oracle(monkeypatch, p):
    # at small p a draw is often rejected and t^2 is a non-square about half the time
    for s in range(15):
        inst = sample_instance(100 + s, 10, domain=PrimeField(p))
        for count in (SPOT_CHECKS, 7):
            want = _pointwise_spot_checks(inst, random.Random(s), count)
            assert _quotient_spot_checks(inst, random.Random(s), count) == want, (s, count)
        with monkeypatch.context() as m:
            m.setattr(quot, "quotient_equation", _bent_quotient_equation)
            want = _pointwise_spot_checks(inst, random.Random(s), SPOT_CHECKS)
            assert _quotient_spot_checks(inst, random.Random(s), SPOT_CHECKS) == want, s


def test_quotient_spot_checks_catch_a_wrong_equation_or_quadric(monkeypatch):
    inst = sample_instance(0, 10, domain=PrimeField(11))
    with monkeypatch.context() as m:
        m.setattr(quot, "quotient_equation", _bent_quotient_equation)
        ident, member, probed = _quotient_spot_checks(inst, random.Random(0), SPOT_CHECKS)
    assert ident < probed and member < probed
    # another invariant quadric in place of the surface's
    quadric = TauInstance.quadric
    x2_sq = Form.from_terms(5, 2, {(0, 0, 2, 0, 0): 1}, inst.domain)
    monkeypatch.setattr(TauInstance, "quadric", lambda self: quadric(self) + x2_sq)
    ident, member, probed = _quotient_spot_checks(inst, random.Random(0), SPOT_CHECKS)
    assert ident < probed and member < probed


def test_quotient_suite_errors_on_a_tau_odd_cubic(monkeypatch):
    # x0 x2^2 is odd in (x0, x1): the spot checks read the cubic's tau-split,
    # which raises on it, instead of evaluating the monomial
    cubic = TauInstance.cubic
    monkeypatch.setattr(TauInstance, "cubic", lambda self: cubic(self) + Form.from_terms(
        5, 3, {(1, 0, 2, 0, 0): 1}, self.domain))
    report = run_suite(SuiteConfig(suites=("quotient",), samples=2, seed=0))
    assert len(report.entries) == 2
    for entry in report.entries:
        [check] = entry.checks
        assert (check.name, check.status) == ("no_error", "fail")
        assert check.computed.startswith("ArithmeticError: the form has the monomial")
        assert "not tau-invariant" in check.computed


def test_too_few_spot_check_probes_are_inconclusive(monkeypatch):
    monkeypatch.setattr(hz, "_quotient_spot_checks", lambda inst, rng, count: (3, 3, 3))
    report = run_suite(SuiteConfig(suites=("quotient",), samples=2, seed=0))
    spot = [c for e in report.entries for c in e.checks
            if c.name in ("pullback_identity_samples", "fiber_membership_samples")]
    assert len(spot) == 4
    for c in spot:
        assert (c.status, c.expected) == ("inconclusive", SPOT_CHECKS)
        assert "3 of only 3 admissible probes" in c.computed
    assert report.summary()["failed"] == 0


# --- CLI ----------------------------------------------------------------


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "taucubic.cli", *args],
                          capture_output=True, text=True)


def test_cli_success_exit_zero(tmp_path):
    out = tmp_path / "rep.json"
    proc = _run_cli("verify", "--suite", "genus,split", "--samples", "1",
                    "--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "summary:" in proc.stdout
    assert json.loads(out.read_text())["summary"]["failed"] == 0


def test_cli_config_error_exit_two():
    proc = _run_cli("verify", "--suite", "bogus")
    assert proc.returncode == 2


def test_cli_bad_prime_exit_two():
    proc = _run_cli("verify", "--suite", "genus", "--primes", "2,7")
    assert proc.returncode == 2


def test_cli_no_sampling_prime_exit_two():
    proc = _run_cli("verify", "--suite", "fiber-action", "--primes", "13")
    assert proc.returncode == 2
    assert str(MIN_SAMPLING_PRIME) in proc.stderr and "Traceback" not in proc.stderr


def test_cli_parse_error_exit_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = _run_cli("verify", "--suite", "fixed-points", "--instance", str(path))
    assert proc.returncode == 2


@pytest.mark.parametrize("field, value", [
    ("quadrics", [[1, 2, 3]]),
    ("l00", 5),
    ("l00", ["1", {"r": 1, "p": "x"}, "0"]),
    ("l00", ["1", {"r": 1, "p": 4}, "0"]),
], ids=["quadric-not-object", "form-not-list", "modulus-not-int", "modulus-not-prime"])
def test_cli_malformed_instance_exit_two(tmp_path, field, value):
    data = encode_instance(canonical_instance())
    data[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = _run_cli("verify", "--suite", "fixed-points", "--instance", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"instance error: {field}")


def test_cli_failure_exit_one(tmp_path):
    # an instance violating a target: quadric with a repeated line root would
    # be rejected by the gate, so instead force failure via a doctored report:
    # simplest honest route: an instance whose quadric cuts a double point on
    # the fixed line makes fixed-points report 8 with a double, still passing
    # totals; so use the degenerate conic-part instance to break discriminant.
    inst = canonical_instance()
    from taucubic.harness import encode_instance as enc
    from taucubic.tau import TauInstance
    from taucubic.forms import Form
    bad = TauInstance(QQ, inst.l00, inst.l00, Form.zero_form(3, 1, QQ), inst.f3,
                      inst.quadrics)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(enc(bad)))
    proc = _run_cli("verify", "--suite", "discriminant", "--samples", "1",
                    "--instance", str(path))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
