"""Seed sweep: the sampling suites over many seeds must produce no `fail`.

The full sweep is opt-in, outside the default run: `pytest -m sweep`.  Three
three-seed slices run by default: fiber-action with discriminant, the suites
that sample most gated instances (lines, fixed-points, quotient, cone), and
the surface-point suites (two-points, koszul).
"""

import pytest

from taucubic import roots
from taucubic.harness import SuiteConfig, run_suite
from taucubic.tau import genericity_report, sample_instance

SUITES = ("two-points", "discriminant", "fiber-action", "lines", "cone", "koszul",
          "fixed-points", "quotient")


def _failures(config):
    return [f"{e.suite}/{e.instance_id}: {c.name} = {c.computed!r}"
            for e in run_suite(config).entries for c in e.checks if c.status == "fail"]


@pytest.mark.sweep
@pytest.mark.parametrize("seed", range(20))
def test_no_failures_across_seeds(seed):
    assert not _failures(SuiteConfig(suites=SUITES, samples=20, seed=seed))


@pytest.mark.parametrize("seed", range(3))
def test_fiber_dichotomy_and_discriminant_slice(seed):
    assert not _failures(SuiteConfig(suites=("fiber-action", "discriminant"), samples=3,
                                     seed=seed))


@pytest.mark.parametrize("seed", range(3))
def test_gate_suites_slice(seed):
    assert not _failures(SuiteConfig(suites=("lines", "fixed-points", "quotient", "cone"),
                                     samples=3, seed=seed))


@pytest.mark.parametrize("seed", range(3))
def test_sampling_suites_slice(seed):
    assert not _failures(SuiteConfig(suites=("two-points", "koszul"), samples=3, seed=seed))


@pytest.mark.sweep
@pytest.mark.parametrize("p", [2 ** 31 - 1, 4294967311])
@pytest.mark.parametrize("seed", range(2))
def test_sampling_suites_at_big_primes(p, seed):
    # the samplers draw what they use, so their cost does not grow with p;
    # above 2^32 the batched products run on Python ints (dtype=object)
    assert not _failures(SuiteConfig(suites=("fiber-action", "koszul", "two-points", "cone"),
                                     samples=2, seed=seed, primes=(11, 13, p)))


@pytest.mark.sweep
@pytest.mark.parametrize("p", [17, 19, 23, 29, 31, 37, 41, 43, 47])
def test_lines_suite_at_every_small_prime(p):
    # the lines suite runs where its exhaustive oracle does, 7 <= p <= 47
    for seed in range(5):
        assert not _failures(SuiteConfig(suites=("lines",), samples=2, seed=seed, primes=(p,)))


@pytest.mark.sweep
def test_gate_verdicts_match_without_squarefree_certificate(monkeypatch):
    # the acceptance size, 200 gated draws over Q: every gate key, and every
    # draw sample_instance rejects on the way, is the same when the
    # certificate at one prime is forced to fail and the exact gcd decides
    certify, certified = roots._squarefree_at_prime, []

    def counted(cs):
        certified.append(certify(cs))
        return certified[-1]

    monkeypatch.setattr(roots, "_squarefree_at_prime", counted)
    gated = [sample_instance(s, 10) for s in range(200)]
    reports = [genericity_report(inst) for inst in gated]
    assert sum(certified) > 400  # 806 of 806 calls are certified
    monkeypatch.setattr(roots, "_squarefree_at_prime", lambda cs: False)
    for s, inst, report in zip(range(200), gated, reports):
        assert genericity_report(inst) == report, s
        assert sample_instance(s, 10) == inst, s
