"""Seed sweep: the sampling suites over many seeds must produce no `fail`.

Opt-in, outside the default run: `pytest -m sweep`.
"""

import pytest

from taucubic.harness import SuiteConfig, run_suite

SUITES = ("discriminant", "fixed-points", "quotient", "cone")


@pytest.mark.sweep
@pytest.mark.parametrize("seed", range(20))
def test_no_failures_across_seeds(seed):
    report = run_suite(SuiteConfig(suites=SUITES, samples=20, seed=seed))
    failed = [f"{e.suite}/{e.instance_id}: {c.name} = {c.computed!r}"
              for e in report.entries for c in e.checks if c.status == "fail"]
    assert not failed
