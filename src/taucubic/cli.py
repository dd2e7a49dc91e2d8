"""Command-line entry point.

    taucubic verify --suite genus,koszul --samples 3 --seed 1 \
        --primes 5,7,11,13,101,103 [--instance inst.json] [--out report.json]

Exit codes: 0 all checks passed, 1 at least one failure, 2 configuration or
parse error.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (ConfigError, InstanceParseError, SuiteConfig, SUITE_NAMES,
                      emit_report, run_suite)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taucubic",
        description="Exact verification battery for involution-invariant "
                    "cubic-quadric configurations in P^4.")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", action="append", required=True,
                   help="comma-separated suite names (repeatable); "
                        f"choices: {', '.join(SUITE_NAMES + ('all',))}")
    v.add_argument("--samples", type=int, default=1,
                   help="instances per sampling suite (default 1)")
    v.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    v.add_argument("--primes", default="5,7,11,13,101,103",
                   help="comma-separated admitted primes, all > 3; the sampling "
                        "suites work over the first one >= 73, the lines suite over "
                        "11 and 13 when admitted (default 5,7,11,13,101,103)")
    v.add_argument("--bound", type=int, default=10,
                   help="coefficient bound for sampled instances (default 10)")
    v.add_argument("--instance", dest="instance_path", default=None,
                   help="JSON instance file to verify instead of sampling")
    v.add_argument("--out", dest="out_path", default=None,
                   help="write the JSON report here")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        suites = []
        for chunk in args.suite:
            suites.extend(s.strip() for s in chunk.split(",") if s.strip())
        primes = tuple(int(p.strip()) for p in args.primes.split(",") if p.strip())
        config = SuiteConfig(suites=tuple(suites), samples=args.samples,
                             seed=args.seed, primes=primes, bound=args.bound,
                             instance_path=args.instance_path)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_suite(config)
    except InstanceParseError as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return 2
    summary = report.summary()
    for entry in report.entries:
        for c in entry.checks:
            mark = {"pass": "ok", "fail": "FAIL", "inconclusive": "????"}[c.status]
            print(f"[{mark:>4}] {entry.suite}/{entry.instance_id}: {c.name} "
                  f"expected={c.expected!r} computed={c.computed!r}")
    print(f"summary: {summary['passed']} passed, {summary['failed']} failed, "
          f"{summary['inconclusive']} inconclusive")
    if args.out_path:
        emit_report(report, args.out_path)
        print(f"report written to {args.out_path}")
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
