"""taucubic benchmark: three workloads through the public verify path.

    python3 bench/run.py --workload <fp-points|qq-gate|line-oracles>
                         --seed N --seconds S --trace <0|1>

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/`` and nowhere else.  Every workload is single-process and
single-threaded and calls ``harness.run_suite`` with a ``SuiteConfig``, one
suite per call, exactly as ``taucubic verify`` does.

A round is one call per suite of the workload on the sub-seed
``seed * 1_000_000 + k`` for round k (the pinned cone instance takes no
seed).  ``--trace 0`` repeats rounds until ``--seconds`` have passed and
prints the end-to-end metrics, with every call's wall time rescaled by the
host's speed during it (speed.py).  ``--trace 1`` runs round 0 untraced twice
(the first warms the process up), then once more with every traced function
wrapped, and prints the per-layer metrics.  Every report entry is judged
against the paper's values (reference.py); the traced run also recomputes
the captured sampler, verdict and line outputs with plain integers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same object, with
per-round detail, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import speed
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CONE_INSTANCE = BENCH / "cone_qq20.json"
SETUP_MIN = 5          # set-up samples per timed run, at least
SETUP_EVERY = 3.0      # seconds between set-up samples taken between rounds
DEFAULT_PRIMES = (5, 7, 11, 13, 101, 103)


@dataclass(frozen=True)
class Call:
    """One run_suite call of a round: a suite and its configuration."""

    suite: str
    samples: int = 1
    primes: tuple = DEFAULT_PRIMES
    instance: Path | None = None     # a fixed input instead of seeded sampling

    def config(self, SuiteConfig, seed):
        return SuiteConfig(suites=(self.suite,), samples=self.samples, seed=seed,
                           primes=self.primes,
                           instance_path=str(self.instance) if self.instance else None)


@dataclass(frozen=True)
class Workload:
    calls: tuple
    entry_ids: tuple        # "suite/instance_id" of every entry of one round
    expect_calls: tuple     # traced functions that must record calls here


WORKLOADS = {
    # F_101 point sampling: the curve, conic and surface samplers and the O(p)
    # residue scan; no root work over Q and no exhaustive scans.
    "fp-points": Workload(
        calls=(Call("fiber-action"), Call("koszul"), Call("two-points")),
        entry_ids=("fiber-action/fp101-0", "koszul/ledger", "koszul/fp101-sampling",
                   "two-points/fp101-0"),
        expect_calls=("tau.sample_instance", "tau.random_points_on_surface",
                      "intersect.curve_rational_points", "intersect.conic_rational_points",
                      "roots.fp_rational_roots", "forms.compose_linear",
                      "discriminant.points_on_cubic_component",
                      "discriminant.points_on_conic_component",
                      "discriminant.tau_fiber_action", "ledgers.ideal_dimension_by_sampling"),
    ),
    # Gated sampling over Q (Macaulay certificates, rational roots) and the
    # exact geometry on it; plus the pinned cone instance with a00 = 0, which
    # fails off_line_probes_smooth every time.
    "qq-gate": Workload(
        calls=(Call("discriminant"), Call("fixed-points"), Call("quotient"),
               Call("cone", instance=CONE_INSTANCE)),
        entry_ids=("discriminant/qq-0", "discriminant/fp101-0", "discriminant/aggregate",
                   "fixed-points/qq-0", "fixed-points/aggregate", "quotient/qq-0",
                   "cone/qq-0"),
        expect_calls=("tau.sample_instance", "roots.binary_form_roots.qq",
                      "forms.macaulay_resultant", "linalg.det_mod_p",
                      "forms.is_smooth_hypersurface", "forms.sylvester_resultant",
                      "intersect.intersect_plane_curves", "discriminant.discriminant_quintic",
                      "tau.fixed_points_on_S", "quotient.quotient_equation",
                      "quotient.branch_sextic", "quotient.sextic_squarefree_probe",
                      "discriminant.cone_and_singular_member"),
    ),
    # Exhaustive oracles at tiny p: brute-force line directions over P^3(F_p)
    # and gated sampling over F_11 / F_13.
    "line-oracles": Workload(
        calls=(Call("lines", 2, primes=(11, 13)),),
        entry_ids=("lines/fp11-0", "lines/fp13-1"),
        expect_calls=("tau.sample_instance", "forms.evaluate",
                      "discriminant.lines_through_point_of_ltau",
                      "discriminant.lines_through_point_brute",
                      "forms.is_smooth_hypersurface", "roots.binary_form_roots.fp"),
    ),
}

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy
import taucubic
from taucubic.harness import SuiteConfig
for suite, samples, primes in json.loads(sys.argv[2]):
    SuiteConfig(suites=(suite,), samples=samples, seed=0, primes=tuple(primes))
print(repr(time.perf_counter() - t0))
"""


def sub_seed(seed, k):
    return seed * 1_000_000 + k


def import_package():
    """Import taucubic from this checkout's src/, never from elsewhere."""
    if not (SRC / "taucubic" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no taucubic sources under {SRC}; "
                         "run it from a full source checkout")
    sys.path.insert(0, str(SRC))
    import taucubic
    if Path(taucubic.__file__).resolve().parent != SRC / "taucubic":
        raise SystemExit(f"benchmark: imported taucubic from {taucubic.__file__}, not {SRC}")
    return taucubic


def measure_setup(workload):
    """Seconds a fresh interpreter takes to import numpy and taucubic and
    build the workload's configs."""
    spec = json.dumps([(c.suite, c.samples, c.primes) for c in workload.calls])
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), spec],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_round(workload, harness, seed, span=None, probe=None):
    """One round; returns (the (start, end, wall seconds) of each run_suite
    call, report entries).  ``span`` wraps each run_suite call when tracing;
    the time spent in ``probe`` during a call is taken out of its wall time."""
    entries, calls = [], []
    for call in workload.calls:
        config = call.config(harness.SuiteConfig, seed)
        stolen = probe.stolen if probe else 0.0
        t0 = time.perf_counter()
        if span:
            report = span(f"harness.suite.{call.suite}", harness.run_suite, config)
        else:
            report = harness.run_suite(config)
        t1 = time.perf_counter()
        calls.append((t0, t1, t1 - t0 - ((probe.stolen if probe else 0.0) - stolen)))
        entries += report.to_json(include_timing=False)["entries"]
    return calls, entries


class Judge:
    """Tallies entries against the paper's values and the expected entry ids."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems = []      # each one makes the run incorrect
        self.failures = {}      # "suite/id: reason" -> rounds

    def round(self, k, entries):
        ids = tuple(f"{e['suite']}/{e['instance_id']}" for e in entries)
        if ids != self.workload.entry_ids:
            self.problems.append(f"round {k}: entries {ids}, expected {self.workload.entry_ids}")
        for e, eid in zip(entries, ids):
            self.attempted += 1
            failed, wrong, reasons = reference.judge_entry(e)
            if failed:
                self.failed += 1
                key = f"{eid}: {'; '.join(reasons)}"
                self.failures[key] = self.failures.get(key, 0) + 1
            if wrong:
                self.problems.append(f"round {k}: {eid} passed a value the paper contradicts: "
                                     f"{reasons}")


def timed_run(workload, harness, judge, seed, seconds):
    """Whole rounds until ``seconds`` have passed; the last round runs to its end.

    Each call's wall time is rescaled by the host's slowness during the call
    (speed.py), so that the host's own swings do not show as the program's.
    Set-up is sampled before the first round and then between rounds, every
    ``SETUP_EVERY`` seconds, so that its median spans the run's stretches of
    host speed instead of one of them."""
    per_round = []
    setup_times = [measure_setup(workload)]
    last_setup = time.perf_counter()
    probe = speed.SpeedProbe()
    probe.start()
    try:
        deadline = time.perf_counter() + seconds
        k = 0
        while not per_round or time.perf_counter() < deadline:
            calls, entries = run_round(workload, harness, sub_seed(seed, k), probe=probe)
            per_round.append({"round": k, "calls": calls, "entries": len(entries)})
            judge.round(k, entries)
            k += 1
            if time.perf_counter() - last_setup >= SETUP_EVERY:
                probe.stop()
                setup_times.append(measure_setup(workload))
                last_setup = time.perf_counter()
                probe.start()
    finally:
        probe.stop()
    while len(setup_times) < SETUP_MIN:
        setup_times.append(measure_setup(workload))
    for r in per_round:
        r["call_s"] = [wall for _, _, wall in r["calls"]]
        r["slowness"] = [probe.slowness(t0, t1) for t0, t1, _ in r.pop("calls")]
        r["scaled_s"] = [w / f for w, f in zip(r["call_s"], r["slowness"])]
    # A typical round, taken call by call: the geometric mean over the run's
    # rounds of each run_suite call's rescaled wall time, summed over the
    # calls.  Every round counts, and a round that draws a long gate search or
    # a hard rational root counts by its ratio to the others, not by its size.
    wall = sum(statistics.geometric_mean([r["scaled_s"][i] for r in per_round])
               for i in range(len(workload.calls)))
    metrics = {
        "wall_s": (wall, "s"),
        "entries_per_s": (len(workload.entry_ids) / wall, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return metrics, {"rounds": per_round, "setup_times_s": setup_times,
                     "probe_samples": len(probe.samples), "probe_s": probe.stolen,
                     "kernel_median_s": probe.kernel_medians()}


def traced_run(workload, harness, judge, seed, package):
    """Round 0 untraced twice (the first warms the process up), then traced;
    the overhead is the traced wall time minus the second untraced one."""
    seed0 = sub_seed(seed, 0)
    for _ in range(2):
        calls, entries = run_round(workload, harness, seed0)
        judge.round(0, entries)
    tr = tracing.Tracer(package)
    tr.install()
    try:
        leaks = tr.unbound_originals()
        traced, entries = run_round(workload, harness, seed0, span=tr.run_span)
        untraced = sum(wall for _, _, wall in calls)
        traced = sum(wall for _, _, wall in traced)
    finally:
        tr.uninstall()
    judge.round(0, entries)
    if leaks:
        judge.problems.append(f"traced functions left unwrapped in {leaks}")
    layer = tr.layer_metrics()
    for name in workload.expect_calls:
        if not layer[f"{name}.calls"][0]:
            judge.problems.append(f"{name} recorded no calls on this workload")
    if not layer["tau.gate.draws"][0]:
        judge.problems.append("the genericity gate recorded no draws")

    checker = reference.CaptureCheck(tr.captures)
    judge.problems += checker.run()
    cases, missed = checker.self_test()
    if missed:
        judge.problems.append(f"reference self-test: {missed} of {cases} corruptions not caught")
    layer["trace.overhead_s"] = (traced - untraced, "s")
    layer["check.points"] = (checker.counts["points"], "count")
    layer["check.verdicts"] = (checker.counts["verdicts"], "count")
    layer["check.line_probes"] = (checker.counts["line_probes"], "count")
    layer["check.selftest_cases"] = (cases, "count")
    detail = {"untraced_wall_s": untraced, "traced_wall_s": traced, "trace": tr.dump()}
    return layer, detail


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    package = import_package()
    from taucubic import harness

    judge = Judge(workload)
    if args.trace:
        metrics, detail = traced_run(workload, harness, judge, args.seed, package)
    else:
        metrics, detail = timed_run(workload, harness, judge, args.seed, args.seconds)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    declared = declared_metrics(args.trace)
    if set(declared) != set(metrics):
        raise SystemExit(f"benchmark: measured metrics {sorted(set(metrics) ^ set(declared))} "
                         "differ from the ones BENCHMARK.json declares")
    result = {
        "correct": not judge.problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared},
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({**result, "problems": judge.problems,
                   "failures": judge.failures, **detail}, fh, indent=1)
    for line in judge.problems[:20]:
        print(f"problem: {line}")
    if len(judge.problems) > 20:
        print(f"problem: ... {len(judge.problems) - 20} more in {OUT / name}")
    for line, n in judge.failures.items():
        print(f"failed x{n}: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
