"""Outside-in span tracer for the taucubic modules.

The package binds its helpers with ``from .x import y``, so one function
object can sit in several module namespaces (``evaluate`` lives in forms,
tau, discriminant, intersect, quotient, bruteforce and harness).  ``install``
replaces every binding of each traced function with one wrapper and
``unbound_originals`` proves that no module kept the original.

Spans are aggregated in memory as they close: per name the call count, the
summed span time and the self time (span minus the time covered by child
spans), plus a caller -> callee tally.  Nothing is written until the
benchmark ends.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time

# (module, function) pairs traced as spans; the metric prefix is
# "<module>.<function>".
SPANS = (
    ("tau", "sample_instance"),
    ("tau", "random_points_on_surface"),
    ("tau", "fixed_points_on_S"),
    ("forms", "macaulay_resultant"),
    ("forms", "is_smooth_hypersurface"),
    ("forms", "sylvester_resultant"),
    ("forms", "compose_linear"),
    ("forms", "evaluate"),
    ("linalg", "det_mod_p"),
    ("linalg", "rank"),
    ("roots", "binary_form_roots"),
    ("roots", "fp_rational_roots"),
    ("intersect", "intersect_plane_curves"),
    ("intersect", "curve_rational_points"),
    ("intersect", "conic_rational_points"),
    ("discriminant", "discriminant_quintic"),
    ("discriminant", "points_on_cubic_component"),
    ("discriminant", "points_on_conic_component"),
    ("discriminant", "tau_fiber_action"),
    ("discriminant", "lines_through_point_of_ltau"),
    ("discriminant", "lines_through_point_brute"),
    ("discriminant", "cone_and_singular_member"),
    ("ledgers", "ideal_dimension_by_sampling"),
    ("quotient", "quotient_equation"),
    ("quotient", "branch_sextic"),
    ("quotient", "sextic_squarefree_probe"),
)

# Samplers whose yield (points returned over points requested) is counted;
# the requested count is their third positional argument.
SAMPLERS = ("tau.random_points_on_surface", "intersect.curve_rational_points",
            "intersect.conic_rational_points")

# Suites the workloads run, one span each around its run_suite call.
SUITES = ("fiber-action", "koszul", "two-points", "discriminant", "fixed-points",
          "quotient", "cone", "lines")

# Keys of tau.genericity_report, one rejection counter each.
GATE_KEYS = ("conic_rank3", "cubic_smooth", "six_points_distinct", "f2_rank3",
             "surface_plane_points_distinct", "line_quadratic_separable",
             "cubic_hypersurface_smooth")


def span_names():
    """Every span name the tracer can record (binary_form_roots is split by domain)."""
    out = []
    for mod, fn in SPANS:
        if fn == "binary_form_roots":
            out += [f"{mod}.{fn}.qq", f"{mod}.{fn}.fp"]
        else:
            out.append(f"{mod}.{fn}")
    return out


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats = {name: [0, 0.0, 0.0] for name in span_names()}  # calls, self, total
        self.edges = {}
        self.counters = {"tau.gate.draws": 0, "tau.gate.accepted": 0}
        for key in GATE_KEYS:
            self.counters[f"tau.gate.reject.{key}"] = 0
        for name in SAMPLERS:
            self.counters[f"{name}.requested"] = 0
            self.counters[f"{name}.returned"] = 0
        self.captures = {name: [] for name in SAMPLERS + ("discriminant.tau_fiber_action",
                                                          "discriminant.lines_through_point_brute")}
        self._stack = []
        self.bindings = {}    # traced name -> namespaces it was rebound in
        self._bindings = []   # (namespace dict, attribute, original)
        self._originals = []

    # -- spans ---------------------------------------------------------------

    def run_span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name (used for the per-suite spans)."""
        self.stats.setdefault(name, [0, 0.0, 0.0])
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn, classify=None, after=None):
        stack, stats, edges, clock = self._stack, self.stats, self.edges, time.perf_counter

        def wrapper(*args, **kwargs):
            label = classify(args, kwargs) if classify else name
            frame = [label, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st = stats[label]
                st[0] += 1
                st[1] += dur - frame[1]
                st[2] += dur
                if stack:
                    stack[-1][1] += dur
                edge = edges.get((parent, label))
                if edge is None:
                    edges[(parent, label)] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
            if after:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def _rebind(self, original, replacement):
        count = 0
        for mod in self._modules():
            ns = vars(mod)
            for attr, val in list(ns.items()):
                if val is original:
                    ns[attr] = replacement
                    self._bindings.append((ns, attr, original))
                    count += 1
        self._originals.append(original)
        return count

    def install(self):
        """Rebind every traced function in every package module that holds it."""
        for info in pkgutil.iter_modules(self.package.__path__):
            importlib.import_module(f"{self.package.__name__}.{info.name}")
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        from taucubic.scalars import PrimeField, QuadraticExtension

        def roots_domain(args, kwargs):
            dom = args[1] if len(args) > 1 else kwargs["domain"]
            if isinstance(dom, QuadraticExtension):
                dom = dom.base
            kind = "fp" if isinstance(dom, PrimeField) else "qq"
            return f"roots.binary_form_roots.{kind}"

        for mod, fn in SPANS:
            name = f"{mod}.{fn}"
            original = getattr(mods[mod], fn)
            after = None
            if name in SAMPLERS:
                after = self._sampler_hook(name)
            elif name in self.captures:
                after = self._capture_hook(name)
            classify = roots_domain if fn == "binary_form_roots" else None
            self.bindings[name] = self._rebind(original, self._wrap(name, original, classify, after))
        gate = mods["tau"].genericity_report
        self._rebind(gate, self._gate_counter(gate))

    def uninstall(self):
        for ns, attr, original in reversed(self._bindings):
            ns[attr] = original
        self._bindings.clear()

    def unbound_originals(self):
        """Traced functions still reachable unwrapped from a package namespace,
        directly or one container deep; empty when installation is complete."""
        leaks = []
        for mod in self._modules():
            for attr, val in vars(mod).items():
                vals = [val]
                if isinstance(val, dict):
                    vals = list(val.values())
                elif isinstance(val, (list, tuple)):
                    vals = list(val)
                if any(v is f for v in vals for f in self._originals):
                    leaks.append(f"{mod.__name__}.{attr}")
        return leaks

    # -- counters and captures ---------------------------------------------------

    def _sampler_hook(self, name):
        counters, captured = self.counters, self.captures[name]

        def after(args, kwargs, result):
            counters[f"{name}.requested"] += args[2] if len(args) > 2 else kwargs["count"]
            counters[f"{name}.returned"] += len(result)
            captured.append((args, kwargs, result))
        return after

    def _capture_hook(self, name):
        captured = self.captures[name]
        return lambda args, kwargs, result: captured.append((args, kwargs, result))

    def _gate_counter(self, fn):
        counters = self.counters

        def genericity_report(*args, **kwargs):
            report = fn(*args, **kwargs)
            counters["tau.gate.draws"] += 1
            if report.get("passed"):
                counters["tau.gate.accepted"] += 1
            for key, ok in report.items():
                if key != "passed" and not ok:
                    rkey = f"tau.gate.reject.{key}"
                    counters[rkey] = counters.get(rkey, 0) + 1
            return report

        genericity_report.__wrapped__ = fn
        return genericity_report

    # -- output ------------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics: self time and calls per span, per-suite spans,
        gate counters with the accept ratio, sampler yields."""
        out = {}
        for name in span_names():
            calls, self_s, _total = self.stats[name]
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.calls"] = (calls, "count")
        for suite in SUITES:
            out[f"harness.suite.{suite}.s"] = (self.stats.get(f"harness.suite.{suite}",
                                                              [0, 0.0, 0.0])[2], "s")
        c = self.counters
        out["tau.gate.draws"] = (c["tau.gate.draws"], "count")
        out["tau.gate.accepted"] = (c["tau.gate.accepted"], "count")
        out["tau.gate.accept_ratio"] = (c["tau.gate.accepted"] / c["tau.gate.draws"]
                                        if c["tau.gate.draws"] else 0.0, "ratio")
        for key in GATE_KEYS:
            out[f"tau.gate.reject.{key}"] = (c[f"tau.gate.reject.{key}"], "count")
        for name in SAMPLERS:
            req, got = c[f"{name}.requested"], c[f"{name}.returned"]
            out[f"{name}.requested"] = (req, "count")
            out[f"{name}.returned"] = (got, "count")
            out[f"{name}.yield"] = (got / req if req else 0.0, "ratio")
        return out

    def dump(self):
        """The aggregated trace as plain JSON-able data."""
        return {
            "spans": {n: {"calls": s[0], "self_s": s[1], "total_s": s[2]}
                      for n, s in sorted(self.stats.items()) if s[0]},
            "edges": [{"parent": p, "child": c, "calls": e[0], "total_s": e[1]}
                      for (p, c), e in sorted(self.edges.items(), key=lambda kv: -kv[1][1])],
            "counters": dict(sorted(self.counters.items())),
            "bindings": self.bindings,
        }
