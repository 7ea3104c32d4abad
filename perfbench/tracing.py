"""Per-layer spans around photonperiod's public functions.

`Tracer.installed()` replaces each traced function at the name its callers
look up, and puts the original back on exit.  A span records its inclusive
time; time spent in spans opened inside it is recorded as the parent's child
time, so self time is inclusive minus child.  Counts are taken at the same
boundaries.  Spans live in memory until the run reports them.
"""

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np

# Metric name -> unit, in report order.  Values are per operation.
METRICS = {
    "config.densities_calls": "count",
    "config.densities_s": "s",
    "eventio.read_events_s": "s",
    "eventio.rows": "count",
    "detector.estimate_theta_s": "s",
    "detector.fourier_coefficients_s": "s",
    "detector.an_terms": "count",
    "detector.sf_calls": "count",
    "detector.sf_s": "s",
    "detector.p_value_s": "s",
    "scan.scan_s": "s",
    "scan.self_s": "s",
    "scan.grid_points": "count",
    "scan.phasor_terms": "count",
    "simulator.simulate_s": "s",
    "simulator.events": "count",
    "auxmodel.weight_call_s": "s",
    "auxmodel.weight_points": "count",
    "auxmodel.weight_moments_s": "s",
    "auxmodel.weight_moments_points": "count",
    "cli.self_s": "s",
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_level = 0.0  # time inside outermost spans
        self._stack = []

    def _span(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.inclusive[name] += elapsed
                self.child[name] += frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
                else:
                    self.top_level += elapsed
            if count is not None:
                count(result, *args, **kwargs)
            return result
        return wrapper

    def _add(self, key, n):
        self.counts[key] += int(n)

    @contextlib.contextmanager
    def installed(self):
        from photonperiod import auxmodel, cli, config, detector, eventio, simulator
        scan_mod = sys.modules["photonperiod.scan"]  # photonperiod.scan is the function
        orig_call = auxmodel.WeightFunction.__call__
        orig_moments = auxmodel.weight_moments

        def moments(w, theta, densities):
            # counts quadrature points without opening a span per point
            def counted(e, p):
                self._add("auxmodel.weight_moments_points", np.size(e))
                return orig_call(w, e, p)
            return orig_moments(counted, theta, densities)

        def sf_count(_result, *_a, **_k):
            self._add("detector.sf_calls", 1)

        def scan_count(result, events, weights, template, *_a, **_k):
            self._add("scan.grid_points", result.trials)
            self._add("scan.phasor_terms",
                      result.trials * np.size(weights) * template.m)

        # (owner, attribute, span name, count(result, *args), replacement)
        targets = [
            (config.Config, "densities", "config.densities",
             lambda *_a, **_k: self._add("config.densities_calls", 1), None),
            (eventio, "read_events", "eventio.read_events",
             lambda r, *_a, **_k: self._add("eventio.rows", len(r[0])), None),
            (detector, "estimate_theta", "detector.estimate_theta", None, None),
            (detector, "fourier_coefficients", "detector.fourier_coefficients",
             lambda _r, events, weights, model, m: self._add(
                 "detector.an_terms", np.size(weights) * m), None),
            (detector, "p_value", "detector.p_value", None, None),
            (detector, "weighted_chi2_sf", "detector.sf", sf_count, None),
            (scan_mod, "weighted_chi2_sf", "detector.sf", sf_count, None),
            (cli, "run_scan", "scan.scan", scan_count, None),
            (simulator, "simulate", "simulator.simulate",
             lambda r, *_a, **_k: self._add("simulator.events", len(r)), None),
            (auxmodel.WeightFunction, "__call__", "auxmodel.weight_call",
             lambda r, *_a, **_k: self._add("auxmodel.weight_points", np.size(r)),
             None),
            (auxmodel, "weight_moments", "auxmodel.weight_moments", None, moments),
        ]
        saved = [(t[0], t[1], t[0].__dict__[t[1]]) for t in targets]
        try:
            for owner, attr, name, count, replacement in targets:
                fn = replacement or getattr(owner, attr)
                setattr(owner, attr, self._span(name, fn, count))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def per_op(self, n_ops, op_total):
        """Per-operation figures over n_ops traced operations lasting op_total s."""
        inc, child, cnt = self.inclusive, self.child, self.counts
        out = {
            "config.densities_s": inc["config.densities"],
            "eventio.read_events_s": inc["eventio.read_events"],
            "detector.estimate_theta_s": inc["detector.estimate_theta"],
            "detector.fourier_coefficients_s": inc["detector.fourier_coefficients"],
            "detector.sf_s": inc["detector.sf"],
            "detector.p_value_s": inc["detector.p_value"],
            "scan.scan_s": inc["scan.scan"],
            "scan.self_s": inc["scan.scan"] - child["scan.scan"],
            "simulator.simulate_s": inc["simulator.simulate"],
            "auxmodel.weight_call_s": inc["auxmodel.weight_call"],
            "auxmodel.weight_moments_s": inc["auxmodel.weight_moments"],
            "cli.self_s": op_total - self.top_level,
        }
        for key in ("config.densities_calls", "eventio.rows", "detector.an_terms",
                    "detector.sf_calls", "scan.grid_points", "scan.phasor_terms",
                    "simulator.events", "auxmodel.weight_points",
                    "auxmodel.weight_moments_points"):
            out[key] = cnt[key]
        return {k: v / n_ops for k, v in out.items()}

