"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced gumkf function by a timing wrapper,
reassigning the module attribute everywhere the function object is bound:
in its own module and in every gumkf module that imported it by name (for
example ``gumkf.watertank.mc_sequential`` and ``gumkf.cli.scenario``).
Methods are replaced on their class.  Each wrapper records a span (name,
start, end, parent span, op id) in memory while an op is active and calls
straight through otherwise.  A span's self time is its duration minus the
time covered by its child spans.

The span stack is not per thread: trace single-threaded ops only.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def _count_rows(args, kwargs, result):
    rows = args[2]
    return len(rows) if hasattr(rows, "__len__") else 0


# (span name, module, attribute or Class.method, stats reported, work counter).
# A work counter is (stat, fn): fn maps one call's (args, kwargs, result) to
# the work the call did, and its sum over an op is reported as that stat.
TARGETS = (
    ("gum_mc.mc_step", "gumkf.gum_mc", "mc_step", ("calls", "self_s"),
     ("trial_steps", lambda a, kw, r: a[0].trial_count)),
    ("gum_mc._mean_cov", "gumkf.gum_mc", "_mean_cov", ("calls", "self_s"), None),
    ("gum_mc.mc_sequential", "gumkf.gum_mc", "mc_sequential", ("self_s",), None),
    ("gum_mc.mc_batch", "gumkf.gum_mc", "mc_batch", ("self_s",), None),
    ("gum_mc.RunningMoments.push_block", "gumkf.gum_mc", "RunningMoments.push_block",
     ("calls", "self_s"), None),
    ("core.normal_rows", "gumkf.core", "RngStreamPlan.normal_rows", ("calls", "self_s"),
     ("variates", lambda a, kw, r: r.size)),
    ("core.uniform_rows", "gumkf.core", "RngStreamPlan.uniform_rows", ("calls", "self_s"), None),
    ("core.GaussianBelief", "gumkf.core", "GaussianBelief.__post_init__", ("calls", "self_s"), None),
    ("core.require_psd", "gumkf.core", "require_psd", ("calls", "self_s"), None),
    ("core.psd_sqrt", "gumkf.core", "psd_sqrt", ("calls", "self_s"), None),
    ("kalman.kf_predict", "gumkf.kalman", "kf_predict", ("calls", "self_s"), None),
    ("kalman.kf_correct", "gumkf.kalman", "kf_correct", ("calls", "self_s"), None),
    ("kalman.kf_gain", "gumkf.kalman", "kf_gain", ("calls", "self_s"), None),
    ("kalman.joseph_update", "gumkf.kalman", "joseph_update", ("calls", "self_s"), None),
    ("ekf.ekf_predict", "gumkf.ekf", "ekf_predict", ("calls", "self_s"), None),
    ("ekf.ekf_correct", "gumkf.ekf", "ekf_correct", ("calls", "self_s"), None),
    ("particle.pf_propagate", "gumkf.particle", "pf_propagate", ("calls", "self_s"), None),
    ("particle.pf_weight", "gumkf.particle", "pf_weight", ("calls", "self_s"), None),
    ("particle.pf_resample", "gumkf.particle", "pf_resample", ("calls", "self_s"),
     ("events", lambda a, kw, r: r is not a[0])),
    ("particle.pf_ess", "gumkf.particle", "pf_ess", ("calls", "self_s"), None),
    ("particle.weighted_moments", "gumkf.particle", "weighted_moments", ("calls", "self_s"), None),
    ("particle.pf_run", "gumkf.particle", "pf_run", ("self_s",), None),
    ("watertank.simulate", "gumkf.watertank", "simulate", ("calls", "self_s"), None),
    ("watertank.scenario", "gumkf.watertank", "scenario", ("self_s",), None),
    ("cli.run", "gumkf.cli", "run", ("self_s",), None),
    ("cli._write_csv", "gumkf.cli", "_write_csv", ("calls", "self_s"), ("rows", _count_rows)),
    ("cli._write_manifest", "gumkf.cli", "_write_manifest", ("calls", "self_s"), None),
)

# Ratios derived from the stats above, and the metrics the harness adds.
DERIVED = {"particle.pf_resample.event_ratio": ("particle.pf_resample.events",
                                                "particle.pf_resample.calls")}
HARNESS_METRICS = {
    "gum_mc.mc_sequential.threads2_speedup": "1",
    "bench.untraced.wall_s": "s",
    "bench.traced.wall_s": "s",
    "bench.trace_overhead": "1",
}


def layer_metric_units():
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for name, _, _, stats, counter in TARGETS:
        for stat in stats:
            units[f"{name}.{stat}"] = "s" if stat == "self_s" else "count"
        if counter:
            units[f"{name}.{counter[0]}"] = "count"
    units.update({name: "1" for name in DERIVED})
    units.update(HARNESS_METRICS)
    return units


def _gumkf_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "gumkf" or n.startswith("gumkf."))]


class Tracer:
    """Span recorder; ``op`` is the id of the active op, or None."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.work = defaultdict(float)  # (op id, metric name) -> amount
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, counter):
        spans, stack, work = self.spans, self._stack, self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, op]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter:
                work[op, f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = _gumkf_modules()
        for name, module_name, attr, _, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, counter))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def layer_stats(self):
        """{op id: {stat: value}} with every traced stat and ratio in
        ``layer_metric_units()``, 0 where the op made no such call."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_op = defaultdict(lambda: defaultdict(float))
        for (op, key), amount in self.work.items():
            per_op[op][key] += amount
        for index, (name, start, end, _, op) in enumerate(self.spans):
            per_op[op][f"{name}.calls"] += 1
            per_op[op][f"{name}.self_s"] += (end - start) - child_time[index]
        keys = [k for k in layer_metric_units() if k not in HARNESS_METRICS]
        result = {}
        for op, stats in per_op.items():
            for derived, (num, den) in DERIVED.items():
                stats[derived] = stats[num] / stats[den] if stats[den] else 0.0
            result[op] = {key: stats[key] for key in keys}
        return result

    def write_spans(self, path: Path, op):
        """Write the spans of one op as CSV: name, start, end (s from the op's
        first span), parent row (-1 for a root)."""
        rows = [(i, s) for i, s in enumerate(self.spans) if s[4] == op]
        if not rows:
            return
        first = {i: j for j, (i, _) in enumerate(rows)}
        t0 = rows[0][1][1]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for _, (name, start, end, parent, _) in rows:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{first.get(parent, -1)}\n")


def median_stats(per_op):
    """Median over ops of each stat, from a list of per-op dicts."""
    return {key: statistics.median(stats[key] for stats in per_op) for key in per_op[0]}
