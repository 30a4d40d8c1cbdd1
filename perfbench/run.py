"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-ekf --seed 42 --seconds 21 --trace 0

One client runs the workload's op in a closed loop: the next op starts when
the last one returns, for ``--seconds`` (and at least three ops).  The
untraced run is split over WORKERS fresh processes in turn (see worker.py).  Each op's
output is checked by the workload's oracle outside the timed region; an op
fails when it raises, when the CLI exits non-zero or when its oracle fails.
The speed probe (see speed.py) runs before the first op and after every op;
every op time reported is rescaled to the probe's nominal speed, using the
mean of the probes on either side.  Raw op times are printed too.  Each
set-up time is taken relative to the import probe run right before it.

``--trace 0`` runs unpatched code and reports the end-to-end metrics.
``--trace 1`` is the separate traced pass: untraced ops for half the time
(on mc-ekf alternating ``--threads 1`` and ``--threads 2``), then ops with
timing wrappers around each gumkf layer, and reports the per-layer metrics,
each the median over traced ops of its value in one op.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from paths import WORKDIR, import_gumkf

import_gumkf()
import speed  # noqa: E402
from tracing import HARNESS_METRICS, Tracer, layer_metric_units, median_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
WORKERS = 3
MIN_OPS = 3
END_TO_END_UNITS = {"wall_s": "s", "unit_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass(frozen=True)
class Op:
    threads: int
    wall: float
    probe: float

    @property
    def scale(self) -> float:
        """Factor from this op's raw times to times at nominal host speed."""
        return speed.NOMINAL_S / self.probe


def timed(fn):
    """(fn's result, the exception it raised or None, its raw wall time, the
    speed probe timed right after it)."""
    error = result = None
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # reported by the caller
        error = exc
    wall = time.perf_counter() - t0
    return result, error, wall, speed.probe()


def closed_loop(workload, seconds, *, threads=(1,), min_ops=MIN_OPS, tracer=None):
    """Run ops back to back, cycling through ``threads``, until ``seconds``
    have passed and ``min_ops`` ops are done.  Returns the ops in order, and
    one list of failure messages per failed op."""
    ops = []
    failures = []
    started = time.perf_counter()
    probe = speed.probe()
    while len(ops) < min_ops or time.perf_counter() - started < seconds:
        n_threads = threads[len(ops) % len(threads)]
        if tracer is not None:
            tracer.op = len(ops)
        try:
            result, error, wall, probe_after = timed(lambda: workload.op(n_threads))
        finally:
            if tracer is not None:
                tracer.op = None
        ops.append(Op(n_threads, wall, (probe + probe_after) / 2))
        probe = probe_after
        # a raising op is a failed op, not a failed benchmark
        problems = [f"op raised {type(error).__name__}: {error}"] if error else workload.check(result)
        if problems:
            failures.append(problems)
    return ops, failures


def nominal_walls(ops, threads=1):
    return [op.wall * op.scale for op in ops if op.threads == threads]


def tail_percentile(walls):
    """(p, value) for the highest of p99/p95/p90/p75/p50 with at least ten
    samples beyond it (nearest rank), or None when there are fewer than 20."""
    ordered = sorted(walls)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(p / 100 * n) - 1]
    return None


def setup_seconds(name, seed):
    """Median set-up time over fresh interpreters, each relative to the import
    probe run right before it, in seconds at the reference host's import speed."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"), name, str(seed)]
    ratios = []
    for _ in range(SETUP_REPEATS):
        reference = speed.import_probe()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
        ratios.append(float(out.stdout.strip().splitlines()[-1]) / reference)
    return speed.IMPORT_NOMINAL_S * statistics.median(ratios)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(name, seed, seconds):
    setup_s = setup_seconds(name, seed)
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           name, str(seed), str(seconds / WORKERS)]
    ops, failures, rss = [], [], []
    for _ in range(WORKERS):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=seconds / WORKERS + 60)
        part = json.loads(out.stdout.strip().splitlines()[-1])
        ops += [Op(*op) for op in part["ops"]]
        failures += part["failures"]
        rss.append(part["peak_rss_mb"])
    workload = WORKLOADS[name](WORKDIR / name, seed)  # for its sizes
    walls = nominal_walls(ops)
    wall_s = statistics.median(walls)
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile: needs >= 20 ops"
    values = {
        "wall_s": wall_s,
        "unit_steps_per_s": workload.unit_steps / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": max(rss),
    }
    print(f"{name}: {len(ops)} ops in {WORKERS} processes, seed {seed}, closed loop, 1 client")
    print(f"  wall_s            {wall_s:.4f} s at nominal speed (median; {tail_text})")
    print(f"                    raw {statistics.median(op.wall for op in ops):.4f} s, speed probe "
          f"{statistics.median(op.probe for op in ops):.4f} s (nominal {speed.NOMINAL_S} s)")
    print(f"  unit_steps_per_s  {values['unit_steps_per_s']:.1f} 1/s "
          f"({workload.units} x {workload.config.n_steps} steps per op)")
    print(f"  setup_s           {setup_s:.4f} s at nominal import speed "
          f"(median of {SETUP_REPEATS} fresh interpreters)")
    print(f"  peak_rss_mb       {values['peak_rss_mb']:.1f} MiB")
    print(f"  fail_ratio        {len(failures) / len(ops):.4g} ({len(failures)}/{len(ops)})")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return len(ops), failures, metrics


def per_layer(name, seed, seconds):
    workload = WORKLOADS[name](WORKDIR / name, seed)
    threads = workload.threads
    plain, failures = closed_loop(workload, seconds / 2, threads=threads, min_ops=2 * len(threads))
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_failures = closed_loop(workload, seconds / 2, min_ops=2, tracer=tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures
    tracer.write_spans(workload.workdir / "spans.csv", op=len(traced) - 1)

    per_op = []
    for op_id, stats in sorted(tracer.layer_stats().items()):
        scale = traced[op_id].scale
        per_op.append({k: v * scale if k.endswith(".self_s") else v for k, v in stats.items()})
    values = median_stats(per_op)
    untraced_s = statistics.median(nominal_walls(plain))
    traced_s = statistics.median(nominal_walls(traced))
    values["gum_mc.mc_sequential.threads2_speedup"] = (
        untraced_s / statistics.median(nominal_walls(plain, 2)) if 2 in threads else 0.0)
    values["bench.untraced.wall_s"] = untraced_s
    values["bench.traced.wall_s"] = traced_s
    values["bench.trace_overhead"] = traced_s / untraced_s
    units = layer_metric_units()
    print(f"{name}: traced pass, {len(traced)} traced and {len(plain)} untraced ops, seed {seed}; "
          f"times at nominal speed (speed probe median "
          f"{statistics.median(op.probe for op in plain + traced):.4f} s, nominal {speed.NOMINAL_S} s)")
    for key in units:
        if key in HARNESS_METRICS or values[key]:
            print(f"  {key:40s} {values[key]:.6g} {units[key]}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return len(plain) + len(traced), failures, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=21.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = per_layer if args.trace else end_to_end
    attempted, failures, metrics = run(args.workload, args.seed, args.seconds)
    for problems in failures[:5]:
        print(f"perfbench: failed op: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
