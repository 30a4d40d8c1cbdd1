"""Run every workload, untraced and traced, each in a fresh process; print
their metrics, check the predicted layer-to-workload mapping, and optionally
save everything with an environment block as one point of the trajectory.

    python3 perfbench/record.py --seed 42 --seconds 21 --out perfbench/results/<commit>.json

Exits non-zero when an op failed or a mapping check did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from paths import ROOT, import_gumkf

import_gumkf()
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent


def environment():
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "commit": commit,
    }


def run_workload(name, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    sys.stderr.write(out.stderr)
    return json.loads(lines[-1])


def mapping_checks(layers):
    """The layer-to-workload mapping the benchmark predicts, checked on the
    traced pass: each value is True when the prediction held."""
    def calls(workload, prefix):
        return sum(v["value"] for k, v in layers[workload].items()
                   if k.startswith(prefix) and k.endswith(".calls"))

    self_times = {k: v["value"] for k, v in layers["mc-ekf"].items() if k.endswith(".self_s")}
    others = [w for w in layers if w != "pf"]
    return {
        "mc_step.self_s is the largest self time on mc-ekf":
            max(self_times, key=self_times.get) == "gum_mc.mc_step.self_s",
        "mc_step.calls is 0 on filters and pf":
            calls("filters", "gum_mc.mc_step.") == 0 and calls("pf", "gum_mc.mc_step.") == 0,
        "particle.* calls only on pf":
            calls("pf", "particle.") > 0 and all(calls(w, "particle.") == 0 for w in others),
        "kalman.* and ekf.* calls only on filters": all(
            (calls(w, "kalman.") + calls(w, "ekf.") > 0) == (w == "filters") for w in layers),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=21.0)
    parser.add_argument("--out", type=Path, help="write the results as JSON to this file")
    args = parser.parse_args()

    results = {}
    for name in WORKLOADS:
        e2e = run_workload(name, args.seed, args.seconds, 0)
        layers = run_workload(name, args.seed, args.seconds, 1)
        attempted = e2e["attempted"] + layers["attempted"]
        failed = e2e["failed"] + layers["failed"]
        results[name] = {
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "end_to_end": e2e["metrics"],
            "per_layer": layers["metrics"],
        }
    checks = mapping_checks({name: r["per_layer"] for name, r in results.items()})
    for what, held in checks.items():
        print(f"{'PASS' if held else 'FAIL'}  {what}")
    point = {
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "mapping_checks": checks,
        "workloads": results,
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=2) + "\n")
    ok = all(checks.values()) and not any(r["failed"] for r in results.values())
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
