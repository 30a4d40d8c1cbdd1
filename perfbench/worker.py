"""Run one workload's closed loop in this process; print its ops as JSON.

    python3 perfbench/worker.py <workload> <seed> <seconds>

run.py splits a run over several of these fresh processes, because op times
relative to the speed probe vary more between processes than within one: on
the reference host, mc-trial-major's rescaled medians of 6 s processes
ranged over +-10%, while 24 s windows within one process stayed within +-4%.
"""

import json
import sys

from run import WORKDIR, WORKLOADS, closed_loop, peak_rss_mb

name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
ops, failures = closed_loop(WORKLOADS[name](WORKDIR / name, seed), seconds)
print(json.dumps({
    "ops": [[op.threads, op.wall, op.probe] for op in ops],
    "failures": failures,
    "peak_rss_mb": peak_rss_mb(),
}))
