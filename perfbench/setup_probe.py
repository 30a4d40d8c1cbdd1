"""Time a workload's set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is what a CLI user pays on every invocation before the first op:
``import gumkf`` and building the config, plan and model.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402

from paths import WORKDIR, import_gumkf  # noqa: E402

import_gumkf()
from workloads import WORKLOADS  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
WORKLOADS[name](WORKDIR / name, seed)
print(time.perf_counter() - STARTED)
