"""Set up one workload in a fresh interpreter and report the phase times.

Usage: python3 bench/probe.py WORKLOAD SEED

Prints one JSON object: the seconds spent importing `exorb` and in each
set-up phase of `workloads.setup`.  The run script times the whole process
from the outside for `setup_s`.
"""

import json
import sys
import time

t0 = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import exorb.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    _, phases = workloads.setup(name, seed)
    print(json.dumps({"import_s": import_s, **phases}))
