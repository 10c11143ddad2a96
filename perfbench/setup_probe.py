"""Set-up probe, run in a fresh interpreter by run.py to measure setup_s.

Usage: setup_probe.py WORKLOAD WORK_DIR SEED

Imports lyapset, does the workload's set-up (parsing, field compilation,
one RHS call) and prints time.perf_counter() when the workload is ready.
On Linux perf_counter reads CLOCK_MONOTONIC, which the parent shares, so
the parent subtracts the moment it started this process.
"""

import sys
import time

import source

source.use_checkout_source()
import workloads  # noqa: E402

name, work, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
workload = workloads.WORKLOADS[name](source.ROOT, work, seed, workloads.load_references())
workload.ready()
print(repr(time.perf_counter()))
