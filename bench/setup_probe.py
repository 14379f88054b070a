"""Set-up time of one workload in a fresh process.

Times the import of spinopt, the config build and one warm-up propagation,
and prints the seconds.  bench/run.py starts it several times per run, with
PYTHONPATH pointing at the checkout's src/ and BLAS pinned to one thread.

    python3 bench/setup_probe.py surrogate_bpm
"""
import time

_start = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports spinopt)

workloads.setup(workloads.WORKLOADS[sys.argv[1]])
print(repr(time.perf_counter() - _start))
