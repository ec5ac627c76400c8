"""Benchmark for hmm-spde: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload strong_m --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` repeats the workload's job for ``--seconds`` with no wrapper
installed and reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with spans around every layer boundary, and reports
the per-layer metrics.  Every output is checked.  The last line of standard
output is the JSON result.  README.md beside this file describes the
workloads and metrics.
"""

import os
import sys
import time

STARTED = time.perf_counter()
# one process, one thread: pin the BLAS/OpenMP pools before numpy loads
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for var in PINNED:
    os.environ[var] = "1"

if __name__ == "__main__":
    import harness

    sys.exit(harness.main(STARTED, PINNED))
