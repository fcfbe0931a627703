"""marginflow benchmark: time to a stated log(1/loss) target, checks passing.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

One process runs one workload as a closed loop: the next job starts when
the previous one returns, and rounds over the workload's jobs repeat
until S seconds have passed and three rounds ran. Every job goes through
the user path, `marginflow.cli.main([verb, "--config", <YAML>, ...])`,
and its output is checked. Times are scaled to a reference host speed
measured around each job (README.md, "Host speed"). `--trace 0` reports
the end-to-end metrics; `--trace 1` installs span wrappers (spans.py)
and reports per-layer metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads: the baseline is the
# single-threaded program, and the stamp records that it was pinned here.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_BEFORE = {v: os.environ.get(v) for v in BLAS_VARS}
os.environ.update({v: "1" for v in BLAS_VARS})

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402

if __name__ == "__main__":
    sys.exit(bench.main(blas_before=BLAS_BEFORE))

