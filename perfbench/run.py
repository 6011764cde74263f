"""Benchmark entry point.

    python3 perfbench/run.py --workload solve-m2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of that
checkout. See perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "qtmlab" / "cli.py").is_file():
        print(f"perfbench: no program sources at {src / 'qtmlab'}", file=sys.stderr)
        sys.exit(2)
    # One closed-loop client: numpy links a threaded OpenBLAS, so pin it and the
    # sweep process pool to one thread before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["QTMLAB_JOBS"] = "1"
    sys.path.insert(0, str(src))

    import harness

    sys.exit(harness.main(sys.argv[1:]))
