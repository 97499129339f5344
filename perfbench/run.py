"""Entry point of the IWAL benchmark; run it from the repository root.

    python3 perfbench/run.py --workload finite-sphere --seed 1 --seconds 30 --trace 0

It pins BLAS to one thread before NumPy loads, puts `src/` on the import path
and hands over to `bench.main`. The last line of standard output is the JSON
result; the lines before it show every metric with its unit.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if not (ROOT / "src" / "iwal" / "__init__.py").is_file():
        print(f"perfbench: no iwal package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    sys.exit(bench.main())
