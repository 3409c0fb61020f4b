"""Print the set-up time of one fresh process, in seconds.

Set-up is the import of the solver plus the first residual at the
workload's default options, which fills the solver's cached tables.

    python3 perfbench/setup_probe.py WORKLOAD EPS
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, first_residual  # noqa: E402


def main() -> None:
    workload, eps = WORKLOADS[sys.argv[1]], float(sys.argv[2])
    t0 = time.perf_counter()
    first_residual(workload, eps)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
