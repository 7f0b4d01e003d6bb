"""Set-up probe: import the program, generate one workload's inputs, parse
its configs and load its references, then print the monotonic clock.

    python3 perfbench/probe.py <workload> <seed> <work dir>

The caller reads the clock before starting this interpreter, so the
difference is the set-up a CLI user pays before the first solve.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

import workloads  # noqa: E402


def main(argv):
    workload, seed, work = argv
    workloads.import_program()
    workloads.build(workload, int(seed), work)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1:])
