"""Set-up probe, run in a fresh interpreter by run.py: times importing the
pipeline and generating one workload's instances.

Usage: python3 perfbench/probe.py SRC_DIR WORKLOAD SEED
Prints one JSON object {"import_s": ..., "generate_s": ...}.
"""

import json
import sys
import time


def main(src: str, workload: str, seed: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import nestedamc.cli  # noqa: F401  (imports every pipeline layer)

    t1 = time.perf_counter()
    import workloads

    workloads.generate(workloads.WORKLOADS[workload], int(seed))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "generate_s": t2 - t1}))


if __name__ == "__main__":
    main(*sys.argv[1:4])
