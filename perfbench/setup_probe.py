"""Set-up of one workload in a fresh interpreter, for the setup_s metric.

    python3 perfbench/setup_probe.py --workload NAME --seed S --workdir DIR

Imports kwlab (and with it numpy and scipy), builds the workload's inputs
and prints one JSON line with the import and input-building times.  run.py
starts this script and times it from process start to that line.
"""

import argparse
import json
import time
from pathlib import Path


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    t0 = time.perf_counter()
    import kwlab.cli  # noqa: F401  (imports every module, numpy and scipy)
    t1 = time.perf_counter()
    import workloads

    workloads.make(args.workload, args.seed, Path(args.workdir))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)


if __name__ == "__main__":
    main()
