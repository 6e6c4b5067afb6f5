"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 [--out FILE]

Runs run.py once per seed (sequentially, --trace 0, BENCHMARK.json's
run_seconds) and prints, per metric, the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (Q3 - Q1) / median next to
the metric's bound.  --out saves the summary and every run as JSON.  The
exit code is 1 when any run reports correct: false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct {result['correct']}, " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "spread": spread, "bound": m["bound"]}
        print(f"{m['name']:18s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {m['bound']}  "
              f"{'ok' if spread < m['bound'] / 3 else 'WIDE'}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "summary": summary,
                                              "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
