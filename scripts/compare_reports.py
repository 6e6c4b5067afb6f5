#!/usr/bin/env python3
"""Compare the reports of two kwlab source trees byte for byte.

    python scripts/compare_reports.py TREE_A TREE_B [--seeds 0-20,20200821]
                                      [--cmd "model --m 3 --seed 7"]...

Each tree's package is run from its own sources (PYTHONPATH=<tree>/src):
``kwlab all --seed S`` for every seed, ``kwlab flow run`` on each of
scripts/sample_flow_config.json (abelian, N = 16) and
scripts/sample_flow_config_nonabelian.json (N = 28: live brackets, and two
x1 slabs on a machine with two CPUs), this script's copies for both trees,
``kwlab operator --background B --seed S`` on every background kind
(trivial, nahm, model:1, model:2 and model:3, at seeds 0 and 5; ``kwlab
all`` reaches model:1 alone), ``kwlab model --m M --seed S`` at m = 0, 2
and 3 and the same seeds (``kwlab all`` runs the model suite at m = 1),
and each extra ``--cmd`` given.  Their stdout, exit code and, for the flow
runs, trace.csv and summary.json must be identical.  Each differing output
is named with the line and byte offset of its first difference and, in a
JSON report, every check (or JSON field) whose entry differs, with both
values of each differing field: a check's metric in both trees.  Exits 0
when every output is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = [Path(__file__).resolve().parent / name
           for name in ("sample_flow_config.json", "sample_flow_config_nonabelian.json")]
# the operator suite on each background class; `kwlab all` runs it on model:1 only
OPERATOR_RUNS = [["operator", "--background", bg, "--seed", seed]
                 for bg in ("trivial", "nahm", "model:1", "model:2", "model:3")
                 for seed in ("0", "5")]
# the model suite at the m that `kwlab all` does not run (it runs m = 1)
MODEL_RUNS = [["model", "--m", m, "--seed", seed]
              for m in ("0", "2", "3") for seed in ("0", "5")]


def parse_seeds(text: str) -> list[int]:
    """'0-20,20200821' -> [0, 1, ..., 20, 20200821]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def _json_diffs(x, y, path=()):
    """(path, x value, y value) of every differing value of two JSON values,
    naming a checks entry by its check_id; a value on one side only reads
    None on the other."""
    if type(x) is not type(y):
        return [(path, x, y)]
    if isinstance(x, dict):
        diffs = []
        for key in list(x) + [k for k in y if k not in x]:
            if key in x and key in y:
                diffs += _json_diffs(x[key], y[key], path + (key,))
            else:
                diffs.append((path + (key,), x.get(key), y.get(key)))
        return diffs
    if isinstance(x, list):
        diffs = []
        for i, (u, v) in enumerate(zip(x, y)):
            name = u.get("check_id", i) if isinstance(u, dict) else i
            diffs += _json_diffs(u, v, path + (name,))
        n = min(len(x), len(y))
        if len(x) != len(y):
            diffs.append((path + (n,), x[n:] or None, y[n:] or None))
        return diffs
    return [] if x == y else [(path, x, y)]


def differences(a: bytes, b: bytes) -> list[str]:
    """Where two outputs differ, empty when they are identical: the first
    differing byte and, for JSON, every differing entry, one line each with
    both values of each differing field (a check's metric among them)."""
    if a == b:
        return []
    offset = next((i for i, (u, v) in enumerate(zip(a, b)) if u != v), min(len(a), len(b)))
    line = a[:offset].count(b"\n") + 1
    lines = [f"byte {offset}, line {line}"]
    try:
        diffs = _json_diffs(json.loads(a), json.loads(b))
    except ValueError:
        return lines
    entries = {}
    for path, u, v in diffs:
        where, field = (path[:-1], path[-1]) if path else ((), "value")
        entries.setdefault(where, []).append(f"{field} {json.dumps(u)} against {json.dumps(v)}")
    return lines + [f"at {'/'.join(map(str, where)) or 'top level'}: {', '.join(fields)}"
                    for where, fields in entries.items()]


def run(tree: Path, args: list[str], cwd: Path) -> dict:
    """The outputs of `kwlab ARGS` run from tree's sources in cwd: its
    stdout, its exit code and every file it wrote there."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "kwlab", *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    outputs = {"exit code": proc.returncode, "stdout": proc.stdout}
    for path in sorted(cwd.rglob("*")):
        if path.is_file():
            outputs[str(path.relative_to(cwd))] = path.read_bytes()
    return outputs


def compare(trees: list[Path], args: list[str]) -> list[str]:
    """The differences of one invocation between the two trees."""
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for n, tree in enumerate(trees):
            cwd = Path(tmp, str(n))
            cwd.mkdir()
            outs.append(run(tree, args, cwd))
    a, b = outs
    codes = a.pop("exit code"), b.pop("exit code")
    diffs = [f"exit code: {codes[0]} against {codes[1]}"] if codes[0] != codes[1] else []
    for name in list(a) + [k for k in b if k not in a]:
        if name not in a or name not in b:
            diffs.append(f"{name}: written by one tree only")
            continue
        where = differences(a[name], b[name])
        if where:
            diffs += [f"{name}: {where[0]}"] + [f"    {w}" for w in where[1:]]
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-20"),
                        help="seeds of `kwlab all`, as 0-20,20200821 (default 0-20)")
    parser.add_argument("--cmd", action="append", default=[],
                        help="one more kwlab invocation to compare, as a quoted argument list")
    args = parser.parse_args(argv)
    runs = ([["all", "--seed", str(s)] for s in args.seeds]
            + [["flow", "run", "--config", str(c), "--out", "flow"] for c in CONFIGS]
            + OPERATOR_RUNS + MODEL_RUNS
            + [shlex.split(c) for c in args.cmd])
    differing = 0
    for cmd in runs:
        diffs = compare(args.trees, cmd)
        label = "kwlab " + " ".join(cmd)
        print(f"{'DIFFERS' if diffs else 'same   '} {label}")
        for d in diffs:
            print(f"        {d}")
        differing += bool(diffs)
    print(f"{len(runs) - differing} of {len(runs)} invocations identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
