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
runs, trace.csv and summary.json must be identical.  The first difference
of each output is named: the check (or JSON field) whose entry differs in
a JSON report, else the line of a text file, with its byte offset.  Exits
0 when every output is identical and 1 otherwise.
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


def _json_path(x, y, path=()):
    """The path to the first differing value of two JSON values, naming a
    checks entry by its check_id; None when they are equal."""
    if type(x) is not type(y):
        return path
    if isinstance(x, dict):
        for key in list(x) + [k for k in y if k not in x]:
            if key not in x or key not in y:
                return path + (key,)
            found = _json_path(x[key], y[key], path + (key,))
            if found is not None:
                return found
        return None
    if isinstance(x, list):
        for i, (u, v) in enumerate(zip(x, y)):
            name = u.get("check_id", i) if isinstance(u, dict) else i
            found = _json_path(u, v, path + (name,))
            if found is not None:
                return found
        return None if len(x) == len(y) else path + (min(len(x), len(y)),)
    return None if x == y else path


def first_difference(a: bytes, b: bytes) -> str | None:
    """Where two outputs first differ, or None when they are identical."""
    if a == b:
        return None
    offset = next((i for i, (u, v) in enumerate(zip(a, b)) if u != v), min(len(a), len(b)))
    line = a[:offset].count(b"\n") + 1
    where = f"byte {offset}, line {line}"
    try:
        path = _json_path(json.loads(a), json.loads(b))
    except ValueError:
        return where
    if path:
        where += ", at " + "/".join(map(str, path))
    return where


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
        where = first_difference(a.get(name, b""), b.get(name, b""))
        if name not in a or name not in b:
            where = "written by one tree only"
        if where is not None:
            diffs.append(f"{name}: {where}")
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
