"""kwlab benchmark: one workload, one seed, timed from one process.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the repository root (it imports kwlab from ./src).  Workloads are
listed in BENCHMARK.json and defined in workloads.py.  The set-up is timed
SETUP_REPEATS times in fresh interpreters (setup_probe.py); then one
closed-loop client runs workload units back to back for up to T seconds, at
least MIN_UNITS of them, and checks every unit's output.

Shared virtual machines drift in speed: on the 2-vCPU Xeon VM of the
baseline, by about 15% over minutes, for interpreter and numpy work alike.
So a fixed reference job, which uses no kwlab code and no seed, runs before
and after every set-up probe and every unit.  Each wall time is also given
in reference seconds: wall time x REFERENCE_S / (mean time of the job around
it).  setup_s, run_s and throughput_per_s use reference seconds; the
wall-clock figures are printed and saved next to them.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
untraced and half with spans on kwlab's public functions (spans.py), and
reports the per-layer metrics and the tracing overhead.  BLAS/OpenMP
threads are capped at 2 and KWLAB_THREADS is unset.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"} holding the metrics that
BENCHMARK.json lists for the mode.  Details (every sample, provenance, all
per-layer metrics) go to .perfbench/result-<workload>-trace<0|1>.json and the
spans to .perfbench/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
MIN_UNITS = 3        # per untraced run; a traced run needs 2 per phase
PROBE_TIMEOUT_S = 60
REFERENCE_S = 0.075  # nominal time of reference_job(), near its median on the baseline host
REFERENCE_REPEATS = 3


def configure_environment() -> None:
    """Thread caps and import path, for this process and the probes."""
    threads = str(min(2, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = threads
    os.environ.pop("KWLAB_THREADS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))


def reference_arrays() -> list:
    """Three 24^3 grids (1 MB, cache-sized) and three 3x3x32^3 fields (7 MB)."""
    import numpy as np

    return ([np.linspace(0.0, 1.0, 3 * 24 ** 3).reshape(3, 24, 24, 24) for _ in range(3)]
            + [np.linspace(0.0, 1.0, 9 * 32 ** 3).reshape(3, 3, 32, 32, 32)
               for _ in range(3)])


def reference_job(arrays) -> float:
    """Wall time of fixed work that uses no kwlab code and allocates no arrays:
    an interpreter loop, then numpy arithmetic on small and large grids, as
    the workloads mix interpreter overhead, cache-resident and L3-sized work."""
    import numpy as np

    t0 = time.perf_counter()
    sum(range(1_400_000))
    for (a, b, out), repeats in ((arrays[:3], 400), (arrays[3:], 40)):
        for _ in range(repeats):
            np.multiply(a, b, out=out)
            np.add(out, a, out=out)
    return time.perf_counter() - t0


def host_speed_sample(arrays) -> float:
    return statistics.median(reference_job(arrays) for _ in range(REFERENCE_REPEATS))


def in_reference_seconds(wall: float, before: float, after: float) -> float:
    return wall * REFERENCE_S / (0.5 * (before + after))


def measure_setup(workload: str, seed: int, arrays) -> list[dict]:
    """Wall time from starting a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(WORKDIR)]
    samples = []
    reference = [host_speed_sample(arrays)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            try:
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise SystemExit("error: the set-up probe did not exit")
        if code != 0 or not line:
            raise SystemExit(f"error: the set-up probe failed with exit code {code}")
        reference.append(host_speed_sample(arrays))
        samples.append({"setup_wall_s": wall, **json.loads(line),
                        "setup_s": in_reference_seconds(wall, *reference[-2:])})
    return samples


def run_phase(wl, seconds: float, min_units: int, arrays, tracer=None,
              first_id: int = 0) -> list:
    """Run units back to back: at least `min_units`, then more while the next
    one, at the median unit time so far, would still end within `seconds`.
    A reference-job sample is taken before the first unit and after each."""
    from workloads import UnitResult

    units = []
    reference = [host_speed_sample(arrays)]
    t_start = time.perf_counter()
    while len(units) < min_units or (
            time.perf_counter() - t_start + statistics.median(u.run_s for u in units)
            <= seconds):
        if tracer is not None:
            tracer.run = f"unit{first_id + len(units)}"
        t0 = time.perf_counter()
        try:
            units.append(wl.run_unit())
        except Exception as exc:  # a failing unit is counted, never dropped
            units.append(UnitResult(time.perf_counter() - t0, 0, 1, 1, [f"raised {exc!r}"]))
        reference.append(host_speed_sample(arrays))
        units[-1].ref_s = in_reference_seconds(units[-1].run_s, *reference[-2:])
    return units


def median_of(values) -> tuple[float, int]:
    values = list(values)
    return statistics.median(values), len(values)


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        revision = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "KWLAB_THREADS": os.environ.get("KWLAB_THREADS", "unset"),
    }


def end_to_end(setup: list[dict], units: list) -> dict:
    timed = [u for u in units if u.work > 0] or units
    out = {}
    out["setup_s"] = ("s", *median_of(s["setup_s"] for s in setup))
    out["setup_wall_s"] = ("s", *median_of(s["setup_wall_s"] for s in setup))
    out["run_s"] = ("s", *median_of(u.ref_s for u in timed))
    out["throughput_per_s"] = ("1/s", *median_of(u.work / u.ref_s for u in timed))
    out["run_wall_s"] = ("s", *median_of(u.run_s for u in timed))
    out["throughput_wall_per_s"] = ("1/s", *median_of(u.work / u.run_s for u in timed))
    out["peak_rss_mb"] = ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return out


def per_layer(tracer, setup: list[dict], untraced: list, traced: list, first_id: int):
    """Per-layer metrics: the median over traced units of each unit's rollup,
    plus the set-up phase's spans; and the count self-check."""
    import spans

    base = spans.rollup(tracer.spans, "setup")
    rolls = [spans.rollup(tracer.spans, f"unit{first_id + i}") for i in range(len(traced))]
    out, mismatched = {}, []
    for name, unit in spans.UNITS.items():
        values = [r[name] for r in rolls]
        if unit in spans.COUNT_UNITS:
            if len(set(values)) > 1:
                mismatched.append(f"{name} differs between traced units: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        out[name] = (unit, value + base[name], len(values))
    out["setup.import_s"] = ("s", *median_of(s["import_s"] for s in setup))
    out["setup.inputs_s"] = ("s", *median_of(s["inputs_s"] for s in setup))
    traced_run, n_traced = median_of(u.ref_s for u in traced)
    untraced_run, n_untraced = median_of(u.ref_s for u in untraced)
    out["trace.run_s"] = ("s", traced_run, n_traced)
    out["trace.overhead_s"] = ("s", traced_run - untraced_run, min(n_traced, n_untraced))
    return out, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kwlab" / "__init__.py").is_file():
        print(f"error: no kwlab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    configure_environment()
    WORKDIR.mkdir(exist_ok=True)

    arrays = reference_arrays()
    setup = measure_setup(args.workload, args.seed, arrays)
    import workloads

    wl = workloads.make(args.workload, args.seed, WORKDIR)
    notes = []
    if args.trace:
        import spans

        untraced = run_phase(wl, args.seconds / 2, 2, arrays)
        tracer = spans.Tracer()
        spans.install(tracer)
        workloads.make(args.workload, args.seed, WORKDIR)  # traced set-up spans
        traced = run_phase(wl, args.seconds / 2, 2, arrays, tracer, len(untraced))
        units, n_untraced = untraced + traced, len(untraced)
        measured, mismatched = per_layer(tracer, setup, untraced, traced, len(untraced))
        notes += mismatched
        spans.write_spans(tracer.spans, WORKDIR / f"spans-{args.workload}.jsonl")
        wanted = spec["per_layer"]
    else:
        units = run_phase(wl, args.seconds, MIN_UNITS, arrays)
        n_untraced = len(units)
        measured = end_to_end(setup, units)
        wanted = spec["end_to_end"]

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    notes += [n for u in units for n in u.notes]
    for m in wanted:
        if m["name"] not in measured or measured[m["name"]][0] != m["unit"]:
            raise SystemExit(f"error: BENCHMARK.json metric {m['name']} ({m['unit']}) "
                             "is not measured with that unit")
    prov = provenance(args.seed)

    print(f"kwlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    alias = {"throughput_per_s": f"throughput_per_s = {wl.unit}_per_s",
             "throughput_wall_per_s": f"throughput_wall_per_s = {wl.unit}_per_s"}
    for name, (unit, value, n) in measured.items():
        print(f"  {alias.get(name, name):40s} {value:14.6g} {unit:6s} (median of {n})")
    print(f"  {'fail_frac':40s} {failed / attempted:14.6g} {'1':6s} "
          f"({failed} failed of {attempted} operations)")
    for note in notes:
        print(f"  FAIL: {note}")

    result = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]][1], "unit": m["unit"]}
                    for m in wanted},
    }
    details = {
        "args": vars(args), "provenance": prov, "setup_samples": setup,
        "units": [vars(u) | {"traced": i >= n_untraced} for i, u in enumerate(units)],
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (u, v, n) in measured.items()},
        "notes": notes, "result": result,
    }
    (WORKDIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
