"""kwlab: one entry point for every verification suite and the flow runner.

    kwlab <suite> [--seed S] [--out PATH] [--tolerance-scale F] [...]
    kwlab verify <suite> [...]            (alias)
    kwlab spectral {hardy|hemisphere|exclusion|ode} [...]
    kwlab flow run --config cfg.json [--out DIR]

Suites: algebra, clifford, model, operator, spectral, flow-smoke, all.
Reports are JSON on stdout (or --out); identical invocations produce
byte-identical reports (timings go to stderr).  Exit codes: 0 = all checks
pass (flagged items allowed), 1 = at least one failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import spectral as spectral_mod
from .backgrounds import make_background
from .flow import CFLError, FlowConfig, lojasiewicz_fit, run_flow
from .modes import positive_spectrum_field
from .operator import smallest_nonzero_symbol_eig
from .reporting import SuiteReport
from .suites import SUITE_NAMES, run_suite
from .torus import TorusField, random_field

# largest `spectral hemisphere --mesh`: the solver holds about ten float
# arrays of the mesh size; 10^6 cells peak near 200 MB and take ~2 s
MAX_MESH = 10 ** 6
# largest `flow run` grid N: a 3-step random flow peaks near 0.5 GB at N = 64,
# and memory grows 8x per doubling of N
MAX_FLOW_N = 64
# largest `flow run` step count: the trace preallocates eight float arrays
# of steps + 1 entries
MAX_FLOW_STEPS = 10 ** 6


def _int_in_range(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _nonzero_float(text: str) -> float:
    value = _finite_float(text)
    if value == 0.0:
        raise argparse.ArgumentTypeError(f"must be nonzero, got {value}")
    return value


def _background_kind(text: str) -> str:
    try:
        make_background(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _suite_kwargs(args) -> dict:
    kw = {}
    if args.suite == "model":
        kw["m"] = args.m
        kw["samples"] = args.samples
    if args.suite == "operator":
        kw["background"] = args.background
        kw["points"] = args.points
    return kw


def _emit_report(rep: SuiteReport, args) -> int:
    text = rep.to_json()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write report to {args.out!r}: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    if args.table or rep.suite == "clifford":
        print(rep.table(), file=sys.stderr)
    if rep.wall_time_s is not None:
        print(f"[{rep.suite}] wall time {rep.wall_time_s:.2f} s", file=sys.stderr)
    return rep.exit_code


def _cmd_suite(args) -> int:
    try:
        rep = run_suite(args.suite, seed=args.seed, tol_scale=args.tolerance_scale,
                        **_suite_kwargs(args))
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit_report(rep, args)


def _cmd_spectral(args) -> int:
    if args.mode is None:
        return _cmd_suite(args)
    if args.mode == "hardy":
        payload = spectral_mod.hardy_suite()
        payload["halfline"]["ratio_sweep"] = {
            str(k): v for k, v in payload["halfline"]["ratio_sweep"].items()}
        text = json.dumps(payload, indent=2, sort_keys=True)
        ok = all(payload[k]["pass"] for k in payload)
        _write(text, args.out)
        return 0 if ok else 1
    if args.mode == "hemisphere":
        he = spectral_mod.hemisphere_eig0(args.mesh)
        out = args.out or "hemisphere.csv"
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["eigenvalue", he["eigenvalue"]])
            w.writerow(["second_eigenvalue", he["second_eigenvalue"]])
            w.writerow(["theta", "eigenfunction"])
            for th, f in zip(he["theta"], he["eigenfunction"]):
                w.writerow([f"{th:.8g}", f"{f:.10g}"])
        print(f"lowest eigenvalue {he['eigenvalue']:.6f} "
              f"(distance to cos: {he['eigenfunction_distance_to_cos']:.2e}); "
              f"wrote {out}", file=sys.stderr)
        return 0 if abs(he["eigenvalue"] - 2.0) < 1e-3 * args.tolerance_scale else 1
    if args.mode == "exclusion":
        rep = spectral_mod.exclusion_report(args.case, args.m)
        _write(json.dumps(rep, indent=2, sort_keys=True), args.out)
        return 0 if rep["covers_0_to_3half"] else 1
    if args.mode == "ode":
        # the solutions grow like x^(+-lambda) and e^(+-k x); beyond what
        # double precision can follow the integrator overflows and gives up,
        # which is reported as one error line
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                st = spectral_mod.radial_ode_solve(args.lam, args.k)
                adm = spectral_mod.radial_admissible(args.lam, args.k)
        except RuntimeError as exc:
            print(f"error: no radial solution at --lambda {args.lam:g} --k {args.k:g}: {exc}",
                  file=sys.stderr)
            return 2
        out = args.out or "radial_ode.csv"
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "a", "b"])
            for x, a, b in zip(st.x_grid, st.a, st.b):
                w.writerow([f"{x:.8g}", f"{a:.10g}", f"{b:.10g}"])
        print(json.dumps({"lambda": args.lam, "k": args.k,
                          "identity_residual": st.identity_residual,
                          "admissible": adm["admissible"],
                          "exponent_at_zero": adm["exponent_at_zero"]},
                         indent=2, sort_keys=True))
        return 0
    print(f"error: unknown spectral mode {args.mode!r}", file=sys.stderr)
    return 2


def _write(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


FLOW_SCHEMA = {
    "N": int, "L": float, "dt": float, "steps": int, "seed": int,
    "init": dict, "kmax_linear": int,
}
INIT_SCHEMA = {"kind": str, "amplitude": float}


def _typed(name: str, value, typ):
    """value as typ: an int passes as a float, a bool as neither."""
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, typ):
        raise ValueError(f"config field '{name}' must be {typ.__name__}")
    return value


def _require(ok: bool, name: str, what: str, value) -> None:
    if not ok:
        raise ValueError(f"config field '{name}' must be {what}, got {value!r}")


def _load_flow_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    merged = {"L": 2 * math.pi, "seed": 0, "kmax_linear": 1,
              "init": {"kind": "zero", "amplitude": 0.0}}
    merged.update(cfg)
    for key, typ in FLOW_SCHEMA.items():
        if key not in merged:
            raise ValueError(f"config field '{key}' is missing")
        merged[key] = _typed(key, merged[key], typ)
    init = merged["init"]
    for key, typ in INIT_SCHEMA.items():
        if key not in init:
            raise ValueError(f"config field 'init.{key}' is missing")
        init[key] = _typed(f"init.{key}", init[key], typ)
    if init["kind"] not in ("zero", "random", "abelian"):
        raise ValueError("config field 'init.kind' must be zero|random|abelian")
    # the fd4 stencil needs five distinct points
    _require(5 <= merged["N"] <= MAX_FLOW_N, "N", f"between 5 and {MAX_FLOW_N}", merged["N"])
    for key in ("L", "dt"):
        _require(math.isfinite(merged[key]) and merged[key] > 0, key, "finite and > 0",
                 merged[key])
    _require(1 <= merged["steps"] <= MAX_FLOW_STEPS, "steps",
             f"between 1 and {MAX_FLOW_STEPS}", merged["steps"])
    _require(merged["seed"] >= 0, "seed", ">= 0", merged["seed"])
    _require(merged["kmax_linear"] >= 1, "kmax_linear", ">= 1", merged["kmax_linear"])
    _require(math.isfinite(init["amplitude"]) and init["amplitude"] >= 0, "init.amplitude",
             "finite and >= 0", init["amplitude"])
    return merged


def _cmd_flow(args) -> int:
    try:
        cfg = _load_flow_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(cfg["seed"])
    kind = cfg["init"]["kind"]
    amp = cfg["init"]["amplitude"]
    if kind == "zero":
        F0 = TorusField(cfg["N"], cfg["L"])
    elif kind == "random":
        F0 = random_field(rng, cfg["N"], cfg["L"], amplitude=amp)
    else:  # abelian: the exactly-linear decaying sector, safe for long runs;
        # axis modes only, so the trace decays at a single rate
        F0 = positive_spectrum_field(rng, cfg["N"], amp, L=cfg["L"], abelian=True,
                                     modes=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    try:
        trace = run_flow(F0, FlowConfig(dt=cfg["dt"], steps=cfg["steps"]))
    except CFLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    trace.to_csv(f"{outdir}/trace.csv")
    summary = trace.summary()
    summary["config"] = cfg
    try:
        summary["lojasiewicz_fit"] = lojasiewicz_fit(trace)
    except ValueError as exc:
        summary["lojasiewicz_fit"] = {"status": str(exc), "model": None}
    gap = smallest_nonzero_symbol_eig(cfg["kmax_linear"], cfg["L"])
    summary["linear_gap"] = gap
    summary["predicted_linear_deficit_rate"] = 2.0 * gap
    with open(f"{outdir}/summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"wrote {outdir}/trace.csv and {outdir}/summary.json", file=sys.stderr)
    if trace.meta["status"] == "diverged":
        print(f"flow diverged at step {trace.meta['blowup_step']}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kwlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--tolerance-scale", dest="tolerance_scale", type=float, default=1.0)
        p.add_argument("--table", action="store_true", help="also print a human table")

    def add_suite_options(p, name):
        if name == "model":
            p.add_argument("--m", type=_int_in_range(0), default=1)
            p.add_argument("--samples", type=_int_in_range(1), default=200)
        if name == "operator":
            p.add_argument("--background", type=_background_kind, default="model:1",
                           help="trivial | nahm | model:m")
            p.add_argument("--points", type=_int_in_range(1), default=200)

    for name in SUITE_NAMES + ("all",):
        if name == "spectral":
            continue
        p = sub.add_parser(name, help=f"run the {name} suite")
        add_common(p)
        add_suite_options(p, name)
        p.set_defaults(func=_cmd_suite, suite=name)

    sp = sub.add_parser("spectral", help="spectral suite or one of its solvers")
    sp.add_argument("mode", nargs="?", default=None,
                    choices=["hardy", "hemisphere", "exclusion", "ode"])
    add_common(sp)
    sp.add_argument("--case", type=str, default="b3ct",
                    choices=["b3ct", "case2", "case3"])
    sp.add_argument("--m", type=_int_in_range(1), default=1,
                    help="pole index of case2/case3 (b3ct ignores it)")
    sp.add_argument("--mesh", type=_int_in_range(100, MAX_MESH), default=2000)
    sp.add_argument("--lambda", dest="lam", type=_finite_float, default=1.0)
    sp.add_argument("--k", type=_nonzero_float, default=1.0)
    sp.set_defaults(func=_cmd_spectral, suite="spectral")

    vp = sub.add_parser("verify", help="alias: verify <suite> [options]")
    vsub = vp.add_subparsers(dest="suite", required=True)
    for name in SUITE_NAMES + ("all",):
        p = vsub.add_parser(name)
        add_common(p)
        add_suite_options(p, name)
        if name == "spectral":
            p.set_defaults(func=_cmd_spectral, suite=name, mode=None)
        else:
            p.set_defaults(func=_cmd_suite, suite=name)

    fp = sub.add_parser("flow", help="run the gradient flow from a JSON config")
    fsub = fp.add_subparsers(dest="flow_cmd", required=True)
    frun = fsub.add_parser("run")
    frun.add_argument("--config", type=str, required=True)
    frun.add_argument("--out", type=str, default=None)
    frun.set_defaults(func=_cmd_flow)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    code = args.func(args)
    print(f"[kwlab] total {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
