"""kwlab: one entry point for every verification suite and the flow runner.

    kwlab <suite> [--seed S] [--out PATH] [--table] [...]
    kwlab verify <suite> [...]            (alias)
    kwlab spectral {hardy|hemisphere|exclusion|ode} [...]
    kwlab flow run --config cfg.json [--out DIR]

Suites: algebra, clifford, model, operator, spectral, flow-smoke, all;
`verify <suite>` is the same command as `<suite>`.  Reports are strict JSON
on stdout (or --out); identical invocations produce byte-identical reports
(timings go to stderr).  `flow run` writes its trace and a summary.json
that holds the flow's checks.  Exit codes: 0 = every check passes, 1 = at
least one check fails (or a flow diverges), 2 = usage error, including an
output path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import spectral as spectral_mod
from .backgrounds import make_background
from .flow import CFLError, FlowConfig, lojasiewicz_fit, run_flow
from .modes import AXIS_MODES, positive_spectrum_field
from .reporting import SuiteReport, csv_text, json_text
from .suites import (
    SUITE_NAMES, exclusion_checks, flow_checks, hardy_checks, hemisphere_checks, run_suite,
)
from .torus import TorusField, random_field, stencil_wavenumber

# largest `spectral hemisphere --mesh`: the solver holds about ten float
# arrays of the mesh size; 10^6 cells peak near 200 MB and take ~2 s
MAX_MESH = 10 ** 6
# largest `model --m`: along case4_solution's ray |sigma_minus| ~ x^(m+1)
# reaches 1e154 at m = 240, where its squared norm overflows and
# decoupled_sector_exponent reads NaN; every m up to 239 passes at seeds 0-2
MAX_MODEL_M = 239
# largest `model --samples`: peak RSS grows by about 1.2 KB and the run by
# 15 us per sample (154 MB and 1.5 s at 10^5 samples on a 2-vCPU Xeon VM),
# so the cap peaks near 270 MB
MAX_MODEL_SAMPLES = 2 * 10 ** 5
# largest `operator --points`: peak RSS grows by about 3.4 KB per point
# (105 MB at 20,000 points on the same VM), so the cap peaks near 380 MB
MAX_OPERATOR_POINTS = 10 ** 5
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


# each suite's own options: flag -> add_argument keywords; the flag's dest
# is the keyword the suite function takes
SUITE_OPTIONS = {
    "model": {
        "--m": dict(type=_int_in_range(0, MAX_MODEL_M), default=1),
        "--samples": dict(type=_int_in_range(1, MAX_MODEL_SAMPLES), default=200),
    },
    "operator": {
        "--background": dict(type=_background_kind, default="model:1",
                             help="trivial | nahm | model:m"),
        "--points": dict(type=_int_in_range(1, MAX_OPERATOR_POINTS), default=200),
    },
}

# each spectral solver mode's own options, in the same form; they parse to
# None and take their default in _cmd_spectral, so that one given to
# another mode, or to the suite, is a usage error rather than ignored
SPECTRAL_MODE_OPTIONS = {
    "exclusion": {
        "--case": dict(type=str, default="b3ct", choices=["b3ct", "case2", "case3"]),
        "--m": dict(type=_int_in_range(1), default=1,
                    help="pole index of case2/case3 (b3ct has none)"),
    },
    "hemisphere": {
        "--mesh": dict(type=_int_in_range(100, MAX_MESH), default=2000),
    },
    "ode": {
        "--lambda": dict(dest="lam", type=_finite_float, default=1.0),
        "--k": dict(type=_nonzero_float, default=1.0),
    },
}


class Unwritable(Exception):
    """Unwritable(path, OSError): an output path that cannot be written,
    reported as one error line and exit 2."""


def _write(text: str, out: str | None) -> None:
    """Write text, with a final newline if it has none, to the file out, or
    to stdout when out is None."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise Unwritable(out, exc) from None


def _cmd_suite(args) -> int:
    kwargs = {flag[2:]: getattr(args, flag[2:]) for flag in SUITE_OPTIONS.get(args.suite, ())}
    rep = run_suite(args.suite, seed=args.seed, **kwargs)
    _write(rep.to_json(), args.out)
    if args.table or rep.suite == "clifford":
        print(rep.table(), file=sys.stderr)
    return rep.exit_code


def _cmd_spectral(args) -> int:
    if args.mode == "exclusion" and args.m is not None and args.case in (None, "b3ct"):
        print("error: --m is the pole index of case2 and case3; b3ct has none",
              file=sys.stderr)
        return 2
    for mode, options in SPECTRAL_MODE_OPTIONS.items():
        for flag, spec in options.items():
            dest = spec.get("dest", flag[2:])
            if getattr(args, dest) is None:
                setattr(args, dest, spec["default"])
            elif args.mode != mode:
                given = f"spectral {args.mode}" if args.mode else "the spectral suite"
                print(f"error: {flag} is an option of spectral {mode}, not of {given}",
                      file=sys.stderr)
                return 2
    if args.mode is None:
        return _cmd_suite(args)
    if args.mode == "hardy":
        payload = spectral_mod.hardy_suite()
        _write(json_text(payload), args.out)
        checks = hardy_checks(payload)
        return SuiteReport("spectral", args.seed, checks).exit_code
    if args.mode == "hemisphere":
        he = spectral_mod.hemisphere_eig0(args.mesh)
        out = args.out or "hemisphere.csv"
        _write(csv_text([["eigenvalue", he["eigenvalue"]],
                         ["second_eigenvalue", he["second_eigenvalue"]],
                         ["theta", "eigenfunction"]]
                        + [[f"{th:.8g}", f"{f:.10g}"]
                           for th, f in zip(he["theta"], he["eigenfunction"])]), out)
        print(f"lowest eigenvalue {he['eigenvalue']:.6f} "
              f"(distance to cos: {he['eigenfunction_distance_to_cos']:.2e}); "
              f"wrote {out}", file=sys.stderr)
        checks = hemisphere_checks(he)
        return SuiteReport("spectral", args.seed, checks).exit_code
    if args.mode == "exclusion":
        rep = spectral_mod.exclusion_report(args.case, args.m)
        _write(json_text(rep), args.out)
        checks = exclusion_checks(rep)
        return SuiteReport("spectral", args.seed, checks).exit_code
    # ode: the solutions grow like x^(+-lambda) and e^(+-k x); beyond what
    # double precision can follow the integrator overflows and gives up,
    # which is reported as one error line
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            st = spectral_mod.radial_ode_solve(args.lam, args.k)
            [adm] = spectral_mod.radial_admissible([args.lam], args.k)
    except RuntimeError as exc:
        print(f"error: no radial solution at --lambda {args.lam:g} --k {args.k:g}: {exc}",
              file=sys.stderr)
        return 2
    _write(csv_text([["x", "a", "b"]] + [[f"{x:.8g}", f"{a:.10g}", f"{b:.10g}"]
                                         for x, a, b in zip(st.x_grid, st.a, st.b)]),
           args.out or "radial_ode.csv")
    _write(json_text({"lambda": args.lam, "k": args.k,
                  "identity_residual": st.identity_residual,
                  "admissible": adm["admissible"],
                  "exponent_at_zero": adm["exponent_at_zero"]}), None)
    return 0


FLOW_SCHEMA = {
    "N": int, "L": float, "dt": float, "steps": int, "seed": int,
    "init": dict,
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


def _finite_power(x: float, n: int) -> bool:
    """Whether x ** n is a finite double; Python raises OverflowError where
    the power overflows."""
    try:
        return math.isfinite(x ** n)
    except OverflowError:
        return False


def _load_flow_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    merged = {"L": 2 * math.pi, "seed": 0,
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
    # the flow integrates over the box volume L^3 and scales its rate
    # monitor by (2 / (3 dt))^2
    _require(_finite_power(merged["L"], 3), "L", "small enough that L^3 is a finite double",
             merged["L"])
    _require(_finite_power(2.0 / (3.0 * merged["dt"]), 2), "dt",
             "large enough that (2 / (3 dt))^2 is a finite double", merged["dt"])
    _require(1 <= merged["steps"] <= MAX_FLOW_STEPS, "steps",
             f"between 1 and {MAX_FLOW_STEPS}", merged["steps"])
    _require(merged["seed"] >= 0, "seed", ">= 0", merged["seed"])
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
                                     modes=AXIS_MODES)
    try:
        trace = run_flow(F0, FlowConfig(dt=cfg["dt"], steps=cfg["steps"]))
    except CFLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = args.out or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise Unwritable(outdir, exc) from None
    _write(trace.to_csv(), f"{outdir}/trace.csv")
    summary = trace.summary()
    summary["config"] = cfg
    summary["lojasiewicz_fit"] = lojasiewicz_fit(trace)
    # the smallest nonzero |eigenvalue| of the mode symbol, |k| 2 pi / L at |k| = 1
    summary["linear_gap"] = 2 * math.pi / cfg["L"]
    # |grad cs|^2 of the lowest mode decays at twice the stencil's k~, not 2 pi / L
    summary["predicted_linear_deficit_rate"] = 2.0 * stencil_wavenumber(F0.scheme, cfg["N"],
                                                                        cfg["L"])
    checks = flow_checks(trace)
    summary["checks"] = [c.to_dict() for c in checks]
    _write(json_text(summary), f"{outdir}/summary.json")
    print(f"wrote {outdir}/trace.csv and {outdir}/summary.json", file=sys.stderr)
    for c in checks:
        if c.status == "fail":
            print(f"check {c.check_id} failed: {c.metric:.3e} > {c.tolerance:.1e}",
                  file=sys.stderr)
    if trace.meta["status"] == "diverged":
        print(f"flow diverged at step {trace.meta['blowup_step']}", file=sys.stderr)
        return 1
    return SuiteReport("flow", cfg["seed"], checks).exit_code


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parse_args keeps
    no state between calls, each returns a fresh namespace."""
    parser = argparse.ArgumentParser(prog="kwlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in SUITE_NAMES + ("all",):
        p = sub.add_parser(name, help=f"run the {name} suite")
        p.add_argument("--seed", type=_int_in_range(0), default=0)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--table", action="store_true", help="also print a human table")
        for flag, spec in SUITE_OPTIONS.get(name, {}).items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=_cmd_suite, suite=name)

    sp = sub.choices["spectral"]
    sp.add_argument("mode", nargs="?", default=None, help="run this solver instead",
                    choices=["hardy", "hemisphere", "exclusion", "ode"])
    for mode, options in SPECTRAL_MODE_OPTIONS.items():
        for flag, spec in options.items():
            help_text = f"{mode} only, default {spec['default']}"
            if "help" in spec:
                help_text += f"; {spec['help']}"
            sp.add_argument(flag, **{**spec, "default": None, "help": help_text})
    sp.set_defaults(func=_cmd_spectral)

    fp = sub.add_parser("flow", help="run the gradient flow from a JSON config")
    fsub = fp.add_subparsers(dest="flow_cmd", required=True)
    frun = fsub.add_parser("run")
    frun.add_argument("--config", type=str, required=True)
    frun.add_argument("--out", type=str, default=None)
    frun.set_defaults(func=_cmd_flow)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["verify"]:
        del argv[0]  # `verify <suite>` is `<suite>`
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except Unwritable as exc:
        print(f"error: cannot write {exc.args[0]!r}: {exc.args[1]}", file=sys.stderr)
        code = 2
    print(f"[kwlab] total {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
