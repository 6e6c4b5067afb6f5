"""The benchmark's workloads: inputs from a seed, one timed unit, output checks.

A workload unit is what a user waits for: one verification sweep through
`kwlab.cli.main`, or one `run_flow` call.  Every unit is checked; a unit
that fails a check, or raises, is counted as failed and never dropped.

kwlab is imported inside the functions, so that importing this module costs
nothing and `setup_probe.py` can time the package import on its own.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

# Output checks of the flow workloads.
IDENTITY_TOL = 1e-3      # |dcs/dt - grad_norm_sq| / grad_norm_sq at interior steps
MONOTONE_REL_TOL = 1e-12  # allowed per-step decrease of cs, relative to max |cs|
# Output checks of the sweep's mode-space step (flow-smoke's tolerances).
DECAY_TOL = 1e-8          # |f_plus(t) - f_plus(0) e^{-t}|
FIXED_POINT_TOL = 1e-10   # Kuranishi fixed-point residual


@dataclass
class UnitResult:
    run_s: float          # wall time of the timed call
    work: int             # checks in the report, or RK4 steps
    attempted: int        # operations checked in this unit
    failed: int           # operations that failed
    notes: list = field(default_factory=list)
    ref_s: float = 0.0    # run_s in reference seconds, set by run.py


SWEEP_SUITES = ("algebra", "clifford", "model", "operator", "spectral")


class VerifySweep:
    """Every kwlab suite but flow-smoke, then one `kwlab flow run`, each one
    `kwlab.cli.main` call with the seed and an --out path; then two
    mode-space computations through kwlab.modes.

    flow-smoke is left out because its gradient_check fails on about one
    seed in five (README.md, "Known defect").  Two steps take its place:
    the flow run, with flow-smoke's abelian flow (N = 12, amplitude 0.05,
    axis modes, dt = 0.05 h, 160 steps), for the torus and flow layers; and
    flow-smoke's two mode-space computations, called through kwlab.modes.

    Operations: every check in the five reports; the flow run (its exit
    code, and flow_check_failures on the trace.csv it writes); the two
    mode-space results; and, from the second sweep on, one comparison of
    every output file with the first sweep's.
    """

    name = "verify_sweep"
    unit = "checks"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / f"verify_sweep-seed{seed}"
        self.flow_dir = self.dir / "flow"
        self.flow_config = {
            "N": 12, "dt": 0.05 * 2 * math.pi / 12, "steps": 160, "seed": seed,
            "init": {"kind": "abelian", "amplitude": 0.05}, "kmax_linear": 1,
        }
        self.config_path = self.dir / "flow-config.json"
        self.first_outputs: dict | None = None

    def build_inputs(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.flow_config) + "\n")

    def output_paths(self) -> list[Path]:
        return ([self.dir / f"{s}.json" for s in SWEEP_SUITES]
                + [self.flow_dir / "trace.csv", self.flow_dir / "summary.json"])

    def run_unit(self) -> UnitResult:
        import kwlab.cli

        for path in self.output_paths():
            path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            codes = [kwlab.cli.main(["verify", s, "--seed", str(self.seed),
                                     "--out", str(self.dir / f"{s}.json")])
                     for s in SWEEP_SUITES]
            flow_code = kwlab.cli.main(["flow", "run", "--config", str(self.config_path),
                                        "--out", str(self.flow_dir)])
        decay, contraction = self.run_modes()
        run_s = time.perf_counter() - t0

        work = attempted = failed = 0
        notes = []
        for suite, code in zip(SWEEP_SUITES, codes):
            try:
                report = json.loads((self.dir / f"{suite}.json").read_bytes())
            except (OSError, ValueError) as exc:
                attempted, failed = attempted + 1, failed + 1
                notes.append(f"{suite}: no readable report (exit {code}): {exc}")
                continue
            n_checks, n_fail = int(report["n_checks"]), int(report["n_fail"])
            work, attempted, failed = work + n_checks, attempted + n_checks, failed + n_fail
            notes += [f"check {suite}.{c['check_id']} failed"
                      for c in report["checks"] if c["status"] == "fail"]
            if code != (1 if n_fail else 0):
                attempted, failed = attempted + 1, failed + 1
                notes.append(f"{suite}: exit code {code} with {n_fail} failing checks")

        attempted += 1
        flow_notes = self.flow_failures(flow_code)
        failed += 1 if flow_notes else 0
        notes += flow_notes
        for note in self.modes_failures(decay, contraction):
            attempted, failed = attempted + 1, failed + (1 if note else 0)
            notes += [note] if note else []

        outputs = {p.name: p.read_bytes() for p in self.output_paths() if p.is_file()}
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            attempted += 1
            differ = sorted(k for k in self.first_outputs.keys() | outputs.keys()
                            if self.first_outputs.get(k) != outputs.get(k))
            if differ:
                failed += 1
                notes.append("outputs differ from the first sweep with the same seed: "
                             + ", ".join(differ))
        return UnitResult(run_s, work, attempted, failed, notes)

    def run_modes(self):
        """flow-smoke's mode-space computations: the linearized decay of a
        pure positive-symbol mode at k = (1, 0, 0), and the Kuranishi fixed
        point of a small random kernel input."""
        import numpy as np
        from kwlab.modes import (ModeVector, k_lattice, kuranishi_w, linearized_decay,
                                 random_mode_vector, symbol)

        rng = np.random.default_rng(self.seed)
        ks = k_lattice(1)
        idx = {tuple(k): i for i, k in enumerate(ks)}
        coeffs = np.zeros((len(ks), 8, 3), complex)
        evals, vecs = np.linalg.eigh(symbol(np.array([1, 0, 0])))
        vplus = vecs[:, int(np.argmax(evals))]
        amp = rng.normal(size=3) + 1j * rng.normal(size=3)
        coeffs[idx[(1, 0, 0)]] = vplus[:, None] * amp[None, :]
        coeffs[idx[(-1, 0, 0)]] = coeffs[idx[(1, 0, 0)]].conj()
        decay = linearized_decay(1, ModeVector(ks, coeffs), T=3.0, dt=0.05)
        phi = random_mode_vector(rng, 1, scale=0.01, slots=[0, 1, 2, 4, 5, 6])
        _, contraction = kuranishi_w(phi, 1)
        return decay, contraction

    @staticmethod
    def modes_failures(decay: dict, contraction: dict) -> list[str]:
        """One entry per mode-space operation: "" if it passed, else why not.
        The decay must follow e^{-t} to DECAY_TOL, and the iteration must
        contract to a fixed-point residual below FIXED_POINT_TOL."""
        import numpy as np

        fp = decay["f_plus"]
        err = float(np.max(np.abs(fp - fp[0] * np.exp(-decay["times"]))))
        ratio, residual = contraction["max_ratio"], contraction["fixed_point_residual"]
        return [
            "" if err <= DECAY_TOL else f"positive mode: decay error {err:.3e}",
            "" if ratio < 1.0 and residual < FIXED_POINT_TOL else
            f"kuranishi_w: ratio {ratio:.3f}, residual {residual:.3e}",
        ]

    def flow_failures(self, code: int) -> list[str]:
        import numpy as np

        if code != 0:
            return [f"flow run: exit code {code}"]
        try:
            with open(self.flow_dir / "trace.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            summary = json.loads((self.flow_dir / "summary.json").read_bytes())
        except (OSError, ValueError) as exc:
            return [f"flow run: unreadable output: {exc}"]
        steps = self.flow_config["steps"]
        if len(rows) != steps + 1 or summary.get("steps") != steps:
            return [f"flow run: {len(rows) - 1} trace rows for {steps} steps"]
        columns = {k: np.array([float(r[k]) for r in rows]) for k in rows[0] if k != "step"}
        return [f"flow run: {n}" for n in flow_check_failures(columns,
                                                              self.flow_config["dt"])]


class Flow:
    """One `run_flow` call on seeded initial data, then `lojasiewicz_fit` on
    its trace as `kwlab flow run` does; run_s times the `run_flow` call.

    The operation is the run; it fails unless every trace column is finite,
    cs never decreases beyond round-off relative to its scale, and the
    scale-free identity error stays within IDENTITY_TOL at interior steps.
    """

    unit = "steps"

    def __init__(self, name: str, N: int, steps: int, abelian: bool, seed: int):
        self.name = name
        self.N = N
        self.steps = steps
        self.abelian = abelian
        self.seed = seed
        self.F0 = None
        self.config = None

    def build_inputs(self) -> None:
        import numpy as np
        from kwlab.flow import FlowConfig
        from kwlab.modes import positive_spectrum_field
        from kwlab.torus import random_field

        rng = np.random.default_rng(self.seed)
        if self.abelian:
            # test_13's data: abelian positive-spectrum modes at amplitude 1e-92
            self.F0 = positive_spectrum_field(rng, self.N, 1e-92, abelian=True)
        else:
            self.F0 = random_field(rng, self.N, amplitude=1e-2)
        self.config = FlowConfig(dt=0.05 * self.F0.h, steps=self.steps)

    def run_unit(self) -> UnitResult:
        import kwlab.flow

        t0 = time.perf_counter()
        trace = kwlab.flow.run_flow(self.F0, self.config)
        run_s = time.perf_counter() - t0
        kwlab.flow.lojasiewicz_fit(trace)
        notes = flow_check_failures(
            {k: getattr(trace, k) for k in TRACE_COLUMNS}, self.config.dt)
        return UnitResult(run_s, self.steps, 1, 1 if notes else 0, notes)


TRACE_COLUMNS = ("times", "cs", "grad_norm_sq", "constraint_drift", "sup_a",
                 "energy_identity_relerr", "two_forms_relerr")


def flow_check_failures(columns: dict, dt: float) -> list[str]:
    """The output checks of a flow run, given its trace columns by name (at
    least cs and grad_norm_sq); returns one line per failed check."""
    import numpy as np

    bad = [k for k, v in columns.items() if not np.all(np.isfinite(v))]
    if bad:
        return [f"non-finite trace columns: {', '.join(bad)}"]
    out = []
    cs, g = columns["cs"], columns["grad_norm_sq"]
    decrease = float(max(0.0, -np.min(np.diff(cs))))
    scale = float(np.max(np.abs(cs)))
    if decrease > MONOTONE_REL_TOL * scale:
        out.append(f"cs decreased by {decrease:.3e} at cs scale {scale:.3e}")
    with np.errstate(divide="ignore", invalid="ignore"):
        relerr = np.abs((cs[2:] - cs[:-2]) / (2 * dt) - g[1:-1]) / g[1:-1]
    worst = float(np.max(relerr))
    if not worst <= IDENTITY_TOL:
        out.append(f"identity error {worst:.3e} exceeds {IDENTITY_TOL:g}")
    return out


def make(name: str, seed: int, workdir: Path):
    """The named workload with its inputs built from the seed."""
    if name == "verify_sweep":
        w = VerifySweep(seed, workdir)
    elif name == "flow_n16_abelian":
        w = Flow(name, N=16, steps=200, abelian=True, seed=seed)
    elif name == "flow_n32_nonabelian":
        w = Flow(name, N=32, steps=50, abelian=False, seed=seed)
    else:
        raise KeyError(name)
    w.build_inputs()
    return w
